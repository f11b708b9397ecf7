"""Mutation check of the counted rounding allowances and the printer.

Each mutant makes one or two textual edits to src/eistrig that shrink an
error count (a rounding unit dropped, a propagated term or a bound cut) or
turn a rounding the wrong way, in a count or in the decimals the printing
module prints.  For
each mutant the script copies src/ and tests/ into a temporary directory,
applies the edits there, runs the tier-1 suite on the copy (stopping at the
first failure), and prints whether some test fails (caught) or every test
passes (survived).  The golden tests are left out: a golden file tells
any change of a digit from the committed one, so it cannot tell a count
that is too small from one that is sound.  The checkout itself is
never changed.

Run from the root of a checkout, for every mutant or for some by name:

    python tests/mutants.py
    python tests/mutants.py pair_propagation_halved em_head_counts_halved

Each mutant costs up to one tier-1 run (about 25 s on a 2-core machine).
pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the golden tests, which every changed digit fails: the verify reports, the
#: `eistrig eval` lines, the three tables, the reprs of two balls, and the
#: same outputs and the error texts with mpmath blocked
GOLDEN = ("tests/test_verify.py::test_default_report_matches_its_golden_file",
          "tests/test_cli.py::test_eval_prints_its_golden_file",
          "tests/test_cli.py::test_tables_print_their_golden_files",
          "tests/test_api.py::test_reading_a_ball_loads_mpmath_and_gives_the_mpf_of_its_tuples",
          "tests/test_without_mpmath.py::test_the_ci_eval_lines_print_their_golden_lines",
          "tests/test_without_mpmath.py::test_the_tables_print_their_golden_files",
          "tests/test_without_mpmath.py::test_the_verify_reports_are_their_golden_files",
          "tests/test_without_mpmath.py::test_a_failing_command_prints_its_error_without_mpmath",
          "tests/test_without_mpmath.py::test_every_error_text_is_printed_without_mpmath")

#: name -> [(file under src/eistrig, text, replacement)]
MUTANTS = {
    # the kernel and table counts of a Laurent row halved
    "laurent_counts_halved": [(
        "lattice.py",
        "return re, im, h - (-zerr * 8**k // 3**k)",
        "return re, im, (h - (-zerr * 8**k // 3**k)) // 2")],
    # the rounding count of the series kernel halved: Horner's rule for a real
    # x, the two-multiply recurrence for a complex x
    "horner_count_halved": [(
        "fixedpoint.py",
        "return s, 0, geometric(abs(xr), div << shift, n - 1)",
        "return s, 0, geometric(abs(xr), div << shift, n - 1) // 2")],
    "recurrence_count_halved": [(
        "fixedpoint.py",
        "return re, z >> shift if z >= 0 else -(-z >> shift), 2 * G",
        "return re, z >> shift if z >= 0 else -(-z >> shift), G")],
    # the bound 2 of a geometric sum with ratio at most 1/2 taken as 1
    "geometric_bound_halved": [(
        "fixedpoint.py",
        "        return 2\n",
        "        return 1\n")],
    # every Horner row coefficient read one table entry off: Z_i(k+j+2) for Z_i(k+j)
    "horner_row_one_entry_off": [(
        "lattice.py",
        "zetas[(k + j) // 2 - 1] for j in range(k % 2, 2 * len(zetas) - k + 1, 2)]",
        "zetas[(k + j) // 2] for j in range(k % 2, 2 * len(zetas) - k - 1, 2)]")],
    # a Horner row kept for its (i, k) after its table was regrown or replaced
    "horner_row_kept_across_tables": [(
        "lattice.py",
        "if held is not None and held[0] is zetas:",
        "if held is not None:")],
    "laurent_tail_bound_dropped": [(
        "lattice.py",
        "err = -(-2 * h >> d + k * i) + ec + herr + (1 << P + e - (k - 1) * i)",
        "err = -(-2 * h >> d + k * i) + ec + herr")],
    # the charge for moving u to 2^-P divided by 8, without its constant term
    "move_charge_cut": [(
        "lattice.py",
        "return -(-(2 * k << P * (k + 1)) // D ** (k + 1)) + (2 * k << k + 3)",
        "return -(-(2 * k << P * (k + 1)) // D ** (k + 1)) // 8")],
    "strip_radius_quartered": [(
        "lattice.py",
        "out.append((0, 0, -(-(num << max(0, x)) // (den << max(0, -x)))))",
        "out.append((0, 0, -(-(num << max(0, x)) // (den << max(0, -x))) // 4))")],
    "disc_widening_quartered": [(
        "lattice.py",
        "k, c = i + 3, math.factorial(i + 2) * R",
        "k, c = i + 3, math.factorial(i + 2) * R // 4")],
    "zeta_table_head_count_dropped": [(
        "zetasums.py",
        "err, head = 1, 3 * (a - L - 1)",
        "err, head = 1, 0")],
    # the 1-2 truncation units of R = |z / 2 pi - w| dropped
    "reduced_w_units_dropped": [(
        "trig.py",
        "R = -(-(abs(zr) + abs(zi)) * eh >> Z) + (2 if zi else 1)",
        "R = -(-(abs(zr) + abs(zi)) * eh >> Z)")],
    # the steering bound 2^F0 >= |f| + 1 of lattice.jet_bounds one bit too small
    "jet_f_bound_lowered": [(
        "lattice.py",
        "return min(-2 * m, decay), max(-2 * lo, 5) + 1, ",
        "return min(-2 * m, decay), max(-2 * lo, 5), ")],
    # the round-up of the radius dropped from the count that holds a ball
    # rounded by to_ball (the g jet's test of g_eval's ball)
    "g_jet_round_up_dropped": [(
        "fixedpoint.py",
        "    return err - (-err >> prec - 1)\n",
        "    return err\n")],
    "g2_numerator_count_cut": [(
        "trig.py",
        "numerators.append((2 * ar - br, 2 * ai - bi, 2 * ea + eb))",
        "numerators.append((2 * ar - br, 2 * ai - bi, 2 * ea))")],
    # the counts of the pairs summed from r = 1/(u - n): the propagated
    # k M^(k-1) e halved, and the unit of the one truncation dropped
    "pair_propagation_halved": [(
        "lattice.py",
        "err - (-T * ec * k * M ** (k - 1) >> s) + ec)",
        "err - (-T * ec * k * M ** (k - 1) // 2 >> s) + ec)")],
    "pair_truncation_unit_dropped": [(
        "lattice.py",
        "err - (-T * ec * k * M ** (k - 1) >> s) + ec)",
        "err - (-T * ec * k * M ** (k - 1) >> s))")],
    # the unit of zeta_fixed's truncation from the table's scale to 2^-P
    # dropped, and the unit that holds zeta(2m) - 1 for 2m > P
    "zeta_fixed_unit_dropped": [(
        "zetasums.py",
        "return values[m - 1] >> q - P, -(-err >> q - P) + 1",
        "return values[m - 1] >> q - P, -(-err >> q - P)")],
    "zeta_fixed_far_unit_dropped": [(
        "zetasums.py",
        "        return 1 << P, 1\n",
        "        return 1 << P, 0\n")],
    # the count of the heads b^(1-s)/(s-1) + b^-s/2 from powers of 1/b halved
    "em_head_counts_halved": [(
        "zetasums.py",
        "acc_err = -(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec",
        "acc_err = (-(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec) // 2")],
    # the Euler-Maclaurin tail polynomial: the count of its table entries
    # dropped, the count of the truncation of x = b^-2 dropped, the propagated
    # error of w^(s+1) dropped, and the count of the real tail's division
    # halved
    "em_table_count_dropped": [(
        "zetasums.py",
        "E += ec * G - (-ec * D >> P)",
        "E += -(-ec * D >> P)")],
    "em_slope_count_dropped": [(
        "zetasums.py",
        "E += ec * G - (-ec * D >> P)",
        "E += ec * G")],
    "em_power_count_dropped": [(
        "zetasums.py",
        "ec * (s + 1) * Ms * M * M * (abs(Sr) + abs(Si) + E)",
        "0 * E")],
    "em_real_tail_count_halved": [(
        "zetasums.py",
        "acc_err += -(-(E << u) // d) + 1",
        "acc_err += -(-(E << u) // d) // 2")],
    # the weights j of |p'| and the geometric weight of the table dropped in
    # the order cell
    "em_slope_weights_dropped": [(
        "zetasums.py",
        "(abs(c[1]) + 1) * (m - 1) * (m - 2) // 2 if m > 2 else 0",
        "abs(c[1]) + 1 if m > 2 else 0")],
    "em_table_weight_dropped": [(
        "zetasums.py",
        "return m, geometric(num, den, m - 1), ",
        "return m, 1, ")],
    # the lower end M / (M(M+1) + y^2) of the strip majorant's tail rounded up
    "majorant_tail_low_rounded_up": [(
        "lattice.py",
        "low += 2 * (M * one // ((M * (M + 1) << 2 * P) + y2))",
        "low += 2 * -(-M * one // ((M * (M + 1) << 2 * P) + y2))")],
    # every Euler-Maclaurin coefficient c_j read with (s)_(2j) for (s)_(2j-1)
    "em_coefficients_one_factor_off": [(
        "zetasums.py",
        "c = (abs(n) * comb(s + 2 * j - 2, s - 1) << Q) // d",
        "c = (abs(n) * comb(s + 2 * j - 1, s - 1) << Q) // d")],
    # the radius of a ball leaving the kernel rounded down (toward zero) to
    # the precision, not up
    "ball_radius_rounded_down": [(
        "fixedpoint.py",
        'radius = dyadic(err + rounding_allowance(re, im, prec), -P, prec, "u")',
        'radius = dyadic(err + rounding_allowance(re, im, prec), -P, prec, "d")')],
    # the closed-form tail of plain symmetric truncation counted rounded down
    "naive_tail_count_floored": [(
        "lattice.py",
        "return -(-(1 << P + k) // ((2 * N - 1) ** (k - 1) * (k - 1)))",
        "return (1 << P + k) // ((2 * N - 1) ** (k - 1) * (k - 1))")],
    # the decimal reader's half-way case rounded away from zero, not to even
    "reader_ties_away_from_even": [(
        "precision.py",
        "if low > half or low == half and x & 1:",
        "if low >= half:")],
    # the printer's round-up at the last digit missing its half-way case, 5
    "printer_ties_rounded_down": [(
        "printing.py",
        'if len(digits) > dps and digits[dps] in "56789":',
        'if len(digits) > dps and digits[dps] in "6789":')],
    # a ratio 'p/q' read rounded toward zero, not to nearest
    "reader_ratio_rounded_down": [(
        "precision.py",
        "return _quotient(-p if q < 0 else p, abs(q), prec)",
        'return _quotient(-p if q < 0 else p, abs(q), prec, 0, "d")')],
    # above |exp + bc| = 3500 the printer divides by one power of ten too few
    "printer_big_exponent_off_by_one": [(
        "printing.py",
        '_, man, exp, bc = _scaled(man, exp, -b, bitprec, "d")',
        '_, man, exp, bc = _scaled(man, exp, 1 - b, bitprec, "d")')],
    # the sum of squares under the modulus of a complex ball rounded up, not down
    "modulus_sum_rounded_up": [(
        "printing.py",
        '2 * (ae if far else be), prec + 4, "d")',
        '2 * (ae if far else be), prec + 4, "u")')],
}


def run(name: str) -> str | None:
    """The first tier-1 test that fails on the mutant, or None."""
    with tempfile.TemporaryDirectory(prefix="eistrig-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src")
        shutil.copytree(ROOT / "tests", copy / "tests")
        shutil.copy(ROOT / "pyproject.toml", copy)
        for file, text, replacement in MUTANTS[name]:
            path = copy / "src" / "eistrig" / file
            source = path.read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{name}: the text to mutate is not found once in {file}")
            path.write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *(f"--deselect={test}" for test in GOLDEN), "tests"],
                              cwd=copy, env=env, capture_output=True, text=True)
        if done.returncode == 0:
            return None
        failed = [line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))]
        return failed[0] if failed else f"exit {done.returncode}"


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}")
    survivors = 0
    for name in names or MUTANTS:
        failed = run(name)
        survivors += failed is None
        print(f"{name:32s} {f'caught by {failed}' if failed else 'SURVIVED'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
