"""Mutation check of the counted rounding allowances.

Each mutant makes one or two textual edits to src/eistrig that shrink an
error count: a rounding unit dropped, a propagated term or a bound cut.  For
each mutant the script copies src/ and tests/ into a temporary directory,
applies the edits there, runs the tier-1 suite on the copy (stopping at the
first failure), and prints whether some test fails (caught) or every test
passes (survived).  The golden-report tests are left out: a golden file
tells any change of a digit from the committed one, so it cannot tell a
count that is too small from one that is sound.  The checkout itself is
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

#: the golden-report tests, which every changed digit fails
GOLDEN = "tests/test_verify.py::test_default_report_matches_its_golden_file"

#: name -> [(file under src/eistrig, text, replacement)]
MUTANTS = {
    # the Horner and table counts of the Laurent route halved, and its last
    # truncation unit dropped
    "laurent_counts_halved": [(
        "lattice.py",
        "err = (-(-(2 * D * ec * 3**k + 2 * zerr * 8**k) // (3**k << d + k * i)) + ec + herr",
        "err = (-(-(D * ec * 3**k + zerr * 8**k) // (3**k << d + k * i)) + herr")],
    "laurent_tail_bound_dropped": [(
        "lattice.py",
        "               + (1 << P + e - (k - 1) * i))",
        "               + 0)")],
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
    # the final round-up of a rounded g jet radius dropped
    "g_jet_round_up_dropped": [(
        "trig.py",
        "            err -= -err >> prec - 1\n",
        "")],
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
    # the counts of the heads b^(1-s)/(s-1) + b^-s/2 and v_1 from powers of 1/b halved
    "em_head_counts_halved": [
        ("zetasums.py",
         "acc_err = -(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec",
         "acc_err = (-(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec) // 2"),
        ("zetasums.py",
         "err = -(-s * (s + 1) * ec * Ms * M * M // (12 << sh + P)) + ec",
         "err = (-(-s * (s + 1) * ec * Ms * M * M // (12 << sh + P)) + ec) // 2")],
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
                               "--deselect", GOLDEN, "tests"],
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
