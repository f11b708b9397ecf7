"""Command-line surface: arguments, exit codes, output determinism.

Fast commands also run as real subprocesses to cover the console script;
the expensive verify paths run in-process through main().
"""

import json
import pathlib
import subprocess
import sys

import pytest

from eistrig.cli import main

RUN = [sys.executable, "-m", "eistrig.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


# -- subprocess coverage of the entry point ---------------------------------------


def test_eval_f_prints_value_radius_and_parameters():
    proc = run_cli("eval", "f", "0.5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("f(0.5) = 9.869604401089")
    assert "Laurent route, 0 explicit pairs, D = 26" in proc.stdout and "precision = 128 bits" in proc.stdout
    # printed center must sit within the printed radius of pi^2, radius <= 1e-12
    import mpmath
    with mpmath.workdps(50):
        value_text, radius_text = proc.stdout.splitlines()[0].split(" = ")[1].split(" +/- ")
        pi_squared = mpmath.mpf("9.86960440108935861883449099987615113531369941")
        radius = mpmath.mpf(radius_text)
        assert radius <= mpmath.mpf("1e-12")
        assert abs(mpmath.mpf(value_text) - pi_squared) <= radius


#: the `eistrig eval` lines of CI's installed-entry-point step, whose output
#: tests/data/eval_golden.txt holds byte for byte
EVAL_GOLDEN_LINES = [
    ["cos", "0.37"],
    ["cos", "3+50i"],
    ["sin", "0.37", "--precision", "400", "--tolerance", "1e-100"],
    ["f", "0.3+1.8i", "--precision", "192", "--tolerance", "1e-30"],
    ["f", "0.5+20i", "--precision", "192", "--tolerance", "1e-30"],
    ["f", "0.3+4i", "--precision", "192", "--tolerance", "1e-30"],
    ["f", "0.45+6i", "--precision", "400", "--tolerance", "1e-100"],
    ["f", "0.3+9i", "--precision", "1100", "--tolerance", "1e-300"],
    ["g", "0.3"],
    ["zeta", "4"],
]


def test_eval_prints_its_golden_file(capsys):
    for args in EVAL_GOLDEN_LINES:
        assert main(["eval", *args]) == 0
    golden = pathlib.Path(__file__).resolve().parent / "data" / "eval_golden.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_eval_cos_zero_is_exact():
    proc = run_cli("eval", "cos", "0")
    assert proc.returncode == 0
    assert "cos(0) = 1.0 +/- 0.0" in proc.stdout


def test_eval_at_a_pole_exits_3():
    proc = run_cli("eval", "f", "1.0")
    assert proc.returncode == 3
    assert "pole" in proc.stderr


def test_eval_g_out_of_reach_exits_5():
    # |g(0.5+40i)| ~ 1e109: 128 bits cannot carry it to an absolute 1e-12
    proc = run_cli("eval", "g", "0.5+40i")
    assert proc.returncode == 5
    assert "tolerance" in proc.stderr


def test_eval_cos_high_in_the_strip_exits_5():
    # at Im z = 70 one ulp of |cos z| ~ 1e30 at 128 bits already exceeds the
    # tolerance
    proc = run_cli("eval", "cos", "3+70i")
    assert proc.returncode == 5
    assert "tolerance" in proc.stderr


@pytest.mark.parametrize("function, point, printed", [
    ("sin", "3+70i", "3.0 + 70.0j"), ("cos", "3+70i", "3.0 + 70.0j"),
    ("cos", "0.5+400i", "0.5 + 400.0j"), ("cos", "3+200i", "3.0 + 200.0j"),
], ids=["sin", "cos", "cos-0.5+400i", "cos-3+200i"])
def test_eval_trig_off_the_axis_exits_5(function, point, printed):
    # at Im z = 70, past the rounding limit of 128 bits, the call cannot meet
    # the tolerance, and higher up the reciprocal of f cannot be taken; the
    # message names the call, its point and its tolerance
    proc = run_cli("eval", function, point)
    assert proc.returncode == 5
    assert f"{function}({printed}) cannot be certified to tolerance 1.0e-12" in proc.stderr


def test_eval_rejects_garbage_with_exit_2():
    assert run_cli("eval", "f", "spam").returncode == 2
    assert run_cli("eval", "zeta", "3").returncode == 2
    assert run_cli("eval", "nosuch", "1").returncode == 2
    assert run_cli("eval", "f", "1/0").returncode == 2
    assert run_cli("eval", "f", "0.3", "--tolerance", "1/0").returncode == 2


@pytest.mark.parametrize("point", ["inf", "Infinity", "1+nani"])
def test_eval_rejects_a_non_finite_point_with_exit_2(point):
    proc = run_cli("eval", "f", point)
    assert proc.returncode == 2
    assert "non-finite point" in proc.stderr


def test_eval_zeta_four_prints_a_ball_around_zeta_four():
    proc = run_cli("eval", "zeta", "4", "--tolerance", "1e-20")
    assert proc.returncode == 0
    import mpmath
    with mpmath.workdps(50):
        value_text, radius_text = proc.stdout.splitlines()[0].split(" = ")[1].split(" +/- ")
        zeta4 = mpmath.mpf("1.08232323371113819151600369654116790277475095")
        radius = mpmath.mpf(radius_text)
        assert radius <= mpmath.mpf("1e-20")
        assert abs(mpmath.mpf(value_text) - zeta4) <= radius


@pytest.mark.parametrize("point, expected", [
    pytest.param(point, expected, id=point) for point, expected in (
        ("0.3", "Laurent route, 0 explicit pairs"), ("0.3+1.8i", "Laurent route, 3 explicit pairs"),
        ("0.3+4i", "lattice route"), ("0.5+40i", "strip remainder"))])
def test_eval_prints_the_truncation_the_lattice_sum_uses(point, expected, capsys, monkeypatch):
    # the printed route and size are the ones the pass ran with
    from eistrig import PrecisionContext, lattice
    from eistrig.lattice import pass_size, reduce_point
    ran = []
    real_laurent, real_lattice, real_strip = (lattice._laurent_sums, lattice._lattice_sums,
                                              lattice._strip_sums)

    def laurent(exponents, ur, ui, P, i, degrees, tails):
        ran.append(("Laurent", (1 << i) - 1, degrees[0]))
        return real_laurent(exponents, ur, ui, P, i, degrees, tails)

    def lattice_sums(exponents, ur, ui, N, P, limits):
        ran.append(("lattice", N, N))
        return real_lattice(exponents, ur, ui, N, P, limits)

    def strip(exponents, u, P, orders):
        ran.append(("strip", 0, orders[0][1]))
        return real_strip(exponents, u, P, orders)

    monkeypatch.setattr(lattice, "_laurent_sums", laurent)
    monkeypatch.setattr(lattice, "_lattice_sums", lattice_sums)
    monkeypatch.setattr(lattice, "_strip_sums", strip)
    assert main(["eval", "f", point]) == 0
    ctx = PrecisionContext()
    route, pairs, size = pass_size(reduce_point(point, ctx), ctx.mp.mag(ctx.tolerance) - 1)
    assert ran == [(route, pairs, size)]
    out = capsys.readouterr().out
    assert f"parameters: {expected}" in out
    label = {"Laurent": "D", "strip": "m", "lattice": "N"}[route]
    assert f"{label} = {size}," in out


def test_eval_f_far_up_the_strip_returns_the_zero_ball():
    # the strip remainder bounds f at 1e400i far below any tolerance
    proc = run_cli("eval", "f", "0.5+1e400i")
    assert proc.returncode == 0
    assert proc.stdout.startswith("f(0.5+1e400i) = 0.0 +/- ")
    assert "strip remainder" in proc.stdout


def test_eval_g_names_the_radius_it_compared():
    # |g| ~ 1.4e31 at 0.5+12i: one ulp at 128 bits exceeds the tolerance, and
    # the message prints the radius with that rounding allowance
    import mpmath
    proc = run_cli("eval", "g", "0.5+12i")
    assert proc.returncode == 5
    radius = proc.stderr.split("keeps radii ")[1].split(" at ")[0]
    assert mpmath.mpf(radius) > mpmath.mpf("1e-12")


def test_expand_outputs_are_byte_exact():
    assert run_cli("expand", "f", "4").stdout == "z^-2 + a0 + a1 z^2 + a2 z^4\n"
    assert run_cli("expand", "comb2", "6").stdout == \
        "(6 a0^2 - 10 a1) + (-6 a1^2 + 18 a3) z^4\n"
    qp = run_cli("expand", "qpolys", "2").stdout
    assert qp == "q1 = 6 w^2 - 12 a0 w\nq2 = 120 w^3 - 360 a0 w^2 + 144 a0^2 w\n"


def test_expand_rejects_odd_or_oversized_orders():
    assert run_cli("expand", "f", "5").returncode == 2
    assert run_cli("expand", "f", "18").returncode == 2
    assert run_cli("expand", "qpolys", "0").returncode == 2


def test_table_writes_csv_and_reports_io_failures(tmp_path):
    out = tmp_path / "conv.csv"
    proc = run_cli("table", "convergence", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("N,value,tail_bound,abs_error_vs_ref")
    assert run_cli("table", "convergence", "--out",
                   str(tmp_path / "nodir" / "x.csv")).returncode == 4


def test_tables_print_their_golden_files(capsys):
    # tests/data/table_<kind>.csv holds `eistrig table <kind>` byte for byte
    data = pathlib.Path(__file__).resolve().parent / "data"
    for kind in ("strip_decay", "convergence", "route_error"):
        assert main(["table", kind]) == 0
        golden = data / f"table_{kind}.csv"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8"), kind


def test_table_is_deterministic():
    a = run_cli("table", "convergence").stdout
    b = run_cli("table", "convergence").stdout
    assert a == b and a


# -- in-process verify (shares warmed caches) --------------------------------------


def verify_args(*extra):
    return ["verify", "--order", "6", *extra]


def test_verify_misconfiguration_exits_2(capsys):
    assert main(["verify", "--order", "7"]) == 2
    assert main(["verify", "--tolerance", "bogus"]) == 2
    capsys.readouterr()


def test_verify_text_format_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["verify", "--format", "text", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert "suite: PASS" in text and "pi_reference" in text


def test_verify_json_report_round_trips(capsys):
    code = main(["verify"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["suite_status"] == "pass"
    assert len(data["checks"]) == 12
