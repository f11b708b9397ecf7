"""Command-line surface: arguments, exit codes, output determinism.

Fast commands also run as real subprocesses to cover the console script;
the expensive verify paths run in-process through main().
"""

import json
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
    assert "N = 8" in proc.stdout and "precision = 128 bits" in proc.stdout
    # printed center must sit within the printed radius of pi^2, radius <= 1e-12
    import mpmath
    with mpmath.workdps(50):
        value_text, radius_text = proc.stdout.splitlines()[0].split(" = ")[1].split(" +/- ")
        pi_squared = mpmath.mpf("9.86960440108935861883449099987615113531369941")
        radius = mpmath.mpf(radius_text)
        assert radius <= mpmath.mpf("1e-12")
        assert abs(mpmath.mpf(value_text) - pi_squared) <= radius


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
    # cos reaches g(z / 2 pi) at tolerance / 160; at Im z = 70 one ulp of
    # |g| ~ 6e28 already exceeds it
    proc = run_cli("eval", "cos", "3+70i")
    assert proc.returncode == 5
    assert "tolerance" in proc.stderr


def test_eval_rejects_garbage_with_exit_2():
    assert run_cli("eval", "f", "spam").returncode == 2
    assert run_cli("eval", "zeta", "3").returncode == 2
    assert run_cli("eval", "nosuch", "1").returncode == 2


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


@pytest.mark.parametrize("point", ["0.3", "0.5+40i"])
def test_eval_prints_the_truncation_the_lattice_sum_uses(point):
    from eistrig import PrecisionContext
    from eistrig.lattice import pole_distance, truncation_n
    proc = run_cli("eval", "f", point)
    assert proc.returncode == 0
    ctx = PrecisionContext()
    expected = truncation_n(pole_distance(point, ctx)[0], ctx)
    assert f"parameters: N = {expected}," in proc.stdout
    # high in the strip the tails alone reach the tolerance
    assert (expected == 0) == (point == "0.5+40i")


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
