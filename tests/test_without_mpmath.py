"""Every command and every error text with mpmath blocked.

mpmath is an optional dependency, needed only for the mpf views of the API
(a ball's value and radius, a context's tolerance, eps, mp and point).  Each
command here runs in a fresh interpreter where `import mpmath` fails
(sys.modules["mpmath"] = None), and prints what its golden file holds, or
what the same command prints in this process, where mpmath can be imported.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import eistrig
from eistrig.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = str(pathlib.Path(eistrig.__file__).resolve().parent.parent)

#: the tier-1 CI's `eistrig eval` lines; tests/data/eval_golden.txt holds
#: their output, two lines each, in this order
EVAL_LINES = [
    "cos 0.37", "cos 3+50i", "sin 0.37 --precision 400 --tolerance 1e-100",
    "f 0.3+1.8i --precision 192 --tolerance 1e-30", "f 0.5+20i --precision 192 --tolerance 1e-30",
    "f 0.3+4i --precision 192 --tolerance 1e-30", "f 0.45+6i --precision 400 --tolerance 1e-100",
    "f 0.3+9i --precision 1100 --tolerance 1e-300", "g 0.3", "zeta 4",
]


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """code run with argv in a fresh interpreter where mpmath cannot be
    imported, with eistrig on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", 'import sys; sys.modules["mpmath"] = None\n' + code,
                           *argv], capture_output=True, text=True, env=env, timeout=300)


def blocked(command: str) -> tuple:
    """(exit code, stdout, stderr) of `eistrig command` with mpmath blocked."""
    proc = _fresh("from eistrig.cli import main; sys.exit(main(sys.argv[1:]))", *command.split())
    return proc.returncode, proc.stdout, proc.stderr


def here(command: str) -> tuple:
    """(exit code, stdout, stderr) of `eistrig command` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue(), err.getvalue()


def _undated(text: str) -> str:
    """A report without its generated_at field, which changes every run."""
    if text.startswith("{"):
        report = json.loads(text)
        del report["generated_at"]
        return json.dumps(report, indent=2) + "\n"
    return "".join(line for line in text.splitlines(True) if not line.startswith("generated_at"))


@pytest.mark.parametrize("index", range(len(EVAL_LINES)), ids=EVAL_LINES.__getitem__)
def test_the_ci_eval_lines_print_their_golden_lines(index):
    golden = (DATA / "eval_golden.txt").read_text(encoding="utf-8").splitlines(True)
    assert blocked("eval " + EVAL_LINES[index]) == (0, "".join(golden[2 * index:2 * index + 2]), "")


@pytest.mark.parametrize("kind", ["strip_decay", "convergence", "route_error"])
def test_the_tables_print_their_golden_files(kind):
    assert blocked(f"table {kind}") == (0, (DATA / f"table_{kind}.csv").read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("command, golden", [
    ("verify --format json", "verify_128_1e-12.json"),
    ("verify --precision 192 --tolerance 1e-30 --format json", "verify_192_1e-30.json"),
])
def test_the_verify_reports_are_their_golden_files(command, golden):
    code, out, err = blocked(command)
    assert (code, err) == (0, "")
    assert _undated(out) == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("command, code", [
    ("verify --format text", 0), ("verify --self-contained", 0),
    ("verify --perturb-a0 1e-20 --format text", 1),
    ("expand comb2 8", 0), ("expand qpolys 3", 0),
    ("eval cos 0.37 --precision 1800 --tolerance 1e-500", 0),
])
def test_the_other_commands_print_what_they_print_with_mpmath(command, code):
    got, want = blocked(command), here(command)
    assert got[0] == want[0] == code
    assert (_undated(got[1]), got[2]) == (_undated(want[1]), want[2])


@pytest.mark.parametrize("command, code, message", [
    ("eval cos 1e80", 5, "cos(1.0e+80) cannot be certified to tolerance 1.0e-12 at 128 bits"),
    ("eval f 1e-40", 3,
     "the reduced point 1.0e-40 is within the pole guard (10 ulp = 5.88e-38) of an integer"),
])
def test_a_failing_command_prints_its_error_without_mpmath(command, code, message):
    assert blocked(command) == (code, "", f"eistrig: {message}\n")


_FAILING_CALLS = """\
from fractions import Fraction
from eistrig import PrecisionContext
from eistrig.lattice import eisenstein_k, fixed_jet, reduce_point, strip_decay
from eistrig.trig import cosine, g_eval, reciprocal_ode_residual, sine, taylor_cosine
from eistrig.zetasums import zeta_even
ctx = PrecisionContext(128, "1e-12")
calls = [
    lambda: cosine(1e80, ctx), lambda: sine(3 + 100j, ctx),
    lambda: cosine(0.5 + 400j, ctx), lambda: cosine(3 + 200j, ctx),
    lambda: eisenstein_k(2, 1e-27, PrecisionContext(128, "1e-27")),
    lambda: eisenstein_k(2, "1e-40", ctx), lambda: reciprocal_ode_residual("1e-40", ctx),
    lambda: fixed_jet(reduce_point("0.001", ctx), ctx, [-40], 1 << 200),
    lambda: strip_decay((100000,), Fraction(1, 2), ctx),
    lambda: taylor_cosine(5, ctx), lambda: taylor_cosine(3 + 4.5j, ctx),
    lambda: reciprocal_ode_residual(0.3 + 40j, ctx), lambda: g_eval(0.5 + 40j, ctx),
]
PrecisionContext.meets = lambda self, bv: False  # every radius refused
calls += [lambda: taylor_cosine(1.0, ctx), lambda: taylor_cosine(0.5 - 1.25j, ctx),
          lambda: zeta_even(1, ctx)]
for call in calls:
    try:
        call()
    except Exception as exc:
        cause = exc.__cause__
        print(type(exc).__name__, exc, "<-", cause and type(cause).__name__)
print(repr(ctx), repr(PrecisionContext(128, "1/3")))
"""


def test_every_error_text_is_printed_without_mpmath():
    # the texts mpmath's nstr printed, byte for byte; a reciprocal that cannot
    # be taken names its call too, chained from the reciprocal's error
    proc = _fresh(_FAILING_CALLS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ToleranceUnreachableError cos(1.0e+80) cannot be certified to tolerance 1.0e-12 at 128 bits"
        " <- ToleranceUnreachableError",
        "ToleranceUnreachableError sin(3.0 + 100.0j) cannot be certified to tolerance 1.0e-12 at 128 bits"
        " <- ToleranceUnreachableError",
        "ToleranceUnreachableError cos(0.5 + 400.0j) cannot be certified to tolerance 1.0e-12 at 128 bits"
        " <- InconclusiveNonvanishingError",
        "ToleranceUnreachableError cos(3.0 + 200.0j) cannot be certified to tolerance 1.0e-12 at 128 bits"
        " <- InconclusiveNonvanishingError",
        "ToleranceUnreachableError eisenstein_k(k=2) rounds to radius 5.88e+15 at 128 bits, above"
        " tolerance 1.0e-27 <- None",
        "PoleProximityError the reduced point 1.0e-40 is within the pole guard (10 ulp = 5.88e-38)"
        " of an integer <- None",
        "PoleProximityError g'' at 1.0e-40 is within the pole guard of an integer <- None",
        "PoleProximityError the disc of radius 9.22e+18 about 0.001 reaches an integer <- None",
        "InconclusiveNonvanishingError |f((0.5 + 100000.0j))| stayed within its radius down to"
        " target 2^-4384 <- None",
        "ValueError taylor_cosine is restricted to |z| <= 4, got |z| = 5.0 <- None",
        "ValueError taylor_cosine is restricted to |z| <= 4, got |z| = 5.40833 <- None",
        "ToleranceUnreachableError the reciprocal ODE residual at (0.3 + 40.0j) keeps radius 1.39e+24,"
        " above tolerance 1.0e-12 <- None",
        "ToleranceUnreachableError the g jet at (0.5 + 40.0j) keeps radii 2.1e+69 at 128 bits, above"
        " tolerances 2^-40 <- None",
        "ToleranceUnreachableError taylor_cosine(1.0) keeps radius 9.56e-14 at 128 bits, above"
        " tolerance 1.0e-12 <- None",
        "ToleranceUnreachableError taylor_cosine((0.5 - 1.25j)) keeps radius 9.1e-14 at 128 bits,"
        " above tolerance 1.0e-12 <- None",
        "ToleranceUnreachableError zeta_even(m=1) achieved radius 1.0164e-20 > tolerance <- None",
        "PrecisionContext(precision=128, tolerance=1.0e-12) PrecisionContext(precision=128,"
        " tolerance=0.33333333)",
    ]


def test_an_mpf_view_without_mpmath_names_the_extra():
    proc = _fresh("from eistrig import PrecisionContext\n"
                  "try:\n"
                  "    PrecisionContext().ball(1).value\n"
                  "except ImportError as exc:\n"
                  "    print(exc)\n")
    assert "pip install 'eistrig[mpmath]'" in proc.stdout
