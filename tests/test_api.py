"""The public surface: every exported name resolves and every demo runs."""

import os
import pathlib
import subprocess
import sys

import pytest

import eistrig

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in eistrig.__all__ if not hasattr(eistrig, name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    src = str(pathlib.Path(eistrig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter, with eistrig on
    the path (pytest has already imported dataclasses and much else here)."""
    src = str(pathlib.Path(eistrig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(statements: str) -> set:
    """The modules that statements load in a fresh interpreter, beyond the
    ones the interpreter had loaded before them; standard output is kept
    for the module list alone."""
    code = ("import contextlib, io, sys\nbefore = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    {line}\n" for line in statements.splitlines())
            + "print(' '.join(sorted(set(sys.modules) - before)))")
    return set(_fresh(code).split())


def test_importing_the_package_loads_only_the_errors():
    loaded = _loaded_by("import eistrig")
    assert {m for m in loaded if m.startswith("eistrig")} == {"eistrig", "eistrig.errors"}
    assert not {m for m in loaded if m.startswith(("mpmath", "dataclasses"))}


def test_eval_loads_neither_verify_nor_the_symbolic_layers():
    loaded = _loaded_by("from eistrig.cli import main\nmain(['eval', 'cos', '0.37'])")
    assert "eistrig.trig" in loaded
    assert not loaded & {"dataclasses", "csv", "eistrig.verify", "eistrig.laurent",
                         "eistrig.sympoly"}


def test_a_default_verify_loads_no_dataclasses():
    loaded = _loaded_by("from eistrig.cli import main\nmain(['verify'])")
    assert "eistrig.verify" in loaded
    assert "dataclasses" not in loaded


def test_the_lazy_package_serves_every_name_and_submodule():
    out = _fresh("from eistrig import *\n"
                 "import eistrig\n"
                 "assert all(name in globals() for name in eistrig.__all__)\n"
                 "assert set(eistrig.__all__) <= set(dir(eistrig))\n"
                 "print(eistrig.lattice.eisenstein_k.__module__)")
    assert out == "eistrig.lattice\n"
    with pytest.raises(AttributeError):
        eistrig.no_such_name


# -- no mpmath on the evaluation path -------------------------------------------

_LATTICE_CALLS = """\
from eistrig import PrecisionContext
from eistrig.lattice import eisenstein_k
ctx = PrecisionContext(192, "1e-30")
balls = [eisenstein_k(k, z, ctx) for k in (2, 3, 4) for z in (0.37, 0.3+0.9j, -12.6+17.5j)]
"""

_TRIG_CALLS = """\
from eistrig import PrecisionContext
from eistrig.trig import cosine, evaluator, g_eval, sine
ctx = PrecisionContext(128, "1e-12")
evaluator(ctx)
balls = [f(z, ctx) for f in (cosine, sine, g_eval) for z in (1.0, -3.25+0.5j, 0)]
"""


@pytest.mark.parametrize("calls", [_LATTICE_CALLS, _TRIG_CALLS], ids=["lattice", "trig"])
def test_an_evaluation_loads_no_mpmath(calls):
    loaded = _loaded_by(calls)
    assert "eistrig.fixedpoint" in loaded
    assert not {m for m in loaded if m.startswith("mpmath")}


def test_reading_a_ball_loads_mpmath_and_gives_the_mpf_of_its_tuples():
    # the reprs are those of the balls that mpmath's from_man_exp rounded
    out = _fresh(_LATTICE_CALLS + _TRIG_CALLS.replace("balls =", "trig_balls =") + """\
import sys
assert not any(m.startswith("mpmath") for m in sys.modules)
for bv in (balls[4], trig_balls[3]):
    print(repr(bv.value))
    print(repr(bv.radius))
assert "mpmath" in sys.modules
""")
    assert out.splitlines() == [
        "mpc(real='-0.409293068896741708353085458888630430252597518017141898236582', "
        "imag='-0.139036364203562245546472630281575834150826805179336155968403')",
        "mpf('1.97218940867401549781457322528154179714643515760415150989138e-31')",
        "mpf('0.84147098480789654252510231123701249755265')",
        "mpf('4.2222868533899508065969628603312640328349e-16')",
    ]
