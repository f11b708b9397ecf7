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
