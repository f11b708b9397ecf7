"""Tests of the benchmark itself: its oracles, how it counts failures, and
that tracing changes no output.

    PYTHONPATH=src python3 -m pytest -q perfbench

The verify-report test runs two default verifies, so the file takes about 35 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from eistrig import BoundedValue, PrecisionContext  # noqa: E402
from oracles import VERIFY_CHECKS, judge, judge_verify, oracle_context, reference  # noqa: E402
from run import evaluate, judge_all, outcome  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import LATTICE, SPECS, TRIG, TRIG_LARGE, Op, call, public_functions  # noqa: E402

TRIG_POINTS = (0.3, -17.25, 41.5, complex(2.5, 1.75), complex(-33.0, -1.5))
LATTICE_POINTS = (0.3, -12.7, complex(0.25, 1.5), complex(-7.4, -1.9),
                  complex(3.1, 12.0), complex(-44.6, 29.5))


def _context(workload):
    spec = SPECS[workload]
    return PrecisionContext(spec.precision, spec.tolerance), oracle_context(spec.precision)


@pytest.mark.parametrize("func", ["cosine", "sine", "g_eval"])
def test_oracles_agree_with_trig(func):
    ctx, mp = _context(TRIG)
    for z in TRIG_POINTS:
        op = Op(func, z)
        verdict = judge(call(op, public_functions(), ctx), reference(op, mp), ctx.tolerance, mp)
        assert verdict.ok, (op.label(), verdict.detail)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_oracles_agree_with_lattice(k):
    ctx, mp = _context(LATTICE)
    for z in LATTICE_POINTS:
        op = Op("eisenstein_k", z, k)
        verdict = judge(call(op, public_functions(), ctx), reference(op, mp), ctx.tolerance, mp)
        assert verdict.ok, (op.label(), verdict.detail)


def test_value_shifted_by_twice_its_radius_fails():
    ctx, mp = _context(TRIG)
    op = Op("sine", 0.7)
    bv = call(op, public_functions(), ctx)
    shifted = BoundedValue(bv.value + 2 * bv.radius, bv.radius)
    verdict = judge(shifted, reference(op, mp), ctx.tolerance, mp)
    assert not verdict.sound and not verdict.ok
    result = outcome([verdict], [False], [op.label()], {}, [])
    assert result["failed"] == 1 and not result["correct"]


def test_large_sine_fails_and_the_run_goes_on():
    ctx, mp = _context(TRIG)
    ops = [Op("cosine", 0.25), Op("sine", 999999.5, known_fault=True), Op("g_eval", 0.4)]
    results, latencies, _, _ = evaluate(ops, public_functions(), ctx)
    assert len(results) == len(latencies) == 3
    verdicts = judge_all(results, [reference(op, mp) for op in ops], ctx, mp)
    assert [v.ok for v in verdicts] == [True, False, True]
    assert verdicts[1].sound and not verdicts[1].tight
    result = outcome(verdicts, [op.known_fault for op in ops], [op.label() for op in ops], {}, [])
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, True)


def test_every_fixed_large_point_fails_on_its_radius():
    ctx, mp = _context(TRIG)
    for func, x in TRIG_LARGE:
        op = Op(func, x, known_fault=True)
        verdict = judge(call(op, public_functions(), ctx), reference(op, mp), ctx.tolerance, mp)
        assert verdict.sound and not verdict.tight, op.label()


def test_verify_judge_needs_every_check():
    mp = oracle_context(128)
    report = {"schema": 1, "suite_status": "pass",
              "checks": [{"check_id": c, "status": "pass"} for c in VERIFY_CHECKS]}
    report["checks"][-1].update(bound="1e-13", parameters={
        "computed": "3.141592653589793238462643383279502884197"})
    assert judge_verify(0, json.dumps(report).encode(), mp).ok
    assert not judge_verify(1, json.dumps(report).encode(), mp).ok
    # off from pi by 1e-12, ten times the reported bound
    report["checks"][-1]["parameters"]["computed"] = "3.141592653590793238462643383279502884197"
    assert not judge_verify(0, json.dumps(report).encode(), mp).sound


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"callees": {}, "checks": dict.fromkeys(VERIFY_CHECKS, 0.0)}
    assert set(layer_metrics(summary, 0.1, 1)) == {m["name"] for m in spec["per_layer"]}


_STREAM_SCRIPT = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
from tracer import Tracer
from workloads import SPECS, call, prepare, public_functions
trace = sys.argv[1] == "1"
funcs = public_functions()
if trace:
    tracer = Tracer()
    tracer.install()
    funcs = {{n: tracer.entry(f) for n, f in funcs.items()}}
for name in sys.argv[2:]:
    spec = SPECS[name]
    ctx = prepare(spec, funcs)
    for op in spec.operations(7, 2):
        bv = call(op, funcs, ctx)
        for x in (bv.value, bv.radius):
            print(getattr(x, "_mpc_", None) or x._mpf_)
if trace:
    pairs = sorted({{(r[1], r[0]) for r in tracer.spans}})
    print("SPANS", pairs, file=sys.stderr)
"""


def _stream_outputs(trace: int):
    script = _STREAM_SCRIPT.format(here=str(HERE), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, str(trace), TRIG, LATTICE],
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout, proc.stderr


def test_tracing_leaves_stream_outputs_unchanged():
    plain, _ = _stream_outputs(0)
    traced, spans = _stream_outputs(1)
    assert plain and plain == traced
    # spans name the calling layer: lattice reaches zeta_tail as lattice.zeta_tail
    assert "('lattice', 'zetasums.zeta_tail')" in spans
    assert "('perfbench', 'trig.cosine')" in spans
    assert "('trig', 'lattice.eisenstein_k')" in spans


def test_tracing_leaves_the_verify_report_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "eistrig.cli", "verify", "--format", "json"],
                           capture_output=True, timeout=300, env=env, cwd=ROOT)
    traced = subprocess.run([sys.executable, str(HERE / "child.py"), "verify-traced",
                             str(tmp_path / "summary.json"), str(tmp_path / "spans.tsv")],
                            capture_output=True, timeout=300, env=env, cwd=ROOT)
    assert plain.returncode == traced.returncode == 0
    a, b = json.loads(plain.stdout), json.loads(traced.stdout)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert set(summary["checks"]) == set(VERIFY_CHECKS)
    assert all(seconds > 0 for seconds in summary["checks"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", TRIG, "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
