"""Benchmark of eistrig: three workloads, end-to-end or per-layer metrics.

Run from the root of a checkout (no install needed; eistrig is taken from
src/ as the tests take it):

    python3 perfbench/run.py --workload trig-stream-1e-12 --seed 1 --seconds 20 --trace 0

Workloads (see README.md): verify-1e-12, trig-stream-1e-12,
lattice-stream-1e-30.  With --trace 0 the end-to-end metrics are printed;
with --trace 1 every public function is wrapped and the per-layer metrics
are printed instead.  Every output is checked against oracles.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run results and span files go to
.perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

from oracles import Verdict, judge, judge_verify, oracle_context, reference
from tracer import Tracer, layer_metrics, median_metrics
from workloads import (SPECS, VERIFY, WORKLOADS, call, prepare, public_functions,
                       verify_count)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

#: cold set-ups per run; setup_s is their median
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
VERIFY_TIMEOUT_S = 150
#: a percentile needs this many operations in a run to be reported as such
P99_MIN_OPS = 1000


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output of the program)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cold_setup(workload: str) -> tuple[float, float]:
    """(seconds from starting a fresh interpreter until the workload is ready
    for its first operation, seconds the eistrig import took inside it)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), "setup", workload],
                            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
    return seconds, float(line.split()[1])


def p99(latencies: list[float]) -> float:
    """The 99th percentile, or the highest value when the run is too short
    to have a tail."""
    if len(latencies) >= P99_MIN_OPS:
        return statistics.quantiles(latencies, n=100)[98]
    return max(latencies)


def run_verify(seed: int, seconds: int, trace: bool) -> dict:
    """Each operation is one default `eistrig verify --format json` in a
    fresh interpreter.  The default verify has no inputs to draw, so the
    seed changes nothing here."""
    setups = [cold_setup(VERIFY) for _ in range(SETUP_SAMPLES)]
    mp = oracle_context(SPECS[VERIFY].precision)
    times, verdicts, layer_runs = [], [], []
    for i in range(verify_count(seconds)):
        if trace:
            stem = OUT / f"{VERIFY}-seed{seed}-verify{i}"
            summary_path = stem.with_suffix(".summary.json")
            cmd = [sys.executable, str(CHILD), "verify-traced",
                   str(summary_path), str(stem.with_suffix(".spans.tsv"))]
        else:
            cmd = [sys.executable, "-m", "eistrig.cli", "verify", "--format", "json"]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                              timeout=VERIFY_TIMEOUT_S)
        times.append(perf_counter() - t0)
        verdicts.append(judge_verify(proc.returncode, proc.stdout, mp))
        if trace:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            layer_runs.append(layer_metrics(summary, statistics.median(s[1] for s in setups), 1))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    end_to_end = {
        "setup_s": statistics.median(s[0] for s in setups),
        "verify_s": statistics.median(times),
        "evals_per_s": len(times) / sum(times),
        "eval_p50_ms": 1000 * statistics.median(times),
        "eval_p99_ms": 1000 * p99(times),
        "peak_rss_mb": rss_mb,
    }
    samples = {"verify_s": times, "setup_s": [s[0] for s in setups]}
    return outcome(verdicts, [False] * len(verdicts), [f"verify #{i}" for i in range(len(times))],
                   end_to_end, layer_runs, samples)


def evaluate(ops, funcs: dict, ctx, tracer=None):
    """Call every operation in order; an EistrigError raised by an operation
    becomes its result.  Returns (results, CPU ns of each operation, CPU
    seconds and wall seconds of the whole list).

    Operations are timed in process CPU time: they are single-threaded pure
    computation, so on an unshared CPU this equals wall time, while on a
    shared virtual machine it leaves out the slices the host gives to other
    guests, which otherwise land in the tail percentiles at random.
    """
    from eistrig import EistrigError
    results, latencies = [], []
    wall0, cpu0 = perf_counter_ns(), process_time_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = process_time_ns()
        try:
            bv = call(op, funcs, ctx)
        except EistrigError as exc:
            bv = exc
        latencies.append(process_time_ns() - t0)
        results.append(bv)
    return results, latencies, (process_time_ns() - cpu0) / 1e9, (perf_counter_ns() - wall0) / 1e9


def judge_all(results, refs, ctx, mp) -> list[Verdict]:
    return [Verdict(True, False, f"{type(bv).__name__}: {bv}") if isinstance(bv, Exception)
            else judge(bv, ref, ctx.tolerance, mp) for bv, ref in zip(results, refs)]


def run_stream(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One long-lived process (this one) evaluating a seeded operation list."""
    spec = SPECS[workload]
    setups = [cold_setup(workload) for _ in range(SETUP_SAMPLES)]
    funcs = public_functions()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        funcs = {name: tracer.entry(fn) for name, fn in funcs.items()}
    ctx = prepare(spec, funcs)
    ops = spec.operations(seed, spec.rounds(seconds))
    mp = oracle_context(spec.precision)
    refs = [reference(op, mp) for op in ops]
    results, latencies, cpu_s, wall_s = evaluate(ops, funcs, ctx, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat_ms = [ns / 1e6 for ns in latencies]
    end_to_end = {
        "setup_s": statistics.median(s[0] for s in setups),
        "verify_s": cpu_s,
        "evals_per_s": len(ops) / cpu_s,
        "eval_p50_ms": statistics.median(lat_ms),
        "eval_p99_ms": p99(lat_ms),
        "peak_rss_mb": rss_mb,
    }
    layer_runs = []
    if tracer is not None:
        layer_runs.append(layer_metrics(tracer.summary(), statistics.median(s[1] for s in setups),
                                        len(ops)))
        tracer.write(OUT / f"{workload}-seed{seed}.spans.tsv")
    samples = {"wall_s": wall_s, "setup_s": [s[0] for s in setups]}
    return outcome(judge_all(results, refs, ctx, mp), [op.known_fault for op in ops],
                   [op.label() for op in ops], end_to_end, layer_runs, samples)


def outcome(verdicts, known_fault, labels, end_to_end, layer_runs, samples=None) -> dict:
    """An operation fails when its ball misses the reference, its radius
    exceeds the tolerance, or it raised.  The run is correct when every ball
    contains its reference and only known-fault operations failed."""
    failures = [(label, v.detail) for v, label in zip(verdicts, labels) if not v.ok]
    correct = all(v.sound and (v.ok or fault) for v, fault in zip(verdicts, known_fault))
    return {"correct": correct, "attempted": len(verdicts), "failed": len(failures),
            "end_to_end": end_to_end,
            "per_layer": median_metrics(layer_runs) if layer_runs else None,
            "samples": samples, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "eistrig" / "__init__.py").is_file():
        print(f"perfbench: no eistrig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    OUT.mkdir(exist_ok=True)

    try:
        if args.workload == VERIFY:
            result = run_verify(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_stream(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    values = result[kind]
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 3
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, end_to_end=result["end_to_end"],
                  samples=result["samples"], failures=result["failures"])
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
