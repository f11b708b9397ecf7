"""Spans around the program's public functions, recorded from outside.

install() replaces every public function of the traced layers, under every
name any eistrig module holds it by, with a wrapper that records a span:
callee, calling module, start, end, parent span and operation id.  A call
from `lattice` to `zeta_tail` goes through the wrapper stored as
`lattice.zeta_tail`, so the span knows which layer called which.  The ball
arithmetic in `precision` is left alone: its operations are too small to
wrap without distorting the run, so their cost shows in their callers'
self time.

Spans stay in memory until write() at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter_ns

from oracles import VERIFY_CHECKS

#: modules whose public functions are wrapped (layers, bottom to top)
LAYERS = ("zetasums", "lattice", "laurent", "sympoly", "trig", "verify")
#: modules whose references to those functions are replaced
CALLERS = ("sympoly", "laurent", "zetasums", "lattice", "trig", "verify", "cli")

#: for public calls made by `verify`: the check that makes each of them.
#: Calls to functions missing here go to the check of the previous call.
_CHECK_OF = {
    "laurent.combination_second_order": "pole_cancellation",
    "laurent.combination_first_order": "pole_cancellation",
    "laurent.implied_identities": "implied_identities",
    "zetasums.coeff_a": "implied_identities",
    "lattice.strip_decay": "strip_decay",
    "lattice.second_order_ode_residual": "ode_second_order",
    "lattice.first_order_ode_residual": "ode_first_order",
    "lattice.nonvanishing_scan": "nonvanishing",
    "trig.reciprocal_ode_residual": "reciprocal_ode",
    "trig.ivp_residual": "ivp",
    "trig.ivp_initial_data": "ivp",
    "trig.cosine": "route_agreement",
    "trig.taylor_cosine": "route_agreement",
    "trig.pythagoras_residual": "pythagoras",
    "trig.cosec_identity_check": "cosec_identity",
    "trig.evaluator": "pi_reference",
}

_CALLEE, _CALLER, _START, _END, _PARENT, _OP = range(6)


def _arg_key(args, kwargs):
    return (args, tuple(sorted(kwargs.items()))) if kwargs else args


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._args: dict[str, set] = {}

    def wrap(self, fn, callee: str, caller: str):
        spans, stack = self.spans, self._stack
        seen = self._args.setdefault(callee, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = _arg_key(args, kwargs)
            try:
                seen.add(key)
            except TypeError:
                seen.add(repr(key))
            rec = [callee, caller, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every public function of LAYERS wherever an eistrig module
        (or the package itself) holds a reference to it."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eistrig.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[obj] = f"{layer}.{name}"
        holders = [(c, importlib.import_module(f"eistrig.{c}")) for c in CALLERS]
        holders.append(("eistrig", importlib.import_module("eistrig")))
        for caller, mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, name, self.wrap(obj, targets[obj], caller))

    def entry(self, fn):
        """A traced handle on a public function, for calls the benchmark
        makes (recorded with the caller `perfbench`)."""
        fn = inspect.unwrap(fn)
        mod = fn.__module__.rsplit(".", 1)[-1]
        return self.wrap(fn, f"{mod}.{fn.__name__}", "perfbench")

    def summary(self) -> dict:
        """Per callee: calls, distinct argument tuples, inclusive and self
        seconds, and calls made during operations (not set-up).  Per verify
        check: the inclusive seconds of the public calls verify made for it."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_ns[rec[_PARENT]] += rec[_END] - rec[_START]
        callees: dict[str, dict] = {}
        checks = dict.fromkeys(VERIFY_CHECKS, 0)
        check = None
        for i, rec in enumerate(spans):
            name = rec[_CALLEE]
            dur = rec[_END] - rec[_START]
            c = callees.setdefault(name, {"calls": 0, "op_calls": 0, "incl_ns": 0,
                                          "self_ns": 0})
            c["calls"] += 1
            c["op_calls"] += rec[_OP] != "setup"
            c["incl_ns"] += dur
            c["self_ns"] += dur - child_ns[i]
            parent = rec[_PARENT]
            if (rec[_CALLER] == "verify" and parent >= 0
                    and spans[parent][_CALLEE] == "verify.run_verification"):
                check = _CHECK_OF.get(name, check)
                if check is not None:
                    checks[check] += dur
        out = {}
        for name, c in callees.items():
            out[name] = {"calls": c["calls"], "op_calls": c["op_calls"],
                         "distinct_args": len(self._args.get(name, ())),
                         "s": c["incl_ns"] / 1e9, "self_s": c["self_ns"] / 1e9}
        return {"callees": out, "checks": {k: v / 1e9 for k, v in checks.items()}}

    def write(self, path) -> None:
        """Spans as tab-separated lines: op, id, parent, caller, callee, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tid\tparent\tcaller\tcallee\tstart_ns\tend_ns\n")
            for i, rec in enumerate(self.spans):
                handle.write(f"{rec[_OP]}\t{i}\t{rec[_PARENT]}\t{rec[_CALLER]}\t"
                             f"{rec[_CALLEE]}\t{rec[_START]}\t{rec[_END]}\n")


def layer_metrics(summary: dict, import_s: float, ops: int) -> dict:
    """The per-layer metrics of one traced process (0 where a layer never ran)."""
    callees = summary["callees"]

    def get(name, field):
        return callees.get(name, {}).get(field, 0)

    m = {"eistrig.import_s": import_s}
    for name in ("zetasums.zeta_even", "zetasums.zeta_tail"):
        for field in ("calls", "distinct_args", "self_s"):
            m[f"{name}.{field}"] = get(name, field)
    m["zetasums.coeff_a.calls"] = get("zetasums.coeff_a", "calls")
    m["zetasums.bernoulli_even.calls"] = get("zetasums.bernoulli_even", "calls")
    m["zetasums.bernoulli_even.self_s"] = get("zetasums.bernoulli_even", "self_s")
    m["lattice.eisenstein_k.calls"] = get("lattice.eisenstein_k", "calls")
    m["lattice.eisenstein_k.self_s"] = get("lattice.eisenstein_k", "self_s")
    m["lattice.eisenstein_k.calls_per_op"] = get("lattice.eisenstein_k", "op_calls") / ops
    m["trig.evaluator.distinct_args"] = get("trig.evaluator", "distinct_args")
    m["trig.evaluator.s"] = get("trig.evaluator", "s")
    for name in ("trig.cosine", "trig.sine", "trig.g_eval"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for check, seconds in summary["checks"].items():
        m[f"verify.{check}_s"] = seconds
    return m


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over several traced processes (counts repeat exactly)."""
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
