"""The three workloads: their contexts, set-up and seeded operation lists.

A run is a fixed list of whole rounds of operations.  The number of rounds
comes from the requested seconds and a fixed rate per workload, never from
how fast the program runs, so a faster program does the same work in less
time (and the tail caches grow by the same amount).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY = "verify-1e-12"
TRIG = "trig-stream-1e-12"
LATTICE = "lattice-stream-1e-30"
WORKLOADS = (VERIFY, TRIG, LATTICE)

#: cosine/sine at fixed large real points.  Each returns a radius at least
#: 8x the 1e-12 tolerance (the computed period's uncertainty times |z|), so
#: each fails every time; the list does not depend on the seed.
TRIG_LARGE = (
    ("cosine", 65536.25), ("sine", 31415.5),
    ("cosine", 123456.5), ("sine", 123456.5),
    ("cosine", 271828.75), ("sine", 500000.5),
    ("cosine", 777777.25), ("sine", 999999.5),
)


@dataclass(frozen=True)
class Op:
    """One call: func(point, ctx), or eisenstein_k(k, point, ctx)."""

    func: str
    point: float | complex
    k: int = 0
    known_fault: bool = False

    def label(self) -> str:
        name = f"eisenstein_k[{self.k}]" if self.func == "eisenstein_k" else self.func
        return f"{name}({self.point!r})"


@dataclass(frozen=True)
class Workload:
    name: str
    precision: int
    tolerance: str
    rounds_per_second: float = 0.0

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds * self.rounds_per_second))

    def operations(self, seed: int, rounds: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        make = _trig_round if self.name == TRIG else _lattice_round
        return [op for r in range(rounds) for op in make(rng, r)]


SPECS = {
    VERIFY: Workload(VERIFY, 128, "1e-12"),
    TRIG: Workload(TRIG, 128, "1e-12", rounds_per_second=12.0),
    LATTICE: Workload(LATTICE, 192, "1e-30", rounds_per_second=16.0),
}


def verify_count(seconds: int) -> int:
    """Verifies in one run: one per 7 requested seconds, and at least 3 so
    that their median is not a single sample."""
    return max(3, seconds // 7)


def _real(rng: random.Random) -> float:
    return rng.uniform(-50.0, 50.0)


def _complex(rng: random.Random, lo: float, hi: float) -> complex:
    return complex(rng.uniform(-50.0, 50.0), rng.uniform(lo, hi))


def _trig_round(rng: random.Random, r: int) -> list[Op]:
    """25 operations: 8 each of cosine, sine and g_eval (5 real points with
    |z| <= 50, 3 complex with |Re z| <= 50 and |Im z| <= 2), then one fixed
    large-|z| cosine or sine."""
    ops = []
    for func in ("cosine", "sine", "g_eval"):
        ops += [Op(func, _real(rng)) for _ in range(5)]
        ops += [Op(func, _complex(rng, -2.0, 2.0)) for _ in range(3)]
    func, x = TRIG_LARGE[r % len(TRIG_LARGE)]
    ops.append(Op(func, x, known_fault=True))
    return ops


def _lattice_round(rng: random.Random, r: int) -> list[Op]:
    """9 operations: eps_k for k = 2, 3, 4 at a real point (|z| <= 50), a
    complex point (|Im z| <= 2) and a point high in the strip (2 <= Im z <= 30)."""
    ops = []
    for k in (2, 3, 4):
        ops.append(Op("eisenstein_k", _real(rng), k))
        ops.append(Op("eisenstein_k", _complex(rng, -2.0, 2.0), k))
        ops.append(Op("eisenstein_k", _complex(rng, 2.0, 30.0), k))
    return ops


def public_functions() -> dict:
    """The public entry points the workloads call, by name."""
    from eistrig import lattice, trig
    return {"cosine": trig.cosine, "sine": trig.sine, "g_eval": trig.g_eval,
            "evaluator": trig.evaluator, "eisenstein_k": lattice.eisenstein_k}


def prepare(spec: Workload, funcs: dict):
    """Set-up up to the first operation: the context, and for the trig stream
    the per-context evaluator (pi and a0) and one evaluation."""
    from eistrig import PrecisionContext
    ctx = PrecisionContext(spec.precision, spec.tolerance)
    if spec.name == TRIG:
        funcs["evaluator"](ctx)
        funcs["cosine"](1.0, ctx)
    return ctx


def call(op: Op, funcs: dict, ctx):
    if op.func == "eisenstein_k":
        return funcs["eisenstein_k"](op.k, op.point, ctx)
    return funcs[op.func](op.point, ctx)
