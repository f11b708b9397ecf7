"""Reference values computed apart from the program.

The program builds pi, cos and sin from lattice sums and never calls
mpmath's own cos, sin or pi.  The references here use exactly those, at
twice the working precision plus 64 bits:

    cosine(z)  = cos z              sine(z) = sin z
    g(z)       = sin^2(pi z) / pi^2
    eps_2(z)   = pi^2 / sin^2(pi z)
    eps_3(z)   = pi^3 cos(pi z) / sin^3(pi z)
    eps_4(z)   = pi^4 (1 + 2 cos^2(pi z)) / (3 sin^4(pi z))

Every input point is a binary double, so the program and the reference see
the same number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mpmath.ctx_mp import MPContext

#: check ids of a default (not self-contained) verify report, in report order
VERIFY_CHECKS = (
    "pole_cancellation", "implied_identities", "strip_decay", "ode_second_order",
    "ode_first_order", "nonvanishing", "reciprocal_ode", "ivp", "route_agreement",
    "pythagoras", "cosec_identity", "pi_reference",
)


def oracle_context(precision: int) -> MPContext:
    mp = MPContext()
    mp.prec = 2 * precision + 64
    return mp


def reference(op, mp: MPContext):
    z = mp.mpc(op.point) if isinstance(op.point, complex) else mp.mpf(op.point)
    if op.func == "cosine":
        return mp.cos(z)
    if op.func == "sine":
        return mp.sin(z)
    s = mp.sin(mp.pi * z)
    if op.func == "g_eval":
        return s * s / (mp.pi * mp.pi)
    c = mp.cos(mp.pi * z)
    if op.k == 2:
        return mp.pi ** 2 / s ** 2
    if op.k == 3:
        return mp.pi ** 3 * c / s ** 3
    if op.k == 4:
        return mp.pi ** 4 * (1 + 2 * c * c) / (3 * s ** 4)
    raise ValueError(f"no reference for {op.label()}")


@dataclass(frozen=True)
class Verdict:
    """sound: the ball contains the reference; tight: radius <= tolerance."""

    sound: bool
    tight: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.sound and self.tight


def judge(bv, ref, tolerance, mp: MPContext) -> Verdict:
    """Compare a program ball with its reference at the oracle's precision."""
    err = abs(mp.convert(bv.value) - ref)
    radius = mp.convert(bv.radius)
    sound = bool(err <= radius)
    tight = bool(radius <= mp.convert(tolerance))
    detail = "" if sound and tight else \
        f"|value - ref| = {mp.nstr(err, 3)}, radius = {mp.nstr(radius, 3)}"
    return Verdict(sound, tight, detail)


def judge_verify(returncode: int, stdout: bytes, mp: MPContext) -> Verdict:
    """A verify passes when the CLI exits 0 with a schema-1 report in which
    all 12 checks pass.  Soundness: the computed pi it reports lies within
    the report's own bound of mpmath's pi."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return Verdict(False, False, f"exit {returncode}, no JSON report")
    checks = report.get("checks", [])
    ids = tuple(c.get("check_id") for c in checks)
    bad = [c["check_id"] for c in checks if c.get("status") != "pass"]
    tight = (returncode == 0 and report.get("schema") == 1 and ids == VERIFY_CHECKS
             and not bad and report.get("suite_status") == "pass")
    sound = False
    for c in checks:
        if c.get("check_id") == "pi_reference":
            computed = c["parameters"]["computed"]
            digits = sum(ch.isdigit() for ch in computed)
            err = abs(mp.mpf(computed) - mp.pi)
            sound = bool(err <= mp.mpf(c["bound"]) + mp.mpf(10) ** (2 - digits))
    detail = "" if sound and tight else \
        f"exit {returncode}, schema {report.get('schema')}, checks {ids}, not passing {bad}"
    return Verdict(sound, tight, detail)
