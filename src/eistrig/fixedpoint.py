"""Fixed-point arithmetic for every summation loop: the lattice kernel, the
zeta tails and their heads, and the strip majorant.

A complex number is a pair of Python ints (re, im) at scale 2^-P: the pair
stands for (re + i im) 2^-P.  Every rounding truncates toward zero, so it errs
by less than one unit (2^-P) in each component, and it commutes with negation
and conjugation: a sum at u and at -u, or at u and at conj(u), comes out exactly
negated or conjugated.  Error counts are kept in units of the l1 norm
|re| + |im|, which bounds the modulus and is submultiplicative, so a product of
x' = x + dx and y' = y + dy errs by at most |x'| |dy| + |y'| |dx| + |dx| |dy|
before it is rounded.
"""

from __future__ import annotations

from mpmath.libmp import from_man_exp


def tdiv(x: int, y: int) -> int:
    """x / y rounded toward zero (y != 0)."""
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


def cmul(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """The exact product (ar + i ai)(br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def cpow(br: int, bi: int, k: int) -> tuple[int, int]:
    """The exact power (br + i bi)^k, k >= 1."""
    vr, vi = br, bi
    for _ in range(k - 1):
        vr, vi = cmul(vr, vi, br, bi)
    return vr, vi


def cdiv(nr: int, ni: int, dr: int, di: int, shift: int, divisor: int = 1) -> tuple[int, int]:
    """(n / d) 2^shift / divisor, each component rounded toward zero once."""
    if not di:
        d = dr * divisor
        return tdiv(nr << shift, d), tdiv(ni << shift, d)
    d = (dr * dr + di * di) * divisor
    return tdiv((nr * dr + ni * di) << shift, d), tdiv((ni * dr - nr * di) << shift, d)


def fraction_bits(x) -> int:
    """Bits of the mpf or mpc x below the binary point: the least P >= 0 at
    which x is exact."""
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_,)
    return max([0] + [-exp for _, man, exp, _ in parts if man])


def to_fixed(x, P: int) -> tuple[int, int]:
    """The mpf or mpc x as a pair at scale 2^-P, each component rounded toward
    zero (exact when P >= fraction_bits(x))."""
    out = []
    for sign, man, exp, _ in x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, (0, 0, 0, 0)):
        m = man << (exp + P) if exp + P >= 0 else man >> -(exp + P)
        out.append(-m if sign else m)
    return out[0], out[1]


def to_mp(re: int, im: int, P: int, mp):
    """The pair at scale 2^-P as an exact mpf (im == 0) or mpc of mp."""
    if not im:
        return mp.make_mpf(from_man_exp(re, -P))
    return mp.make_mpc((from_man_exp(re, -P), from_man_exp(im, -P)))


def units(t, P: int) -> int:
    """floor(t 2^P) for the mpf t >= 0."""
    sign, man, exp, _ = t._mpf_
    exp += P
    return man << exp if exp >= 0 else man >> -exp
