"""Decimal printing in integers: the strings mpmath prints, from dyadic tuples.

The printing layers (verify and the CLI) import this module, and an error
text when it is raised; an evaluation that succeeds never does.  to_str is
the package's one decimal printer (Steele and White, PLDI 1990), a port of
mpmath's libmp.to_str with its default arguments (to_digits_exp included)
on a normalised tuple (sign, man, exp, bc): the digits truncated at dps + 3,
then rounded half up once at dps, in fixed notation where the decimal
exponent lies strictly between min(-(dps // 3), -5) and dps, trailing zeros
stripped.  From |exp + bc| > 3500 on, the tuple is first divided by 10^b, b
= trunc(exp ln 2 / ln 10) at |exp|'s bits + 5, as mpmath divides: by 10^b
rounded down to the digits' bits (_pow10, a port of mpf_pow_int), the
quotient rounded down to them too, so that decimal ties fall where mpmath's
fall.  Of a wide result only the leading digits are converted (mpmath
converts them all, and fails past 4300 digits).  On top of it:

    format_real   a real as every report, table and `eistrig eval` line
                  prints it (mpmath's nstr of the mpf at the context's
                  precision, _digits(ctx) digits);
    format_value  a real, or a complex as "(re + imj)" / "(re - imj)"
                  (mpmath's nstr of an mpc);
    nstr          a real tuple or an exact pair (re, im, W), 12 digits by
                  default: the label of a grid point in a report, and the
                  numbers of an error text;
    str_real      str of an mpf at a precision (a strip height, "50.0");
    modulus       the tuple of |re + i im| as mpmath's abs rounds it.
"""

from __future__ import annotations

import math

from .precision import SPECIAL, ZERO, PrecisionContext, _nearest, _quotient, dyadic, read_real

#: mpmath's log2(10), as to_digits_exp computes it
_LOG2_10 = math.log(10, 2)

#: ln 2 2^128 and ln 10 2^126, truncated
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
_LN10 = 0x935D8DDDAAA8AC16EA56D62B82D30A28

#: how mpmath prints zero and the special values ("+inf" replaces "inf")
_NAMES = {ZERO: "0.0", **{t: name for name, t in SPECIAL.items()}}


def to_str(t: tuple, dps: int) -> str:
    """The tuple t as mpmath's to_str(t, dps) prints it, dps >= 1."""
    sign, man, exp, bc = t
    if not man:
        return _NAMES[t]
    # to_digits_exp at dps + 3: |t| / 10^b to fixprec bits, then to fixdps decimals, truncated
    bitprec = int((dps + 3) * _LOG2_10) + 10
    b = 0
    if abs(exp + bc) > 3500:
        # b = trunc(exp ln 2 / ln 10), the logarithms and the quotient at |exp|'s bits + 5
        prec = abs(exp).bit_length() + 5
        (_, l2, e2, _), (_, l10, e10, _) = dyadic(_LN2, -128, prec), dyadic(_LN10, -126, prec)
        _, q, e, _ = _quotient(abs(exp) * l2, l10, prec, e2 - e10, "d")
        b = (q << e if e >= 0 else q >> -e) * (-1 if exp < 0 else 1)
        _, tman, texp, _ = _pow10(b, bitprec, "d")
        _, man, exp, bc = _quotient(man, tman, bitprec, exp - texp, "d")
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    n = (man << shift if shift >= 0 else man >> -shift) * 10**fixdps >> fixprec
    # only the leading dps + 1 digits and their count are read (str stops at 4300)
    cut = max(0, int(n.bit_length() / _LOG2_10) - dps - 4)
    digits = str(n // 10**cut)
    exponent = b + cut + len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # the nines rolled over
            digits, exponent = digits[:dps], exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    digits = "-" + digits if sign else digits
    if not exponent:
        return digits
    return f"{digits}e{'+' if exponent > 0 else ''}{exponent}"


def _pow10(n: int, prec: int, rnd: str) -> tuple:
    """10^n at prec bits as mpmath's mpf_pow_int(ften, n, prec, rnd) rounds
    it, rnd "d" or "u": exact up to n = 333, then by squaring with every
    product cut to prec + 4 bitcount(n) + 4 bits in the direction of rnd;
    for n < 0 the reciprocal of 10^-n (at prec + 5 bits, rounded the other
    way), rounded once."""
    if n < 0:
        _, man, exp, _ = _pow10(-n, prec + 5, "u" if rnd == "d" else "d")
        return _quotient(1, man, prec, -exp, rnd)
    if n < 334:
        return dyadic(5**n, n, prec, rnd)
    work, pm, man = prec + 4 * n.bit_length() + 4, (0, 1, 0, 1), (0, 5, 1, 3)
    while n:  # each product cut to work bits (the tuples' normalising moves no bit of it)
        if n & 1:
            pm = dyadic(pm[1] * man[1], pm[2] + man[2], work, rnd)
        n >>= 1
        if n:
            man = dyadic(man[1] * man[1], 2 * man[2], work, rnd)
    return dyadic(pm[1], pm[2], prec, rnd)


def _digits(ctx: PrecisionContext) -> int:
    """Significant decimal digits that show a number at ctx's precision."""
    return max(17, int(ctx.precision * 0.30103) + 2)


def format_real(x, ctx: PrecisionContext) -> str:
    """The real x, a tuple or anything read_real reads, rounded to nearest at
    ctx's precision, as a decimal string of _digits(ctx) digits, trailing
    zeros stripped: how reports, tables and the CLI print a real."""
    return to_str(read_real(x, ctx.precision), _digits(ctx))


def format_value(re: tuple, im, dps: int) -> str:
    """The real re (im None) or the complex re + i im, as mpmath's nstr
    prints an mpf or mpc to dps digits."""
    if im is None:
        return to_str(re, dps)
    sign, man, exp, bc = im
    return f"({to_str(re, dps)} {'-' if sign else '+'} {to_str((0, man, exp, bc), dps)}j)"


def nstr(x: tuple, dps: int = 12) -> str:
    """A real tuple (sign, man, exp, bc) or an exact pair (re, im, W) as
    mpmath's nstr prints its mpf (im == 0) or mpc to dps digits."""
    if len(x) == 4:
        return to_str(x, dps)
    re, im, W = x
    return format_value(dyadic(re, -W), dyadic(im, -W) if im else None, dps)


def str_real(t: tuple, prec: int) -> str:
    """str of the mpf of the tuple t at prec bits: to_str at mpmath's
    prec_to_dps(prec) digits."""
    return to_str(t, max(1, int(round(prec / 3.3219280948873626) - 1)))


def modulus(re: tuple, im, prec: int) -> tuple:
    """The tuple of |re + i im| (im None for a real) at prec bits, as
    mpmath's abs of an mpf or mpc rounds it (mpf_hypot): a real part alone
    rounded to nearest; else the squares exact, their sum rounded down at
    prec + 4 bits as mpf_add rounds it (which keeps the part of the larger
    exponent alone, nudged below its last place, when the exponents lie more
    than 100 apart and its leading bit more than prec + 8 above the other's),
    and the square root of that rounded to nearest (mpf_sqrt)."""
    if im is None or not im[1]:
        return _nearest((0, *re[1:]), prec)
    if not re[1]:
        return _nearest((0, *im[1:]), prec)
    (_, a, ae, _), (_, b, be, _) = sorted((re, im), key=lambda t: -t[2])
    x, y = a * a, b * b  # exponents 2 ae >= 2 be
    d = 2 * (ae - be)
    far = d > 100 and d + x.bit_length() - y.bit_length() > prec + 8
    _, man, exp, _ = dyadic(x if far else (x << d) + y, 2 * (ae if far else be), prec + 4, "d")
    if exp & 1:
        man, exp = man << 1, exp - 1
    elif man == 1:
        return 0, 1, exp // 2, 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    root = math.isqrt(man << shift)
    if root * root != man << shift:  # mpf_sqrt's sticky bit below the last place
        root, shift = 2 * root + 1, shift + 2
    return dyadic(root, (exp - shift) // 2, prec, "n")
