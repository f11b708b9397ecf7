"""Accelerated even-zeta values, tail sums, and Bernoulli numbers.

Frozen decimal literals were produced once by an independent implementation
(45+ significant digits) and are pinned here; the code under test never sees
them.  Tail-bound validity is checked against brute-force partial sums.
"""

from fractions import Fraction

import mpmath
import pytest

from eistrig import PrecisionContext, coeff_a, zeta_even
from eistrig.fixedpoint import fraction_bits, to_fixed, to_mp, units
from eistrig.precision import mp_context
from eistrig.sympoly import SymbolPoly
from eistrig.zetasums import KERNEL_GUARD_BITS, bernoulli_even, em_tails, zeta_tail

ZETA2 = "1.6449340668482264364724151666460251892189499"
ZETA4 = "1.08232323371113819151600369654116790277475095"
ZETA6 = "1.01734306198444913971451792979092052790181749"
ZETA40 = "1.00000000000090949478402638892825331183869491"
A0 = "3.2898681336964528729448303332920503784378998"
A1 = "6.49393940226682914909602217924700741664850571"
A2 = "10.1734306198444913971451792979092052790181749"

# Bernoulli numbers B_2..B_12, from any standard table
BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}


def check_against(bv, literal, ctx, slack="1e-40"):
    ref = ctx.refined(ctx.mp.mpf("1e-44"))
    err = abs(ref.mp.mpf(bv.value) - ref.mp.mpf(literal))
    assert err <= ref.mp.mpf(bv.radius) + ref.mp.mpf(slack), f"error {err} exceeds radius {bv.radius}"


def test_bernoulli_numbers_match_the_table():
    for two_j, value in BERNOULLI.items():
        assert bernoulli_even(two_j) == value


def test_the_tables_grow_in_place_and_match_bernoulli(monkeypatch):
    # a longer ratio table extends the one in use: the same list, its earlier
    # ratios untouched, each ratio C_(j+1)/C_j within one unit of the exact
    # Bernoulli quotient; the tangent numbers extend one column at a time
    from math import factorial
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_em_ratios", (0, ()))
    q, table = zetasums._ratios(100, 40)
    head = list(table)
    assert zetasums._ratios(100, 70)[1] is table and table[:len(head)] == head
    assert len(table) >= 70 and q == 128
    bern = [Fraction(*mpmath.bernfrac(2 * j)) for j in range(72)]  # an independent table
    for j in range(1, 71):
        ratio = bern[j + 1] / factorial(2 * j + 2) * factorial(2 * j) / bern[j]
        assert abs(table[j - 1] - ratio * 2 ** q) < 1
    T = zetasums._tangents(71)
    assert all(T[j] == abs(bern[j]) * 4**j * (4**j - 1) / (2 * j) for j in range(1, 72))


def test_zeta_even_matches_frozen_values(ctx):
    for m, literal in ((1, ZETA2), (2, ZETA4), (3, ZETA6), (20, ZETA40)):
        bv = zeta_even(m, ctx)
        assert bv.radius <= ctx.tolerance
        check_against(bv, literal, ctx)


def test_zeta_even_at_tight_tolerance():
    tight = PrecisionContext(192, "1e-40")
    bv = zeta_even(1, tight)
    assert bv.radius <= tight.tolerance
    check_against(bv, ZETA2, tight, slack="1e-43")


@pytest.mark.parametrize("precision, tolerance",
                         [(128, "1e-12"), (192, "1e-30"), (256, "1e-60"), (400, "1e-100")])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_zeta_even_within_radius_of_mpmath_zeta(m, precision, tolerance):
    ctx = PrecisionContext(precision, tolerance)
    bv = zeta_even(m, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(precision + 64):
        err = abs(mpmath.mpf(bv.value) - mpmath.zeta(2 * m))
        assert err <= mpmath.mpf(bv.radius)


def test_zeta_tail_direct_brute_force_where_feasible():
    # s = 12 converges fast enough that the truncated brute sum is exact to
    # ~1e-38, well below the claimed bound
    wide = PrecisionContext(256, "1e-40")
    target = wide.mp.mpf("1e-30")
    P, value, err = zeta_tail(12, 4, target)
    tail, bound = to_mp(value, 0, P, wide.mp), to_mp(err, 0, P, wide.mp)
    brute = sum(wide.mp.mpf(k) ** -12 for k in range(5, 2000))
    assert bound <= target
    assert abs(tail - brute) <= bound + wide.mp.mpf("1e-37")


def test_zeta_tail_two_bases_are_consistent():
    # tail(N) - tail(10N) must equal the exact finite sum over (N, 10N]
    wide = PrecisionContext(256, "1e-40")
    target = wide.mp.mpf("1e-30")
    mp = wide.mp

    def tail(s, n):
        P, value, err = zeta_tail(s, n, target)
        return to_mp(value, 0, P, mp), to_mp(err, 0, P, mp)

    for s, n in ((2, 8), (4, 8), (6, 16)):
        near, near_bound = tail(s, n)
        far, far_bound = tail(s, 10 * n)
        mid = sum(wide.mp.mpf(k) ** -s for k in range(n + 1, 10 * n + 1))
        slack = wide.mp.mpf("1e-70")  # mid-sum rounding at 256 bits
        assert abs(near - (mid + far)) <= near_bound + far_bound + slack
        assert near_bound <= target and far_bound <= target


def test_coeff_a_matches_frozen_values(ctx):
    for d, literal in ((0, A0), (1, A1), (2, A2)):
        bv = coeff_a(d, ctx)
        assert bv.radius <= ctx.tolerance
        check_against(bv, literal, ctx)


def test_zeta_even_rejects_bad_arguments(ctx):
    with pytest.raises(ValueError):
        zeta_even(0, ctx)
    with pytest.raises(ValueError):
        zeta_even(-3, ctx)


def test_two_zeta_identity_margin(ctx):
    # 2 zeta(2)^2 = 5 zeta(4), evaluated through the package's own balls
    sub = ctx.refined(ctx.mp.mpf("1e-21"))
    z2 = zeta_even(1, sub)
    z4 = zeta_even(2, sub)
    a0, a1 = SymbolPoly.symbol(0), SymbolPoly.symbol(1)
    combo = (a0 * a0 * 2 - a1 * 5).substitute([z2, z4], sub)
    assert combo.consistent_with_zero()
    assert abs(combo.value) <= sub.mp.mpf("1e-20")


def shifted_tail(k, a, c, mp, target):
    """(value, bound) for the shifted tail T_k(c) = sum_{n>=a} (n+c)^-k from
    em_tails, or None at the floor: the sum runs at the scale 2^-P that makes c exact and leaves
    KERNEL_GUARD_BITS below the target; value and bound come back as exact
    mpf/mpc, the bound the truncation bound plus the counted rounding."""
    P = max(fraction_bits(c), KERNEL_GUARD_BITS, KERNEL_GUARD_BITS - mp.mag(target))
    cr, ci = to_fixed(c, P)
    got = em_tails((k,), (a << P) + cr, ci, P, (units(target, P),))
    if got is None:
        return None
    (re, im, err, bound, _), = got
    return to_mp(re, im, P, mp), to_mp(err + bound, 0, P, mp)


@pytest.mark.parametrize("k, c, N, target", [
    (2, (0.3, 0), 8, "1e-12"),
    (2, (-0.5, 0), 8, "1e-20"),
    (3, (0.25, 0.75), 6, "1e-15"),
    (4, (0.1, -12), 0, "1e-30"),
    (2, (0.5, -2), 14, "1e-40"),
    (4, (0, 60), 0, "1e-100"),
])
def test_shifted_tail_bound_holds_and_is_within_1e3_of_the_true_remainder(k, c, N, target):
    # the target fixes the order m; at these scales the counted rounding is
    # negligible, so the returned bound is the remainder bound at that order.
    # The truth is the Hurwitz zeta value zeta(k, N+1+c).
    mp = mp_context(512)
    cc = mp.mpc(*c) if c[1] else mp.mpf(c[0])
    value, bound = shifted_tail(k, N + 1, cc, mp, mp.mpf(target))
    with mpmath.workprec(768):
        exact = mpmath.zeta(k, N + 1 + mpmath.mpmathify(cc))
        err = abs(mpmath.mpmathify(value) - exact)
    assert bound <= mp.mpf(target)
    assert err <= bound <= 1000 * err


def test_shifted_tail_reports_a_floor_above_the_target():
    # at the base point 21 the asymptotic series bottoms out near e^(-2 pi 20.5)
    mp = mp_context(512)
    assert shifted_tail(3, 21, mp.mpf(-0.5), mp, mp.mpf("1e-60")) is None
    assert shifted_tail(3, 21, mp.mpf(-0.5), mp, mp.mpf("1e-50")) is not None


@pytest.mark.parametrize("i", [1, 2])
def test_scaled_zeta_tables_hold_the_exact_partial_sum_and_its_tail(i, monkeypatch):
    # Z_i(s) = sum_{n>=L} (L/n)^s, L = 2^i, lies within the table's error count
    # of the exact sum over n = L..M plus the integral bounds of the rest:
    # int_(M+1)^inf (L/t)^s dt <= sum_{n>M} (L/n)^s <= int_M^inf (L/t)^s dt
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
    q, values, err = zetasums.zeta_table(128, 24, i)
    L, M = 1 << i, 256
    for m, value in enumerate(values, start=1):
        s = 2 * m
        partial = sum(Fraction(L, n) ** s for n in range(L, M + 1))
        low = partial + Fraction(L ** s, (s - 1) * (M + 1) ** (s - 1))
        high = partial + Fraction(L ** s, (s - 1) * M ** (s - 1))
        assert low - Fraction(err, 1 << q) <= Fraction(value, 1 << q) <= high + Fraction(err, 1 << q)


def test_a_concurrent_store_does_not_change_the_table_a_caller_gets(monkeypatch):
    # another caller's 128-bit store lands right after this caller's 1,088-bit one
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
    low = zetasums.zeta_table(128, 50, 0)

    class Interleaved(list):
        def __setitem__(self, i, table):
            super().__setitem__(i, table)
            super().__setitem__(i, low)

    monkeypatch.setattr(zetasums, "_zeta_tables", Interleaved([(0, (), 0)] * 3))
    q, values, _ = zetasums.zeta_table(1088, 50, 0)
    assert q >= 1088 and len(values) >= 50


def test_a_table_never_replaces_one_of_higher_scale(monkeypatch):
    # another caller stores a 1,088-bit table while this one builds at 128 bits
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
    high = zetasums.zeta_table(1088, 8, 0)
    monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
    real = zetasums._zeta_values

    def values(*args):
        zetasums._zeta_tables[0] = high
        return real(*args)

    monkeypatch.setattr(zetasums, "_zeta_values", values)
    q, _, _ = zetasums.zeta_table(128, 8, 0)
    assert q == 128 and zetasums._zeta_tables[0] is high


def test_threads_at_different_scales_each_get_a_table_of_their_own_scale(monkeypatch):
    # for each table i, 4 threads ask for tables at three scales with a short
    # switch interval; every table holds at least what its caller asked for,
    # and its values and err are those of a serial build at its scale
    import sys
    import threading
    from eistrig import zetasums
    scales = (128, 256, 384)
    serial = {}
    for i in range(3):
        for P in scales:
            monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
            q, values, err = zetasums.zeta_table(P, 40, i)
            serial[i, q] = values, err
    monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
    problems = []

    def work(offset):
        try:
            for j in range(30):
                i, P, count = j % 3, scales[(j + offset) % 3], 10 + j
                q, values, err = zetasums.zeta_table(P, count, i)
                want, want_err = serial[i, q]
                if q < P or len(values) < count or values[:count] != want[:count] or err != want_err:
                    problems.append((i, P, count, q, len(values)))
        except Exception as exc:  # a thread's exception would otherwise go unseen
            problems.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []


@pytest.mark.parametrize("i", [0, 1, 2])
def test_a_grown_table_equals_a_table_built_in_one_step(i, monkeypatch):
    # every value and the err depend on the scale, i and m alone: a table
    # grown one entry at a time from 10 to 40 equals one built at 40 at once
    from eistrig import zetasums
    for q in (384, 1088):
        monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
        for count in range(10, 41):
            grown = zetasums.zeta_table(q, count, i)
        monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
        once = zetasums.zeta_table(q, 40, i)
        assert grown[0] == once[0] and grown[2] == once[2]
        assert grown[1][:40] == once[1][:40]


def test_every_zeta_table_ends_on_one_euler_maclaurin_call(monkeypatch):
    # the base point leaves em_tails room, up to 1,100 bits and 1e-300
    from eistrig import zetasums
    calls = []
    real = zetasums.em_tails

    def tails(exponents, br, bi, P, limits):
        got = real(exponents, br, bi, P, limits)
        calls.append(got is not None)
        return got

    monkeypatch.setattr(zetasums, "em_tails", tails)
    for i in range(3):
        for P, count in ((128, 40), (384, 260), (1088, 757)):
            monkeypatch.setattr(zetasums, "_zeta_tables", [(0, (), 0)] * 3)
            calls.clear()
            zetasums.zeta_table(P, count, i)
            assert calls == [True]
