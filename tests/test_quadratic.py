import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack.quadratic import Surd, _reduce_root, surd_from_cf

SQRT2 = Surd.sqrt(2)
SQRT5 = Surd.sqrt(5)


def close(s, x, tol=1e-12):
    return abs(float(s) - x) < tol


def test_basic_arithmetic_against_floats():
    a = Surd(Fraction(1, 3), Fraction(2, 5), 2)
    b = Surd(Fraction(-1, 2), Fraction(1, 7), 2)
    fa = 1 / 3 + 2 / 5 * math.sqrt(2)
    fb = -1 / 2 + 1 / 7 * math.sqrt(2)
    assert close(a + b, fa + fb)
    assert close(a - b, fa - fb)
    assert close(a * b, fa * fb)
    assert close(a / b, fa / fb)
    assert close(1 / a, 1 / fa)


def test_perfect_square_radicand_collapses_to_rational():
    s = Surd(0, 1, 9)  # sqrt(9) = 3
    assert s == Surd(3)
    assert Surd.sqrt(8) == Surd(0, 2, 2)  # sqrt(8) reduces to 2*sqrt(2)
    assert float(Surd.sqrt(8)) == pytest.approx(2 * math.sqrt(2))


def test_sign_floor_frac_exact():
    x = SQRT2 - 1  # about 0.4142
    assert x.sign() == 1
    assert (-x).sign() == -1
    assert (x - x).sign() == 0
    assert (Surd(3) * x).floor() == 1
    g = (SQRT5 - 1) / 2
    assert (g * 5).floor() == 3  # 5*0.618... = 3.09
    f = (g * 5).frac()
    assert Surd(0) <= f < Surd(1)
    assert (g * 5) - f == Surd(3)


def test_ordering_is_exact_near_ties():
    # 99/70 is a convergent of sqrt(2): the comparison margin is tiny
    assert Surd(Fraction(99, 70)) > SQRT2
    assert Surd(Fraction(140, 99)) < SQRT2
    assert not SQRT2 < SQRT2


def test_equality_and_hash():
    a = (SQRT2 + 1) * (SQRT2 - 1)  # = 1 exactly
    assert a == Surd(1)
    assert hash(a) == hash(Surd(1))


def test_approx_is_close_rational():
    x = (SQRT5 - 1) / 2
    golden = (math.sqrt(5) - 1) / 2
    assert abs(float(x.approx(bits=80)) - golden) < 1e-15


def test_surd_from_cf_known_values():
    assert surd_from_cf((0,), (2,)) == SQRT2 - 1
    assert surd_from_cf((0,), (1,)) == (SQRT5 - 1) / 2
    assert surd_from_cf((1,), (2,)) == SQRT2


def test_cf_terms_of_inverts_surd_from_cf():
    x = surd_from_cf((0,), (2,))
    assert oracles.cf_terms_of(x, 6) == [0, 2, 2, 2, 2, 2]
    g = surd_from_cf((0,), (1,))
    assert oracles.cf_terms_of(g, 6) == [0, 1, 1, 1, 1, 1]


# primes below and above the trial-division bound of 1000, so that square
# factors come from both the trial pass and Pollard-Brent
SQUARE_PRIMES = (2, 3, 5, 7, 997, 1009, 1013, 7919, 65537, 104729)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**9), st.lists(st.sampled_from(SQUARE_PRIMES),
                                       max_size=4))
@example(1, [])
@example(1009 * 1013, [1009])
@example(7221, [])
@example(104729, [104729, 104729])
def test_reduce_root_is_the_trial_one(n, squares):
    for p in squares:
        n *= p * p
    assert _reduce_root(n) == oracles.trial_reduce_root(n)


def test_reduce_root_past_the_miller_rabin_bound():
    # a cofactor above 3.3e24 with no prime below 1000 goes to trial division
    n = 12 * (1009 * 1013 * 1019 * 1021) ** 2 * 1031 * 1033 * 1039
    assert n > 3317044064679887385961981
    assert _reduce_root(n) == oracles.trial_reduce_root(n)
    # just below the bound, Pollard-Brent splits a 31-bit square
    p = 2**31 - 1
    assert _reduce_root(p * p * 524287) == (p, 524287)


def test_long_period_builds_fast():
    # a 60-bit discriminant: trial division up to its root takes seconds
    period = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7)
    start = time.perf_counter()
    x = surd_from_cf((0,), period)
    assert time.perf_counter() - start < 1.0
    assert oracles.cf_terms_of(x, 16) == [0, *period, 3]


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
)
def test_field_identities_random(a, b, c):
    xs = Surd(a, b, 3)
    ys = Surd(c, a, 3)
    assert (xs + ys) - ys == xs
    if ys != Surd(0):
        assert (xs / ys) * ys == xs
    assert xs * ys == ys * xs
    # order consistency with a high-precision rational approximation
    diff = (xs - ys).approx(bits=96)
    if xs > ys:
        assert diff > -Fraction(1, 2**90)
    if xs < ys:
        assert diff < Fraction(1, 2**90)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=8))
def test_floor_matches_rational_floor(q):
    assert Surd(q).floor() == q.numerator // q.denominator


RADICANDS = (2, 3, 5, 7, 8, 12, 7221, 4, 9)  # 4 and 9 collapse to rationals
RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def same(s, o):
    """The integer Surd holds the oracle's value, in normal form."""
    assert (s.u, s.v, s.d) == (o.u, o.v, o.d)
    assert s.q > 0 and math.gcd(s.x, s.y, s.q) == 1
    assert (s.d is None) == (s.y == 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RADICANDS), RATIONALS, RATIONALS, RATIONALS, RATIONALS,
       RATIONALS)
def test_integer_surd_is_the_fraction_surd(d, a, b, c, e, k):
    x, ox = Surd(a, b, d), oracles.FractionSurd(a, b, d)
    y, oy = Surd(c, e, d), oracles.FractionSurd(c, e, d)
    same(x, ox)
    same(y, oy)
    for op in (operator.add, operator.sub, operator.mul):
        same(op(x, y), op(ox, oy))
        same(op(x, k), op(ox, k))
        same(op(k, x), op(k, ox))
    same(-x, -ox)
    for num, den, onum, oden in ((x, y, ox, oy), (k, x, k, ox),
                                 (x, k, ox, k)):
        if oden == 0:
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            same(num / den, onum / oden)
    for s, o in ((x, ox), (y, oy), (x - y, ox - oy)):
        assert s.sign() == o.sign()
        assert s.floor() == o.floor()
        same(s.frac(), o.frac())
        assert s.approx(96) == o.approx(96)
        assert hash(s) == hash(o)
        assert repr(s) == repr(o)
    for cmp in (operator.eq, operator.lt, operator.le, operator.gt,
                operator.ge):
        assert cmp(x, y) == cmp(ox, oy)
        assert cmp(x, k) == cmp(ox, k)
    assert x == Surd(x.u, x.v, x.d) and x != x + 1
