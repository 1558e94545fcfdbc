import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack.arithmetic import RotationAngle
from cutstack.quadratic import Surd, surd_from_cf

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
    # sqrt(8) is kept over 8, and is the value 2*sqrt(2)
    assert Surd.sqrt(8).d == 8
    assert Surd.sqrt(8) == Surd(0, 2, 2)
    assert hash(Surd.sqrt(8)) == hash(Surd(0, 2, 2))
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


def test_long_period_builds_fast():
    # a 60-bit discriminant, kept as given
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
    """The integer Surd holds the oracle's value, in normal form; the
    oracle reduces its radicand, so the two may hold it over different
    radicands of one field."""
    assert s.q > 0 and math.gcd(s.x, s.y, s.q) == 1
    assert (s.d is None) == (s.y == 0)
    t = Surd(o.u, o.v, o.d)
    assert s == t and hash(s) == hash(t)


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
        assert abs(s.approx(96) - o.approx(96)) < Fraction(1, 2**90)
        t = Surd(o.u, o.v, o.d)
        for cmp in (operator.eq, operator.lt, operator.le, operator.gt,
                    operator.ge):
            assert cmp(s, t) == cmp(o, o)
            assert cmp(s, t + 1) == cmp(o, o + 1)
    for cmp in (operator.eq, operator.lt, operator.le, operator.gt,
                operator.ge):
        assert cmp(x, y) == cmp(ox, oy)
        assert cmp(x, k) == cmp(ox, k)
    assert x == Surd(x.u, x.v, x.d) and x != x + 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 6, 7)), st.integers(1, 12), RATIONALS,
       RATIONALS)
def test_one_value_over_two_radicands(d, k, a, b):
    # a + b*sqrt(d*k^2) is a + b*k*sqrt(d): equal, one hash, one dict key
    wide, narrow = Surd(a, b, d * k * k), Surd(a, b * k, d)
    assert wide == narrow and not wide != narrow
    assert hash(wide) == hash(narrow)
    assert {narrow: "v"}[wide] == "v"
    assert Surd.sqrt(d * k * k) == k * Surd.sqrt(d)
    assert wide - narrow == 0 and (wide + 1) > narrow
    assert (wide * narrow).floor() == (narrow * narrow).floor()


def test_two_fields_stay_apart():
    assert not Surd.sqrt(2) == Surd.sqrt(3)
    assert Surd.sqrt(2) != Surd.sqrt(3)
    with pytest.raises(ValueError, match="incompatible radicands"):
        Surd.sqrt(2) < Surd.sqrt(3)
    with pytest.raises(ValueError, match="incompatible radicands"):
        Surd.sqrt(8) + Surd.sqrt(12)


def test_the_angle_and_the_surd_share_a_field():
    # the CF builds sqrt(2) - 1 over its discriminant 8
    value = RotationAngle((0,), (2,)).value
    assert value.d == 8
    assert value == Surd.sqrt(2) - 1
    assert hash(value) == hash(Surd.sqrt(2) - 1)


def test_a_huge_radicand_compares_at_once():
    # 10^40 + 1 has a cofactor no small prime divides; nothing factors it
    start = time.perf_counter()
    assert Surd.sqrt(10**40 + 1) < 10**20 + 1
    assert Surd.sqrt(10**40 + 1) > 10**20
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("d", (2.5, Fraction(9, 4), True, 0, -3, "2"))
def test_a_radicand_must_be_a_positive_integer(d):
    with pytest.raises(ValueError, match="radicand must be a positive integer"):
        Surd(0, 1, d)


@pytest.mark.parametrize("u, v", (("1/2", 0), (0.1, 0), (1, "2"), (0, 0.5),
                                  (Surd(1), 0)))
def test_the_constructor_takes_what_the_operators_take(u, v):
    # a string or a float (its binary value) is refused, as by every operator
    with pytest.raises(TypeError):
        Surd(u, v, 2)
    assert Surd(True, Fraction(1, 2), 2) == Surd(1, Fraction(1, 2), 2)


def test_operands_are_surds_ints_or_fractions():
    # strings and floats are refused, not read as numbers
    assert not Surd(Fraction(1, 2)) == "1/2"
    assert Surd(Fraction(1, 2)) != "1/2"
    assert Surd(Fraction(1, 2)) == Fraction(1, 2)
    for bad in ("2", 0.5):
        with pytest.raises(TypeError):
            Surd(1) < bad
        with pytest.raises(TypeError):
            Surd(1) + bad
        with pytest.raises(TypeError):
            bad * Surd(1)
        with pytest.raises(TypeError):
            bad / Surd(1)
