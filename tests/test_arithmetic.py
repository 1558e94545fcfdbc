import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cutstack import arithmetic
from cutstack.arithmetic import (
    NeedMoreDigits,
    OdometerPoint,
    OdometerSpec,
    RotationAngle,
    RotationPoint,
    cylinder_mass,
    first_return_rotation,
    golden_minus_1,
    in_interval,
    induce_odometer_prefix,
    induced_exchange,
    odometer_apply,
    odometer_predecessor,
    odometer_successor,
    odometer_zero,
    point_value,
    rotate,
    sqrt2_minus_1,
    truncated_value,
)
from cutstack.digits import PeriodicDigits, SeededDigits, zeros
from cutstack.quadratic import Surd
from cutstack.towers import RankOnePoint

ANGLES = [sqrt2_minus_1, golden_minus_1]


def test_angle_parse_and_known_values():
    a = RotationAngle.parse("cf:[0;(2)]")
    assert a.value == Surd.sqrt(2) - 1
    g = RotationAngle.parse("cf:[0;(1)]")
    assert g.value == (Surd.sqrt(5) - 1) / 2
    mixed = RotationAngle.parse("cf:[0;2,(1,2)]")
    assert Surd(0) < mixed.value < Surd(1)


def test_rotation_orbit_matches_float_oracle():
    angle = sqrt2_minus_1()
    alpha = float(angle.value)
    p = RotationPoint(0, 0)
    for i, want in enumerate(oracles.rotation_orbit_floats(alpha, 40)):
        q = rotate(angle, p, i)
        assert float(point_value(angle, q)) == pytest.approx(want, abs=1e-9)


def test_orbit_points_distinct_exactly():
    angle = golden_minus_1()
    vals = {point_value(angle, RotationPoint(0, b)) for b in range(60)}
    assert len(vals) == 60


def test_exchange_is_first_return_map():
    for make in ANGLES:
        angle = make()
        alpha = angle.value
        em = induced_exchange(angle)
        # sample points of the form frac(a + b*alpha) inside [0, alpha)
        pts = [
            RotationPoint(a, b)
            for a in range(-3, 4)
            for b in range(-12, 13)
            if in_interval(angle, RotationPoint(a, b), Surd(0), alpha)
        ]
        assert len(pts) > 20
        for p in pts:
            r, landing = first_return_rotation(angle, p)
            assert r in (em.n, em.n + 1)
            img = em.image(p)
            assert angle.compare_points(img, landing) == 0
            back = em.preimage(img)
            assert angle.compare_points(back, p) == 0


def test_exchange_cut_splits_by_return_time():
    angle = sqrt2_minus_1()
    em = induced_exchange(angle)
    alpha = angle.value
    for p in [RotationPoint(a, b) for a in range(-2, 3) for b in range(-9, 10)]:
        if not in_interval(angle, p, Surd(0), alpha):
            continue
        r, _ = first_return_rotation(angle, p)
        v = point_value(angle, p)
        assert (r == em.n + 1) == (v < em.cut)


# -- odometers --------------------------------------------------------------


def test_odometer_successor_matches_naive_carry():
    spec = OdometerSpec((2,), (3,))
    bases = [2, 3, 3, 3, 3, 3, 3, 3]
    p = odometer_zero(spec)
    want = oracles.odometer_orbit_positions(bases, 80)
    for i in range(80):
        assert truncated_value(spec, p, 8) == want[i]
        p = odometer_successor(spec, p)


def test_odometer_predecessor_inverts_successor():
    spec = OdometerSpec.parse("od:[2,3,2,*]")
    p = odometer_zero(spec)
    p = odometer_apply(spec, p, 57)
    q = odometer_apply(spec, p, -57)
    assert all(q.digit(k) == 0 for k in range(1, 12))
    assert odometer_predecessor(spec, odometer_successor(spec, p)).digit(1) \
        == p.digit(1)


@st.composite
def odometer_cases(draw):
    """(spec, point): random bases 1..4 with a tail holding a base >= 2,
    and seeded digits or low digits over an all-maximal or all-zero tail,
    so long carries reach the budget."""
    prefix = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    tail = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    if max(tail) < 2:
        tail += (2,)
    spec = OdometerSpec(prefix, tail)
    kind = draw(st.sampled_from(("seeded", "top", "zero")))
    if kind == "seeded":
        return spec, OdometerPoint(SeededDigits(
            f"odo:{draw(st.integers(0, 10**6))}", spec.base))
    base = (PeriodicDigits([b - 1 for b in prefix], [b - 1 for b in tail])
            if kind == "top" else zeros())
    low = draw(st.lists(st.integers(0, 3), max_size=8))
    return spec, OdometerPoint(base.with_overrides(
        {k: v % spec.base(k) for k, v in enumerate(low, 1)}))


def _odometer_outcome(move, spec, point, *args):
    try:
        out = move(spec, point, *args)
    except NeedMoreDigits as e:
        return type(e), str(e)
    return [out.digit(k) for k in range(1, 20)]


@settings(max_examples=300, deadline=None)
@given(odometer_cases(), st.integers(-300, 300),
       st.one_of(st.integers(0, 12), st.just(256)))
def test_one_add_odometer_is_the_step_loop(case, steps, budget):
    # the same digits, or the same NeedMoreDigits message, as the loops
    spec, point = case
    assert (_odometer_outcome(odometer_apply, spec, point, steps, budget)
            == _odometer_outcome(oracles.odometer_apply, spec, point, steps,
                                 budget))
    for name in ("odometer_successor", "odometer_predecessor"):
        assert (_odometer_outcome(getattr(arithmetic, name), spec, point,
                                  budget)
                == _odometer_outcome(getattr(oracles, name), spec, point,
                                     budget))


def test_cylinder_mass_mixed_radix():
    spec = OdometerSpec((2,), (3,))
    assert cylinder_mass(spec, 1) == Fraction(1, 2)
    assert cylinder_mass(spec, 3) == Fraction(1, 18)


def test_base_one_digits_are_frozen():
    spec = OdometerSpec((1,), (2,))
    p = odometer_zero(spec)
    for _ in range(10):
        p = odometer_successor(spec, p)
        assert p.digit(1) == 0


# -- prefix inducing --------------------------------------------------------


def test_prefix_induction_conjugacy():
    ind = induce_odometer_prefix(3, 2)
    assert ind.odometer.base(1) == 2
    assert ind.odometer.base(2) == 3
    sys = ind.system
    base = ind.base_set()
    from cutstack import induction

    ad = induction.RankOneAdapter(sys)
    p = sys.base_point()
    o = ind.to_odometer(p)
    for _ in range(200):
        p = induction.induced_apply(ad, base, p)
        o = odometer_successor(ind.odometer, o)
        assert sys.same_point(ind.from_odometer(o), p)


def test_prefix_induction_roundtrip_addressing():
    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    from cutstack.digits import zeros

    for level in range(2):
        p = sys.point_at(1, level, zeros())
        o = ind.to_odometer(p)
        assert o.digit(1) == level
        assert sys.same_point(ind.from_odometer(o), p)


def test_prefix_induction_gives_back_the_source_stream():
    # from_odometer undoes to_odometer on the stream itself, so same_point
    # compares the bases exactly instead of over a 64-digit guard
    from cutstack import induction

    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    seeded = SeededDigits("pi:0", sys.cuts)
    x = sys.base_point(seeded)
    o = ind.to_odometer(x)
    assert ind.from_odometer(o).digits is seeded
    ad = induction.RankOneAdapter(sys)
    for _ in range(200):
        x = induction.induced_apply(ad, ind.base_set(), x)
        o = odometer_successor(ind.odometer, o)
        y = ind.from_odometer(o)
        assert getattr(y.digits, "base", y.digits) is seeded
        assert getattr(x.digits, "base", x.digits) is seeded
        assert sys.same_point(y, x)
        shifted = arithmetic._UnshiftedDigits(o.digits)
        assert [y.digits.digit(k) for k in range(1, 40)] == [
            shifted.digit(k) for k in range(1, 40)]
    # any other stream is still read through the level digit
    other = OdometerPoint(PeriodicDigits((1, 2), (0,)))
    assert ind.from_odometer(other) == RankOnePoint(
        1, 1, arithmetic._UnshiftedDigits(other.digits))


def test_prefix_induction_measure_bookkeeping():
    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    # base set has p levels of width 1/1 each at stage 1; cylinder masses of
    # the odometer match the conditional measure on the base
    base_mass = sys.measure(ind.base_set())
    assert cylinder_mass(ind.odometer, 1) == Fraction(1, 2)
    assert base_mass == 2 * sys.width(1)
