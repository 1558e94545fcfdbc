import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cutstack import arithmetic
from cutstack.arithmetic import (
    RotationAngle,
    RotationPoint,
    first_return_rotation,
    golden_minus_1,
    in_interval,
    induce_odometer_prefix,
    induced_exchange,
    point_value,
    rotate,
    sqrt2_minus_1,
)
from cutstack.digits import PeriodicDigits, SeededDigits, zeros
from cutstack.errors import NeedMoreDepth
from cutstack.quadratic import Surd
from cutstack.specs import parse_odometer, spacer_free_spec
from cutstack.towers import RankOnePoint, RankOneSystem

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
# An odometer is a spacer-free RankOneSystem: its induced base map is the
# odometer itself, and `advance` moves its digits.


def odometer(text):
    return RankOneSystem(parse_odometer(text))


def successor(system, digits):
    return system.advance(digits, 1)[1]


def test_odometer_successor_matches_naive_carry():
    odo = odometer("od:[2,3,*]")
    bases = [2, 3, 3, 3, 3, 3, 3, 3]
    digits = zeros()
    want = oracles.odometer_orbit_positions(bases, 80)
    for i in range(80):
        assert oracles.truncated_value(odo.cuts, digits, 8) == want[i]
        digits = successor(odo, digits)


def test_odometer_predecessor_inverts_successor():
    odo = odometer("od:[2,3,2,*]")
    p = odo.advance(zeros(), 57)[1]
    q = odo.advance(p, -57)[1]
    assert all(q.digit(k) == 0 for k in range(1, 12))
    assert odo.advance(successor(odo, p), -1)[1].digit(1) == p.digit(1)


@st.composite
def odometer_cases(draw):
    """(system, digits): random bases 1..4 with a tail holding a base >= 2,
    and seeded digits or low digits over an all-maximal or all-zero tail,
    so long carries reach the budget."""
    prefix = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    tail = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    if max(tail) < 2:
        tail += (2,)
    odo = RankOneSystem(spacer_free_spec("case", prefix, tail))
    kind = draw(st.sampled_from(("seeded", "top", "zero")))
    if kind == "seeded":
        return odo, SeededDigits(f"odo:{draw(st.integers(0, 10**6))}",
                                 odo.cuts)
    base = (PeriodicDigits([b - 1 for b in prefix], [b - 1 for b in tail])
            if kind == "top" else zeros())
    low = draw(st.lists(st.integers(0, 3), max_size=8))
    return odo, base.with_overrides(
        {k: v % odo.cuts(k) for k, v in enumerate(low, 1)})


def _outcome(move, *args):
    """The first 19 digits after a move, or the edge where it gave up:
    "maximal" forward, "zero" backward."""
    try:
        out = move(*args)
    except (NeedMoreDepth, oracles.OdometerGaveUp) as e:
        return "gave up", str(e).split()[2]
    return [out.digit(k) for k in range(1, 20)]


@settings(max_examples=300, deadline=None)
@given(odometer_cases(), st.integers(-300, 300),
       st.one_of(st.integers(0, 12), st.just(256)))
def test_one_add_odometer_is_the_step_loop(case, steps, budget):
    # advance within budget b gives the same digits as the step loops with
    # stage limit b + 1, or gives up where they do, at the same edge
    odo, digits = case

    def advance(n):
        return odo.advance(digits, n, budget)[1]

    limit = budget + 1
    assert (_outcome(advance, steps)
            == _outcome(oracles.odometer_apply, odo.cuts, digits, steps,
                        limit))
    assert (_outcome(advance, 1)
            == _outcome(oracles.odometer_successor, odo.cuts, digits, limit))
    assert (_outcome(advance, -1)
            == _outcome(oracles.odometer_predecessor, odo.cuts, digits,
                        limit))


def test_cylinder_mass_mixed_radix():
    odo = odometer("od:[2,3,*]")
    assert oracles.cylinder_mass(odo.cuts, 1) == Fraction(1, 2)
    assert oracles.cylinder_mass(odo.cuts, 3) == Fraction(1, 18)


def test_base_one_digits_are_frozen():
    odo = odometer("od:[1,2,*]")
    digits = zeros()
    for _ in range(10):
        digits = successor(odo, digits)
        assert digits.digit(1) == 0


# -- prefix inducing --------------------------------------------------------


def test_prefix_induction_conjugacy():
    ind = induce_odometer_prefix(3, 2)
    assert ind.odometer.cuts(1) == 2
    assert ind.odometer.cuts(2) == 3
    sys = ind.system
    base = ind.base_set()
    from cutstack import induction

    ad = induction.RankOneAdapter(sys)
    p = sys.base_point()
    o = ind.to_odometer(p)
    for _ in range(200):
        p = induction.induced_apply(ad, base, p)
        o = successor(ind.odometer, o)
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
        o = successor(ind.odometer, o)
        y = ind.from_odometer(o)
        assert getattr(y.digits, "base", y.digits) is seeded
        assert getattr(x.digits, "base", x.digits) is seeded
        assert sys.same_point(y, x)
        shifted = arithmetic._UnshiftedDigits(o)
        assert [y.digits.digit(k) for k in range(1, 40)] == [
            shifted.digit(k) for k in range(1, 40)]
    # any other stream is still read through the level digit
    other = PeriodicDigits((1, 2), (0,))
    assert ind.from_odometer(other) == RankOnePoint(
        1, 1, arithmetic._UnshiftedDigits(other))


def test_prefix_induction_measure_bookkeeping():
    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    # base set has p levels of width 1/1 each at stage 1; cylinder masses of
    # the odometer match the conditional measure on the base
    base_mass = sys.measure(ind.base_set())
    assert oracles.cylinder_mass(ind.odometer.cuts, 1) == Fraction(1, 2)
    assert base_mass == 2 * sys.width(1)
