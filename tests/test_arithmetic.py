import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack import induction, quadratic
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
from cutstack.specs import (StackingSpec, StageRule, parse_odometer,
                            spacer_free_spec)
from cutstack.towers import LevelSet, RankOnePoint, RankOneSystem

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
        p = sys.point_at(2, level, zeros())
        o = ind.to_odometer(p)
        assert o.digit(1) == level
        assert sys.same_point(ind.from_odometer(o), p)


def test_prefix_induction_gives_back_the_source_stream():
    # the isomorphism is the identity on streams, so same_point compares
    # the bases exactly instead of over a 64-digit guard
    from cutstack import induction

    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    seeded = SeededDigits("pi:0", ind.odometer.cuts)
    x = sys.base_point(seeded)
    o = ind.to_odometer(x)
    assert o is seeded and ind.from_odometer(o).digits is seeded
    ad = induction.RankOneAdapter(sys)
    for _ in range(200):
        x = induction.induced_apply(ad, ind.base_set(), x)
        o = successor(ind.odometer, o)
        y = ind.from_odometer(o)
        assert getattr(y.digits, "base", y.digits) is seeded
        assert getattr(x.digits, "base", x.digits) is seeded
        assert sys.same_point(y, x)
    # tower level p lies outside the base, and so does a first digit p
    with pytest.raises(ValueError):
        ind.to_odometer(sys.point_at(2, 2, zeros()))
    with pytest.raises(ValueError):
        ind.from_odometer(PeriodicDigits((2,), (0,)))


def test_prefix_induction_measure_bookkeeping():
    ind = induce_odometer_prefix(3, 2)
    sys = ind.system
    # base set has p stage-2 levels of width 1/q each; cylinder masses of
    # the odometer match the conditional measure on the base
    base_mass = sys.measure(ind.base_set())
    assert oracles.cylinder_mass(ind.odometer.cuts, 1) == Fraction(1, 2)
    assert base_mass == 2 * sys.width(2) == Fraction(2, 3)


@st.composite
def tower_cases(draw):
    """(q, p, level, cols, tail): a tower level below 1 <= p < q and a
    periodic column stream whose tail is not all maximal, so every carry
    settles."""
    q = draw(st.integers(2, 6))
    p = draw(st.integers(1, q - 1))
    level = draw(st.integers(0, p - 1))
    digit = st.integers(0, q - 1)
    cols = tuple(draw(st.lists(digit, max_size=4)))
    tail = tuple(draw(st.lists(digit, min_size=1, max_size=3)
                      .filter(lambda t: min(t) < q - 1)))
    return q, p, level, cols, tail


@settings(max_examples=60, deadline=None)
@given(tower_cases())
def test_prefix_induction_is_the_height_q_tower_induced(case):
    # a height-q stage 1 with columns from stage 1 returns to its first p
    # levels as od:[q,*] does from the stream with the level put in front:
    # 1 step, or q - p + 1 from level p - 1
    q, p, level, cols, tail = case
    ind = induce_odometer_prefix(q, p)
    tower = RankOneSystem(StackingSpec.make(
        f"q_adic({q})", q, (), (StageRule(q, (0,) * q),)))
    old, old_base = induction.RankOneAdapter(tower), LevelSet(1, range(p))
    new, new_base = induction.RankOneAdapter(ind.system), ind.base_set()
    x = RankOnePoint(1, level, PeriodicDigits(cols, tail))
    y = RankOnePoint(1, 0, PeriodicDigits((level,) + cols, tail))
    for _ in range(60):
        r = induction.return_time(new, new_base, y)
        assert induction.return_time(old, old_base, x) == r
        top = ind.system.level_index(y, 2) == p - 1
        assert r == (q - p + 1 if top else 1)
        o = ind.odometer.advance(ind.to_odometer(y), 1)[1]
        x = induction.induced_apply(old, old_base, x)
        y = induction.induced_apply(new, new_base, y)
        assert ind.system.same_point(ind.from_odometer(o), y)
        assert tower.level_index(x, 3) == ind.system.level_index(y, 4)


# -- lattice reads against the ring-arithmetic oracles ----------------------
# frac(a + b*alpha) is one floor of b*alpha, first returns jump floors and
# the return-time split shifts by frac(-r*alpha); tests/oracles.py keeps
# the ring-arithmetic reads they replaced.

BENCHMARK_ANGLES = [RotationAngle.parse(t)
                    for t in ("cf:[0;(2)]", "cf:[0;(1)]", "cf:[0;(5,1,1,7)]")]


@st.composite
def rotation_angles(draw):
    """One of the three benchmark angles, or a short periodic CF."""
    if draw(st.booleans()):
        return draw(st.sampled_from(BENCHMARK_ANGLES))
    prefix = draw(st.lists(st.integers(1, 9), max_size=2))
    period = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    return RotationAngle([0] + prefix, period)


def normal_form(s):
    return s.x, s.y, s.q, s.d


@settings(max_examples=400, deadline=None)
@given(rotation_angles(), st.integers(-50, 50),
       st.integers(-10**6, 10**6))
@example(BENCHMARK_ANGLES[2], 0, 0)
@example(BENCHMARK_ANGLES[0], 7, 0)
@example(BENCHMARK_ANGLES[1], -3, -10**6)
def test_lattice_frac_is_the_ring_frac(angle, a, b):
    got = angle.frac_value(a, b)
    assert normal_form(got) == normal_form(
        oracles.ring_frac_value(angle, a, b))
    assert angle.value.floor_times(b) == (angle.value * b).floor()


def _return_outcome(read, angle, p):
    try:
        return read(angle, p)
    except ValueError as e:
        return "ValueError", str(e)


@settings(max_examples=300, deadline=None)
@given(rotation_angles(), st.integers(-50, 50), st.integers(-10**6, 10**6),
       st.booleans())
def test_floor_jump_first_return_is_the_stepped_one(angle, a, b, inside):
    # half the points are moved up into [0, alpha); the rest are refused
    # or not, alike on both paths
    while inside and not (Surd(0) <= oracles.ring_frac_value(angle, a, b)
                          < angle.value):
        b += 1
    p = RotationPoint(a, b)
    got = _return_outcome(first_return_rotation, angle, p)
    assert got == _return_outcome(oracles.stepped_first_return, angle, p)
    assert (got[0] != "ValueError") >= inside


def test_a_huge_partial_quotient_returns_at_once(monkeypatch):
    # alpha = [0; 10^12, 10^12, ...], n = 10^12: two floors, not n + 1
    angle = RotationAngle((0,), (10**12,))
    n = angle.n
    assert n == 10**12
    floors = []
    read = Surd.floor_times

    def counted(self, b):
        floors.append(b)
        return read(self, b)

    monkeypatch.setattr(Surd, "floor_times", counted)
    # n*alpha < 1: the origin returns at n + 1, and lands at
    # frac((n + 1)*alpha), which reaches 1 in n more steps
    assert first_return_rotation(angle, RotationPoint(0, 0)) == (
        n + 1, RotationPoint(0, n + 1))
    assert first_return_rotation(angle, RotationPoint(3, n + 1)) == (
        n, RotationPoint(3, 2 * n + 1))
    assert len(floors) == 6


# [0; 3, (9, 2)]: a prefix, and a partial quotient 9 that makes long
# record runs
NINE_ANGLE = RotationAngle.parse("cf:[0;3,(9,2)]")


def _one_interval(angle, ends):
    """[frac(b1*alpha), frac(b2*alpha)) in order, or the whole circle."""
    if ends is None:
        return induction.whole_circle()
    v1, v2 = (angle.frac_value(0, b) for b in ends)
    return induction.IntervalUnion([(min(v1, v2), max(v1, v2))])


@settings(max_examples=120, deadline=None)
@given(rotation_angles(),
       st.tuples(st.integers(-400, 400), st.integers(-400, 400)),
       st.integers(1, 40))
@example(BENCHMARK_ANGLES[1], None, 1)  # the whole circle: one cell, r = 1
@example(BENCHMARK_ANGLES[1], (0, 1), 5)  # [0, alpha): r1 = 2, r2 = 1
@example(BENCHMARK_ANGLES[1], (0, 3), 1)  # L > 1/2, r1 = r2 = 1: merged
@example(BENCHMARK_ANGLES[0], (5, 17), 20)  # r1 = 29, r2 = 41: max_r below
@example(BENCHMARK_ANGLES[0], (5, 17), 35)  # max_r between r1 and r2
@example(BENCHMARK_ANGLES[0], (5, 17), 60)  # max_r below r1 + r2
@example(BENCHMARK_ANGLES[0], (5, 17), 70)  # all three cells
@example(NINE_ANGLE, (5, 17), 10)  # r2 = 3 < max_r < r1 = 19
@example(NINE_ANGLE, (5, 17), 22)  # all three cells
@example(NINE_ANGLE, (0, 3), 2)  # r1 = r2 = 1
def test_column_decomposition_is_the_ring_one(angle, ends, max_r):
    A = _one_interval(angle, ends)
    dec = induction.column_decomposition(induction.RotationAdapter(angle), A,
                                         max_r)
    cells, remainder = oracles.ring_column_decomposition(angle, A, max_r)
    assert [(c.intervals, r) for c, r in dec.cells] == [
        (c.intervals, r) for c, r in cells]
    assert dec.remainder.intervals == remainder.intervals
    assert dec.remainder_mass == remainder.measure()


def test_column_decomposition_refuses_a_base_of_two_intervals():
    angle = BENCHMARK_ANGLES[0]
    A = induction.IntervalUnion([(Surd(0), Surd(Fraction(1, 4))),
                                 (Surd(Fraction(1, 2)), angle.value * 2)])
    with pytest.raises(ValueError, match="not 2"):
        induction.column_decomposition(induction.RotationAdapter(angle), A, 9)
    empty = induction.IntervalUnion([])
    dec = induction.column_decomposition(induction.RotationAdapter(angle),
                                         empty, 9)
    assert dec.cells == [] and dec.remainder.is_empty()


def _count_makes(monkeypatch):
    """A list that gets one entry per quadratic._make call from now on."""
    calls = []
    make = quadratic._make

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(quadratic, "_make", counted)
    return calls


def test_decomposition_surds_do_not_grow_with_the_return_time(monkeypatch):
    # golden-angle bases of length |F*alpha - F'| for Fibonacci F, whose
    # return times grow like F; once the record table has grown, each
    # decomposition builds the same few Surds
    angle = golden_minus_1()
    ad = induction.RotationAdapter(angle)
    fib = [2, 3]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    bases = []
    for f in fib:
        v = angle.frac_value(0, f)
        ends = (Surd(0), v) if v < Fraction(1, 2) else (v, Surd(1))
        bases.append(induction.IntervalUnion([ends]))
    ad.column_decomposition(bases[-1], 10**6)
    calls = _count_makes(monkeypatch)
    counts, decs = [], []
    for base in bases:
        del calls[:]
        decs.append(ad.column_decomposition(base, 10**6))
        counts.append(len(calls))
    monkeypatch.undo()
    assert len(set(counts)) == 1, counts
    assert max(r for _, r in decs[-1].cells) > 4000
    for dec in decs:
        assert dec.remainder.is_empty() and dec.kac_sum() == 1


@settings(max_examples=400, deadline=None)
@given(rotation_angles(), st.integers(-50, 50), st.integers(-10**6, 10**6),
       st.integers(-50, 50), st.one_of(st.none(),
                                       st.integers(-10**6, 10**6)),
       st.booleans())
@example(BENCHMARK_ANGLES[0], 3, 0, -2, None, False)  # same b, other a
@example(BENCHMARK_ANGLES[1], 0, 10**6, 5, None, True)
@example(BENCHMARK_ANGLES[2], 0, -10**6, 0, 10**6, False)
def test_floor_reads_are_the_surd_ones(angle, a1, b1, a2, b2, inside):
    # half the points are moved up into [0, alpha); q shares p's b when
    # b2 is None
    while inside and not (Surd(0) <= angle.frac_value(0, b1) < angle.value):
        b1 += 1
    p = RotationPoint(a1, b1)
    q = RotationPoint(a2, b1 if b2 is None else b2)
    assert angle.compare_points(p, q) == oracles.surd_compare_points(
        angle, p, q)
    assert angle.compare_points(q, p) == -angle.compare_points(p, q)
    em = induced_exchange(angle)
    assert em.image(p) == oracles.surd_image(em, p)
    assert em.preimage(p) == oracles.surd_preimage(em, p)


def test_floor_reads_build_no_surd(monkeypatch):
    rng = random.Random(7)
    cases = []
    for angle in BENCHMARK_ANGLES + [NINE_ANGLE]:
        em = induced_exchange(angle)
        for _ in range(20):
            p = RotationPoint(rng.randrange(-40, 40),
                              rng.randrange(-10**6, 10**6))
            q = RotationPoint(rng.randrange(-40, 40),
                              rng.choice([p.b, rng.randrange(-400, 400)]))
            cases.append((angle, em, p, q))
    calls = _count_makes(monkeypatch)
    init = Surd.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Surd, "__init__", counted)
    for angle, em, p, q in cases:
        angle.compare_points(p, q)
        em.preimage(em.image(p))
    assert calls == []


def test_rotation_reads_build_no_fraction_surd(monkeypatch):
    # the hot loops read the angle's lattice and the ZERO and ONE constants;
    # none goes through the Fraction-based constructor
    rng = random.Random(5)
    angle = BENCHMARK_ANGLES[rng.randrange(3)]
    while True:
        b1, b2 = rng.randrange(-400, 400), rng.randrange(-400, 400)
        left, right = angle.frac_value(0, b1), angle.frac_value(0, b2)
        if right - left >= Fraction(1, 20):
            break
    base = induction.IntervalUnion([(left, right)])
    points = []
    for a in BENCHMARK_ANGLES:
        b = rng.randrange(-400, 400)
        while not in_interval(a, RotationPoint(0, b), Surd(0), a.value):
            b += 1
        points.append((a, RotationPoint(rng.randrange(-40, 40), b)))
    built = []
    init = Surd.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Surd, "__init__", counted)
    dec = induction.column_decomposition(induction.RotationAdapter(angle),
                                         base, 400)
    assert dec.remainder.is_empty() and dec.kac_sum() == 1
    for a, p in points:
        first_return_rotation(a, p)
    assert built == []


# -- record segments against the materialized record table -----------------
# first_gap stores one (first n, step, count, last gap) segment per
# convergent; tests/oracles.py keeps the table of every record it replaced.

GAP_LENGTHS = st.one_of(
    st.integers(-10**4, 10**4).filter(bool),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=2),
       st.lists(st.integers(1, 30), min_size=1, max_size=3),
       st.lists(st.tuples(GAP_LENGTHS, st.integers(0, 1)), min_size=1,
                max_size=8))
@example([], [1], [(1, 0), (1, 1), (Fraction(1), 0), (Fraction(1), 1)])
@example([3], [9, 2], [(17, 0), (-400, 1), (5, 0)])
@example([], [30], [(Fraction(1, 10**6), 1), (Fraction(1, 10**6), 0)])
def test_record_segments_are_the_record_table(prefix, period, queries):
    # an integer b gives the length frac(b*alpha); the queries share the
    # angle, so later ones read segments that earlier ones grew
    angle = RotationAngle([0] + prefix, period)
    for b, side in queries:
        length = angle.frac_value(0, b) if isinstance(b, int) else b
        assert angle.first_gap(length, side) == oracles.table_first_gap(
            angle, length, side)


def test_a_huge_partial_quotient_is_one_segment():
    # cf:[0;(10^30)]: the down-records n = 1..10^30 form one segment, and
    # the gap 1 - frac(m*alpha) is first undercut at m + 1
    a = 10**30
    angle = RotationAngle((0,), (a,))
    frac = angle.value.frac_times
    for m in (1, 12345, 10**20, a - 1):
        assert angle.first_gap(frac(-m), 1) == (m + 1, frac(-m - 1))
    # the base [0, alpha) returns at a, a + 1 and 2a + 1: all past max_r
    base = induction.IntervalUnion([(Surd(0), angle.value)])
    dec = induction.column_decomposition(induction.RotationAdapter(angle),
                                         base, 3)
    assert dec.cells == [] and dec.remainder_mass == angle.value
    assert angle.first_gap(angle.value, 0) == (a + 1, frac(a + 1))


def test_a_twenty_term_period_builds_and_reads():
    # its 89-bit discriminant keeps an 82-bit cofactor once the primes
    # below 1000 are divided out; the radicand is kept as given, unfactored
    period = (2, 2, 3, 3, 1, 2, 9, 7, 9, 5, 9, 4, 4, 7, 5, 8, 8, 6, 2, 6)
    start = time.perf_counter()
    angle = RotationAngle.parse(f"cf:[0;({','.join(map(str, period))})]")
    base = induction.IntervalUnion([(Surd(0), angle.value)])
    dec = induction.column_decomposition(induction.RotationAdapter(angle),
                                         base, 40)
    assert time.perf_counter() - start < 1.0
    assert [r for _, r in dec.cells] == [2, 3] and dec.kac_sum() == 1
    assert oracles.cf_terms_of(angle.value, 22) == [0, *period, 2]
    for side in (0, 1):
        assert angle.first_gap(angle.value, side) == (
            oracles.table_first_gap(angle, angle.value, side))
