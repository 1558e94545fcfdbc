import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack import induction
from cutstack.arithmetic import golden_minus_1, sqrt2_minus_1
from cutstack.digits import SeededDigits
from cutstack.quadratic import Surd
from cutstack.specs import builtin_spec
from cutstack.towers import LevelSet, RankOnePoint, RankOneSystem


def test_lift_preserves_measure():
    sys = RankOneSystem(builtin_spec("triple_heavy"))
    a = LevelSet(2, {0, 3})
    for k in (3, 4, 5):
        lifted = induction.lift(sys, a, k)
        assert sys.measure(lifted) == sys.measure(a)


def test_lift_preserves_membership():
    sys = RankOneSystem(builtin_spec("chacon"))
    a = LevelSet(2, {1, 2})
    lifted = induction.lift(sys, a, 5)
    rng = random.Random(3)
    for t in range(80):
        p = sys.random_point(rng, 6, seed=f"lift:{t}")
        if p.birth_stage > 2:
            continue
        assert sys.in_level_set(a, p) == sys.in_level_set(lifted, p)


def test_interval_union_algebra():
    u = induction.IntervalUnion([(Surd(0), Surd(Fraction(1, 3))),
                                 (Surd(Fraction(1, 4)), Surd(Fraction(1, 2)))])
    assert u.measure() == Surd(Fraction(1, 2))  # overlapping pieces merge
    v = induction.IntervalUnion([(Surd(Fraction(1, 3)), Surd(1))])
    assert oracles.pairwise_intersect(u, v).measure() == Surd(Fraction(1, 6))
    assert u.difference(v).measure() == Surd(Fraction(1, 3))
    assert u.contains(Surd(Fraction(1, 5)))
    assert not u.contains(Surd(Fraction(3, 4)))


# endpoints from a small pool of rationals and surds, so that drawn
# intervals often touch, nest or coincide
ENDPOINTS = sorted([Surd(Fraction(i, 6)) for i in range(7)]
                   + [(Surd.sqrt(2) - 1) * Surd(Fraction(i, 2))
                      for i in (1, 2)])


def _union(pairs):
    return induction.IntervalUnion(
        [(ENDPOINTS[min(i, j)], ENDPOINTS[max(i, j)]) for i, j in pairs])


unions = st.lists(st.tuples(st.integers(0, len(ENDPOINTS) - 1),
                            st.integers(0, len(ENDPOINTS) - 1)), max_size=5)


def _apart(u):
    """Sorted, disjoint and no two touching: the IntervalUnion invariant."""
    return all(l < r for l, r in u.intervals) and all(
        r1 < l2 for (_, r1), (l2, _) in zip(u.intervals, u.intervals[1:]))


@settings(max_examples=300, deadline=None)
@given(unions, unions)
@example([(0, 3)], [(3, 6)])  # touching
@example([(0, 8)], [(2, 4), (5, 6)])  # nested
@example([(1, 4), (5, 7)], [(1, 4), (5, 7)])  # equal
@example([(2, 4)], [(0, 8)])  # swallowed
def test_one_pass_difference_is_the_piece_splitting_one(a, b):
    u, v = _union(a), _union(b)
    got = u.difference(v)
    assert got.intervals == oracles.piece_difference(u, v).intervals
    assert _apart(got)
    meet = oracles.pairwise_intersect(u, v)
    assert got.measure() + meet.measure() == u.measure()


def test_interval_union_orders_close_endpoints_exactly():
    # b lies within 2^-140 above a: closer than a 96-bit sort key can tell
    a = 2 - Surd.sqrt(2)
    b = Surd(a.approx(140))
    assert a < b
    u = induction.IntervalUnion([(b, Surd(1)), (a, Surd(1))])
    assert u.measure() == 1 - a
    assert u.contains(a)


def test_return_time_and_induced_apply_rank_one():
    sys = RankOneSystem(builtin_spec("chacon"))
    ad = induction.RankOneAdapter(sys)
    base = LevelSet(1, {0})
    digits = SeededDigits("ind", sys.cuts)
    p = RankOnePoint(1, 0, digits)
    for _ in range(30):
        r = induction.return_time(ad, base, p)
        assert r == sys.return_time(*sys.carry(digits))
        q = induction.induced_apply(ad, base, p)
        digits = sys.advance(digits, 1)[1]
        assert sys.same_point(q, RankOnePoint(1, 0, digits))
        back = oracles.induced_inverse(ad, base, q)
        assert sys.same_point(back, p)
        p = q


def test_column_decomposition_rank_one_kac():
    for name in ("chacon", "dyadic_pair_left", "triple_heavy"):
        sys = RankOneSystem(builtin_spec(name))
        ad = induction.RankOneAdapter(sys)
        base = LevelSet(1, {0})
        prev = Fraction(0)
        for stage in (3, 5, 7):
            dec = induction.column_decomposition(ad, base, stage)
            # Kac: sum of r * mass(cell) climbs toward 1 with the stage
            total = dec.kac_sum()
            assert prev < total < 1
            prev = total
            # the single unresolved cell is the topmost lifted level
            assert dec.remainder_mass == sys.width(stage)
            # exact telescoping: the sum spans first to last lifted copy
            lifted = induction.lift(sys, base, stage)
            idx = sorted(lifted.level_indices)
            assert total == (idx[-1] - idx[0]) * sys.width(stage)


def test_column_decomposition_masses_sum_to_base():
    sys = RankOneSystem(builtin_spec("chacon"))
    ad = induction.RankOneAdapter(sys)
    base = LevelSet(1, {0})
    dec = induction.column_decomposition(ad, base, 4)
    mass = sum(sys.measure(cell) for cell, _ in dec.cells)
    mass += dec.remainder_mass
    assert mass == sys.measure(base)


def test_decomposition_histogram_rows_sorted():
    sys = RankOneSystem(builtin_spec("triple_heavy"))
    ad = induction.RankOneAdapter(sys)
    dec = induction.column_decomposition(ad, LevelSet(1, {0}), 4)
    rows = induction.decomposition_histogram(dec)
    rs = [r for r, _, _, _ in rows]
    assert rs == sorted(rs)
    assert all(cnt >= 1 for _, _, _, cnt in rows)


def test_rotation_decomposition_two_return_times():
    for make in (sqrt2_minus_1, golden_minus_1):
        angle = make()
        ad = induction.RotationAdapter(angle)
        base = induction.IntervalUnion([(Surd(0), angle.value)])
        dec = induction.column_decomposition(ad, base, 16)
        rs = sorted(r for _, r in dec.cells)
        assert len(rs) == 2 and rs[1] == rs[0] + 1
        assert dec.kac_sum() == Surd(1)


def test_rotation_decomposition_small_budget_leaves_remainder():
    angle = sqrt2_minus_1()
    ad = induction.RotationAdapter(angle)
    base = induction.IntervalUnion([(Surd(0), angle.value)])
    dec = induction.column_decomposition(ad, base, 1)
    assert not dec.remainder.is_empty()
    assert dec.kac_sum() < Surd(1)


def test_skyscraper_rank_one_partitions_space():
    sys = RankOneSystem(builtin_spec("odometer(2)"))
    ad = induction.RankOneAdapter(sys)
    sky = induction.skyscraper(ad, LevelSet(1, {0}), 2**6, working_stage=6)
    mass = sum((ad.measure(lv) for lv in sky.levels), Fraction(0))
    assert mass == 1
    # levels are pairwise disjoint stage-6 sets
    seen = set()
    for lv in sky.levels:
        assert not (lv.level_indices & seen)
        seen |= lv.level_indices
