import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack.digits import PeriodicDigits, SeededDigits, zeros
from cutstack.errors import ExhaustedRules, NeedMoreDepth
from cutstack.specs import StackingSpec, builtin_spec, random_spec
from cutstack.towers import (
    SPACER,
    BaseOrbitWalker,
    LevelSet,
    RankOnePoint,
    RankOneSystem,
    build_towers,
)

NAMES = ["chacon", "dyadic_pair_left", "dyadic_pair_right", "triple_heavy",
         "odometer(2)", "odometer(2,3)"]


def systems():
    return [RankOneSystem(builtin_spec(n)) for n in NAMES]


def test_heights_match_explicit_stacking_oracle():
    for sys in systems():
        want = oracles.heights(sys.spec, 10)
        got = [sys.height(i) for i in range(1, 11)]
        assert got == want


def test_chacon_heights_known_values():
    sys = RankOneSystem(builtin_spec("chacon"))
    assert [sys.height(i) for i in range(1, 6)] == [1, 4, 13, 40, 121]


def test_widths_are_exact_and_masses_bounded():
    for sys in systems():
        want = oracles.widths(sys.spec, 10)
        got = [sys.width(i) for i in range(1, 11)]
        assert got == want
        for i in range(1, 11):
            mass = sys.height(i) * sys.width(i)
            assert 0 < mass <= 1
            assert sys.residual_mass(i) == 1 - mass


def test_provenance_matches_explicit_lists():
    for sys in systems():
        stages = oracles.stack_levels(sys.spec, 6)
        for i in range(2, 7):
            prev = stages[i - 2]
            cur = stages[i - 1]
            offs = sys.offsets(i - 1)
            for pos, step in enumerate(sys.provenance(i)):
                if step[0] == "spacer":
                    assert cur[pos] == ("level", i, pos)
                else:
                    _, col, lvl = step
                    assert cur[pos] == prev[lvl]
                    assert pos == offs[col] + lvl


def test_apply_walks_the_stage_in_order():
    # T moves straight up each stage stack, so iterating T from the bottom
    # level enumerates the level indices 0,1,2,... in order.
    for sys in systems():
        p = sys.point_at(4, 0, zeros())
        for want in range(1, sys.height(4)):
            p = sys.apply(p, 1)
            assert sys.level_index(p, 4) == want


def test_apply_inverse_roundtrip():
    rng = random.Random(7)
    for sys in systems():
        for t in range(40):
            p = sys.random_point(rng, 5, seed=f"rt:{t}")
            n = rng.randrange(-30, 31)
            q = sys.apply(sys.apply(p, n), -n)
            assert sys.same_point(p, q)


def test_apply_composition():
    rng = random.Random(8)
    sys = RankOneSystem(builtin_spec("chacon"))
    for t in range(40):
        p = sys.random_point(rng, 5, seed=f"comp:{t}")
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        lhs = sys.apply(p, a + b)
        rhs = sys.apply(sys.apply(p, a), b)
        assert sys.same_point(lhs, rhs)


def test_apply_needs_depth_on_all_zero_tail_backward():
    sys = RankOneSystem(builtin_spec("chacon"))
    p = sys.base_point()  # all digits zero: no predecessor is resolvable
    with pytest.raises(NeedMoreDepth):
        sys.apply(p, -1, budget=16)


def test_level_set_membership_and_measure():
    sys = RankOneSystem(builtin_spec("chacon"))
    lset = LevelSet(3, {0, 5, 7})
    assert sys.measure(lset) == 3 * sys.width(3)
    rng = random.Random(9)
    for t in range(60):
        p = sys.random_point(rng, 6, seed=f"ls:{t}")
        if p.birth_stage > 3:
            # born as a later spacer: outside every stage-3 level set
            assert not sys.in_level_set(lset, p)
        else:
            assert sys.in_level_set(lset, p) == (
                sys.level_index(p, 3) in {0, 5, 7}
            )


def test_read_names_partition_counts():
    for sys in systems():
        for m in (1, 2, 3):
            names = sys.read_names(m + 1, m)
            rule = sys.spec.rule(m)
            for lvl in range(sys.height(m)):
                assert names.count(lvl) == rule.cuts
            assert names.count(SPACER) == rule.total_spacers


def test_recover_spacers_roundtrips_rules():
    for sys in systems():
        for i in range(1, 6):
            below, above = sys.recover_spacers(i)
            rule = sys.spec.rule(i)
            assert below == rule.spacers_below
            assert above == rule.spacers_above


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_specs_recover_spacers(seed):
    sys = RankOneSystem(random_spec(seed))
    for i in range(1, 5):
        below, above = sys.recover_spacers(i)
        rule = sys.spec.rule(i)
        assert (below, above) == (rule.spacers_below, rule.spacers_above)


def test_build_towers_matches_system():
    spec = builtin_spec("triple_heavy")
    sys = RankOneSystem(spec)
    stages = build_towers(spec, 5)
    assert [s.height for s in stages] == [sys.height(i) for i in range(1, 6)]
    assert [s.width for s in stages] == [sys.width(i) for i in range(1, 6)]


# -- walker ----------------------------------------------------------------


def test_walker_return_times_match_apply():
    # each induced step must agree with iterating T until the base returns
    for sys in systems():
        digits = SeededDigits("wk", sys.cuts)
        w = BaseOrbitWalker(sys, digits)
        p = w.point()
        base = LevelSet(1, {0})
        for _ in range(25):
            r = w.step()
            q = p
            for steps in range(1, r + 1):
                q = sys.apply(q, 1)
                hit = sys.in_level_set(base, q)
                assert hit == (steps == r)
            p = w.point()
            assert sys.same_point(p, q)


def test_walker_step_back_inverts_step():
    sys = RankOneSystem(builtin_spec("chacon"))
    w = BaseOrbitWalker(sys, SeededDigits("bk", sys.cuts))
    rs = [w.step() for _ in range(30)]
    back = [w.step_back() for _ in range(30)]
    assert back == rs[::-1]
    w2 = BaseOrbitWalker(sys, SeededDigits("bk", sys.cuts))
    assert sys.same_point(w.point(), w2.point())


def test_walker_advance_equals_sum_of_steps():
    for sys in systems():
        w1 = BaseOrbitWalker(sys, SeededDigits("adv", sys.cuts))
        w2 = BaseOrbitWalker(sys, SeededDigits("adv", sys.cuts))
        total = sum(w1.step() for _ in range(500))
        assert w2.advance(500) == total
        assert w1.state() == w2.state()
        assert w2.advance(-500) == -total


def test_walker_odometer_matches_naive_carry():
    sys = RankOneSystem(builtin_spec("odometer(2,3)"))
    w = BaseOrbitWalker(sys, PeriodicDigits((), (0,)))
    bases = [2, 3, 2, 3, 2, 3, 2, 3]
    digits = [0] * len(bases)
    for _ in range(50):
        w.step()
        digits = oracles.naive_odometer_successor(digits, bases)
        got = list(w.state())
        assert got == digits[: len(got)]


def test_walker_return_time_peek_does_not_move():
    sys = RankOneSystem(builtin_spec("triple_heavy"))
    w = BaseOrbitWalker(sys, SeededDigits("peek", sys.cuts))
    r = w.return_time()
    assert w.step() == r


# -- the return-time table walker against the two-position oracle ----------


def _walker_pair(spec, stream):
    return (BaseOrbitWalker(RankOneSystem(spec), stream),
            oracles.PositionWalker(RankOneSystem(spec), stream))


def _move(w, m):
    """0 peeks, 1 steps, -1 steps back, anything else advances by m."""
    if m == 0:
        return w.return_time()
    if m == 1:
        return w.step()
    if m == -1:
        return w.step_back()
    return w.advance(m)


def _outcome(w, call):
    try:
        return call(w), w.state()
    except Exception as e:
        return (type(e), str(e), getattr(e, "budget", None)), w.state()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), tail=st.integers(0, 10**6),
       moves=st.lists(st.integers(-60, 60), min_size=1, max_size=40))
def test_table_walker_is_the_position_walker(seed, tail, moves):
    spec = random_spec(seed)
    sys = RankOneSystem(spec)
    new, old = _walker_pair(spec, SeededDigits(f"tw:{tail}", sys.cuts))
    for m in moves:
        assert _move(new, m) == _move(old, m)
        assert new.state() == old.state()


def _give_up_calls(spec, budget):
    """(stream, call, error on a finite spec) for calls that carry through
    every digit: maximal digits forward, zero digits backward.  A borrow
    over zeros writes c - 1 at every stage it passes, so it reads each
    cut count and runs out of rules like a forward carry."""
    sys = RankOneSystem(spec)
    top = PeriodicDigits([sys.cuts(k) - 1 for k in range(1, 12)],
                         (sys.cuts(12) - 1,))
    return [
        (top, lambda w: w.step(budget), ExhaustedRules),
        (top, lambda w: w.return_time(), ExhaustedRules),
        (zeros(), lambda w: w.step_back(budget), ExhaustedRules),
        (top, lambda w: w.advance(1, budget), ExhaustedRules),
    ]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), budget=st.integers(0, 12))
def test_table_walker_gives_up_where_the_position_walker_does(seed, budget):
    spec = random_spec(seed)
    for stream, call, _ in _give_up_calls(spec, budget):
        new, old = _walker_pair(spec, stream)
        got = _outcome(new, call)
        assert got == _outcome(old, call)
        assert got[0][0] is NeedMoreDepth
    # a finite spec runs out of rules at the same stage
    finite = StackingSpec(spec.name, spec.initial_height,
                          spec.prefix + spec.tail, ())
    for stream, call, error in _give_up_calls(spec, 256):
        new, old = _walker_pair(finite, stream)
        got = _outcome(new, call)
        assert got == _outcome(old, call)
        assert got[0][0] is error


def test_every_move_reads_a_budget_one_way():
    # step is advance(1), step_back is -advance(-1) and carry peeks at
    # advance(1): each gives up past stage budget + 1, and a negative
    # budget allows no carry at all
    sys = RankOneSystem(builtin_spec("chacon"))
    up = PeriodicDigits((2, 2, 2), (0,))  # a step carries into stage 4
    down = PeriodicDigits((0, 0, 0), (1,))
    for budget in range(-2, 6):
        for stream, one, other in (
            (zeros(), lambda w: w.step(budget),
             lambda w: w.advance(1, budget)),
            (up, lambda w: w.step(budget), lambda w: w.advance(1, budget)),
            (up, lambda w: sys.return_time(*w.carry(budget)),
             lambda w: w.advance(1, budget)),
            (down, lambda w: w.step_back(budget),
             lambda w: -w.advance(-1, budget)),
        ):
            got = _outcome(BaseOrbitWalker(sys, stream), one)
            assert got[0] == _outcome(BaseOrbitWalker(sys, stream), other)[0]


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_a_move_that_gives_up_moves_nothing(budget):
    # the carry runs through stages 1 .. budget + 1 without settling: the
    # digits it read are kept, and none is changed
    sys = RankOneSystem(builtin_spec("chacon"))
    for digit, edge, moves in (
            (2, "maximal", (lambda w: w.step(budget),
                            lambda w: w.advance(2, budget),
                            lambda w: w.advance(40, budget))),
            (0, "zero", (lambda w: w.step_back(budget),
                         lambda w: w.advance(-2, budget),
                         lambda w: w.advance(-40, budget)))):
        for move in moves:
            w = BaseOrbitWalker(sys, PeriodicDigits((), (digit,)))
            with pytest.raises(NeedMoreDepth,
                               match=f"all digits {edge} within budget"):
                move(w)
            assert w.state() == (digit,) * (budget + 1)


def test_same_point_compares_periodic_streams_exactly():
    # the streams first differ at stage 71, past 64 digits
    sys = RankOneSystem(builtin_spec("dyadic_pair_left"))
    late = PeriodicDigits((), (0,) * 70 + (1,))
    assert not sys.same_point(sys.base_point(late), sys.base_point(zeros()))
    assert sys.same_point(sys.base_point(late),
                          sys.base_point(PeriodicDigits((), late.tail * 2)))


def test_stage_data_is_one_based():
    sys = RankOneSystem(builtin_spec("chacon"))
    for read in (sys.cuts, sys.offsets, sys.height, sys.width):
        with pytest.raises(ValueError):
            read(0)


def _point_outcome(call):
    """A point as (birth stage, birth level, overrides, base stream), any
    other value as itself, or a failure as (type, message, budget)."""
    try:
        got = call()
    except Exception as e:
        return type(e), str(e), getattr(e, "budget", None)
    if isinstance(got, RankOnePoint):
        digits = got.digits
        return (got.birth_stage, got.birth_level,
                getattr(digits, "overrides", {}),
                getattr(digits, "base", digits))
    return got


@st.composite
def point_layer_cases(draw):
    """(spec, stage, level, stream, steps, budget): a builtin spec, or a
    finite one that runs out of rules; a stack level, sometimes just
    outside the stack; a seeded tail from that stage, sometimes with a
    digit past its cut count."""
    name = draw(st.sampled_from(NAMES + ["finite"]))
    if name == "finite":
        spec = random_spec(draw(st.integers(0, 10**6)))
        spec = StackingSpec(spec.name, spec.initial_height, spec.prefix, ())
        k = draw(st.integers(1, len(spec.prefix) + 1))
    else:
        spec = builtin_spec(name)
        k = draw(st.integers(1, 12))
    sys = RankOneSystem(spec)
    idx = draw(st.integers(-2, sys.height(k) + 1))
    stream = SeededDigits(f"pl:{draw(st.integers(0, 10**6))}", sys.cuts,
                          start=k)
    if draw(st.booleans()):
        bad = draw(st.integers(k, k + 6))
        stream = stream.with_overrides({bad: 5})
    steps = draw(st.one_of(st.integers(-40, 40), st.integers(-4000, 4000)))
    budget = draw(st.one_of(st.integers(0, 12), st.just(64)))
    return spec, k, idx, stream, steps, budget


def _finite_bad_digit():
    """A finite spec, a point at its last stage whose digit there is out of
    range: reading its level past the spec must fail on the digit first."""
    spec = random_spec(0)
    finite = StackingSpec(spec.name, spec.initial_height, spec.prefix, ())
    last = len(spec.prefix)
    cuts = RankOneSystem(spec).cuts
    stream = SeededDigits("pl:bad", cuts, start=last).with_overrides(
        {last: 5})
    return finite, last, 0, stream, 40, 64


@settings(max_examples=200, deadline=None)
@given(point_layer_cases())
@example(_finite_bad_digit())
def test_point_layer_reads_the_stage_tables_like_the_stage_readers(case):
    # equal points, levels and provenance steps, or the same exception
    # (ExhaustedDigits, NeedMoreDepth, ValueError for an unborn point or a
    # stage below 1, ExhaustedRules past a finite spec) with the same
    # message, each system grown only by the calls themselves
    spec, k, idx, stream, steps, budget = case
    new, old = RankOneSystem(spec), RankOneSystem(spec)
    calls = [
        (new.point_at, oracles.point_at, (k, idx, stream)),
        (new.decompose, oracles.decompose, (k, idx)),
        (new.decompose, oracles.decompose, (k + 1, idx)),
    ]
    point = oracles.point_at(RankOneSystem(spec), k, idx, stream)
    for j in range(point.birth_stage - 1, k + 4):
        calls.append((new.level_index, oracles.level_index, (point, j)))
    calls.append((new.apply, oracles.apply, (point, steps, budget)))
    for read, oracle, args in calls:
        assert (_point_outcome(lambda: read(*args))
                == _point_outcome(lambda: oracle(old, *args)))
