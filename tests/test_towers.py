import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack.digits import PeriodicDigits, SeededDigits, zeros
from cutstack.errors import ExhaustedRules, NeedMoreDepth
from cutstack.specs import StackingSpec, builtin_spec, random_spec
from cutstack.towers import SPACER, LevelSet, RankOnePoint, RankOneSystem

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
            for pos in range(sys.height(i)):
                step = sys.decompose(i, pos)
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


# -- the induced base map: carry and advance --------------------------------


def _steps(sys, digits, n, budget=256):
    """n single induced steps: ([return time of each], digits after)."""
    rs = []
    for _ in range(n):
        r, digits = sys.advance(digits, 1, budget)
        rs.append(r)
    return rs, digits


def _state(digits):
    """The stage digits the moves have set, from stage 1 up, like the
    position walker's state()."""
    over = getattr(digits, "overrides", {})
    return tuple(over[k] for k in range(1, len(over) + 1))


def test_walker_return_times_match_apply():
    # each induced step must agree with iterating T until the base returns
    for sys in systems():
        digits = SeededDigits("wk", sys.cuts)
        p = RankOnePoint(1, 0, digits)
        base = LevelSet(1, {0})
        for _ in range(25):
            r, digits = sys.advance(digits, 1)
            q = p
            for steps in range(1, r + 1):
                q = sys.apply(q, 1)
                hit = sys.in_level_set(base, q)
                assert hit == (steps == r)
            p = RankOnePoint(1, 0, digits)
            assert sys.same_point(p, q)


def test_walker_step_back_inverts_step():
    sys = RankOneSystem(builtin_spec("chacon"))
    start = SeededDigits("bk", sys.cuts)
    rs, digits = _steps(sys, start, 30)
    back = []
    for _ in range(30):
        r, digits = sys.advance(digits, -1)
        back.append(-r)
    assert back == rs[::-1]
    assert sys.same_point(RankOnePoint(1, 0, digits),
                          RankOnePoint(1, 0, start))


def test_walker_advance_equals_sum_of_steps():
    for sys in systems():
        start = SeededDigits("adv", sys.cuts)
        rs, stepped = _steps(sys, start, 500)
        total, jumped = sys.advance(start, 500)
        assert total == sum(rs)
        assert _state(jumped) == _state(stepped)
        assert sys.advance(jumped, -500) == (-total, jumped.with_overrides(
            {k: start.digit(k) for k in jumped.overrides}))


def test_walker_odometer_matches_naive_carry():
    sys = RankOneSystem(builtin_spec("odometer(2,3)"))
    state = PeriodicDigits((), (0,))
    bases = [2, 3, 2, 3, 2, 3, 2, 3]
    digits = [0] * len(bases)
    for _ in range(50):
        state = sys.advance(state, 1)[1]
        digits = oracles.naive_odometer_successor(digits, bases)
        assert [state.digit(k) for k in range(1, 9)] == digits


def test_walker_return_time_peek_does_not_move():
    sys = RankOneSystem(builtin_spec("triple_heavy"))
    digits = SeededDigits("peek", sys.cuts)
    s, d = sys.carry(digits)
    assert sys.advance(digits, 1)[0] == sys.return_time(s, d)
    assert sys.return_time(*sys.carry(digits, 1, -1)) == -sys.advance(
        digits, -1)[0]


# -- carry and advance against the two-position oracle ---------------------


def _move(sys, digits, m):
    """0 peeks with carry, anything else advances by m: (result, digits)."""
    if m == 0:
        return sys.return_time(*sys.carry(digits)), digits
    return sys.advance(digits, m)


def _oracle_move(w, m):
    """The same move on the position walker: 0 peeks, 1 steps, -1 steps
    back (the step's time, negated), anything else advances by m."""
    if m == 0:
        return w.return_time()
    if m == 1:
        return w.step()
    if m == -1:
        return -w.step_back()
    return w.advance(m)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "budget", None)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), tail=st.integers(0, 10**6),
       moves=st.lists(st.integers(-60, 60), min_size=1, max_size=40))
def test_table_walker_is_the_position_walker(seed, tail, moves):
    spec = random_spec(seed)
    sys = RankOneSystem(spec)
    digits = SeededDigits(f"tw:{tail}", sys.cuts)
    old = oracles.PositionWalker(RankOneSystem(spec), digits)
    for m in moves:
        got, digits = _move(sys, digits, m)
        assert got == _oracle_move(old, m)
        assert _state(digits) == old.state()


def _give_up_calls(spec, budget):
    """(stream, read, oracle move, error on a finite spec) for moves that
    carry through every digit: maximal digits forward, zero digits
    backward.  A borrow over zeros writes c - 1 at every stage it passes,
    so it reads each cut count and runs out of rules like a forward
    carry."""
    sys = RankOneSystem(spec)
    top = PeriodicDigits([sys.cuts(k) - 1 for k in range(1, 12)],
                         (sys.cuts(12) - 1,))
    return [
        (top, lambda s, d: s.advance(d, 1, budget)[0],
         lambda w: w.step(budget), ExhaustedRules),
        (top, lambda s, d: s.return_time(*s.carry(d)),
         lambda w: w.return_time(), ExhaustedRules),
        (zeros(), lambda s, d: -s.advance(d, -1, budget)[0],
         lambda w: w.step_back(budget), ExhaustedRules),
        (top, lambda s, d: s.advance(d, 1, budget)[0],
         lambda w: w.advance(1, budget), ExhaustedRules),
    ]


def _give_up(spec, stream, read, move):
    """The read's outcome, which must be the position walker's, whose point
    after the give-up must be its point before."""
    old = oracles.PositionWalker(RankOneSystem(spec), stream)
    before = old.point()
    got = _outcome(read, RankOneSystem(spec), stream)
    assert got == _outcome(move, old)
    after = old.point()
    assert all(after.digits.digit(k) == before.digits.digit(k)
               for k in range(1, len(old.state()) + 2))
    return got


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), budget=st.integers(0, 12))
def test_table_walker_gives_up_where_the_position_walker_does(seed, budget):
    spec = random_spec(seed)
    for stream, read, move, _ in _give_up_calls(spec, budget):
        assert _give_up(spec, stream, read, move)[0] is NeedMoreDepth
    # a finite spec runs out of rules at the same stage
    finite = StackingSpec(spec.name, spec.initial_height,
                          spec.prefix + spec.tail, ())
    for stream, read, move, error in _give_up_calls(spec, 256):
        assert _give_up(finite, stream, read, move)[0] is error


def test_every_move_reads_a_budget_one_way():
    # a carry and an advance by one give up alike, past stage budget + 1,
    # forward and backward, and a negative budget allows no carry at all
    sys = RankOneSystem(builtin_spec("chacon"))
    up = PeriodicDigits((2, 2, 2), (0,))  # a step carries into stage 4
    down = PeriodicDigits((0, 0, 0), (1,))
    for budget in range(-2, 6):
        for stream, step in ((zeros(), 1), (up, 1), (down, -1)):
            got = _outcome(lambda: sys.return_time(
                *sys.carry(stream, 1, step, budget)))
            want = _outcome(lambda: step * sys.advance(stream, step,
                                                       budget)[0])
            assert got == want


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_a_move_that_gives_up_moves_nothing(budget):
    # the carry runs through stages 1 .. budget + 1 without settling: the
    # read raises, and the stream it was given still reads as before
    sys = RankOneSystem(builtin_spec("chacon"))
    for digit, edge, reads in (
            (2, "maximal", (lambda d: sys.carry(d, 1, 1, budget),
                            lambda d: sys.advance(d, 1, budget),
                            lambda d: sys.advance(d, 2, budget),
                            lambda d: sys.advance(d, 40, budget))),
            (0, "zero", (lambda d: sys.carry(d, 1, -1, budget),
                         lambda d: sys.advance(d, -1, budget),
                         lambda d: sys.advance(d, -2, budget),
                         lambda d: sys.advance(d, -40, budget)))):
        for read in reads:
            stream = PeriodicDigits((), (digit,))
            with pytest.raises(NeedMoreDepth,
                               match=f"all digits {edge} within budget"):
                read(stream)
            assert stream == PeriodicDigits((), (digit,))


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
