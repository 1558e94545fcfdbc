import json
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from cutstack import ergodic, matching
from cutstack.digits import (PeriodicDigits, SeededDigits, explicit_extent,
                             zeros)
from cutstack.errors import (
    HorizonExhausted,
    InadmissiblePair,
    MarginViolation,
    NeedMoreDepth,
    WindowEdge,
)
from cutstack.specs import (
    StackingSpec,
    builtin_spec,
    parse_spec_json,
    random_spec,
)
from cutstack.towers import (BaseOrbitWalker, LevelSet, RankOnePoint,
                             RankOneSystem)


def dyadic():
    return matching.dyadic_even_pair()


def test_validate_pair_accepts_even_dyadic():
    matching.validate_pair(dyadic(), even=True)


def test_validate_pair_rejects_unequal_masses_as_even():
    pair = matching.chacon_triple_noneven_pair()
    with pytest.raises(InadmissiblePair):
        matching.validate_pair(pair, even=True)
    # but the same pair is fine when evenness is not demanded
    matching.validate_pair(pair, even=False)


def test_validate_pair_compares_periodic_cut_counts_exactly():
    # both cut in two for 24 stages, then 2 vs 3 from stage 25 on
    rule = {"cuts": 2, "above": [0, 1]}
    two = parse_spec_json(json.dumps({"stages": [rule] * 24,
                                      "tail": [rule]}))
    three = parse_spec_json(json.dumps(
        {"stages": [rule] * 24, "tail": [{"cuts": 3, "above": [0, 1, 0]}]}))
    pair = matching.PairSpec("late", RankOneSystem(two), RankOneSystem(three))
    with pytest.raises(InadmissiblePair,
                       match="^cut counts differ at stage 25: 2 vs 3$"):
        matching.validate_pair(pair)
    # tails of periods 5 and 7 after 20 stages in two: 3 cuts first at
    # stage 25 on the left, at stage 27 on the right
    b = {"cuts": 3, "above": [0, 1, 0]}
    five = parse_spec_json(json.dumps({"stages": [rule] * 20,
                                       "tail": [rule] * 4 + [b]}))
    seven = parse_spec_json(json.dumps({"stages": [rule] * 20,
                                        "tail": [rule] * 6 + [b]}))
    pair = matching.PairSpec("periods", RankOneSystem(five),
                             RankOneSystem(seven))
    with pytest.raises(InadmissiblePair,
                       match="^cut counts differ at stage 25: 3 vs 2$"):
        matching.validate_pair(pair)
    left = RankOneSystem(builtin_spec("dyadic_pair_left"))
    assert matching.validate_pair(
        matching.PairSpec("same", RankOneSystem(two), left))


def test_base_measures_and_evenness():
    pair = dyadic()
    mx, my = pair.base_measures()
    assert mx == my == Fraction(1, 2)
    assert pair.is_even()
    assert not matching.chacon_triple_noneven_pair().is_even()


def test_height_above_base_descends_to_base_point():
    pair = dyadic()
    sys = pair.sys_x
    base = pair.base_x()
    rng = random.Random(1)
    for t in range(60):
        x = sys.random_point(rng, 6, seed=f"hab:{t}")
        h, base_pt = matching.height_above_base(sys, base, x)
        assert h >= 0
        assert sys.in_level_set(base, base_pt)
        assert sys.same_point(sys.apply(base_pt, h), x)
        if h > 0:
            # no earlier base hit strictly below x
            for j in range(1, h):
                assert not sys.in_level_set(
                    base, sys.apply(base_pt, j)
                )


HEIGHT_SPECS = ("chacon", "triple_heavy", "dyadic_pair_left",
                "dyadic_pair_right")


@st.composite
def height_cases(draw):
    """(system, base, point): a builtin system; the pair base, a non-even
    plan's LevelSet(m + 1, {0}), a top level of stage 1-3 (often with no
    base copy below within 8 stages) or an empty base; a point at stage
    1-8 over low digits, a run of zeros, a periodic tail and overrides,
    born where point_at puts it or at any level of its stage.  The oracle
    lifts the base to each stage up to the one it resolves at, K, so K
    stays at most 13 on radix 2 and 11 on radix 3: K is at most k0 + 8,
    and, on a non-empty base, at most the stage after the first nonzero
    digit from where the climb starts."""
    system = RankOneSystem(builtin_spec(draw(st.sampled_from(HEIGHT_SPECS))))
    cuts = system.cuts
    kind = draw(st.sampled_from(("pair", "plan", "top", "empty")))
    if kind == "pair":
        base = LevelSet(1, {0})
    elif kind == "empty":
        base = LevelSet(draw(st.integers(1, 3)), set())
    elif kind == "plan":
        base = LevelSet(draw(st.integers(2, 5)), {0})
    else:
        k = draw(st.integers(1, 3))
        base = LevelSet(k, {system.height(k) - 1})
    low = draw(st.lists(st.integers(0, 2), max_size=4))
    run = draw(st.integers(0, 10))
    high = draw(st.lists(st.integers(0, 2), max_size=3))
    stream = PeriodicDigits(
        [d % cuts(k) for k, d in enumerate(low + [0] * run + high, 1)],
        draw(st.sampled_from(((0,), (1, 0), (1,)))))
    stream = stream.with_overrides(
        {k: v % cuts(k) for k, v in draw(st.dictionaries(
            st.integers(1, 10), st.integers(0, 2), max_size=2)).items()})
    stage = draw(st.integers(1, 8))
    level = draw(st.integers(0, system.height(stage) - 1))
    point = (system.point_at(stage, level, stream) if draw(st.booleans())
             else RankOnePoint(stage, level, stream))
    digits = point.digits
    k0 = max(base.stage, point.birth_stage, explicit_extent(digits) + 1)
    start = max(base.stage, point.birth_stage)
    K = next((max(k0, k + 1) for k in range(start, k0 + 8)
              if digits.digit(k)), k0 + 8)
    assume(K <= (13 if cuts(1) == 2 else 11))
    return system, base, point


def _height_outcome(read, system, base, point):
    try:
        h, base_pt = read(system, base, point)
    except Exception as e:
        return type(e), str(e), getattr(e, "budget", None)
    return (h, base_pt.birth_stage, base_pt.birth_level,
            getattr(base_pt.digits, "overrides", None),
            matching.point_id(system, base_pt))


DYADIC_X = RankOneSystem(builtin_spec("dyadic_pair_left"))


@settings(max_examples=500, deadline=None)
@given(height_cases())
@example((DYADIC_X, LevelSet(2, {DYADIC_X.height(2) - 1}),  # found at k0 + 8
          DYADIC_X.point_at(2, 0, PeriodicDigits((), (0,) * 8 + (1,)))))
def test_height_climb_is_the_lifted_search(case):
    # equal h, base point (birth, overrides, point_id), or the same
    # exception type, message and budget
    system, base, point = case
    got = _height_outcome(matching.height_above_base, system, base, point)
    want = _height_outcome(oracles.height_above_base, system, base, point)
    assert got == want


def test_height_above_base_of_deep_points():
    # resolved at stage K >= 18, where the lifted search held 2^17 or 3^17
    # base copies; the climb reads K digits
    chacon = RankOneSystem(builtin_spec("chacon"))
    dyadic_x = RankOneSystem(builtin_spec("dyadic_pair_left"))
    cases = [
        (dyadic_x, LevelSet(1, {0}),
         dyadic_x.point_at(6, 37, zeros().with_overrides({20: 1}))),
        (dyadic_x, LevelSet(3, {0}),
         dyadic_x.point_at(4, 9, SeededDigits("deep", dyadic_x.cuts)
                           .with_overrides({23: 1}))),
        # zero digits under a stage-2 top level: the first base copy below
        # the point comes with its stage-18 digit
        (chacon, LevelSet(2, {chacon.height(2) - 1}),
         chacon.point_at(7, 2, PeriodicDigits([0] * 17 + [1], (0, 2)))),
        (chacon, LevelSet(1, {0}),
         chacon.point_at(5, 11, zeros().with_overrides({19: 2}))),
    ]
    for system, base, x in cases:
        h, base_pt = matching.height_above_base(system, base, x)
        assert max(base_pt.birth_stage,
                   explicit_extent(base_pt.digits) + 1) >= 18
        assert system.in_level_set(base, base_pt)
        assert system.same_point(system.apply(base_pt, h), x)
        # h is below the base point's first return time
        assert not any(system.in_level_set(base, system.apply(base_pt, j))
                       for j in range(1, h + 1))


def test_return_window_matches_walker():
    pair = dyadic()
    stream = SeededDigits("rw", pair.sys_x.cuts)
    win = matching.return_window(pair.sys_x, stream, 8)
    w = BaseOrbitWalker(pair.sys_x, stream)
    assert win[0] == w.return_time()
    fwd = [w.step() for _ in range(8)]
    assert [win[i] for i in range(8)] == fwd


def _window_outcome(system, stream, window, budget, read):
    try:
        return read(system, stream, window, budget)
    except Exception as e:
        return type(e), str(e), getattr(e, "budget", None)


@st.composite
def window_cases(draw):
    """(spec, stream, window, budget): a random spec or its finite version,
    and a seeded stream or low digits over an all-maximal or all-zero tail,
    which push the window across block ends and past the budget; small
    windows often end exactly on a block's last position."""
    spec = random_spec(draw(st.integers(0, 10**6)))
    cuts = RankOneSystem(spec).cuts
    if draw(st.booleans()):
        spec = StackingSpec(spec.name, spec.initial_height,
                            spec.prefix + spec.tail, ())
    kind = draw(st.sampled_from(("seeded", "top", "zero")))
    if kind == "seeded":
        stream = SeededDigits(f"rw:{draw(st.integers(0, 10**6))}",
                              RankOneSystem(spec).cuts)
    else:
        tail = (PeriodicDigits([cuts(k) - 1 for k in range(1, 12)],
                               (cuts(12) - 1,))
                if kind == "top" else zeros())
        low = draw(st.lists(st.integers(0, 3), max_size=10))
        stream = tail.with_overrides(
            {k: v % cuts(k) for k, v in enumerate(low, 1)})
    window = draw(st.one_of(st.integers(0, 8), st.integers(0, 600)))
    budget = draw(st.one_of(st.integers(0, 12), st.just(256)))
    return spec, stream, window, budget


@settings(max_examples=200, deadline=None)
@given(window_cases())
# r(4) ends the stage-1..2 block and carries into stage 13: NeedMoreDepth
# at budget 1, as window 5 raises
@example((builtin_spec("chacon"), PeriodicDigits((1, 1) + (2,) * 10, (0,)),
          4, 1))
def test_return_window_is_the_step_by_step_walk(case):
    spec, stream, window, budget = case
    got = _window_outcome(RankOneSystem(spec), stream, window, budget,
                          matching.return_window)
    want = _window_outcome(RankOneSystem(spec), stream, window, budget,
                           oracles.walker_return_window)
    assert got == want


def test_frame_conservation_and_injectivity():
    pair = dyadic()
    for s in range(6):
        stream = SeededDigits(f"frame:{s}", pair.sys_x.cuts)
        W = 48
        f = matching.build_frame(pair, stream, W)
        # injectivity: one slot per item, one item per slot
        assert len(f.inverse) == len(f.assignment)
        items = sum(f.ra[i] - 1 for i in range(-W, W + 1))
        slots = sum(f.rb[j] - 1 for j in range(-W, W + 1))
        assert len(f.assignment) + len(f.unplaced) == items
        assert len(f.assignment) + len(f.unfilled) == slots
        # every slot depth is within its pit capacity, shifts are >= 0
        for (i, h), (j, d) in f.assignment.items():
            assert 1 <= h <= f.ra[i] - 1
            assert 1 <= d <= f.rb[j] - 1
            assert j >= i


@st.composite
def nested_windows(draw):
    """Return-time dicts on -W'..W' (values 1..8) and windows W < W'."""
    wide = draw(st.integers(min_value=1, max_value=16))
    W = draw(st.integers(min_value=0, max_value=wide - 1))
    times = st.lists(st.integers(min_value=1, max_value=8),
                     min_size=2 * wide + 1, max_size=2 * wide + 1)
    ra = dict(zip(range(-wide, wide + 1), draw(times)))
    rb = dict(zip(range(-wide, wide + 1), draw(times)))
    return ra, rb, W, wide


@settings(max_examples=300, deadline=None)
@given(nested_windows())
def test_ballot_scan_is_the_deposit_machine_and_final(case):
    ra, rb, W, wide = case
    scan = matching._ballot_scan(ra, rb, W)
    assert scan == oracles.deposit_frame(ra, rb, W)
    # a slot placed at W is the same slot in every wider window
    wider = matching._ballot_scan(ra, rb, wide)[0]
    assert all(wider[item] == slot for item, slot in scan[0].items())


def test_placed_assignments_survive_window_doubling():
    pair = dyadic()
    for s in range(6):
        stream = SeededDigits(f"stab:{s}", pair.sys_x.cuts)
        frac, f1, f2 = matching.frame_stability(pair, stream, 48)
        assert frac == 1
        assert matching.edge_violations(pair, stream, 48) == []


@pytest.fixture
def builds(monkeypatch):
    """The windows of every matching.build_frame call, in order."""
    windows = []

    def counted(pair, digits, window, budget=256, _build=matching.build_frame):
        windows.append(window)
        return _build(pair, digits, window, budget)

    monkeypatch.setattr(matching, "build_frame", counted)
    return windows


@pytest.fixture
def edge_item(monkeypatch):
    """Real frames give no edge items, so the audit reports one more, read
    off both frames: an answer for another window or pair differs."""
    def audit(f1, f2, _audit=matching._frame_audit):
        frac, bad = _audit(f1, f2)
        return frac, bad + [((0, f1.window), (f2.window, len(f2.assignment)))]

    monkeypatch.setattr(matching, "_frame_audit", audit)


def test_an_audit_step_builds_each_frame_once(builds):
    # one criterion-04 step: frame_stability, then edge_violations on the
    # same stream and window
    pair = dyadic()
    stream = SeededDigits("once", pair.sys_x.cuts)
    matching.frame_stability(pair, stream, 64)
    assert matching.edge_violations(pair, stream, 64) == []
    assert builds == [64, 128]


@pytest.mark.parametrize("case,rebuilds", [
    ("same stream", []),
    ("equal stream", [32, 64]),
    ("other window", [16, 32]),
    ("other pair", [32, 64]),
])
def test_edge_violations_after_frame_stability(builds, edge_item, case,
                                               rebuilds):
    pair = dyadic()
    stream = SeededDigits("memo", pair.sys_x.cuts)
    matching.frame_stability(pair, stream, 32)
    window = 16 if case == "other window" else 32
    if case == "equal stream":
        stream = SeededDigits("memo", pair.sys_x.cuts)
    if case == "other pair":
        pair = matching.identity_pair("dyadic_pair_left")
    del builds[:]
    got = matching.edge_violations(pair, stream, window)
    assert builds == rebuilds
    assert got == oracles.rebuilt_edge_violations(pair, stream, window)
    assert got


def test_edge_violations_keep_no_frame():
    pair = dyadic()
    stream = SeededDigits("keep", pair.sys_x.cuts)
    _, f1, f2 = matching.frame_stability(pair, stream, 32)
    # an audit of these frames would now find every interior item unplaced
    # at 32 and placed at 64 near the middle
    f1.assignment.clear()
    f2.assignment.update(dict.fromkeys(f2.assignment, (0, 1)))
    assert matching.edge_violations(pair, stream, 32) == []
    assert oracles.rebuilt_edge_violations(pair, stream, 32) == []


def test_edge_violations_hand_out_a_copy(builds, edge_item):
    pair = dyadic()
    stream = SeededDigits("copy", pair.sys_x.cuts)
    matching.frame_stability(pair, stream, 32)
    matching.edge_violations(pair, stream, 32).clear()
    matching.edge_violations(pair, stream, 32).append(None)
    got = matching.edge_violations(pair, stream, 32)
    assert builds == [32, 64]
    assert got == oracles.rebuilt_edge_violations(pair, stream, 32)
    assert got


def test_machine_agrees_with_strict_formula():
    pair = dyadic()
    for s in range(40):
        stream = SeededDigits(f"agree:{s}", pair.sys_x.cuts)
        w = BaseOrbitWalker(pair.sys_x, stream)
        for h in range(w.return_time()):
            mach = matching.even_match_machine(pair, stream, h, window=64)
            form = matching.even_match_formula(pair, stream, h, strict=True)
            assert (mach.n, mach.d) == (form.n, form.d)


def test_nonstrict_disagreements_only_on_boundary():
    pair = dyadic()
    seen = 0
    for s in range(300):
        stream = SeededDigits(f"bdy:{s}", pair.sys_x.cuts)
        w = BaseOrbitWalker(pair.sys_x, stream)
        for h in range(w.return_time()):
            strict = matching.even_match_formula(pair, stream, h, strict=True)
            loose = matching.even_match_formula(pair, stream, h, strict=False)
            if (strict.n, strict.d) != (loose.n, loose.d):
                seen += 1
                assert loose.boundary
    assert seen > 0  # the two conventions genuinely differ somewhere


def test_phi_hat_roundtrip_and_inverse_identities():
    pair = dyadic()
    rng = random.Random(5)
    for t in range(60):
        x = pair.sys_x.random_point(rng, 6, seed=f"phr:{t}")
        rec = matching.phi_hat_stable(pair, x)
        inv = matching.phi_hat_inverse_stable(pair, rec.y)
        assert pair.sys_x.same_point(inv.x, x)
        # depth/height bookkeeping matches in both directions
        assert inv.D == rec.d
        assert inv.H == rec.h


def test_phi_hat_modes_agree():
    pair = dyadic()
    rng = random.Random(6)
    for t in range(40):
        x = pair.sys_x.random_point(rng, 6, seed=f"modes:{t}")
        a = matching.phi_hat_stable(pair, x)
        b = matching.phi_hat(pair, x, mode="formula", strict=True,
                             horizon=2**14)
        assert (a.h, a.n, a.d) == (b.h, b.n, b.d)
        assert pair.sys_y.same_point(a.y, b.y)


def test_phi_hat_base_points_use_phi_directly():
    # base points (h = 0) map with shift 0 and depth 0: phi alone
    pair = dyadic()
    stream = SeededDigits("base", pair.sys_x.cuts)
    rec = matching.even_match_formula(pair, stream, 0, strict=True)
    assert (rec.h, rec.n, rec.d) == (0, 0, 0)


def test_stopping_time_finite_and_consistent():
    pair = dyadic()
    for s in range(30):
        stream = SeededDigits(f"stop:{s}", pair.sys_x.cuts)
        n = matching.stopping_time(pair, stream)
        assert 0 <= n < 2**16
        top = BaseOrbitWalker(pair.sys_x, stream).return_time() - 1
        top_item = matching.even_match_formula(pair, stream, top,
                                               strict=True, horizon=2**16)
        assert n == top_item.n


def test_inverse_formula_is_the_inverse_machine():
    # the mirrored walk (Y backward against X backward) must give the slot
    # the machine fills, for every filled slot (0, D) of the pit at 0
    pair = dyadic()
    shifts = []
    for s in range(20):
        stream = SeededDigits(f"invf:{s}", pair.sys_x.cuts)
        frame = matching.build_frame(pair, stream, 32)
        for D in range(1, frame.rb[0]):
            if (0, D) not in frame.inverse:
                continue
            mach = matching.even_match_inverse_machine(pair, stream, D, 32)
            form = matching.even_match_inverse_formula(pair, stream, D,
                                                       strict=True)
            assert (form.m, form.H) == (mach.m, mach.H)
            assert pair.sys_x.same_point(form.x, mach.x)
            shifts.append(form.m)
    assert len(shifts) >= 20 and max(shifts) >= 2


PAIRS = {
    "dyadic": matching.dyadic_even_pair(),
    "chacon_triple": matching.chacon_triple_noneven_pair(),
    "identity_chacon": matching.identity_pair("chacon"),
}
dyadic_cuts = PAIRS["dyadic"].sys_x.cuts

READERS = {  # (forward?, mode) -> (reader, mirrored oracle reader)
    (True, "formula"): (matching.even_match_formula,
                        oracles.even_match_formula),
    (False, "formula"): (matching.even_match_inverse_formula,
                         oracles.even_match_inverse_formula),
    (True, "machine"): (matching.even_match_machine,
                        oracles.even_match_machine),
    (False, "machine"): (matching.even_match_inverse_machine,
                         oracles.even_match_inverse_machine),
}


def _match_outcome(read, *args, **kwargs):
    """A record as (type name, fields without `stable`), or a failure as
    (type, message, window, budget)."""
    try:
        rec = read(*args, **kwargs)
    except Exception as e:
        return (type(e), str(e), getattr(e, "window", None),
                getattr(e, "budget", None))
    return type(rec).__name__, tuple(
        getattr(rec, f.name) for f in fields(rec) if f.name != "stable")


@st.composite
def match_cases(draw):
    """(pair, stream, forward, mode, k, options): k mostly inside the
    source pile or pit, where the matched shift can be nonzero; small
    horizons, windows and budgets make the readers give up."""
    pair = PAIRS[draw(st.sampled_from(("dyadic",) * 2 + tuple(PAIRS)))]
    stream = SeededDigits(f"two:{draw(st.integers(0, 10**6))}",
                          pair.sys_x.cuts)
    forward = draw(st.booleans())
    mode = draw(st.sampled_from(("formula", "machine")))
    src_sys, src_digits = ((pair.sys_x, stream) if forward
                           else (pair.sys_y, stream))
    top = BaseOrbitWalker(src_sys, src_digits).return_time() - 1
    k = draw(st.one_of(st.just(top), st.integers(0, top), st.integers(0, 12)))
    budget = draw(st.one_of(st.integers(0, 12), st.just(256)))
    if mode == "formula":
        opts = {"strict": draw(st.booleans()),
                "horizon": draw(st.one_of(st.integers(0, 40),
                                          st.just(4096)))}
    else:
        opts = {"window": draw(st.integers(0, 40))}
    return pair, stream, forward, mode, k, dict(opts, budget=budget)


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_two_way_readers_are_the_mirrored_readers(case):
    # equal records, or the same exception type, message and window, in
    # both directions and both modes; except where the two-sided machine
    # oracle runs out of depth: it carries on both sides of the base point,
    # and a machine read only on its own (see the one-sided oracle below)
    pair, stream, forward, mode, k, opts = case
    new, old = READERS[(forward, mode)]
    want = _match_outcome(old, pair, stream, k, **opts)
    if mode == "machine" and want[0] is NeedMoreDepth:
        return
    assert _match_outcome(new, pair, stream, k, **opts) == want


def test_two_way_readers_on_whole_columns():
    # every item of a pile and every slot of a pit, read both ways, with
    # nonzero shifts and boundary-flagged inverse records among them
    pair = dyadic()
    shifted = flagged = 0
    for s in range(30):
        stream = SeededDigits(f"cols:{s}", pair.sys_x.cuts)
        for (forward, mode), (new, old) in READERS.items():
            src = pair.sys_x if forward else pair.sys_y
            top = BaseOrbitWalker(src, stream).return_time()
            for opts in ([{"strict": False}, {"strict": True}]
                         if mode == "formula" else [{"window": 64}]):
                for k in range(top):
                    got = _match_outcome(new, pair, stream, k, **opts)
                    assert got == _match_outcome(old, pair, stream, k, **opts)
                    if got[0] == "InverseMatchRecord":
                        shifted += mode == "machine" and got[1][2] > 0
                        flagged += got[1][-1]
    assert shifted > 0 and flagged > 0


@st.composite
def one_sided_cases(draw):
    """(pair, stream, forward, k, window, budget): a seeded stream or an
    all-maximal or all-zero tail, with a run of up to 20 maximal or zero
    low digits under a few drawn ones, which puts either edge carry of a
    window past small budgets."""
    pair = PAIRS[draw(st.sampled_from(tuple(PAIRS)))]
    cuts = pair.sys_x.cuts
    kind = draw(st.sampled_from(("seeded", "top", "zero")))
    if kind == "seeded":
        stream = SeededDigits(f"one:{draw(st.integers(0, 10**6))}", cuts)
    else:  # every pair cuts each stage alike
        stream = (PeriodicDigits((), (cuts(1) - 1,)) if kind == "top"
                  else zeros())
    maximal = draw(st.booleans())
    low = {k: cuts(k) - 1 if maximal else 0
           for k in range(1, draw(st.integers(0, 20)) + 1)}
    low.update({k: v % cuts(k) for k, v in
                enumerate(draw(st.lists(st.integers(0, 2), max_size=3)), 1)})
    stream = stream.with_overrides(low)
    forward = draw(st.booleans())
    src = pair.sys_x if forward else pair.sys_y
    try:
        top = BaseOrbitWalker(src, stream).return_time() - 1
    except NeedMoreDepth:
        top = 0
    k = draw(st.one_of(st.just(top), st.integers(0, top), st.integers(0, 12)))
    window = draw(st.integers(0, 40))
    budget = draw(st.one_of(st.integers(0, 12), st.just(256)))
    return pair, stream, forward, k, window, budget


# found while sizing the one-sided read: the item is not placed within the
# window, and only the two-sided frame's backward carry runs past budget 1
_FAR_SIDE_PAST_BUDGET = (PAIRS["dyadic"], SeededDigits("two:2", dyadic_cuts),
                         True, 1, 1, 1)


@settings(max_examples=300, deadline=None)
@given(one_sided_cases())
@example(_FAR_SIDE_PAST_BUDGET)
# backward, window 5 past the position N = 3 in the stage-1..3 block: the
# edge carry reads r(-4); the slot is filled from the pile at shift 1
@example((PAIRS["dyadic"], SeededDigits("two:0", dyadic_cuts), False, 2, 5,
          256))
# forward, N = 0 and window 1 reach the stage-1 block's last position
# P - 1 = 1: the item drops into pit 1, whose time is the edge carry's
@example((PAIRS["dyadic"], SeededDigits("two:6", dyadic_cuts), True, 1, 1,
          256))
def test_one_sided_read_is_the_deposit_machine_on_its_side(case):
    # equal records, or the same exception type, message, window and budget
    pair, stream, forward, k, window, budget = case
    read = (matching.even_match_machine if forward
            else matching.even_match_inverse_machine)
    assert (_match_outcome(read, pair, stream, k, window=window,
                           budget=budget)
            == _match_outcome(oracles.one_sided_machine, pair, stream,
                              forward, k, window=window, budget=budget))


def test_a_read_needs_only_its_own_side():
    # the two-sided frame refuses the sizing case for lack of depth on the
    # side the item never reaches; the one-sided read answers it
    pair, stream, _, k, window, budget = _FAR_SIDE_PAST_BUDGET
    with pytest.raises(NeedMoreDepth):
        oracles.even_match_machine(pair, stream, k, window, budget)
    with pytest.raises(WindowEdge, match=r"item \(0, 1\) not placed"):
        matching.even_match_machine(pair, stream, k, window, budget)


def test_a_machine_round_trip_builds_no_frame(builds):
    # each read scans its own side of the window: no frame, in either
    # direction, yet the machine places the items
    pair = dyadic()
    rng = random.Random(15)
    modes = []
    for t in range(20):
        x = pair.sys_x.random_point(rng, 6, seed=f"nof:{t}")
        rec = matching.phi_hat_stable(pair, x)
        inv = matching.phi_hat_inverse_stable(pair, rec.y)
        assert pair.sys_x.same_point(inv.x, x)
        modes += [rec.mode, inv.mode]
    assert builds == []
    assert modes.count("machine") >= 30


@st.composite
def walk_cases(draw):
    """(pair, stream, forward, h, slack, horizon, budget): a seeded stream,
    or low digits over an all-maximal or all-zero tail, which run the
    carries of either direction past small budgets.  Only the dyadic pair
    has positive backward shifts, so it is drawn more often."""
    pair = PAIRS[draw(st.sampled_from(("dyadic",) * 3 + tuple(PAIRS)))]
    cuts = pair.sys_x.cuts
    kind = draw(st.sampled_from(("seeded", "seeded", "top", "zero")))
    if kind == "seeded":
        stream = SeededDigits(f"walk:{draw(st.integers(0, 10**6))}", cuts)
    else:
        # every pair cuts each stage alike, so one tail digit is all-maximal
        tail = PeriodicDigits((), (cuts(1) - 1,)) if kind == "top" else zeros()
        low = draw(st.lists(st.integers(0, 2), max_size=10))
        stream = tail.with_overrides(
            {k: v % cuts(k) for k, v in enumerate(low, 1)})
    forward = draw(st.booleans())
    src, img = ((pair.sys_x, pair.sys_y) if forward
                else (pair.sys_y, pair.sys_x))
    try:
        top = BaseOrbitWalker(src, stream).return_time() - 1
        pit = BaseOrbitWalker(img, stream).return_time()
    except NeedMoreDepth:
        top = pit = 0
    # heights past the pile are arithmetic too; past the pit at shift 0
    # they need a positive shift
    h = draw(st.one_of(st.just(top), st.integers(0, top), st.integers(0, 12),
                       st.integers(pit, pit + 24), st.integers(0, 300)))
    slack = draw(st.sampled_from((0, 1)))
    horizon = draw(st.one_of(st.integers(0, 40), st.just(4096)))
    budget = draw(st.one_of(st.integers(0, 12), st.just(256)))
    return pair, stream, forward, h, slack, horizon, budget


def _walk_outcome(walk, image_point, *args):
    """(n, d, margin, boundary, the image point's overrides and base
    stream), (margin,) past the horizon, or a failure as (type, message,
    budget)."""
    try:
        n, d, margin, image = walk(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "budget", None)
    if n is None:
        return (margin,)
    digits = image_point(image).digits
    return (n, d, margin, margin == -args[4],
            getattr(digits, "overrides", {}), getattr(digits, "base", digits))


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_one_walker_walk_is_the_two_walker_walk(case):
    # the image point's overrides are compared too: point_id reads them
    got = _walk_outcome(matching._partial_sum_walk, lambda p: p, *case)
    want = _walk_outcome(oracles._partial_sum_walk, BaseOrbitWalker.point,
                         *case)
    assert got == want


def _oracle_stopping_time(pair, digits, horizon, strict, budget):
    w = BaseOrbitWalker(pair.sys_x, digits)
    h = pair.sys_x.return_time(*w.carry(budget)) - 1
    if h == 0:
        return 0
    n, _, margin, _ = oracles._partial_sum_walk(
        pair, digits, True, h, 1 if strict else 0, horizon, budget)
    if n is None:
        raise HorizonExhausted(f"pile not swallowed within {horizon} shifts",
                               horizon=horizon, running_min=margin)
    return n


def _stop_outcome(stop, *args):
    try:
        return stop(*args)
    except Exception as e:
        return (type(e), str(e), getattr(e, "budget", None),
                getattr(e, "horizon", None), getattr(e, "running_min", None))


# the start carry of the strict formula at h = 0 runs into stage 13, past
# budget 1, so even shift 0 raises NeedMoreDepth
_START_PAST_BUDGET = (PAIRS["dyadic"], PeriodicDigits((1,) * 12, (0,)), True,
                      0, 1, 4096, 1)


@settings(max_examples=150, deadline=None)
@given(walk_cases())
@example(_START_PAST_BUDGET)
def test_stopping_time_is_the_two_walker_walk(case):
    pair, stream, _, _, slack, horizon, budget = case
    args = (pair, stream, horizon, bool(slack), budget)
    assert (_stop_outcome(matching.stopping_time, *args)
            == _stop_outcome(_oracle_stopping_time, *args))


@st.composite
def tail_cases(draw):
    """walk_cases' (pair, stream, forward, h, slack, horizon, budget) for
    the heavy tail: a seeded stream whose lowest 0..20 digits are maximal
    forward or zero backward, so the start sits at the far end of a long
    block, heights up to 14 past the pit, and horizons up to 2^16."""
    pair = PAIRS[draw(st.sampled_from(("dyadic",) * 3 + tuple(PAIRS)))]
    cuts = pair.sys_x.cuts
    forward = draw(st.booleans())
    stream = SeededDigits(f"tail:{draw(st.integers(0, 10**6))}", cuts)
    low = draw(st.integers(0, 20))
    stream = stream.with_overrides(
        {k: cuts(k) - 1 if forward else 0 for k in range(1, low + 1)})
    src, img = ((pair.sys_x, pair.sys_y) if forward
                else (pair.sys_y, pair.sys_x))
    top = BaseOrbitWalker(src, stream).return_time() - 1
    pit = BaseOrbitWalker(img, stream).return_time()
    # past the pit by j the sums must climb about j stages backward, to
    # shifts near 2^j, and a few forward, so most heights are drawn there
    past_pit = st.integers(pit + 1, pit + 14)
    h = draw(st.one_of(st.integers(0, top), past_pit, past_pit, past_pit))
    slack = draw(st.sampled_from((0, 1)))
    horizon = draw(st.one_of(st.integers(0, 40),
                             st.sampled_from((4096, 2**15, 2**16))))
    budget = draw(st.one_of(st.integers(0, 12), st.just(256)))
    return pair, stream, forward, h, slack, horizon, budget


def _walk_stopping_time(pair, digits, horizon, strict, budget):
    w = BaseOrbitWalker(pair.sys_x, digits)
    h = pair.sys_x.return_time(*w.carry(budget)) - 1
    n, _, margin, _ = oracles.one_walker_walk(
        pair, digits, True, h, 1 if strict else 0, horizon, budget)
    if n is None:
        raise HorizonExhausted(f"pile not swallowed within {horizon} shifts",
                               horizon=horizon, running_min=margin)
    return n


def _long_shift(horizon, budget):
    """A dyadic item whose strict forward shift is 8191, the largest seen
    over criterion 11's sampler."""
    pair = PAIRS["dyadic"]
    return (pair, SeededDigits("tail:6835", pair.sys_x.cuts), True, 1, 1,
            horizon, budget)


@settings(max_examples=200, deadline=None)
@given(st.one_of(walk_cases(), tail_cases()))
@example(_long_shift(2**16, 256))
@example(_long_shift(8190, 256))  # one short: the best margin within it
@example(_long_shift(2**16, 12))  # the stage-14 carry is past the budget
@example(_START_PAST_BUDGET)
def test_block_descent_is_the_shift_by_shift_walk(case):
    # equal n, d, margin, boundary and image point (overrides and base),
    # or the same exception, message and budget; the stopping time of the
    # same column, or the same HorizonExhausted horizon and running_min
    got = _walk_outcome(matching._partial_sum_walk, lambda p: p, *case)
    assert got == _walk_outcome(oracles.one_walker_walk, lambda p: p, *case)
    pair, stream, _, _, slack, horizon, budget = case
    args = (pair, stream, horizon, bool(slack), budget)
    assert (_stop_outcome(matching.stopping_time, *args)
            == _stop_outcome(_walk_stopping_time, *args))


def test_point_matchings_refuse_unequal_base_masses():
    # the even_match_* readers are plain arithmetic on the two tables, but a
    # point matching between bases of unequal mass cannot preserve measure
    pair = matching.chacon_triple_noneven_pair()
    x = pair.sys_x.random_point(random.Random(10), 6, seed="uneven:x")
    y = pair.sys_y.random_point(random.Random(11), 6, seed="uneven:y")
    calls = (
        lambda: matching.phi_hat(pair, x),
        lambda: matching.phi_hat(pair, x, mode="formula"),
        lambda: matching.phi_hat_inverse(pair, y),
        lambda: matching.phi_hat_inverse(pair, y, mode="formula"),
        lambda: matching.phi_hat_stable(pair, x),
        lambda: matching.phi_hat_inverse_stable(pair, y),
        lambda: ergodic.pushforward_check(pair, 10),
    )
    for call in calls:
        with pytest.raises(InadmissiblePair,
                           match="^base masses differ: 2/3 vs 2/5$"):
            call()


def test_phi_hat_reaches_the_readers_through_the_module(monkeypatch):
    # the benchmark's per-layer phi_hat and formula metrics count spans of
    # the module attributes; a direct call to a private reader reads 0
    names = ("even_match_formula", "even_match_machine",
             "even_match_inverse_formula", "even_match_inverse_machine")
    calls = {}
    for name in names:
        def counted(*args, _name=name, _read=getattr(matching, name),
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _read(*args, **kwargs)

        monkeypatch.setattr(matching, name, counted)
    pair = dyadic()
    x = pair.sys_x.random_point(random.Random(8), 6, seed="reach")
    for mode in ("machine", "formula"):
        y = matching.phi_hat(pair, x, mode=mode, window=256).y
        matching.phi_hat_inverse(pair, y, mode=mode, window=256)
    assert calls == dict.fromkeys(names, 1)


def test_trace_rows_format():
    pair = dyadic()
    rng = random.Random(7)
    recs = []
    for t in range(5):
        x = pair.sys_x.random_point(rng, 6, seed=f"tr:{t}")
        recs.append(matching.phi_hat_stable(pair, x))
    rows = matching.trace_rows(pair, recs)
    assert rows[0] == matching.TRACE_HEADER
    for line in rows[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        int(parts[1]), int(parts[2]), int(parts[3])


# -- non-even ---------------------------------------------------------------


def noneven_plan(eps=Fraction(1, 4), N=12):
    pair = matching.chacon_triple_noneven_pair()
    return pair, matching.noneven_prepare(pair, eps, N, samples=32, seed=0)


def test_noneven_eps_guard():
    pair = matching.chacon_triple_noneven_pair()
    # rate gap is 1/nu - 1/mu = 1, so eps must lie in (0, 1/2)
    with pytest.raises(InadmissiblePair):
        matching.noneven_prepare(pair, Fraction(2, 3), 12)
    with pytest.raises(InadmissiblePair):
        matching.noneven_prepare(pair, Fraction(0), 12)


def test_noneven_plan_block_and_margins():
    pair, plan = noneven_plan()
    assert plan.block == 3**plan.m
    assert plan.block > 2 * plan.N
    assert min(plan.margins) >= 0


def test_noneven_match_roundtrip_and_conjugacy():
    pair, plan = noneven_plan()
    rng = random.Random(9)
    from cutstack import induction

    ad_x = induction.RankOneAdapter(pair.sys_x)
    ad_y = induction.RankOneAdapter(pair.sys_y)
    a_set = plan.a_set
    b_set = plan.b_set
    for t in range(40):
        x = pair.sys_x.random_point(rng, plan.m + 2, seed=f"ne:{t}")
        y, h, base = matching.noneven_match(plan, x)
        assert matching.noneven_in_image(plan, y)
        back = matching.noneven_inverse(plan, y)
        assert pair.sys_x.same_point(back, x)
        # the matched pair sits at equal offsets over corresponding bases
        if pair.sys_x.in_level_set(a_set, x):
            # base points of the chosen cylinder map by phi directly
            assert h == 0


def test_noneven_conjugacy_with_image_successor():
    pair, plan = noneven_plan()
    # the embedding intertwines T on X with the first-return map of S to
    # the embedded image: match(T x) = image-successor(match(x))
    stream = SeededDigits("order", pair.sys_x.cuts)
    x = pair.sys_x.point_at(plan.m + 1, 0, stream)
    assert pair.sys_x.in_level_set(plan.a_set, x)
    y, _, _ = matching.noneven_match(plan, x)
    for _ in range(30):
        x = pair.sys_x.apply(x, 1)
        y_next = matching.noneven_image_successor(plan, y)
        y_direct, _, _ = matching.noneven_match(plan, x)
        assert pair.sys_y.same_point(y_next, y_direct)
        y = y_next


@pytest.mark.parametrize("N,m", [(20, 4), (150, 6)])
def test_image_successor_is_the_step_by_step_return(N, m):
    # image points, Y points outside the image, the top of a pile, the
    # first level past it and the top of a pit; then a chain of successors
    pair, plan = noneven_plan(N=N)
    assert plan.m == m
    sys_y = pair.sys_y
    rng = random.Random(f"succ:{m}")
    ys = []
    for t in range(40):
        x = pair.sys_x.random_point(rng, m + 2, seed=f"succ:{m}:x{t}")
        ys.append(matching.noneven_match(plan, x)[0])
        ys.append(sys_y.random_point(rng, m + 2, seed=f"succ:{m}:y{t}"))
        digits = SeededDigits(f"succ:{m}:b{t}", sys_y.cuts).with_overrides(
            {k: 0 for k in range(1, m + 1)})
        y_base = RankOnePoint(1, 0, digits)
        pile = matching.pile_height(plan, digits)
        pit = matching.pit_depth(plan, digits)
        ys += [sys_y.apply(y_base, d) for d in (pile - 1, pile, pit - 1)]
    assert sum(not matching.noneven_in_image(plan, y) for y in ys) > 40
    for y in ys:
        assert sys_y.same_point(matching.noneven_image_successor(plan, y),
                                oracles.noneven_image_successor(plan, y))
    y = ys[-3]  # a pile top: the chain crosses into the next column
    for _ in range(300):
        got = matching.noneven_image_successor(plan, y)
        assert sys_y.same_point(got, oracles.noneven_image_successor(plan, y))
        y = got


def test_matching_keeps_no_stage_data_on_the_systems():
    # the stage tables have one owner: every matching reader leaves each
    # system with exactly the attributes RankOneSystem.__init__ sets
    keys = set(vars(RankOneSystem(builtin_spec("chacon"))))
    even = dyadic()
    rng = random.Random("owner")
    x = even.sys_x.random_point(rng, 8, seed="owner:x")
    y = even.sys_y.random_point(rng, 8, seed="owner:y")
    for mode in ("machine", "formula"):
        matching.phi_hat(even, x, mode=mode)
        matching.phi_hat_inverse(even, y, mode=mode)
    pair, plan = noneven_plan()
    x = pair.sys_x.random_point(rng, plan.m + 2, seed="owner:ne")
    y, _, _ = matching.noneven_match(plan, x)
    assert matching.noneven_in_image(plan, y)
    matching.noneven_inverse(plan, y)
    matching.noneven_image_successor(plan, y)
    for system in (even.sys_x, even.sys_y, pair.sys_x, pair.sys_y):
        assert set(vars(system)) == keys
