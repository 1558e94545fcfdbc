"""Return-time matchings between two rank-one systems over isomorphic bases.

Both systems of a pair cut every stage into the same number of columns, so
the maps they induce on their base levels A and B are one odometer on
shared column digits, and a pair is that odometer with two return-time
tables (validate_pair refuses a finite spec, and compares the cut counts
over the longer prefix plus one lcm of the tail periods, which is
exact).  The even matcher assigns each point of an X column (a pile over a
base point) to a slot in the Y column over the same digits (a pit), by
sliding piles over pits and dropping items into free slots.  The machine,
computed on a finite window by one left-to-right scan, is authoritative,
and a slot it places never moves when the window grows.  One item, or one
slot, is placed by the same scan run on its own side of the window only,
with no frame (_one_item_scan).  The strict closed-form sum reproduces
the machine; the non-strict sum differs exactly on the boundary cells
where a pile height ties a pit capacity.

The closed form's shift is a first passage: the margin changes by
Delta(s, e) = R_Y(s, e) - R_X(s, e) per shift, (s, e) the shift's carry,
and these values form a stage word like the return times do.  Each pair
keeps, per direction, the Delta rows and each word's sum, largest prefix
sum and length, so the search climbs from the start digits block by
block, skips a block whose largest prefix stays short, and descends into
the one that reaches the target: O(sum of c_k) over the stages the shift
spans, not O(shift).  Backward searches read the mirrored word.

The non-even matcher handles bases of different mass by first inducing on a
deep common cylinder so that every pile fits strictly inside its pit.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .digits import OverlayDigits, SeededDigits, explicit_extent
from .errors import (
    ExhaustedDigits,
    HorizonExhausted,
    InadmissiblePair,
    MarginViolation,
    NeedMoreDepth,
    WindowEdge,
    WindowExhausted,
)
from .specs import builtin_spec
from .towers import (BaseOrbitWalker, LevelSet, RankOnePoint, RankOneSystem,
                     odometer_add)


# ---------------------------------------------------------------------------
# System pairs


@dataclass
class PairSpec:
    """Two rank-one systems matched over their bottom base levels.

    The base sets are the stage-1 level 0 of each system.  With equal cut
    counts (see validate_pair) the induced maps are one mixed-radix odometer
    on the column digits, and a base point of X and one of Y with the same
    digits correspond.
    """

    name: str
    sys_x: RankOneSystem
    sys_y: RankOneSystem
    _words: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # (digits, window, edge items) of the last frame_stability audit
    _audit: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def _delta_words(self, forward):
        """The Delta stage tables (see _DeltaWords), X to Y forward and Y
        to X backward, grown lazily."""
        words = self._words.get(forward)
        if words is None:
            words = self._words[forward] = _DeltaWords(
                *_sides(self, forward), forward)
        return words

    def base_x(self):
        return LevelSet(1, frozenset({0}))

    def base_y(self):
        return LevelSet(1, frozenset({0}))

    def base_measures(self):
        return self.sys_x.unit_width(), self.sys_y.unit_width()

    def is_even(self):
        mx, my = self.base_measures()
        return mx == my

    def require_even(self):
        """Raise InadmissiblePair unless the base masses are equal."""
        if not self.is_even():
            mx, my = self.base_measures()
            raise InadmissiblePair(f"base masses differ: {mx} vs {my}")


def validate_pair(pair, even=None):
    """Admissibility: two infinite specs, with equal cut counts at every
    stage, so a walker moves the digits of both systems alike, and (when
    `even` is set) equal base masses.  A finite spec has no odometer to
    match on.  Past the longer prefix the cut counts repeat with period
    lcm(tail lengths), so comparing the stages up to that prefix plus one
    period is exact."""
    spec_x, spec_y = pair.sys_x.spec, pair.sys_y.spec
    for spec in (spec_x, spec_y):
        if not spec.tail:
            raise InadmissiblePair(f"spec {spec.name!r} is finite: "
                                   f"no odometer to match on")
    last = (max(len(spec_x.prefix), len(spec_y.prefix))
            + lcm(len(spec_x.tail), len(spec_y.tail)))
    for k in range(1, last + 1):
        if pair.sys_x.cuts(k) != pair.sys_y.cuts(k):
            raise InadmissiblePair(
                f"cut counts differ at stage {k}: "
                f"{pair.sys_x.cuts(k)} vs {pair.sys_y.cuts(k)}"
            )
    if even is True:
        pair.require_even()
    return True


def dyadic_even_pair():
    """Equal-mass pair: spacer above the left column vs above the right."""
    return PairSpec(
        "dyadic_even",
        RankOneSystem(builtin_spec("dyadic_pair_left")),
        RankOneSystem(builtin_spec("dyadic_pair_right")),
    )


def identity_pair(spec_name):
    """A system matched with itself; every matching must be trivial."""
    sys = RankOneSystem(builtin_spec(spec_name))
    return PairSpec(f"identity_{spec_name}", sys, sys)


def chacon_triple_noneven_pair():
    """Unequal base masses (2/3 vs 2/5) over the common triadic odometer."""
    return PairSpec(
        "chacon_triple_noneven",
        RankOneSystem(builtin_spec("chacon")),
        RankOneSystem(builtin_spec("triple_heavy")),
    )


# ---------------------------------------------------------------------------
# Heights above a base set


def height_above_base(system, base, point):
    """(h, base_point): point = T^h(base_point), base_point the nearest
    base element at or below the point in its column, read at the first
    stage K >= the point's resolved stage that shows it, at most 8 deeper.

    One climb along the point's digits from stage max(base stage, birth
    stage) keeps the point's level idx and top, the highest base copy in
    the stack.  While no base copy lies below the point, a digit a > 0
    puts copy a - 1, and so its top base copy, right below it: h = idx +
    offs[a] - offs[a - 1] - top, fixed from then on.  O(K); no lifted set.
    """
    stream, s = point.digits, base.stage
    k0 = max(s, point.birth_stage, explicit_extent(stream) + 1)
    k, idx = max(s, point.birth_stage), point.birth_level
    if k > s and system.decompose(k, idx)[0] == "copy":
        point = system.point_at(k, idx, stream)  # start from its birth
        k, idx = max(s, point.birth_stage), point.birth_level
    levels = sorted(base.level_indices)
    top = levels[-1] if levels else 0  # an empty base never shows
    if k == s:
        if point.birth_stage < s:
            idx = system.level_index(point, s)
        pos = bisect_right(levels, idx)
        h = idx - levels[pos - 1] if pos else None
    else:  # a spacer, over copy a of the stage-(k - 1) stack if a >= 0
        offs = system.offsets(k - 1)
        for o in system._offsets[s:k]:
            top += o[-1]
        a = bisect_right(offs, idx) - 1
        h = idx - offs[a] - top + offs[-1] if a >= 0 and levels else None
    digit, cuts, offsets = point.digits.digit, system._cuts, system._offsets
    while h is None or k < k0:
        if k == k0 + 8:
            raise NeedMoreDepth(
                "no base element below the point within 8 extra stages",
                budget=8)
        a = digit(k)
        if not 0 < k < len(cuts):
            system._grow(k)
        if not 0 <= a < cuts[k]:
            raise ExhaustedDigits(
                f"digit {a} out of range at stage {k} (cuts={cuts[k]})")
        offs = offsets[k]
        if h is None:
            if a and levels:
                h = idx + offs[a] - offs[a - 1] - top
            top += offs[-1]
        idx += offs[a]
        k += 1
    return h, system.point_at(k, idx - h, stream)


# ---------------------------------------------------------------------------
# Pile/pit frames (the machine)


def return_times_from(system, digits, window, forward, budget=256):
    """Return times of the induced base map on one side of the given base
    digit state: [r(0), r(1), ..., r(window)] forward, [r(0), r(-1), ...,
    r(-window)] backward.

    r(i) is stage_word(K)[N + i], N the state's position in the least digit
    block (stages 1..K <= budget + 1) of P > window positions.  The step
    out of the block's last position (forward, or for r(0) when N is last)
    or into its first (backward, past r(-N)) is one carry from stage
    K + 1, and gives up where a step-by-step walk would."""
    N, P, K = 0, 1, 0
    while P <= window and K <= budget:
        K += 1
        N += digits.digit(K) * P
        P *= system.cuts(K)
    word = system.stage_word(K)
    last = P - 1

    def edge(step):  # the return time of the step that leaves the block
        new = odometer_add(digits.digit, system.cuts, step, K + 1, budget)
        return system.return_time(K + len(new), new[-1] - (step > 0))

    if forward:
        r = word[N:min(N + window + 1, last)]
        if N + window >= last:
            r.append(edge(1))
            r += word[:N + window - last]
        return r
    r = [word[N] if N < last else edge(1)]
    r += reversed(word[max(N - window, 0):N])
    if window > N:
        r.append(edge(-1))
        r += reversed(word[N + P - window:last])
    return r


def return_window(system, digits, window, budget=256):
    """Return times r(i) of the induced base map at orbit indices
    -window..window around the given base digit state: the two sides read
    by return_times_from, forward first."""
    fwd = return_times_from(system, digits, window, True, budget)
    bwd = return_times_from(system, digits, window, False, budget)
    return dict(zip(range(-window, window + 1), bwd[:0:-1] + fwd))


@dataclass
class PilePitFrame:
    """One machine run: pile i holds items (i, h), 1 <= h < ra[i]; pit j
    offers slots (j, d), 1 <= d < rb[j]; at shift n pile i drops its lowest
    remaining items into the lowest free slots of pit i + n.  A placed
    item's slot is the same in every wider window (see _ballot_scan)."""

    window: int
    ra: dict
    rb: dict
    assignment: dict  # (i, h) -> (j, d)
    inverse: dict  # (j, d) -> (i, h)
    unplaced: list  # items whose pit lies past the window edge
    unfilled: list  # slots the window's piles never reached


def _ballot_scan(ra, rb, W):
    """The machine's (assignment, unplaced, unfilled) on piles and pits
    -W..W, in one left-to-right pass.

    Pit j is visited by piles j, j-1, j-2, ... in that order, so piles with
    items left form a stack, newest on top: push pile j, then fill pit j's
    slots from the top pile's lowest remaining item, popping piles as they
    empty.  Widening the window cannot move a placed slot: piles added on
    the left are pushed first, so they sit below every pile of the narrower
    window and only reach slots it left unfilled, and piles added on the
    right come after pit W."""
    assignment = {}
    unfilled = []
    stack = []  # [pile, next item] for piles with items left
    for j in range(-W, W + 1):
        if ra[j] > 1:
            stack.append([j, 1])
        for d in range(1, rb[j]):
            if not stack:
                unfilled.append((j, d))
                continue
            top = stack[-1]
            i, h = top
            assignment[(i, h)] = (j, d)
            if h + 1 < ra[i]:
                top[1] = h + 1
            else:
                stack.pop()
    unplaced = [(i, h) for i, nxt in stack for h in range(nxt, ra[i])]
    return assignment, unplaced, unfilled


def build_frame(pair, digits, window, budget=256):
    ra = return_window(pair.sys_x, digits, window, budget)
    rb = return_window(pair.sys_y, digits, window, budget)
    assignment, unplaced, unfilled = _ballot_scan(ra, rb, window)
    inverse = {v: k for k, v in assignment.items()}
    return PilePitFrame(window, ra, rb, assignment, inverse, unplaced,
                        unfilled)


def _frame_audit(f1, f2):
    """(fraction, edge items) of a frame and its doubled-window rebuild
    over the interior piles (half the window); see frame_stability and
    edge_violations.  The two frames are built independently: deriving
    the smaller from the larger would make both answers hold by
    construction."""
    window = f1.window
    lim = window // 2
    max_r = max(max(f1.ra.values()), max(f1.rb.values()))
    placed = 0
    stable = 0
    bad = []
    for i in range(-lim, lim + 1):
        for h in range(1, f1.ra[i]):
            a1 = f1.assignment.get((i, h))
            a2 = f2.assignment.get((i, h))
            if a1 is not None:
                placed += 1
                stable += a1 == a2
            elif a2 is not None and a2[0] <= window - max_r:
                bad.append(((i, h), a2))
    frac = Fraction(stable, placed) if placed else Fraction(1)
    return frac, bad


def frame_stability(pair, digits, window):
    """Fraction of placed interior assignments that survive window doubling.

    An item unplaced at the smaller window has no assignment yet (its pit
    lies past the edge), so it does not enter the fraction.  A placed slot
    never moves when the window grows (see _ballot_scan), so the fraction
    is 1; the audit recomputes it from both frames, each built on its own.
    Returns (fraction, frame, doubled_frame); the interior is half the
    window.  The audit's edge items stay on the pair for edge_violations
    on the same stream object and window, so an audit builds its two
    frames once; the pair keeps no frame, and the frames returned are the
    caller's.
    """
    f1 = build_frame(pair, digits, window)
    f2 = build_frame(pair, digits, 2 * window)
    frac, bad = _frame_audit(f1, f2)
    pair._audit = (digits, window, tuple(bad))
    return frac, f1, f2


def edge_violations(pair, digits, window):
    """Interior items unplaced at `window` whose doubled-window pit is not
    past the edge region (window minus the largest visible return time).

    An empty list certifies that every instability is an edge effect: the
    item was merely waiting for a pit beyond the window.  Right after
    frame_stability on this very stream object (`is`, not ==) and window,
    the answer is a fresh list of that audit's edge items; otherwise both
    frames are built and audited here.
    """
    audit = pair._audit
    if audit is not None and audit[0] is digits and audit[1] == window:
        return list(audit[2])
    f1 = build_frame(pair, digits, window)
    f2 = build_frame(pair, digits, 2 * window)
    return _frame_audit(f1, f2)[1]


# ---------------------------------------------------------------------------
# Closed-form matching (formula mode) and the per-point machine


@dataclass
class MatchRecord:
    x: object  # the matched X point
    h: int  # height above its base point
    n: int  # pit shift
    d: int  # slot depth in the target pit
    y: object  # the matched Y point
    mode: str
    boundary: bool = False  # chosen shift tied pile top to pit capacity


@dataclass
class InverseMatchRecord:
    y: object
    D: int  # slot depth above the Y base point
    m: int  # backward shift to the source pile
    H: int  # item height in that pile
    x: object
    mode: str
    boundary: bool = False


def _sides(pair, forward):
    """(source system, image system): X, Y forward and Y, X backward."""
    return (pair.sys_x, pair.sys_y) if forward else (pair.sys_y, pair.sys_x)


def _partial_sum_walk(pair, digits, forward, h, slack, horizon, budget):
    """(n, d, margin, image base): n <= horizon least with h + r_1 + ... +
    r_n <= f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... +
    f_{n-1}), margin the right side minus the left, and the base point at
    orbit index n (-n backward).  r, f are the source and image return times
    along the shared base orbit of `digits`, forward or backward; h None
    means the top item of the source pile over the base point.  Past the
    horizon n, d and the point are None and margin is the best seen.

    f_i - r_i is the Delta of the carry from orbit index i, so n is the
    first passage of the Delta partial sums to need = h + slack - f_0,
    found block by block (_first_passage).  One advance then gives the
    image base point, with the digits a walk of n steps would have kept."""
    src, img = _sides(pair, forward)
    s, e = BaseOrbitWalker(src, digits).carry(budget)
    if h is None:
        h = src.return_time(s, e) - 1
    f = img.return_time(s, e)
    need = h + slack - f
    if need <= 0:
        return 0, h, -need, RankOnePoint(1, 0, digits)
    words = pair._delta_words(forward)
    n, acc, s, t = _first_passage(words, digits, need, horizon, budget)
    margin = acc - need
    if n is None:
        return None, None, margin, None
    e = t if forward else len(words.delta[s]) - 1 - t
    w = BaseOrbitWalker(src, digits)
    w.advance(n if forward else -n, budget)  # carries checked
    return n, img.return_time(s, e) - slack - margin, margin, w.point()


def _first_passage(words, digits, need, horizon, budget):
    """(n, acc, s, t): the least n <= horizon at which the prefix sum acc
    of the Delta sequence along the orbit reaches `need` > 0, and the
    carry (s, t) of its last shift, in the words' orientation; past the
    horizon (None, best, None, None), best the largest prefix sum within
    it, the empty prefix counting as 0.

    A step carries into the least stage whose digit (complemented
    backward) is not maximal.  In a k-block (the positions that share
    their digits above stage k) the sequence is word k - 1, then
    delta[k][u] for the carry out of (k-1)-block u, u = 0 .. c_k - 2.  So
    after a carry (k, t) come the blocks t + 1 .. c_k - 1, each with its
    carry, then the carry out of the k-block, at the next stage whose
    digit is not maximal.  A block that ends within the horizon with acc +
    its largest prefix below need is skipped whole; the first one that
    does not holds the answer, so the search descends into it and never
    climbs again.  Forward, the carry from the start itself is left out of
    the sums.  Each climb is one carry from stage k + 1 (odometer_add), so
    a carry past stage budget + 1 raises NeedMoreDepth at the shift that
    would take it, as a step there would."""
    delta, sums, peaks, lengths = (words.delta, words.sums, words.peaks,
                                   words.lengths)
    n = acc = best = k = 0
    skip = words.forward
    u = None  # None: climb to the next carry
    while True:
        if u is None:
            if n >= horizon:
                return None, best, None, None
            new = odometer_add(digits.digit, words.src.cuts,
                               1 if words.forward else -1, k + 1, budget)
            k += len(new)
            if k >= len(delta):
                words._grow(k)
            t = new[-1] - 1 if words.forward else len(delta[k]) - 1 - new[-1]
            if skip:
                skip = False
            else:
                n += 1
                acc += delta[k][t]
                if acc >= need:
                    return n, acc, k, t
                best = max(best, acc)
            u = t + 1
        row = delta[k]
        w = k - 1
        size, peak = lengths[w], peaks[w]
        while u <= len(row):  # block u of word w, then carry (k, u)
            if size:
                if n + size > horizon or acc + peak >= need:
                    break
                best = max(best, acc + peak)
                acc += sums[w]
                n += size
            if u < len(row):
                if n >= horizon:
                    return None, best, None, None
                n += 1
                acc += row[u]
                if acc >= need:
                    return n, acc, k, u
                best = max(best, acc)
            u += 1
        else:
            u = None  # only a climb gets here: a descent always ends inside
            continue
        k, u = w, 0


class _DeltaWords:
    """The Delta stage tables of a pair read in one direction.

    delta[s][e] = R_img(s, e) - R_src(s, e) is the margin's change across a
    shift whose carry raises the stage-s digit from e (R is
    RankOneSystem.return_time); word k is the sequence of these over
    the positions 0 .. P_k - 2 of a stage-1..k digit block,
    word k - 1, delta[k][0], word k - 1, ..., delta[k][c_k - 2], word k - 1,
    with sum sums[k], largest non-empty prefix sum peaks[k] (None for an
    empty word) and length lengths[k] = P_k - 1.  Backward walks read the
    mirrored word, which is this recurrence on complemented digits with
    each row reversed: delta[s][e] = Delta(s, c_s - 2 - e)."""

    def __init__(self, src, img, forward):
        self.src, self.img, self.forward = src, img, forward
        self.delta = [None]
        self.sums = [0]
        self.peaks = [None]
        self.lengths = [0]

    def _grow(self, k):
        while len(self.delta) <= k:
            s = len(self.delta)
            row = [self.img.return_time(s, e) - self.src.return_time(s, e)
                   for e in range(self.src.cuts(s) - 1)]
            if not self.forward:
                row.reverse()
            total, peak, size = self.sums[-1], self.peaks[-1], self.lengths[-1]
            acc, best = 0, peak
            for v in row:
                acc += total + v
                top = acc if peak is None else max(acc, acc + peak)
                best = top if best is None else max(best, top)
            self.delta.append(row)
            self.sums.append(acc + total)
            self.peaks.append(best)
            self.lengths.append((len(row) + 1) * (size + 1) - 1)


def _record(pair, digits, forward, k, shift, depth, image_base, mode,
            boundary=False):
    """Item k over the source base point matched `depth` steps above
    `image_base`, as a MatchRecord forward, an InverseMatchRecord backward."""
    src_sys, img_sys = _sides(pair, forward)
    src_base = RankOnePoint(1, 0, digits)
    src = src_sys.apply(src_base, k) if k else src_base
    img = img_sys.apply(image_base, depth) if depth else image_base
    cls = MatchRecord if forward else InverseMatchRecord
    return cls(src, k, shift, depth, img, mode, boundary)


def _match_formula(pair, digits, forward, k, strict, horizon, budget):
    """even_match_formula forward, even_match_inverse_formula backward."""
    slack = 1 if strict else 0
    n, depth, margin, image_base = _partial_sum_walk(
        pair, digits, forward, k, slack, horizon, budget)
    if n is None:
        target = "pit" if forward else "source pile"
        raise WindowExhausted(f"no {target} found within {horizon} shifts",
                              window=horizon)
    return _record(pair, digits, forward, k, n, depth, image_base,
                   "formula_strict" if strict else "formula",
                   boundary=margin == -slack)


def _one_item_scan(a, b, k):
    """(t, d): the ballot scan from the base point on, which at step t
    pushes the a[t] - 1 items of pile t and then pops b[t] - 1 slots of pit
    t, pops item k of pile 0 as the d-th slot of step t; None if no step
    within len(b) reaches it, or unless 0 < k < a[0].

    Forward a, b are r_X(0..W) and r_Y(0..W).  Backward they are r_Y(0),
    r_Y(-1), .. and r_X(0), r_X(-1), ..: the scan read right to left,
    slots pushed and items popped, pairs the same push/pop word alike.
    Piles before the base point sit below pile 0 and never reach item k;
    the items above it decide, k - 1 of its own pile, then every later
    pile's, less every pit's slots."""
    if not 0 < k < a[0]:
        return None
    above = k - 1
    for t, (pile, pit) in enumerate(zip(a, b)):
        if t:
            above += pile - 1
        if above < pit - 1:
            return t, above + 1
        above -= pit - 1
    return None


def _match_machine(pair, digits, forward, k, window, budget):
    """even_match_machine forward (item (0, k) dropped into a pit at shift
    0..window), even_match_inverse_machine backward (slot (0, k) filled
    from a pile at shift 0..-window), by _one_item_scan on one side's
    return times: the source's piles, the image's pits."""
    if k == 0:
        return _record(pair, digits, forward, 0, 0, 0,
                       RankOnePoint(1, 0, digits), "machine")
    a, b = (return_times_from(s, digits, window, forward, budget)
            for s in _sides(pair, forward))
    hit = _one_item_scan(a, b, k)
    if hit is None:
        what, done = ("item", "placed") if forward else ("slot", "filled")
        raise WindowEdge(f"{what} (0, {k}) not {done} within window {window}",
                         window=window)
    t, depth = hit
    w = BaseOrbitWalker(pair.sys_x, digits)  # moves the shared digits
    w.advance(t if forward else -t, budget)
    return _record(pair, digits, forward, k, t, depth, w.point(), "machine")


def even_match_formula(pair, digits, h, strict=False, horizon=4096, budget=256):
    """Shift and slot by partial sums of return times.

    n is the least shift with h + (a_1 + ... + a_n) <= b_0 + ... + b_n
    (strict mode subtracts one from the right side, matching the machine's
    slot capacities), and d = h + (a_1 + ... + a_n) - (b_0 + ... + b_{n-1});
    a and b are the X and Y return times along the shared base orbit.  Like
    every even_match_* reader, this is plain arithmetic on the two
    return-time tables and does not check the base masses; phi_hat does.
    """
    return _match_formula(pair, digits, True, h, strict, horizon, budget)


def even_match_machine(pair, digits, h, window=32, budget=256):
    """The same assignment, as the machine on the window centered at the
    base point places it: a scan of pits 0..window, which alone can reach
    the item (_one_item_scan); raises WindowEdge if the item's pit lies
    past the window.  A placed slot is final (see _ballot_scan).  No
    base-mass check."""
    return _match_machine(pair, digits, True, h, window, budget)


def even_match_inverse_formula(pair, digits, D, strict=False, horizon=4096,
                               budget=256):
    """Invert by mirrored sums: m is the least backward shift with
    D + (b_{-1} + ... + b_{-m}) <= a_0 + ... + a_{-m} (minus one when
    strict), and H = D + (b_{-1} + ... + b_{-m}) - (a_0 + ... + a_{-(m-1)}).

    `digits` addresses the pit's base point.  No base-mass check.
    """
    return _match_formula(pair, digits, False, D, strict, horizon, budget)


def even_match_inverse_machine(pair, digits, D, window=32, budget=256):
    """The inverse assignment: the item the machine drops into slot D of
    the pit over the base point, found by the mirrored scan of piles and
    pits 0..-window (_one_item_scan); raises WindowEdge if the slot stays
    unfilled within the window.  No base-mass check."""
    return _match_machine(pair, digits, False, D, window, budget)


def phi_hat(pair, x, mode="machine", window=32, strict=True, budget=256,
            horizon=2**15):
    """The full point matching X -> Y: locate the pile item for x, then
    match it.  Base points (h = 0) map to the Y base point with the same
    digits.  Raises InadmissiblePair unless the base masses are equal."""
    return _phi_hat(pair, x, True, mode, window, strict, budget, horizon)


def phi_hat_inverse(pair, y, mode="machine", window=32, strict=True,
                    budget=256, horizon=2**15):
    return _phi_hat(pair, y, False, mode, window, strict, budget, horizon)


def _phi_hat(pair, point, forward, mode, window, strict, budget, horizon):
    """phi_hat forward, phi_hat_inverse backward: the point's height above
    the source base, matched by the public even_match_* reader of the mode
    (a module global, read at call time)."""
    pair.require_even()
    base = pair.base_x() if forward else pair.base_y()
    k, base_point = height_above_base(_sides(pair, forward)[0], base, point)
    if mode == "machine":
        read = even_match_machine if forward else even_match_inverse_machine
        return read(pair, base_point.digits, k, window, budget=budget)
    read = even_match_formula if forward else even_match_inverse_formula
    return read(pair, base_point.digits, k, strict=strict, budget=budget,
                horizon=horizon)


def _escalate(pair, point, forward):
    for window in (16, 64, 256):
        try:
            return _phi_hat(pair, point, forward, "machine", window, True,
                            256, None)
        except WindowEdge:
            pass
    return _phi_hat(pair, point, forward, "formula", None, True, 256, 2**16)


def phi_hat_stable(pair, x):
    """Machine matching at windows 16, 64 and 256 until one places the
    item.  The matching shift has a heavy tail, so a few points outrun
    every window; those fall back to the strict closed form at horizon
    2^16, which reproduces the machine wherever it resolves (mode
    "formula_strict")."""
    return _escalate(pair, x, True)


def phi_hat_inverse_stable(pair, y):
    return _escalate(pair, y, False)


# ---------------------------------------------------------------------------
# Stopping times


def stopping_time(pair, digits, horizon=2**16, strict=True, budget=256):
    """Shift at which the whole pile over this base point is swallowed:
    the matching shift of the topmost item h = r_A - 1."""
    n, _, margin, _ = _partial_sum_walk(pair, digits, True, None,
                                        1 if strict else 0, horizon, budget)
    if n is None:
        raise HorizonExhausted(
            f"pile not swallowed within {horizon} shifts",
            horizon=horizon,
            running_min=margin,
        )
    return n


# ---------------------------------------------------------------------------
# Identifiers and trace export


def point_id(system, point):
    """Deterministic short identifier: resolved stage and level index."""
    k = max(point.birth_stage, explicit_extent(point.digits) + 1)
    return f"s{k}l{system.level_index(point, k)}"


TRACE_HEADER = "x_id,h,n,d,y_id,mode,stable_window"


def trace_rows(pair, records):
    lines = [TRACE_HEADER]
    for r in records:
        # a placed machine slot is final; formula records leave it empty
        stable = "true" if r.mode == "machine" else ""
        lines.append(
            f"{point_id(pair.sys_x, r.x)},{r.h},{r.n},{r.d},"
            f"{point_id(pair.sys_y, r.y)},{r.mode},{stable}"
        )
    return lines


# ---------------------------------------------------------------------------
# Non-even matching


@dataclass
class NonEvenPlan:
    """Parameters of a pile-in-pit embedding for bases of unequal mass.

    Both systems are induced on the all-zero cylinder of `m` digits (the
    bottom level of stage m + 1), whose induced return time is exactly
    `block` base steps; the plan is usable once every sampled pile height
    stays at or below its pit depth."""

    pair: object
    eps: Fraction
    N: int
    m: int
    block: int
    a_set: LevelSet
    b_set: LevelSet
    margins: list


def _block_size(pair, m):
    prod = 1
    for k in range(1, m + 1):
        prod *= pair.sys_x.cuts(k)
    return prod


def _deep_zero_digits(pair, m, seed):
    tail = SeededDigits(seed, pair.sys_x.cuts)
    return OverlayDigits(tail, {k: 0 for k in range(1, m + 1)})


def pile_height(plan, digits):
    """Base steps in X across one induced block from this cylinder point."""
    return BaseOrbitWalker(plan.pair.sys_x, digits).advance(plan.block)


def pit_depth(plan, digits):
    """Base steps in Y across the same induced block of digits."""
    return BaseOrbitWalker(plan.pair.sys_y, digits).advance(plan.block)


def noneven_eps_bound(pair, eps):
    """Half the rate gap 1/mass(B) - 1/mass(A), the bound an admissible
    eps stays below.  Raises InadmissiblePair unless the gap is positive
    and eps lies in (0, gap/2)."""
    mx, my = pair.base_measures()
    gap = Fraction(1) / my - Fraction(1) / mx
    if gap <= 0:
        raise InadmissiblePair(
            "the Y base must be smaller than the X base (deeper pits)"
        )
    if not 0 < eps < gap / 2:
        raise InadmissiblePair(
            f"eps must lie in (0, {gap / 2}); got {eps}"
        )
    return gap / 2


def noneven_prepare(pair, eps, N, samples=64, seed=0):
    """Choose the inducing depth m, at most 4 stages past the least m with
    a block longer than 2N, and certify pile <= pit on samples.

    eps must be an admissible rate gap (noneven_eps_bound)."""
    noneven_eps_bound(pair, eps)
    m0 = 1
    while _block_size(pair, m0) <= 2 * N:
        m0 += 1
    last_margins = None
    for m in range(m0, m0 + 5):
        block = _block_size(pair, m)
        plan = NonEvenPlan(
            pair,
            Fraction(eps),
            N,
            m,
            block,
            LevelSet(m + 1, frozenset({0})),
            LevelSet(m + 1, frozenset({0})),
            [],
        )
        margins = []
        for s in range(samples):
            digits = _deep_zero_digits(pair, m, f"margin:{seed}:{m}:{s}")
            margins.append(pit_depth(plan, digits) - pile_height(plan, digits))
        last_margins = margins
        if all(mg >= 0 for mg in margins):
            plan.margins = margins
            return plan
    raise MarginViolation(
        f"piles still exceed pits at inducing depth {m}; "
        f"worst margin {min(last_margins)}"
    )


def noneven_match(plan, x):
    """Embed x into the Y skyscraper: descend to the cylinder point below,
    hop to the Y point with the same digits, climb the same number of
    steps.  Raises MarginViolation where the pile outgrows its pit."""
    pair = plan.pair
    h, base = height_above_base(pair.sys_x, plan.a_set, x)
    digits = base.digits
    pile = pile_height(plan, digits)
    pit = pit_depth(plan, digits)
    if pile > pit:
        raise MarginViolation(
            f"pile {pile} exceeds pit {pit} at this cylinder point"
        )
    y_base = RankOnePoint(1, 0, digits)
    y = pair.sys_y.apply(y_base, h) if h else y_base
    return y, h, base


def noneven_in_image(plan, y):
    """Membership in the embedded copy of X: the depth of y above its
    cylinder point must fall short of the corresponding pile height."""
    pair = plan.pair
    D, y_base = height_above_base(pair.sys_y, plan.b_set, y)
    return D < pile_height(plan, y_base.digits)


def noneven_inverse(plan, y):
    pair = plan.pair
    D, y_base = height_above_base(pair.sys_y, plan.b_set, y)
    if D >= pile_height(plan, y_base.digits):
        raise ValueError("point lies outside the embedded image")
    x_base = RankOnePoint(1, 0, y_base.digits)
    return pair.sys_x.apply(x_base, D) if D else x_base


def noneven_image_successor(plan, y):
    """First return of the Y map to the embedded image, starting after y.

    Above a b-set point the image is the first pile levels of its pit, so
    the successor of a point at depth D is the next level when D + 1 <
    pile, and otherwise the next b-set point on the Y orbit: the digits
    advanced by one block, one add from stage m + 1."""
    sys_y = plan.pair.sys_y
    D, y_base = height_above_base(sys_y, plan.b_set, y)
    if D + 1 < pile_height(plan, y_base.digits):
        return sys_y.apply(y, 1, 256)
    digits = y_base.digits
    new = odometer_add(digits.digit, sys_y.cuts, 1, plan.m + 1, 256)
    return RankOnePoint(1, 0, digits.with_overrides(
        {plan.m + 1 + j: v for j, v in enumerate(new)}))
