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
with no frame (_one_item_scan), reading both systems' return times from
one digit block as far as the scan goes, and no further (_scan_times).
The strict closed-form sum reproduces the machine; the non-strict sum
differs exactly on the boundary cells where a pile height ties a pit
capacity.

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
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from math import lcm

from .digits import explicit_extent, zeros
from .errors import (
    ExhaustedDigits,
    HorizonExhausted,
    InadmissiblePair,
    MarginViolation,
    NeedMoreDepth,
    SpecInvalid,
    WindowEdge,
    WindowExhausted,
)
from .specs import builtin_spec
from .towers import LevelSet, RankOnePoint, RankOneSystem


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
    # (sys_x, sys_y) whose base masses require_even found equal
    _even: tuple = field(default=None, init=False, repr=False, compare=False)

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
        """Raise InadmissiblePair unless the base masses are equal.  Decided
        once per pair of systems: a pass is kept under their identity, so a
        reassigned sys_x or sys_y is checked again."""
        even = self._even
        if even is not None and even[0] is self.sys_x and even[1] is self.sys_y:
            return
        if not self.is_even():
            mx, my = self.base_measures()
            raise InadmissiblePair(f"base masses differ: {mx} vs {my}")
        self._even = (self.sys_x, self.sys_y)


def validate_pair(pair, even=None):
    """Admissibility: two infinite specs, with equal cut counts at every
    stage, so one advance moves the digits of both systems alike, and (when
    `even` is set) equal base masses.  A finite spec, or a tail that never
    cuts in more than one, has no infinite odometer to match on.  Past the
    longer prefix the cut counts repeat with period lcm(tail lengths), so
    comparing the stages up to that prefix plus one period is exact."""
    spec_x, spec_y = pair.sys_x.spec, pair.sys_y.spec
    for spec in (spec_x, spec_y):
        if not spec.tail:
            raise InadmissiblePair(f"spec {spec.name!r} is finite: "
                                   f"no odometer to match on")
        if all(rule.cuts == 1 for rule in spec.tail):
            raise InadmissiblePair(f"spec {spec.name!r} has a tail of 1-cut "
                                   f"stages: its odometer is finite")
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

    The answer is kept on the point as its anchor (RankOnePoint.anchor),
    and a point anchored over this system and an equal base set returns
    its anchor with no climb, whichever writer proved it: this function,
    a machine or strict-formula record (_point_above), or a non-even
    reader (_anchored_above).
    """
    anchor = point.anchor
    if anchor is not None and anchor[0] is system and anchor[1] == base:
        return anchor[2], anchor[3]
    given, stream, s = point, point.digits, base.stage
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
    base_point = system.point_at(k, idx - h, stream)
    _anchor(given, system, base, h, base_point)
    return h, base_point


def _anchor(point, system, base, h, base_point):
    """Write the point's anchor (system, base, h, base_point); only for an
    h the caller has proved to lie in 0 .. r - 1, r the base point's return
    time to `base`."""
    object.__setattr__(point, "anchor", (system, base, h, base_point))


def _anchored_above(system, base, digits, h):
    """T^h of the base point with these digits, anchored over `base` (a set
    holding that point); h as for _anchor.  At h = 0 the point is a copy
    of the base point, so no point holds itself in its anchor."""
    base_point = RankOnePoint(1, 0, digits)
    point = system.apply(base_point, h) if h else RankOnePoint(1, 0, digits)
    _anchor(point, system, base, h, base_point)
    return point


# ---------------------------------------------------------------------------
# Pile/pit frames (the machine)


def _digit_block(system, digits, window, budget):
    """(N, P, K): the digit state's position N in the least block of stages
    1..K <= budget + 1 with P > window positions; ValueError for window < 0."""
    if window < 0:
        raise ValueError(f"window {window} is below 0")
    N, P, K = 0, 1, 0
    while P <= window and K <= budget:
        K += 1
        N += digits.digit(K) * P
        P *= system.cuts(K)
    return N, P, K


def return_times_from(system, digits, window, forward, budget=256):
    """Return times of the induced base map on one side of the given base
    digit state: [r(0), r(1), ..., r(window)] forward, [r(0), r(-1), ...,
    r(-window)] backward.

    r(i) is stage_word(K)[N + i], (N, P, K) the _digit_block.  The step
    out of the block's last position (forward, or for r(0) when N is last)
    or into its first (backward, past r(-N)) is one carry from stage
    K + 1, and gives up where a step-by-step walk would."""
    N, P, K = _digit_block(system, digits, window, budget)
    word = system.stage_word(K)
    last = P - 1

    def edge(step):  # the return time of the step that leaves the block
        return system.return_time(*system.carry(digits, K + 1, step, budget))

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
    remaining items into the lowest free slots of pit i + n.  _ballot_scan
    runs it as one pass over a stack of items, and a placed item's slot is
    the same in every wider window."""

    window: int
    ra: dict
    rb: dict
    assignment: dict  # (i, h) -> (j, d)
    unplaced: list  # items whose pit lies past the window edge
    unfilled: list  # slots the window's piles never reached

    @cached_property
    def inverse(self):
        """(j, d) -> (i, h), built on first read."""
        return dict(zip(self.assignment.values(), self.assignment))


def _ballot_scan(ra, rb, W):
    """The machine's (assignment, unplaced, unfilled) on piles and pits
    -W..W, in one left-to-right pass over a stack of items (i, h).

    Pit j is visited by piles j, j-1, j-2, ... in that order: push pile j's
    items highest first, so its lowest is on top, then pop one item for
    each of pit j's slots, lowest slot first.  The items left are
    unplaced; the stack holds piles in increasing i, so sorting it orders
    them by pile, then height.  Widening the window cannot move a placed
    slot: piles added on the left are pushed first, so their items sit
    below every item of the narrower window and only reach slots it left
    unfilled, and piles added on the right come after pit W."""
    assignment = {}
    unfilled = []
    stack = []
    for j in range(-W, W + 1):
        a = ra[j]
        if a == 2:
            stack.append((j, 1))
        elif a > 2:
            stack += [(j, h) for h in range(a - 1, 0, -1)]
        b = rb[j]
        if b == 2:
            if stack:
                assignment[stack.pop()] = (j, 1)
            else:
                unfilled.append((j, 1))
        elif b > 2:
            for d in range(1, b):
                if stack:
                    assignment[stack.pop()] = (j, d)
                else:
                    unfilled.append((j, d))
    return assignment, sorted(stack), unfilled


def build_frame(pair, digits, window, budget=256):
    ra = return_window(pair.sys_x, digits, window, budget)
    rb = return_window(pair.sys_y, digits, window, budget)
    return PilePitFrame(window, ra, rb, *_ballot_scan(ra, rb, window))


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


class _LazySource:
    """A record builds its source point (the field named by _point) on
    first read, by _point_above from the `source` (system, base digits) it
    was made with and the height in the field named by _height.  The
    reader's caller holds that point already, so a round trip builds only
    the image points."""

    def __post_init__(self, source):
        self._source = source

    def __getattr__(self, name):
        source = self.__dict__.get("_source")
        if name != self._point or source is None:
            raise AttributeError(name)
        system, digits = source
        point = _point_above(system, digits, getattr(self, self._height),
                             self.mode != "formula")
        setattr(self, name, point)
        return point


@dataclass
class MatchRecord(_LazySource):
    x: object = field(init=False)  # the matched X point
    h: int  # height above its base point
    n: int  # pit shift
    d: int  # slot depth in the target pit
    y: object  # the matched Y point
    mode: str
    boundary: bool = False  # chosen shift tied pile top to pit capacity
    source: InitVar[tuple] = None  # (X system, base digits) of x
    _point, _height = "x", "h"


@dataclass
class InverseMatchRecord(_LazySource):
    y: object = field(init=False)
    D: int  # slot depth above the Y base point
    m: int  # backward shift to the source pile
    H: int  # item height in that pile
    x: object
    mode: str
    boundary: bool = False
    source: InitVar[tuple] = None  # (Y system, base digits) of y
    _point, _height = "y", "D"


def _sides(pair, forward):
    """(source system, image system): X, Y forward and Y, X backward."""
    return (pair.sys_x, pair.sys_y) if forward else (pair.sys_y, pair.sys_x)


def _partial_sum_walk(pair, digits, forward, h, slack, horizon, budget, *,
                      first=None, image=True):
    """(n, d, margin, image base): n <= horizon least with h + r_1 + ... +
    r_n <= f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... +
    f_{n-1}), margin the right side minus the left, and the base point at
    orbit index n (-n backward).  r, f are the source and image return times
    along the shared base orbit of `digits`, forward or backward; h None
    means the top item of the source pile over the base point.  Past the
    horizon n, d and the point are None and margin is the best seen.
    `first` is the source's first carry from `digits` when the caller has
    read it already; with image False the image base point is None.

    f_i - r_i is the Delta of the carry from orbit index i, so n is the
    first passage of the Delta partial sums to need = h + slack - f_0,
    found block by block (_first_passage).  One advance then gives the
    image base point, with the digits a walk of n steps would have kept."""
    src, img = _sides(pair, forward)
    s, e = src.carry(digits, budget=budget) if first is None else first
    if h is None:
        h = src.return_time(s, e) - 1
    f = img.return_time(s, e)
    need = h + slack - f
    if need <= 0:
        return 0, h, -need, RankOnePoint(1, 0, digits)
    words = pair._delta_words(forward)
    n, acc, s, t = _first_passage(words, digits, need, horizon, budget,
                                  (s, e))
    margin = acc - need
    if n is None:
        return None, None, margin, None
    e = t if forward else len(words.delta[s]) - 1 - t
    base = None
    if image:
        base = RankOnePoint(
            1, 0, src.advance(digits, n if forward else -n, budget)[1])
    return n, img.return_time(s, e) - slack - margin, margin, base


def _first_passage(words, digits, need, horizon, budget, start):
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
    climbs again.  Forward, the carry from the start itself, which the
    caller has read (`start`, the source's (s, e)), is left out of the
    sums.  Each other climb is one carry from stage k + 1
    (RankOneSystem.carry), so a carry past stage budget + 1 raises
    NeedMoreDepth at the shift that would take it, as a step there would."""
    delta, sums, peaks, lengths = (words.delta, words.sums, words.peaks,
                                   words.lengths)
    n = acc = best = k = 0
    skip = words.forward
    u = None  # None: climb to the next carry
    while True:
        if u is None:
            if n >= horizon:
                return None, best, None, None
            if skip:
                k, t = start
            else:
                k, t = words.src.carry(digits, k + 1,
                                       1 if words.forward else -1, budget)
            if k >= len(delta):
                words._grow(k)
            if not words.forward:
                t = len(delta[k]) - 1 - t
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


# the base set of every pair (PairSpec.base_x, base_y)
_BASE = LevelSet(1, frozenset({0}))


def _point_above(system, digits, k, anchored):
    """The point k levels above the base point with these digits, anchored
    over the base set when `anchored`: for a machine slot (d < b_t), a
    strict-formula depth (d <= f_n - 1) or an item of the source pile (the
    readers refuse any other).  A non-strict depth can equal the pit size,
    which puts the point on the next base point, so its record writes no
    anchor."""
    if anchored:
        return _anchored_above(system, _BASE, digits, k)
    base = RankOnePoint(1, 0, digits)
    return system.apply(base, k) if k else base


def _record(pair, digits, forward, k, shift, depth, image_digits, mode,
            boundary=False):
    """Item k over the source base point matched `depth` steps above the
    base point with `image_digits`, as a MatchRecord forward, an
    InverseMatchRecord backward; the source point is built on first read."""
    src, img = _sides(pair, forward)
    cls = MatchRecord if forward else InverseMatchRecord
    return cls(k, shift, depth,
               _point_above(img, image_digits, depth, mode != "formula"),
               mode, boundary, (src, digits))


def _refuse_outside(forward, k, size):
    """SpecInvalid unless 0 <= k < size: item k of the source pile over the
    base point forward, slot k of the pit over it backward."""
    if not 0 <= k < size:
        what, where = ("item", "pile") if forward else ("slot", "pit")
        raise SpecInvalid(f"{what} (0, {k}) outside the {where} of size "
                          f"{size} over the base point")


def _match_formula(pair, digits, forward, k, strict, horizon, budget):
    """even_match_formula forward, even_match_inverse_formula backward."""
    src = _sides(pair, forward)[0]
    first = src.carry(digits, budget=budget)
    _refuse_outside(forward, k, src.return_time(*first))
    slack = 1 if strict else 0
    n, depth, margin, image_base = _partial_sum_walk(
        pair, digits, forward, k, slack, horizon, budget, first=first)
    if n is None:
        target = "pit" if forward else "source pile"
        raise WindowExhausted(f"no {target} found within {horizon} shifts",
                              window=horizon)
    return _record(pair, digits, forward, k, n, depth, image_base.digits,
                   "formula_strict" if strict else "formula",
                   boundary=margin == -slack)


def _scan_times(pair, digits, window, forward, budget):
    """(a_t, b_t), t = 0..window: both systems' return times at orbit index
    t (-t backward) from one _digit_block, the shared edge carry on demand."""
    src, img = _sides(pair, forward)
    N, P, K = _digit_block(src, digits, window, budget)
    u, v = src.stage_word(K), img.stage_word(K)
    step = 1 if forward else -1
    for p in range(N, N + step * (window + 1), step):  # block positions
        if (q := p % P) < P - 1:
            yield u[q], v[q]
        else:  # out of the block's last position, or back from its first
            s, e = src.carry(digits, K + 1, 1 if p >= 0 else -1, budget)
            yield src.return_time(s, e), img.return_time(s, e)


def _one_item_scan(times, k):
    """(t, d): the ballot scan from the base point on, which at step t
    pushes the a_t - 1 items of pile t and then pops b_t - 1 slots of pit
    t, pops item k (0 < k < a_0) of pile 0 as the d-th slot of step t;
    None if no step reaches it.  Reads each (a_t, b_t) of `times` in turn.

    Forward a, b are r_X(0..W) and r_Y(0..W).  Backward they are r_Y(0),
    r_Y(-1), .. and r_X(0), r_X(-1), ..: the scan read right to left,
    slots pushed and items popped, pairs the same push/pop word alike.
    Piles before the base point sit below pile 0 and never reach item k;
    the items above it decide, k - 1 of its own pile, then every later
    pile's, less every pit's slots."""
    above = k - 1
    for t, (pile, pit) in enumerate(times):
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
    return times (_scan_times): the source's piles, the image's pits."""
    if window < 0:
        raise ValueError(f"window {window} is below 0")
    if k == 0:
        return _record(pair, digits, forward, 0, 0, 0, digits, "machine")
    times = _scan_times(pair, digits, window, forward, budget)
    first = next(times)
    _refuse_outside(forward, k, first[0])
    hit = _one_item_scan(chain([first], times), k)
    if hit is None:
        what, done = ("item", "placed") if forward else ("slot", "filled")
        raise WindowEdge(f"{what} (0, {k}) not {done} within window {window}",
                         window=window)
    t, depth = hit
    # the shared digits move alike in both systems
    image = pair.sys_x.advance(digits, t if forward else -t, budget)[1]
    return _record(pair, digits, forward, k, t, depth, image, "machine")


def even_match_formula(pair, digits, h, strict=False, horizon=4096, budget=256):
    """Shift and slot by partial sums of return times.

    n is the least shift with h + (a_1 + ... + a_n) <= b_0 + ... + b_n
    (strict mode subtracts one from the right side, matching the machine's
    slot capacities), and d = h + (a_1 + ... + a_n) - (b_0 + ... + b_{n-1});
    a and b are the X and Y return times along the shared base orbit.  Like
    every even_match_* reader, this is plain arithmetic on the two
    return-time tables and does not check the base masses; phi_hat does.
    Every reader refuses an item outside the pile over the base point (a
    slot outside the pit, backward) with SpecInvalid, after the carry that
    sizes the pile, whose NeedMoreDepth comes first.
    """
    return _match_formula(pair, digits, True, h, strict, horizon, budget)


def even_match_machine(pair, digits, h, window=32, budget=256):
    """The same assignment, as the machine on the window centered at the
    base point places it: a scan of pits 0..window, which alone can reach
    the item (_one_item_scan); raises WindowEdge if the item's pit lies
    past the window.  A placed slot is final (see _ballot_scan).  The scan
    reads return times only up to the pit that places the item, so it
    raises NeedMoreDepth only for a carry it reaches: it answers as the
    read at the least window that places the item.  ValueError for a
    window below 0.  No base-mass check."""
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
    unfilled within the window.  Like even_match_machine, it reads only as
    far as the pile that fills the slot, and refuses a window below 0.  No
    base-mass check."""
    return _match_machine(pair, digits, False, D, window, budget)


def phi_hat(pair, x, mode="machine", window=32, strict=True, budget=256,
            horizon=2**15):
    """The full point matching X -> Y: locate the pile item for x, then
    match it.  Base points (h = 0) map to the Y base point with the same
    digits.  Raises InadmissiblePair unless the base masses are equal."""
    return _phi_hat(pair, True, *_above_base(pair, x, True), mode, window,
                    strict, budget, horizon)


def phi_hat_inverse(pair, y, mode="machine", window=32, strict=True,
                    budget=256, horizon=2**15):
    return _phi_hat(pair, False, *_above_base(pair, y, False), mode, window,
                    strict, budget, horizon)


def _above_base(pair, point, forward):
    """(k, digits): the point's height above the source base and its base
    point's digits; InadmissiblePair unless the base masses are equal."""
    pair.require_even()
    base = pair.base_x() if forward else pair.base_y()
    k, base_point = height_above_base(_sides(pair, forward)[0], base, point)
    return k, base_point.digits


def _phi_hat(pair, forward, k, digits, mode, window, strict, budget, horizon):
    """phi_hat forward, phi_hat_inverse backward: item k over the base
    digits, matched by the public even_match_* reader of the mode (a
    module global, read at call time)."""
    if mode == "machine":
        read = even_match_machine if forward else even_match_inverse_machine
        return read(pair, digits, k, window, budget=budget)
    read = even_match_formula if forward else even_match_inverse_formula
    return read(pair, digits, k, strict=strict, budget=budget,
                horizon=horizon)


def _escalate(pair, point, forward):
    k, digits = _above_base(pair, point, forward)  # one climb, every read
    for window in (16, 64, 256):
        try:
            return _phi_hat(pair, forward, k, digits, "machine", window, True,
                            256, None)
        except WindowEdge:
            pass
    return _phi_hat(pair, forward, k, digits, "formula", None, True, 256,
                    2**16)


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
                                        1 if strict else 0, horizon, budget,
                                        image=False)
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

    Both systems are induced on the all-zero cylinder of `m` digits (its
    level in stage m + 1 of each system), whose induced return time is
    exactly `block` base steps; `margin` is the least pit depth less pile
    height over the whole cylinder, exact (see noneven_prepare) and >= 0,
    so every pile fits its pit and the readers check no pile again."""

    pair: object
    eps: Fraction
    N: int
    m: int
    block: int
    a_set: LevelSet
    b_set: LevelSet
    margin: int


def pile_height(plan, digits):
    """Base steps in X across one induced block from this cylinder point."""
    return plan.pair.sys_x.advance(digits, plan.block)[0]


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


def noneven_prepare(pair, eps, N, *, samples=None):
    """The plan at the least inducing depth m whose block is longer than
    2N and whose exact margin is >= 0.

    Over the all-zero m-cylinder, pit - pile = sums[m] + delta[j][d] of the
    forward _DeltaWords, j the least stage above m whose digit is not
    maximal and d that digit.  Past the longer prefix each row exceeds the
    one a tail period (lcm of the tail lengths) before it by one drift: if
    that is negative the margin falls without bound (MarginViolation), and
    otherwise its minimum is reached by stage max(m, prefix) + period.

    The search ends.  With drift >= 0 every row past the prefix is at least
    the row one period earlier, so the minimum over stages m + 1 ..
    max(m, prefix) + period is at least L, the least entry of rows 1 ..
    prefix + period.  sums[m], the Y-minus-X step count across the m-block,
    is P_m * gap - O(m), gap = 1/mass(B) - 1/mass(A) > 0
    (noneven_eps_bound), and P_m grows geometrically (validate_pair
    refuses a tail of 1-cut stages); so the search stops by the first m
    with sums[m] >= -L.  The margin is not monotone in m: the search goes
    upward and must not bisect.  Refuses what validate_pair and
    noneven_eps_bound refuse.  `samples` is ignored, accepted from callers
    of the sampled check this replaced."""
    validate_pair(pair)
    noneven_eps_bound(pair, eps)
    specs = (pair.sys_x.spec, pair.sys_y.spec)
    prefix = max(len(spec.prefix) for spec in specs)
    period = lcm(*(len(spec.tail) for spec in specs))
    words = pair._delta_words(True)
    words._grow(prefix + 2 * period)
    delta = words.delta
    s = next(s for s in range(prefix + 1, prefix + period + 1) if delta[s])
    drift = delta[s + period][0] - delta[s][0]
    if drift < 0:
        raise MarginViolation(f"pit - pile falls by {-drift} per tail "
                              f"period of {period} stages without bound")
    for m in count(1):
        last = max(m, prefix) + period
        words._grow(last)
        if words.lengths[m] + 1 <= 2 * N:
            continue
        rows = delta[m + 1:last + 1]
        margin = words.sums[m] + min(chain.from_iterable(rows))
        if margin >= 0:
            zero = RankOnePoint(1, 0, zeros())
            a_set, b_set = (LevelSet(m + 1, {sys.level_index(zero, m + 1)})
                            for sys in (pair.sys_x, pair.sys_y))
            return NonEvenPlan(pair, Fraction(eps), N, m, words.lengths[m] + 1,
                               a_set, b_set, margin)


def noneven_match(plan, x):
    """Embed x into the Y skyscraper: descend to the cylinder point below,
    hop to the Y point with the same digits, climb the same number of
    steps.  The plan's margin covers the whole cylinder, so the pile fits
    its pit and nothing is checked here: h < pile <= pit anchors y."""
    pair = plan.pair
    h, base = height_above_base(pair.sys_x, plan.a_set, x)
    y = _anchored_above(pair.sys_y, plan.b_set, base.digits, h)
    return y, h, base


def _pit_read(plan, y):
    """(D, y_base, pile): y's depth above its b-set point y_base, and the
    height of the pile over the same digits."""
    D, y_base = height_above_base(plan.pair.sys_y, plan.b_set, y)
    return D, y_base, pile_height(plan, y_base.digits)


def noneven_in_image(plan, y):
    """Membership in the embedded copy of X: the depth of y above its
    cylinder point must fall short of the corresponding pile height."""
    D, _, pile = _pit_read(plan, y)
    return D < pile


def noneven_inverse(plan, y):
    """The X point embedded at y, anchored (D < pile); SpecInvalid for a y
    outside the image."""
    D, y_base, pile = _pit_read(plan, y)
    if D >= pile:
        raise SpecInvalid(f"point at depth {D} lies outside the embedded "
                          f"pile of height {pile} over its cylinder point")
    return _anchored_above(plan.pair.sys_x, plan.a_set, y_base.digits, D)


def noneven_image_successor(plan, y):
    """First return of the Y map to the embedded image, starting after y.

    Above a b-set point the image is the first pile levels of its pit, so
    the successor of a point at depth D is the next level when D + 1 <
    pile, and otherwise the next b-set point on the Y orbit: the digits
    advanced by one block, one RankOneSystem.advance (digits 1..m of a
    b-set point are 0, so the carry starts at stage m + 1).  The next
    level is anchored at depth D + 1 < pile <= pit."""
    sys_y = plan.pair.sys_y
    D, y_base, pile = _pit_read(plan, y)
    if D + 1 < pile:
        succ = sys_y.apply(y, 1, 256)
        _anchor(succ, sys_y, plan.b_set, D + 1, y_base)
        return succ
    return RankOnePoint(1, 0, sys_y.advance(y_base.digits, plan.block)[1])
