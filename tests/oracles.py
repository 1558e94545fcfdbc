"""Independent, deliberately naive reference implementations used as
oracles by the tests.  Everything here is built from explicit lists so
that agreement with the package's recursive/arithmetic code is a real
cross-check, not a tautology.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from cutstack import matching
from cutstack.arithmetic import NeedMoreDigits, OdometerPoint
from cutstack.digits import OverlayDigits, explicit_extent, zeros
from cutstack.errors import (
    CutstackError,
    ExhaustedDigits,
    HorizonExhausted,
    NeedMoreDepth,
    WindowEdge,
    WindowExhausted,
)
from cutstack.induction import lift
from cutstack.matching import build_frame
from cutstack.quadratic import _reduce_root
from cutstack.towers import BaseOrbitWalker, RankOnePoint

SPACER = "spacer"


def stack_levels(spec, depth):
    """Stages 1..depth as explicit label lists, bottom to top.

    A level is ("level", birth_stage, birth_level) and a spacer is the
    string "spacer".  Stage i+1 = below-spacers, then the stage-i list
    repeated cut-count times with the per-copy above-spacers appended.
    """
    stage = [("level", 1, l) for l in range(spec.initial_height)]
    out = [list(stage)]
    for i in range(1, depth):
        rule = spec.rule(i)
        nxt = [SPACER] * rule.spacers_below
        for j in range(rule.cuts):
            nxt.extend(stage)
            nxt.extend([SPACER] * rule.spacers_above[j])
        # Newly created spacers become named levels of stage i+1.
        stage = [
            lab if lab != SPACER else ("level", i + 1, pos)
            for pos, lab in enumerate(nxt)
        ]
        out.append(list(stage))
    return out


def heights(spec, depth):
    """Heights via the explicit lists (not the recurrence)."""
    return [len(s) for s in stack_levels(spec, depth)]


def widths(spec, depth):
    """Stage widths from the cut counts and the exact stage-1 width."""
    w = Fraction(1, 1) / spec.total_mass()
    out = []
    for i in range(1, depth + 1):
        out.append(w)
        w /= spec.rule(i).cuts
    return out


def naive_odometer_successor(digits, bases):
    """Add one with carry to a finite little-endian digit list."""
    digits = list(digits)
    for k in range(len(digits)):
        digits[k] += 1
        if digits[k] < bases[k]:
            return digits
        digits[k] = 0
    raise OverflowError("carry past the end of the finite digit list")


def odometer_orbit_positions(bases, steps):
    """Values j = sum d_k * prod(bases[:k]) along the orbit of zero."""
    digits = [0] * len(bases)
    out = [0]
    for _ in range(steps):
        digits = naive_odometer_successor(digits, bases)
        val = 0
        mult = 1
        for k, d in enumerate(digits):
            val += d * mult
            mult *= bases[k]
        out.append(val)
    return out


def rotation_orbit_floats(alpha, n):
    """Float orbit of 0 under x -> x + alpha mod 1 (for coarse checks)."""
    xs = []
    x = 0.0
    for _ in range(n):
        xs.append(x)
        x = (x + alpha) % 1.0
    return xs


def three_gap_lengths(alpha, n):
    """Distinct gap lengths (rounded) between the first n orbit points."""
    pts = sorted(rotation_orbit_floats(alpha, n))
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1.0 - pts[-1] + pts[0])
    return sorted({round(g, 9) for g in gaps})


def deposit_frame(ra, rb, W):
    """The pile/pit machine simulated shift by shift, for comparison with
    the ballot scan: at shift n every pile i drops its lowest remaining
    items into the lowest free slots of pit i + n.  Returns (assignment,
    unplaced, unfilled) in the scan's format."""
    nxt = {i: 1 for i in range(-W, W + 1)}
    top = {i: ra[i] - 1 for i in range(-W, W + 1)}
    fill = {j: 0 for j in range(-W, W + 1)}
    cap = {j: rb[j] - 1 for j in range(-W, W + 1)}
    assignment = {}
    for n in range(2 * W + 3):
        for i in range(-W, W + 1):
            if nxt[i] > top[i]:
                continue
            j = i + n
            if j > W:
                continue
            while nxt[i] <= top[i] and fill[j] < cap[j]:
                fill[j] += 1
                assignment[(i, nxt[i])] = (j, fill[j])
                nxt[i] += 1
        if not any(
            nxt[i] <= top[i] and i + n + 1 <= W for i in range(-W, W + 1)
        ):
            break
    unplaced = [
        (i, h) for i in range(-W, W + 1) for h in range(nxt[i], top[i] + 1)
    ]
    unfilled = [
        (j, d) for j in range(-W, W + 1) for d in range(fill[j] + 1, cap[j] + 1)
    ]
    return assignment, unplaced, unfilled


def walker_return_window(system, digits, window, budget=256):
    """Return times r(i) of the induced base map at orbit indices
    -window..window around the given base digit state, walked one step at
    a time, forward first (matching.return_window before the stage word)."""
    r = walked_side(system, digits, window, True, budget)
    r.update(walked_side(system, digits, window, False, budget))
    return r


def walked_side(system, digits, window, forward, budget=256):
    """{i: r(i)} for i = 0..window forward or 0, -1, .., -window backward,
    walked one step at a time."""
    w = BaseOrbitWalker(system, digits)
    if forward:
        r = {i: w.step(budget) for i in range(window)}
        r[window] = system.return_time(*w.carry(budget))
        return r
    r = {0: system.return_time(*w.carry(budget))}
    for i in range(1, window + 1):
        r[-i] = w.step_back(budget)
    return r


def stepped_return_time_average(system, digits, n):
    """Average return time over n induced steps, walked one step at a time
    (ergodic.return_time_average before the telescoped advance)."""
    w = BaseOrbitWalker(system, digits)
    return Fraction(sum(w.step(512) for _ in range(n)), n)


# The point layer as it was before it read the stage tables: every stage
# goes through the public cuts / offsets / height readers, with their
# bounds checks.  Kept verbatim, as functions of the system, as the
# table-read point layer's oracle.


def decompose(system, k, idx):
    """One provenance step for stage-k level idx (k >= 2).

    Returns ("copy", column, inner_level) or ("spacer",).
    """
    offs = system.offsets(k - 1)
    h = system.height(k - 1)
    a = bisect_right(offs, idx) - 1
    if a >= 0 and idx < offs[a] + h:
        return ("copy", a, idx - offs[a])
    return ("spacer",)


def point_at(system, k, idx, stream):
    """The point whose stage-k level is idx, using `stream` for digits
    at stages >= k.  Descends provenance to the birth stage."""
    overrides = {}
    while k > 1:
        step = decompose(system, k, idx)
        if step[0] == "spacer":
            break
        overrides[k - 1] = step[1]
        idx = step[2]
        k -= 1
    return RankOnePoint(k, idx, stream.with_overrides(overrides))


def level_index(system, point, k):
    """Index of the point in the stage-k stack, 0..h_k - 1."""
    if k < point.birth_stage:
        raise ValueError("point not yet born at this stage")
    idx = point.birth_level
    for j in range(point.birth_stage, k):
        a = point.digits.digit(j)
        if not 0 <= a < system.cuts(j):
            raise ExhaustedDigits(
                f"digit {a} out of range at stage {j} (cuts={system.cuts(j)})"
            )
        idx = system.offsets(j)[a] + idx
    return idx


def apply(system, point, steps, budget=64):
    """T^steps, resolved at the smallest stage where the move stays
    inside the stack.  Exact inverse: apply(apply(p, n), -n) == p."""
    if steps == 0:
        return point
    k = point.birth_stage
    idx = point.birth_level
    while k <= budget:
        t = idx + steps
        if 0 <= t < system.height(k):
            return point_at(system, k, t, point.digits)
        a = point.digits.digit(k)
        if not 0 <= a < system.cuts(k):
            raise ExhaustedDigits(
                f"digit {a} out of range at stage {k} (cuts={system.cuts(k)})"
            )
        idx = system.offsets(k)[a] + idx
        k += 1
    raise NeedMoreDepth(
        f"T^{steps} unresolved within stage budget {budget}", budget=budget
    )


# The base-orbit walker as it was before the return-time table: every step
# folds two full stack positions.  Kept verbatim as the table walker's oracle.


class PositionWalker:
    """Walks the induced map on the stage-1 base level (level 0) as an
    odometer on the column digits, producing exact return times.

    The Birkhoff sum of the return time telescopes to a stack-position
    difference, so each step costs O(carry length), amortized O(1).
    """

    def __init__(self, system, digits_stream=None):
        self.sys = system
        if digits_stream is None:
            digits_stream = zeros()
        self.tail = digits_stream
        self.d = []  # materialized digits, d[j] = digit at stage j+1

    def _digit(self, j):
        while len(self.d) <= j:
            self.d.append(self.tail.digit(len(self.d) + 1))
        return self.d[j]

    def state(self):
        return tuple(self.d)

    def point(self):
        prefix = tuple(self.d)
        return RankOnePoint(
            1, 0, OverlayDigits(self.tail, {j + 1: v for j, v in enumerate(prefix)})
            if prefix
            else self.tail,
        )

    def position(self, upto):
        """Stack position (level index) at stage upto+1, folding the first
        `upto` digits."""
        idx = 0
        for j in range(upto):
            idx = self.sys.offsets(j + 1)[self._digit(j)] + idx
        return idx

    def step(self, budget=256):
        """Advance one induced step; returns the return time r >= 1."""
        sys = self.sys
        j = 0
        while self._digit(j) == sys.cuts(j + 1) - 1:
            j += 1
            if j > budget:
                raise NeedMoreDepth("all digits maximal within budget", budget=budget)
        old = self.position(j + 1)
        for u in range(j):
            self.d[u] = 0
        self.d[j] += 1
        new = self.position(j + 1)
        return new - old

    def step_back(self, budget=256):
        """Retreat one induced step; returns the return time of the
        predecessor (the pile height climbed over)."""
        sys = self.sys
        j = 0
        while self._digit(j) == 0:
            sys.cuts(j + 1)  # the borrow writes c - 1 here
            j += 1
            if j > budget:
                raise NeedMoreDepth("all digits zero within budget", budget=budget)
        old = self.position(j + 1)
        for u in range(j):
            self.d[u] = sys.cuts(u + 1) - 1
        self.d[j] -= 1
        new = self.position(j + 1)
        return old - new

    def advance(self, n, budget=256):
        """Jump n induced steps (n may be negative); returns the signed total
        T-step count (sum of return times along the way), exact.

        Mixed-radix addition with a signed carry, then a stack-position
        difference at the first stage both endpoints share.  A move that
        gives up puts back the digits it changed.
        """
        if n == 0:
            return 0
        before = []
        carry = n
        j = 0
        try:
            while carry:
                if j > budget:
                    edge = "maximal" if carry > 0 else "zero"
                    raise NeedMoreDepth(f"all digits {edge} within budget",
                                        budget=budget)
                before.append(self._digit(j))
                b = self.sys.cuts(j + 1)
                tot = self.d[j] + carry
                self.d[j] = tot % b
                carry = (tot - self.d[j]) // b
                j += 1
        except CutstackError:
            self.d[:len(before)] = before
            raise
        old_idx = 0
        new_idx = 0
        for u in range(j):
            old_idx = self.sys.offsets(u + 1)[before[u]] + old_idx
            new_idx = self.sys.offsets(u + 1)[self._digit(u)] + new_idx
        return new_idx - old_idx

    def return_time(self):
        """Return time at the current state, without moving."""
        saved = list(self.d)
        r = self.step()
        self.d = saved
        return r


class FractionSurd:
    """u + v*sqrt(d) with rational u, v and a fixed non-square d > 1.

    The Fraction-based Surd that the integer one replaced, kept as its
    oracle; repr prints it as a Surd.

    Rationals are represented with v == 0 (d then irrelevant); mixing two
    different irrational radicands is an error.
    """

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v=0, d=None):
        self.u = Fraction(u)
        self.v = Fraction(v)
        if self.v != 0:
            if d is None:
                raise ValueError("irrational part needs a radicand")
            s, d0 = _reduce_root(d)
            if isqrt(d0) ** 2 == d0:
                self.u += self.v * s * isqrt(d0)
                self.v = Fraction(0)
                self.d = None
            else:
                self.v *= s
                self.d = d0
        else:
            self.d = None

    @classmethod
    def sqrt(cls, n):
        return cls(0, 1, n)

    def _unify(self, other):
        if not isinstance(other, FractionSurd):
            other = FractionSurd(other)
        if self.d is not None and other.d is not None and self.d != other.d:
            raise ValueError(f"incompatible radicands {self.d} and {other.d}")
        return other, self.d if self.d is not None else other.d

    # -- ring/field ops -----------------------------------------------------

    def __add__(self, other):
        other, d = self._unify(other)
        return FractionSurd(self.u + other.u, self.v + other.v, d)

    __radd__ = __add__

    def __neg__(self):
        return FractionSurd(-self.u, -self.v, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FractionSurd)
                       else FractionSurd(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, d = self._unify(other)
        if d is None:
            return FractionSurd(self.u * other.u)
        return FractionSurd(
            self.u * other.u + self.v * other.v * d,
            self.u * other.v + self.v * other.u,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other, d = self._unify(other)
        if other.u == 0 and other.v == 0:
            raise ZeroDivisionError
        if d is None:
            return FractionSurd(self.u / other.u)
        norm = other.u * other.u - other.v * other.v * d
        conj = FractionSurd(other.u, -other.v, d)
        prod = self * conj
        return FractionSurd(prod.u / norm, prod.v / norm, d)

    def __rtruediv__(self, other):
        return FractionSurd(other) / self

    # -- order --------------------------------------------------------------

    def sign(self):
        u, v, d = self.u, self.v, self.d
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        # opposite signs: compare |u| with |v|sqrt(d)
        t = u * u - v * v * d
        s = (t > 0) - (t < 0)
        return s if u > 0 else -s

    def __eq__(self, other):
        try:
            diff = self - other
        except ValueError:
            return NotImplemented
        return diff.u == 0 and diff.v == 0

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- floor / frac / approx ---------------------------------------------

    def approx(self, bits=128):
        """Rational approximation within 2^-bits (for cross-checks only)."""
        if self.v == 0:
            return self.u
        scale = 1 << (bits + 8)
        root = Fraction(isqrt(self.d * scale * scale), scale)
        return self.u + self.v * root

    def __float__(self):
        return float(self.approx(64))

    def floor(self):
        if self.v == 0:
            return self.u.numerator // self.u.denominator
        n = int(self.approx(64))  # candidate, then exact adjustment
        while self < n:
            n -= 1
        while self >= n + 1:
            n += 1
        return n

    def frac(self):
        return self - self.floor()

    def __repr__(self):
        if self.v == 0:
            return f"Surd({self.u})"
        return f"Surd({self.u} + {self.v}*sqrt({self.d}))"


# The even matching as it was before one reader served both directions:
# mirrored forward and inverse readers, their record types (with the
# constant `stable` field) and the partial-sum walk they called.  Kept
# verbatim as the two-way readers' oracle.


@dataclass
class MatchRecord:
    x: object  # the matched X point
    h: int  # height above its base point
    n: int  # pit shift
    d: int  # slot depth in the target pit
    y: object  # the matched Y point
    mode: str
    boundary: bool = False  # chosen shift tied pile top to pit capacity
    stable: object = None  # machine mode: True, a placed slot is final


@dataclass
class InverseMatchRecord:
    y: object
    D: int  # slot depth above the Y base point
    m: int  # backward shift to the source pile
    H: int  # item height in that pile
    x: object
    mode: str
    boundary: bool = False
    stable: object = None


def _partial_sum_walk(pair, digits, forward, h, slack, horizon, budget):
    """(n, d, margin, fw): n <= horizon least with h + r_1 + ... + r_n <=
    f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... + f_{n-1}),
    margin the right side minus the left, fw the f walker at step n.  r, f
    are the X, Y return times along the matched base orbits, or backward
    the Y, X ones.  Past the horizon n, d are None and margin is the best
    seen.  step returns the time of the point it leaves, step_back of the
    point it reaches."""
    wx = BaseOrbitWalker(pair.sys_x, digits)
    wy = BaseOrbitWalker(pair.sys_y, digits)
    rw, fw = (wx, wy) if forward else (wy, wx)
    reach = h
    psi = 0
    f = fw.sys.return_time(*fw.carry(budget))
    best = None
    for n in range(horizon + 1):
        if n and forward:
            if n == 1:
                rw.step(budget)  # skip r_0; the sums start at r_1
            reach += rw.step(budget)
            fw.step(budget)
            f = fw.sys.return_time(*fw.carry(budget))
        elif n:
            f = fw.step_back(budget)
            reach += rw.step_back(budget)
        psi += f
        margin = psi - slack - reach
        if margin >= 0:
            return n, reach - psi + f, margin, fw
        if best is None or margin > best:
            best = margin
    return None, None, best, fw


def even_match_formula(pair, digits, h, strict=False, horizon=4096, budget=256):
    """Shift and slot by partial sums of return times.

    n is the least shift with h + (a_1 + ... + a_n) <= b_0 + ... + b_n
    (strict mode subtracts one from the right side, matching the machine's
    slot capacities), and d = h + (a_1 + ... + a_n) - (b_0 + ... + b_{n-1});
    a and b are the X and Y return times along the matched base orbits.
    """
    slack = 1 if strict else 0
    n, d, margin, wy = _partial_sum_walk(pair, digits, True, h, slack,
                                         horizon, budget)
    if n is None:
        raise WindowExhausted(
            f"no pit found within {horizon} shifts", window=horizon
        )
    y_base = wy.point()
    y = pair.sys_y.apply(y_base, d) if d else y_base
    x_base = RankOnePoint(1, 0, digits)
    x = pair.sys_x.apply(x_base, h) if h else x_base
    return MatchRecord(x, h, n, d, y, "formula_strict" if strict else "formula",
                       boundary=margin == -slack)


def even_match_machine(pair, digits, h, window=32, budget=256):
    """The same assignment read off a machine frame centered at the base
    point; raises WindowEdge if the item's pit lies past the window.  A
    placed slot is final (see _ballot_scan), so the record is stable."""
    if h == 0:
        return _machine_record(pair, digits, True, 0, (0, 0), window, budget)
    frame = build_frame(pair, digits, window, budget=budget)
    return _machine_record(pair, digits, True, h, frame.assignment.get((0, h)),
                           window, budget)


def _machine_record(pair, digits, forward, k, hit, window, budget):
    """The record of item (0, k) dropped into slot hit = (j, d) forward, or
    of slot (0, k) filled by item hit = (i, H) backward; WindowEdge when
    hit is None."""
    if hit is None:
        what, done = ("item", "placed") if forward else ("slot", "filled")
        raise WindowEdge(
            f"{what} (0, {k}) not {done} within window {window}",
            window=window
        )
    j, d = hit
    base = RankOnePoint(1, 0, digits)
    src, img = (pair.sys_x, pair.sys_y) if forward else (pair.sys_y, pair.sys_x)
    w = BaseOrbitWalker(img, digits)
    w.advance(j, budget)
    there = img.apply(w.point(), d) if k else base
    here = src.apply(base, k) if k else base
    if forward:
        return MatchRecord(here, k, j, d, there, "machine", stable=True)
    return InverseMatchRecord(here, k, -j, d, there, "machine", stable=True)


def even_match_inverse_formula(pair, digits, D, strict=False, horizon=4096,
                               budget=256):
    """Invert by mirrored sums: m is the least backward shift with
    D + (b_{-1} + ... + b_{-m}) <= a_0 + ... + a_{-m} (minus one when
    strict), and H = D + (b_{-1} + ... + b_{-m}) - (a_0 + ... + a_{-(m-1)}).

    `digits` addresses the X base point paired with the pit's base point.
    """
    slack = 1 if strict else 0
    m, H, margin, wx = _partial_sum_walk(pair, digits, False, D, slack,
                                         horizon, budget)
    if m is None:
        raise WindowExhausted(
            f"no source pile found within {horizon} shifts", window=horizon
        )
    x_base = wx.point()
    x = pair.sys_x.apply(x_base, H) if H else x_base
    y_base = RankOnePoint(1, 0, digits)
    y = pair.sys_y.apply(y_base, D) if D else y_base
    return InverseMatchRecord(
        y, D, m, H, x, "formula_strict" if strict else "formula",
        boundary=margin == -slack,
    )


def even_match_inverse_machine(pair, digits, D, window=32, budget=256):
    """Inverse assignment read off the machine frame (table inversion)."""
    if D == 0:
        return _machine_record(pair, digits, False, 0, (0, 0), window, budget)
    frame = build_frame(pair, digits, window, budget=budget)
    return _machine_record(pair, digits, False, D, frame.inverse.get((0, D)),
                           window, budget)


# The machine read of one item or one slot as the deposit machine gives it
# when the far side of the window is empty: piles past the base point come
# after pit 0 and piles before it sit below pile 0 on the stack, so neither
# can change the answer.  Kept as the one-sided read's oracle.


def one_sided_machine(pair, digits, forward, k, window=32, budget=256):
    """even_match_machine forward, even_match_inverse_machine backward, by
    deposit_frame on a frame whose own side holds the walked return times
    of each system and whose far side is empty (r = 1)."""
    if k == 0:
        return _machine_record(pair, digits, forward, 0, (0, 0), window,
                               budget)
    ra, rb = ({i: 1 for i in range(-window, window + 1)} for _ in "ab")
    ra.update(walked_side(pair.sys_x, digits, window, forward, budget))
    rb.update(walked_side(pair.sys_y, digits, window, forward, budget))
    assignment = deposit_frame(ra, rb, window)[0]
    if not forward:
        assignment = {slot: item for item, slot in assignment.items()}
    return _machine_record(pair, digits, forward, k, assignment.get((0, k)),
                           window, budget)


# The edge audit as it was before frame_stability kept its result: build the
# frame and its doubled-window frame afresh, and audit them.  Kept as the
# memo's oracle; the audit is read off the module at call time, so a test
# that replaces matching._frame_audit replaces it here too.


def rebuilt_edge_violations(pair, digits, window):
    f1 = build_frame(pair, digits, window)
    f2 = build_frame(pair, digits, 2 * window)
    return matching._frame_audit(f1, f2)[1]


# The partial-sum walk as it was before block descent: one walker moves a
# shift at a time and reads both return times off each carry.  Kept as the
# descent's oracle.


def one_walker_walk(pair, digits, forward, h, slack, horizon, budget):
    """(n, d, margin, image base): n <= horizon least with h + r_1 + ... +
    r_n <= f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... +
    f_{n-1}), margin the right side minus the left, and the base point at
    orbit index n (-n backward).  r, f are the source and image return times
    along the shared base orbit of `digits`, forward or backward: one walker
    moves, and the carry (s, e) of the step from each point gives r =
    R_src(s, e) and f = R_img(s, e).  Past the horizon n, d and the point
    are None and margin is the best seen."""
    src, img = ((pair.sys_x, pair.sys_y) if forward
                else (pair.sys_y, pair.sys_x))
    w = BaseOrbitWalker(src, digits)
    move = w.step if forward else w.step_back
    reach = h
    f = psi = img.return_time(*w.carry(budget))
    best = None
    for n in range(horizon + 1):
        if n:
            move(budget)
            s, e = w.carry(budget)
            reach += src.return_time(s, e)
            f = img.return_time(s, e)
            psi += f
        margin = psi - slack - reach
        if margin >= 0:
            return n, reach - psi + f, margin, w.point()
        if best is None or margin > best:
            best = margin
    return None, None, best, None


# The odometer as it was before the signed carry: one carry loop for each
# direction, and apply as a loop of single steps.  Kept verbatim as the
# one-add odometer_apply's oracle.


def odometer_successor(spec, point, budget=256):
    """Add one with carry; exact cylinder-mass preserving."""
    k = 1
    overrides = {}
    while k <= budget:
        d = point.digit(k)
        if d + 1 < spec.base(k):
            overrides[k] = d + 1
            return OdometerPoint(point.digits.with_overrides(overrides))
        overrides[k] = 0
        k += 1
    raise NeedMoreDigits(f"all digits maximal through {budget}")


def odometer_predecessor(spec, point, budget=256):
    k = 1
    overrides = {}
    while k <= budget:
        d = point.digit(k)
        if d > 0:
            overrides[k] = d - 1
            return OdometerPoint(point.digits.with_overrides(overrides))
        overrides[k] = spec.base(k) - 1
        k += 1
    raise NeedMoreDigits(f"all digits zero through {budget}")


def odometer_apply(spec, point, steps, budget=256):
    for _ in range(abs(steps)):
        point = (
            odometer_successor(spec, point, budget)
            if steps > 0
            else odometer_predecessor(spec, point, budget)
        )
    return point


# The height search as it was before the climb: lift the base to each stage
# K from the point's resolved stage on, and bisect the point's level among
# all the lifted copies.  Kept, without its cache of lifted sets, as the
# climb's oracle; its cost grows as the product of the cut counts up to K.


def height_above_base(system, base, point):
    k0 = max(base.stage, point.birth_stage, explicit_extent(point.digits) + 1)
    for K in range(k0, k0 + 9):
        arr = sorted(lift(system, base, K).level_indices)
        idx = system.level_index(point, K)
        pos = bisect_right(arr, idx) - 1
        if pos >= 0:
            base_pt = system.point_at(K, arr[pos], point.digits)
            return idx - arr[pos], base_pt
    raise NeedMoreDepth(
        "no base element below the point within 8 extra stages", budget=8)


# The non-even image successor as it was before the closed form: step the Y
# map until a point lies in the embedded image.  Kept as its oracle.


def noneven_image_successor(plan, y):
    cur = y
    for _ in range(4096):
        cur = plan.pair.sys_y.apply(cur, 1, 256)
        if matching.noneven_in_image(plan, cur):
            return cur
    raise HorizonExhausted("no image point within 4096 steps", horizon=4096)
