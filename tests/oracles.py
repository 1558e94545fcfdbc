"""Independent, deliberately naive reference implementations used as
oracles by the tests.  Everything here is built from explicit lists so
that agreement with the package's recursive/arithmetic code is a real
cross-check, not a tautology.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from cutstack import matching
from cutstack.arithmetic import RotationPoint
from cutstack.digits import OverlayDigits, SeededDigits, explicit_extent, zeros
from cutstack.errors import (
    BudgetExhausted,
    CutstackError,
    ExhaustedDigits,
    HorizonExhausted,
    MarginViolation,
    NeedMoreDepth,
    SpecInvalid,
    WindowEdge,
    WindowExhausted,
)
from cutstack.induction import IntervalUnion, _first_hit, lift
from cutstack.matching import build_frame
from cutstack.quadratic import Surd
from cutstack.towers import RankOnePoint

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


def pile_stack_scan(ra, rb, W):
    """The ballot scan as one pass over a stack of piles, each held as a
    mutable [pile, next item] pair: push pile j, then fill pit j's slots
    from the top pile's lowest remaining item, popping piles as they
    empty.  Returns (assignment, unplaced, unfilled) in the scan's format
    (matching._ballot_scan before it kept a stack of items)."""
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
    if forward:
        r = {}
        for i in range(window):
            r[i], digits = system.advance(digits, 1, budget)
        r[window] = system.return_time(*system.carry(digits, budget=budget))
        return r
    r = {0: system.return_time(*system.carry(digits, budget=budget))}
    for i in range(1, window + 1):
        back, digits = system.advance(digits, -1, budget)
        r[-i] = -back
    return r


def stepped_return_time_average(system, digits, n):
    """Average return time over n induced steps, walked one step at a time
    (ergodic.return_time_average before the telescoped advance)."""
    total = 0
    for _ in range(n):
        r, digits = system.advance(digits, 1, 512)
        total += r
    return Fraction(total, n)


def stepped_estimate_N(system, target, eps, samples=32, horizon=256, seed=0):
    """ergodic.estimate_N as it was before it read the stage word: one
    induced step and one Fraction comparison per n."""
    worst = 1
    for s in range(samples):
        digits = SeededDigits(f"estN:{seed}:{s}", system.cuts)
        pos = 0
        last_bad = 0
        for n in range(1, horizon + 1):
            r, digits = system.advance(digits, 1, 512)
            pos += r
            if abs(Fraction(pos, n) - target) >= eps:
                last_bad = n
        if last_bad >= horizon:
            raise HorizonExhausted(
                f"averages still outside eps at the horizon {horizon}",
                horizon=horizon,
            )
        worst = max(worst, last_bad + 1)
    return worst


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
# folds two full stack positions.  Kept verbatim as the oracle of
# RankOneSystem.carry and advance.


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
            s, d0 = trial_reduce_root(d)
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
# as the two-way readers' oracle, verbatim but for the refusal of an item
# outside the pile or a slot outside the pit, which every reader makes.


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
    """(n, d, margin, image base): n <= horizon least with h + r_1 + ... +
    r_n <= f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... +
    f_{n-1}), margin the right side minus the left, and the f system's base
    point at step n.  r, f are the X, Y return times along the matched base
    orbits, or backward the Y, X ones, each system stepping its own copy of
    the digits.  Past the horizon n, d and the point are None and margin
    is the best seen.  A step forward spans the time of the point it
    leaves, a step back that of the point it reaches."""
    rsys, fsys = ((pair.sys_x, pair.sys_y) if forward
                  else (pair.sys_y, pair.sys_x))
    rd = fd = digits
    reach = h
    psi = 0
    f = fsys.return_time(*fsys.carry(fd, budget=budget))
    best = None
    for n in range(horizon + 1):
        if n and forward:
            if n == 1:  # skip r_0; the sums start at r_1
                rd = rsys.advance(rd, 1, budget)[1]
            r, rd = rsys.advance(rd, 1, budget)
            reach += r
            fd = fsys.advance(fd, 1, budget)[1]
            f = fsys.return_time(*fsys.carry(fd, budget=budget))
        elif n:
            f, fd = fsys.advance(fd, -1, budget)
            r, rd = rsys.advance(rd, -1, budget)
            f, reach = -f, reach - r
        psi += f
        margin = psi - slack - reach
        if margin >= 0:
            return n, reach - psi + f, margin, RankOnePoint(1, 0, fd)
        if best is None or margin > best:
            best = margin
    return None, None, best, None


def even_match_formula(pair, digits, h, strict=False, horizon=4096, budget=256):
    """Shift and slot by partial sums of return times.

    n is the least shift with h + (a_1 + ... + a_n) <= b_0 + ... + b_n
    (strict mode subtracts one from the right side, matching the machine's
    slot capacities), and d = h + (a_1 + ... + a_n) - (b_0 + ... + b_{n-1});
    a and b are the X and Y return times along the matched base orbits.
    """
    _refuse_by_carry(pair.sys_x, digits, True, h, budget)
    slack = 1 if strict else 0
    n, d, margin, y_base = _partial_sum_walk(pair, digits, True, h, slack,
                                             horizon, budget)
    if n is None:
        raise WindowExhausted(
            f"no pit found within {horizon} shifts", window=horizon
        )
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
    _refuse_outside(True, h, frame.ra[0])
    return _machine_record(pair, digits, True, h, frame.assignment.get((0, h)),
                           window, budget)


def _refuse_outside(forward, k, size):
    """SpecInvalid for an item outside the source pile of the given size,
    or backward a slot outside the pit."""
    if k < 0 or k >= size:
        what, where = ("item", "pile") if forward else ("slot", "pit")
        raise SpecInvalid(f"{what} (0, {k}) outside the {where} of size "
                          f"{size} over the base point")


def _refuse_by_carry(src, digits, forward, k, budget):
    """_refuse_outside, the size read off one carry."""
    _refuse_outside(forward, k,
                    src.return_time(*src.carry(digits, budget=budget)))


def _machine_record(pair, digits, forward, k, hit, window, budget):
    """The record of item (0, k) dropped into slot hit = (j, d) forward, or
    of slot (0, k) filled by item hit = (i, H) backward; WindowEdge when
    hit is None.  The image base point is reached one induced step at a
    time."""
    if hit is None:
        what, done = ("item", "placed") if forward else ("slot", "filled")
        raise WindowEdge(
            f"{what} (0, {k}) not {done} within window {window}",
            window=window
        )
    j, d = hit
    base = RankOnePoint(1, 0, digits)
    src, img = (pair.sys_x, pair.sys_y) if forward else (pair.sys_y, pair.sys_x)
    moved = digits
    for _ in range(abs(j)):
        moved = img.advance(moved, 1 if j > 0 else -1, budget)[1]
    there = img.apply(RankOnePoint(1, 0, moved), d) if k else base
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
    _refuse_by_carry(pair.sys_y, digits, False, D, budget)
    slack = 1 if strict else 0
    m, H, margin, x_base = _partial_sum_walk(pair, digits, False, D, slack,
                                             horizon, budget)
    if m is None:
        raise WindowExhausted(
            f"no source pile found within {horizon} shifts", window=horizon
        )
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
    _refuse_outside(False, D, frame.rb[0])
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
    _refuse_outside(forward, k, (ra if forward else rb)[0])
    assignment = deposit_frame(ra, rb, window)[0]
    if not forward:
        assignment = {slot: item for item, slot in assignment.items()}
    return _machine_record(pair, digits, forward, k, assignment.get((0, k)),
                           window, budget)


# The machine read takes each return time only when its scan gets there, so
# it answers as the one-sided read at the least window that places the item:
# a wider window only adds steps the scan never reaches, and the carry out
# of the digit block that one of them may need.  Kept as its oracle.


def least_window_machine(pair, digits, forward, k, window=32, budget=256):
    """one_sided_machine at the least window 0..window that places item k
    (fills slot k, backward), else at `window`."""
    for w in range(window):
        try:
            return one_sided_machine(pair, digits, forward, k, w, budget)
        except WindowEdge:
            pass
    return one_sided_machine(pair, digits, forward, k, window, budget)


# The edge audit as it was before frame_stability kept its result: build the
# frame and its doubled-window frame afresh, and audit them.  Kept as the
# memo's oracle; the audit is read off the module at call time, so a test
# that replaces matching._frame_audit replaces it here too.


def rebuilt_edge_violations(pair, digits, window):
    f1 = build_frame(pair, digits, window)
    f2 = build_frame(pair, digits, 2 * window)
    return matching._frame_audit(f1, f2)[1]


# The partial-sum walk as it was before block descent: one digit state moves
# a shift at a time and both return times are read off each carry.  Kept as
# the descent's oracle.


def one_walker_walk(pair, digits, forward, h, slack, horizon, budget):
    """(n, d, margin, image base): n <= horizon least with h + r_1 + ... +
    r_n <= f_0 + ... + f_n - slack, d = h + r_1 + ... + r_n - (f_0 + ... +
    f_{n-1}), margin the right side minus the left, and the base point at
    orbit index n (-n backward).  r, f are the source and image return times
    along the shared base orbit of `digits`, forward or backward: one digit
    state moves a step at a time, and the carry (s, e) of the step from
    each point gives r = R_src(s, e) and f = R_img(s, e).  Past the horizon
    n, d and the point are None and margin is the best seen."""
    src, img = ((pair.sys_x, pair.sys_y) if forward
                else (pair.sys_y, pair.sys_x))
    step = 1 if forward else -1
    reach = h
    f = psi = img.return_time(*src.carry(digits, budget=budget))
    best = None
    for n in range(horizon + 1):
        if n:
            digits = src.advance(digits, step, budget)[1]
            s, e = src.carry(digits, budget=budget)
            reach += src.return_time(s, e)
            f = img.return_time(s, e)
            psi += f
        margin = psi - slack - reach
        if margin >= 0:
            return n, reach - psi + f, margin, RankOnePoint(1, 0, digits)
        if best is None or margin > best:
            best = margin
    return None, None, best, None


# The odometer as it was before the signed carry: one carry loop for each
# direction, and apply as a loop of single steps, over the bases cuts(k).
# Kept as the oracle of RankOneSystem.advance on a spacer-free system.


class OdometerGaveUp(Exception):
    """A carry of the step-loop odometer ran past its stage limit."""


def odometer_successor(cuts, digits, limit):
    """Add one with carry at stages 1 .. limit."""
    overrides = {}
    for k in range(1, limit + 1):
        d = digits.digit(k)
        if d + 1 < cuts(k):
            overrides[k] = d + 1
            return digits.with_overrides(overrides)
        overrides[k] = 0
    raise OdometerGaveUp(f"all digits maximal through {limit}")


def odometer_predecessor(cuts, digits, limit):
    overrides = {}
    for k in range(1, limit + 1):
        d = digits.digit(k)
        if d > 0:
            overrides[k] = d - 1
            return digits.with_overrides(overrides)
        overrides[k] = cuts(k) - 1
    raise OdometerGaveUp(f"all digits zero through {limit}")


def odometer_apply(cuts, digits, steps, limit):
    move = odometer_successor if steps > 0 else odometer_predecessor
    for _ in range(abs(steps)):
        digits = move(cuts, digits, limit)
    return digits


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


# The non-even margin check as it was before the exact Delta-row minimum:
# pit - pile on seeded points of the all-zero m-cylinder, at the first of
# 5 depths where no sampled pile outgrows its pit.  Kept as its oracle,
# with the brute-force minimum over explicit (j, d) cylinders.


def deep_zero_digits(pair, m, seed):
    tail = SeededDigits(seed, pair.sys_x.cuts)
    return OverlayDigits(tail, {k: 0 for k in range(1, m + 1)})


def cylinder_block(pair, m):
    block = 1
    for k in range(1, m + 1):
        block *= pair.sys_x.cuts(k)
    return block


def cylinder_margin(pair, m, digits):
    """pit - pile from a base point with digits 1..m zero, by two advances."""
    block = cylinder_block(pair, m)
    return (pair.sys_y.advance(digits, block)[0]
            - pair.sys_x.advance(digits, block)[0])


def sampled_noneven_depth(pair, eps, N, samples=64, seed=0):
    """(m, sampled margins) as noneven_prepare chose them by sampling."""
    matching.noneven_eps_bound(pair, eps)
    m0 = 1
    while cylinder_block(pair, m0) <= 2 * N:
        m0 += 1
    for m in range(m0, m0 + 5):
        margins = [cylinder_margin(
            pair, m, deep_zero_digits(pair, m, f"margin:{seed}:{m}:{s}"))
            for s in range(samples)]
        if all(mg >= 0 for mg in margins):
            return m, margins
    raise MarginViolation(
        f"piles still exceed pits at inducing depth {m}; "
        f"worst margin {min(margins)}")


def pit_depth(plan, digits):
    """Base steps in Y across one induced block of the plan from this
    cylinder point: the pit that matching.pile_height's pile fills."""
    return plan.pair.sys_y.advance(digits, plan.block)[0]


def brute_margin(pair, m, j, d):
    """pit - pile on the m-cylinder point whose digits m+1..j-1 are
    maximal and whose stage-j digit is d, the rest zero."""
    cuts = pair.sys_x.cuts
    digits = {k: 0 for k in range(1, m + 1)}
    digits.update({k: cuts(k) - 1 for k in range(m + 1, j)})
    digits[j] = d
    return cylinder_margin(pair, m, OverlayDigits(zeros(), digits))


def brute_min_margin(pair, m, last):
    """The least brute_margin over stages j = m + 1 .. last."""
    cuts = pair.sys_x.cuts
    return min(brute_margin(pair, m, j, d)
               for j in range(m + 1, last + 1) for d in range(cuts(j) - 1))


# IntervalUnion.difference as it was before the one-pass subtraction: each
# interval of the first union is split against every interval of the other
# in turn.  Kept as the pass's oracle.


def piece_difference(u, v):
    """u less v, as an IntervalUnion."""
    out = []
    for l, r in u.intervals:
        pieces = [(l, r)]
        for l2, r2 in v.intervals:
            nxt = []
            for a, b in pieces:
                lo = max(a, l2)
                hi = min(b, r2)
                if lo < hi:
                    if a < lo:
                        nxt.append((a, lo))
                    if hi < b:
                        nxt.append((hi, b))
                else:
                    nxt.append((a, b))
            pieces = nxt
        out.extend(pieces)
    return IntervalUnion(out)


# ---------------------------------------------------------------------------
# Rotation reads as they were before the lattice floor: ring arithmetic on
# the angle's Surd, one membership test per first-return step, and interval
# algebra that re-sorts its output.  Kept as oracles for the fast paths.


def ring_frac_value(angle, a, b):
    """frac(a + b*alpha) by a Surd multiply, an add and frac()."""
    return (angle.value * b + a).frac()


def stepped_first_return(angle, p):
    """(r, landing): the least r >= 1 with frac(p + r*alpha) in [0, alpha),
    by an exact membership test of each rotated point."""
    alpha = angle.value

    def inside(b):
        return Surd(0) <= ring_frac_value(angle, p.a, b) < alpha

    if not inside(p.b):
        raise ValueError("point must lie in [0, alpha)")
    limit = angle.n + 2
    for r in range(1, limit + 1):
        if inside(p.b + r):
            return r, RotationPoint(p.a, p.b + r)
    raise BudgetExhausted(f"no return within {limit} steps")


def pairwise_intersect(u, v):
    """u and v met pair by pair, O(n*m), sorted by the constructor."""
    out = []
    for l1, r1 in u.intervals:
        for l2, r2 in v.intervals:
            lo = max(l1, l2)
            hi = min(r1, r2)
            if lo < hi:
                out.append((lo, hi))
    return IntervalUnion(out)


def sorted_shift_mod1(u, beta):
    """u translated by beta mod 1, the pieces sorted by the constructor."""
    beta = beta - beta.floor()
    out = []
    one = Surd(1)
    for l, r in u.intervals:
        l2, r2 = l + beta, r + beta
        if r2 <= one:
            out.append((l2, r2))
        elif l2 >= one:
            out.append((l2 - 1, r2 - 1))
        else:
            out.append((l2, one))
            out.append((Surd(0), r2 - 1))
    return IntervalUnion(out)


def ring_column_decomposition(angle, A, max_r):
    """(cells, remainder) of the rotation's return-time split of A, one
    r = 1..max_r at a time (the loop the three-gap cells replaced), with
    the shift -r*alpha by ring arithmetic and the oracle interval algebra;
    A may be any union of intervals."""
    alpha = angle.value
    cells = []
    remaining = A
    for r in range(1, max_r + 1):
        shifted = sorted_shift_mod1(A, Surd(0) - alpha * r)
        cell = pairwise_intersect(remaining, shifted)
        if not cell.is_empty():
            cells.append((cell, r))
            remaining = piece_difference(remaining, cell)
        if remaining.is_empty():
            break
    return cells, remaining


# The rotation comparisons as they were before the floor reads: each builds
# the Surd value of its points and compares it.  Kept as their oracles.


def surd_compare_points(angle, p, q):
    """Sign of frac(p) - frac(q), by comparing the two Surd values."""
    return angle.frac_value(p.a, p.b)._cmp(angle.frac_value(q.a, q.b))


def surd_image(em, p):
    """ExchangeMap.image, reading the piece by v < 1 - n*alpha on Surds."""
    if em.angle.frac_value(p.a, p.b) < em.cut:
        return RotationPoint(p.a - 1, p.b + em.n + 1)
    return RotationPoint(p.a - 1, p.b + em.n)


def surd_preimage(em, p):
    """ExchangeMap.preimage, reading v >= (n+1)*alpha - 1 on Surds."""
    if em.angle.frac_value(p.a, p.b) >= em.upper_cut:
        return RotationPoint(p.a + 1, p.b - em.n - 1)
    return RotationPoint(p.a + 1, p.b - em.n)


def table_first_gap(angle, length, side):
    """RotationAngle.first_gap as it was before record segments: every
    record return of every convergent is its own (n, gap) entry of one
    table per side, grown until its last gap is below length and bisected
    once."""
    tables = ([(1, angle.value)], [])
    k, q0, q1 = 0, 0, 1
    while not (tables[side] and tables[side][-1][1] < length):
        j = k + 1
        a = (angle.prefix[j] if j < len(angle.prefix)
             else angle.period[(j - len(angle.prefix)) % len(angle.period)])
        grown, sign = (0, 1) if k % 2 else (1, -1)
        tables[grown].extend(
            (n, angle.value.frac_times(sign * n))
            for n in range(q0 + q1, q0 + (a + 1) * q1, q1))
        q0, q1, k = q1, q0 + a * q1, k + 1
    table = tables[side]
    return table[bisect_left(table, True, key=lambda t: t[1] < length)]


# The radicand reduction by trial division up to the root, kept as
# FractionSurd's.


def trial_reduce_root(n):
    """(s, d) with n = s^2 * d and d squarefree, by trial division."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s = 1
    d = n
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


# ---------------------------------------------------------------------------
# Definitions that only the tests call, kept here rather than in the package


def cylinder_mass(cuts, depth):
    """Mass of any cylinder fixing the first `depth` digits of the odometer
    with bases cuts(1), cuts(2), ..."""
    m = Fraction(1)
    for k in range(1, depth + 1):
        m /= cuts(k)
    return m


def induced_inverse(system, A, point):
    """The inverse of the induced map: walk backwards to the previous A-hit."""
    return _first_hit(system, A, point, -1)[1]


def cf_terms_of(x, count):
    """First `count` continued fraction terms of a Surd (exact)."""
    terms = []
    cur = x
    for _ in range(count):
        a = cur.floor()
        terms.append(a)
        frac = cur - a
        if frac.sign() == 0:
            break
        cur = Surd(1) / frac
    return terms


def truncated_value(cuts, digits, depth):
    """The integer the first `depth` digits encode (mixed radix)."""
    val = 0
    mult = 1
    for k in range(1, depth + 1):
        val += digits.digit(k) * mult
        mult *= cuts(k)
    return val
