"""Return-time structure and induced maps, generic over the system.

A small adapter gives each system its measure and column decomposition:
rank-one systems act on level-set unions, rotations on exact interval
unions.  First returns (apply/contains) and skyscrapers are read on
rank-one adapters only.  Every search has a limit: a return within 4,096
steps, each step resolved within 64 stages; running out raises
BudgetExhausted or NeedMoreDepth rather than guessing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, NeedMoreDepth
from .quadratic import ONE, ZERO, Surd
from .towers import LevelSet


# ---------------------------------------------------------------------------
# Level sets


def lift(system, a, to_stage):
    """Replace each level by its copies at a deeper stage (spacers excluded)."""
    if to_stage < a.stage:
        raise ValueError("can only lift to a deeper stage")
    indices = set(a.level_indices)
    for k in range(a.stage, to_stage):
        offs = system.offsets(k)
        indices = {o + p for p in indices for o in offs}
    return LevelSet(to_stage, indices)


# ---------------------------------------------------------------------------
# Exact interval unions on the circle (rotation sets)


class IntervalUnion:
    """Finite union of half-open intervals [l, r) in [0, 1), exact Surd
    endpoints, kept sorted and disjoint, no two touching.

    intersect, difference and shift_mod1 keep that invariant in one pass
    over sorted inputs and pass `ordered=True`, so their output skips the
    sort and merge of _normalize."""

    def __init__(self, intervals=(), ordered=False):
        self.intervals = intervals if ordered else self._normalize(intervals)

    @staticmethod
    def _normalize(intervals):
        ivs = sorted(((l, r) for l, r in intervals if l < r),
                     key=lambda iv: iv[0])
        out = []
        for l, r in ivs:
            if out and l <= out[-1][1]:
                pl, pr = out[-1]
                out[-1] = (pl, max(pr, r))
            else:
                out.append((l, r))
        return out

    def measure(self):
        total = ZERO
        for l, r in self.intervals:
            total = total + (r - l)
        return total

    def contains(self, value):
        return any(l <= value < r for l, r in self.intervals)

    def intersect(self, other):
        """One merge pass: the pair (i, j) meets in [max l, min r), then the
        interval that ends first gives way.  Meets of sorted, disjoint,
        non-touching intervals come out sorted, disjoint and apart."""
        out = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            (l1, r1), (l2, r2) = a[i], b[j]
            lo = l2 if l1 < l2 else l1
            if r1 < r2:
                hi = r1
                i += 1
            else:
                hi = r2
                j += 1
            if lo < hi:
                out.append((lo, hi))
        return IntervalUnion(out, ordered=True)

    def difference(self, other):
        """Self less other, in one left-to-right pass: each interval of
        self loses the sorted, disjoint intervals of other that meet it."""
        out = []
        cuts, j = other.intervals, 0
        for l, r in self.intervals:
            while j < len(cuts) and cuts[j][1] <= l:
                j += 1
            k = j
            while k < len(cuts) and cuts[k][0] < r:
                l2, r2 = cuts[k]
                if l < l2:
                    out.append((l, l2))
                l = r2
                k += 1
            if l < r:
                out.append((l, r))
        return IntervalUnion(out, ordered=True)

    def shift_mod1(self, beta):
        """Translate by beta and reduce mod 1, splitting wrapped intervals.

        With beta in [0, 1) and top = 1 - beta, the pieces at or past top
        wrap to [l + beta - 1, r + beta - 1) below beta, in order, after the
        low part [0, r + beta - 1) of the one straddling top; the rest move
        to [l + beta, r + beta), then the straddler's high part [l + beta,
        1).  So the output is sorted with no sort; only the two pieces that
        meet at beta, the images of 1 and 0, can touch, and they merge."""
        beta = beta.frac()
        down = beta - ONE
        top = -down
        low, high = [], []
        for l, r in self.intervals:
            if r <= top:
                high.append((l + beta, r + beta))
            elif l >= top:
                low.append((l + down, r + down))
            else:
                low.append((ZERO, r + down))  # nothing has wrapped yet
                high.append((l + beta, ONE))
        if low and high and low[-1][1] == high[0][0]:
            low[-1] = (low[-1][0], high.pop(0)[1])
        return IntervalUnion(low + high, ordered=True)

    def is_empty(self):
        return not self.intervals

    def __len__(self):
        return len(self.intervals)

    def __repr__(self):
        return f"IntervalUnion({[(float(l), float(r)) for l, r in self.intervals]})"


def whole_circle():
    return IntervalUnion([(ZERO, ONE)])


# ---------------------------------------------------------------------------
# System adapters


@dataclass
class ReturnTimeDecomposition:
    base: object
    cells: list  # (cell set, return time r), pairwise disjoint
    remainder: object  # unresolved part of the base
    remainder_mass: object
    measure_fn: object = None

    def kac_sum(self):
        total = None
        for cell, r in self.cells:
            term = r * self.measure_fn(cell)
            total = term if total is None else total + term
        return total if total is not None else Fraction(0)


@dataclass
class Skyscraper:
    base: object
    levels: list  # level 0 is the base; pairwise disjoint


class RankOneAdapter:
    """Rank-one cutting-and-stacking system; sets are LevelSets."""

    def __init__(self, system):
        self.sys = system

    def apply(self, point, steps):
        return self.sys.apply(point, steps, 64)

    def contains(self, lset, point):
        return self.sys.in_level_set(lset, point)

    def measure(self, lset):
        return self.sys.measure(lset)

    def column_decomposition(self, A, working_stage):
        """Cells resolved at the working stage via level gaps; the topmost
        lifted level stays unresolved (its return leaves the stack)."""
        idx = sorted(lift(self.sys, A, working_stage).level_indices)
        if not idx:
            return ReturnTimeDecomposition(A, [], A, Fraction(0), self.measure)
        by_r = {}
        for i, j in zip(idx, idx[1:]):
            by_r.setdefault(j - i, set()).add(i)
        cells = [(LevelSet(working_stage, levels), r)
                 for r, levels in sorted(by_r.items())]
        remainder = LevelSet(working_stage, {idx[-1]})
        return ReturnTimeDecomposition(A, cells, remainder,
                                       self.measure(remainder), self.measure)

    def skyscraper(self, A, bound, working_stage=None):
        """Levels read at the working stage (default: A's own stage)."""
        sys = self.sys
        K = working_stage if working_stage is not None else A.stage
        cur = lift(sys, A, K) if K > A.stage else A
        h = sys.height(K)
        seen = set(cur.level_indices)
        levels = [cur]
        for _ in range(bound):
            prev = levels[-1].level_indices
            if not prev:
                levels.append(LevelSet(K, frozenset()))
                continue
            if any(i + 1 >= h for i in prev):
                # the stack top leaks; only safe if the tower already
                # exhausted the whole mass (then every further level is null)
                covered = len(seen) * sys.width(K)
                if covered == 1:
                    levels.append(LevelSet(K, frozenset()))
                    continue
                raise NeedMoreDepth(
                    f"skyscraper level leaves the stage-{K} stack; "
                    "raise the working stage"
                )
            img = {i + 1 for i in prev}
            new = frozenset(img - seen)
            seen |= img
            levels.append(LevelSet(K, new))
        return Skyscraper(A, levels)


class RotationAdapter:
    """Exact irrational rotation; sets are IntervalUnions."""

    def __init__(self, angle):
        self.angle = angle

    def measure(self, iu):
        return iu.measure()

    def column_decomposition(self, A, max_r):
        """The clopen cells B_r = (T^-r A ∩ A) \\ earlier, r = 1..max_r."""
        angle = self.angle
        cells = []
        remaining = A
        for r in range(1, max_r + 1):
            cell = remaining.intersect(A.shift_mod1(angle.frac_value(0, -r)))
            if not cell.is_empty():
                cells.append((cell, r))
                remaining = remaining.difference(cell)
            if remaining.is_empty():
                break
        return ReturnTimeDecomposition(A, cells, remaining,
                                       remaining.measure(), self.measure)


# ---------------------------------------------------------------------------
# Return times and induced maps


def _first_hit(system, A, point, step):
    """(r, landing): the least r <= 4096 with landing = T^(r * step)(point)
    in A, walked one step at a time; the point must start in A."""
    if not system.contains(A, point):
        raise ValueError("point must lie in the base set")
    cur = point
    for r in range(1, 4097):
        cur = system.apply(cur, step)
        if system.contains(A, cur):
            return r, cur
    way = "return" if step > 0 else "backward return"
    raise BudgetExhausted(f"no {way} to the base within 4096 steps",
                          budget=4096)


def return_time(system, A, point):
    """Least r >= 1 with T^r(point) back in A; the point must start in A."""
    return _first_hit(system, A, point, 1)[0]


def induced_apply(system, A, point):
    """T_A(point) = T^{r_A(point)}(point)."""
    return _first_hit(system, A, point, 1)[1]


# ---------------------------------------------------------------------------
# Column decompositions and skyscrapers


def column_decomposition(system, A, limit):
    """Split the base into cells of constant first return time, by the
    adapter's own rule: `limit` is the working stage of a RankOneAdapter
    and the largest return time of a RotationAdapter."""
    return system.column_decomposition(A, limit)


def decomposition_histogram(dec):
    """CSV-ready rows: r, mass numerator, mass denominator, cell count.  A
    rotation's Surd mass is reported by its nearest fraction with
    denominator at most 10^12."""
    rows = []
    for cell, r in dec.cells:
        m = dec.measure_fn(cell)
        if isinstance(m, Surd):
            m = m.approx(96).limit_denominator(10**12)
        rows.append((r, m.numerator, m.denominator, len(cell)))
    return rows


def skyscraper(system, A, height_bound, working_stage=None):
    """Levels A, T(A)\\A, T^2(A)\\(A ∪ T(A)), ... up to the bound."""
    return system.skyscraper(A, height_bound, working_stage)
