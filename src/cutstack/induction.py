"""Return-time structure and induced maps, generic over the system.

A small adapter gives each system its measure and column decomposition:
rank-one systems act on level-set unions, and a rotation splits one exact
interval into at most three return-time cells by the three-gap theorem.
First returns (apply/contains) and skyscrapers are read on rank-one
adapters only.  Every search has a limit: a return within 4,096
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

    difference keeps that invariant in one pass over sorted inputs and
    passes `ordered=True`, so its output skips the sort and merge of
    _normalize."""

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
        """The first-return cells of a one-interval base A = [x, z), by the
        three-gap theorem; cells past max_r make up the remainder.

        With L = z - x, let r1 be the least n >= 1 with a = frac(n*alpha)
        below L and r2 the least with b = 1 - frac(n*alpha) below L (the
        angle's record tables).  The return time is r1 on [x, z - a), r2
        on [x + b, z) and r1 + r2 on the middle [z - a, x + b), which is
        empty when a + b = L.  If r1 = r2, the first two are one cell.

        Proof.  A step n moves y by frac(n*alpha) mod 1, so y in A is back
        in A after n steps exactly when it goes up, by an up-gap c =
        frac(n*alpha) < L with y < z - c, or down, by a down-gap g =
        1 - frac(n*alpha) < L with y >= x + g.  For m < n, the step n - m
        moves by frac(n*alpha) - frac(m*alpha) mod 1.  So:
        (i) a + b >= L.  Otherwise step r1 - r2 would have up-gap a + b
        if r1 > r2, and step r2 - r1 down-gap a + b if r2 > r1, below r1
        or r2; and r1 = r2 gives a + b = 1.  So x < z - a <= x + b < z.
        (ii) No y >= z - a goes up before r1 + r2: its up-gap c < a, so
        n > r1, and step n - r1 has down-gap a - c < L, so n - r1 >= r2.
        (iii) Likewise no y < x + b goes down before r1 + r2: its g < b,
        and step n - r2 has up-gap b - g < L, so n - r2 >= r1.
        Now y < z - a goes up at r1 and, by (i) and (iii), not down
        before; y >= x + b goes down at r2 and, by (ii), not up before; a
        y in the middle does neither before r1 + r2, and that step moves
        it by a - b into [z - b, x + a), inside A.

        A base of two or more intervals raises ValueError."""
        if len(A) > 1:
            raise ValueError(
                f"a rotation base must be one interval, not {len(A)}")
        if A.is_empty():
            return ReturnTimeDecomposition(A, [], A, ZERO, self.measure)
        ((x, z),) = A.intervals
        length = z - x
        r1, a = self.angle.first_gap(length, 0)
        r2, b = self.angle.first_gap(length, 1)
        mid_l, mid_r = z - a, x + b
        cells, rest = {}, []
        for l, r, t in ((x, mid_l, r1), (mid_l, mid_r, r1 + r2),
                        (mid_r, z, r2)):
            if l < r:
                group = rest if t > max_r else cells.setdefault(t, [])
                group.append((l, r))
        cells = [(IntervalUnion(ivs), t) for t, ivs in sorted(cells.items())]
        remaining = IntervalUnion(rest)
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
