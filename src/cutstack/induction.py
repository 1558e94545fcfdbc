"""Return-time structure and induced maps, generic over system kind.

Works for any system exposing apply/contains/measure through a small
adapter: rank-one systems act on level-set unions, rotations on exact
interval unions.  Every search has a limit: a return within 4,096 steps,
each step resolved within 64 stages; running out raises BudgetExhausted or
NeedMoreDepth rather than guessing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import point_value, rotate
from .errors import BudgetExhausted, NeedMoreDepth
from .quadratic import Surd
from .towers import LevelSet, RankOneSystem


# ---------------------------------------------------------------------------
# Level-set algebra (exact Boolean algebra at a common stage)


def _check_common_stage(a, b):
    if a.stage != b.stage:
        raise ValueError(
            f"level sets live at stages {a.stage} and {b.stage}; lift first"
        )


def union(a, b):
    _check_common_stage(a, b)
    return LevelSet(a.stage, a.level_indices | b.level_indices)


def intersect(a, b):
    _check_common_stage(a, b)
    return LevelSet(a.stage, a.level_indices & b.level_indices)


def difference(a, b):
    _check_common_stage(a, b)
    return LevelSet(a.stage, a.level_indices - b.level_indices)


def complement(system, a):
    """Complement within the stage-k union of levels (the stack)."""
    full = frozenset(range(system.height(a.stage)))
    return LevelSet(a.stage, full - a.level_indices)


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
    endpoints, kept sorted and disjoint."""

    def __init__(self, intervals=()):
        self.intervals = self._normalize(intervals)

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
        total = Surd(0)
        for l, r in self.intervals:
            total = total + (r - l)
        return total

    def contains(self, value):
        return any(l <= value < r for l, r in self.intervals)

    def union(self, other):
        return IntervalUnion(self.intervals + other.intervals)

    def intersect(self, other):
        out = []
        for l1, r1 in self.intervals:
            for l2, r2 in other.intervals:
                lo = max(l1, l2)
                hi = min(r1, r2)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion(out)

    def difference(self, other):
        out = []
        for l, r in self.intervals:
            pieces = [(l, r)]
            for l2, r2 in other.intervals:
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

    def shift_mod1(self, beta):
        """Translate by beta and reduce mod 1, splitting wrapped intervals."""
        beta = beta - beta.floor()
        out = []
        one = Surd(1)
        for l, r in self.intervals:
            l2, r2 = l + beta, r + beta
            if r2 <= one:
                out.append((l2, r2))
            elif l2 >= one:
                out.append((l2 - 1, r2 - 1))
            else:
                out.append((l2, one))
                out.append((Surd(0), r2 - 1))
        return IntervalUnion(out)

    def is_empty(self):
        return not self.intervals

    def __repr__(self):
        return f"IntervalUnion({[(float(l), float(r)) for l, r in self.intervals]})"


def whole_circle():
    return IntervalUnion([(Surd(0), Surd(1))])


# ---------------------------------------------------------------------------
# System adapters


class RankOneAdapter:
    """Rank-one cutting-and-stacking system; sets are LevelSets."""

    kind = "rank_one"

    def __init__(self, system_or_spec):
        self.sys = (
            system_or_spec
            if isinstance(system_or_spec, RankOneSystem)
            else RankOneSystem(system_or_spec)
        )

    def apply(self, point, steps):
        return self.sys.apply(point, steps, 64)

    def contains(self, lset, point):
        return self.sys.in_level_set(lset, point)

    def measure(self, lset):
        return self.sys.measure(lset)

    def same_point(self, p, q):
        return self.sys.same_point(p, q)


class RotationAdapter:
    """Exact irrational rotation; sets are IntervalUnions."""

    kind = "rotation"

    def __init__(self, angle):
        self.angle = angle

    def apply(self, point, steps):
        return rotate(self.angle, point, steps)

    def contains(self, iu, point):
        return iu.contains(point_value(self.angle, point))

    def measure(self, iu):
        return iu.measure()

    def same_point(self, p, q):
        return self.angle.compare_points(p, q) == 0


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


def induced_inverse(system, A, point):
    """The inverse of the induced map: walk backwards to the previous A-hit."""
    return _first_hit(system, A, point, -1)[1]


# ---------------------------------------------------------------------------
# Column decompositions


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


def column_decomposition(system, A, budget):
    """Split the base into cells of constant first return time.

    Rank-one: resolved at working stage `budget` via level gaps; the
    topmost lifted level stays unresolved (its return leaves the stack).
    Rotation: the clopen decomposition B_r = (T^-r A ∩ A) \\ earlier,
    with r running to `budget`.
    """
    if system.kind == "rank_one":
        return _decompose_rank_one(system, A, budget)
    if system.kind == "rotation":
        return _decompose_rotation(system, A, budget)
    raise NotImplementedError(f"no decomposition for {system.kind}")


def _decompose_rank_one(system, A, working_stage):
    sys = system.sys
    lifted = lift(sys, A, working_stage)
    idx = sorted(lifted.level_indices)
    if not idx:
        return ReturnTimeDecomposition(A, [], A, Fraction(0), system.measure)
    by_r = {}
    for i, j in zip(idx, idx[1:]):
        by_r.setdefault(j - i, set()).add(i)
    cells = [
        (LevelSet(working_stage, levels), r) for r, levels in sorted(by_r.items())
    ]
    remainder = LevelSet(working_stage, {idx[-1]})
    dec = ReturnTimeDecomposition(
        A, cells, remainder, sys.measure(remainder), system.measure
    )
    return dec


def _decompose_rotation(system, A, max_r):
    angle = system.angle
    alpha = angle.value
    cells = []
    remaining = A
    for r in range(1, max_r + 1):
        back = A.shift_mod1(Surd(0) - alpha * r)
        cell = remaining.intersect(back)
        if not cell.is_empty():
            cells.append((cell, r))
            remaining = remaining.difference(cell)
        if remaining.is_empty():
            break
    return ReturnTimeDecomposition(
        A, cells, remaining, remaining.measure(), system.measure
    )


def decomposition_histogram(dec):
    """CSV-ready rows: r, mass numerator, mass denominator, cell count."""
    rows = []
    for cell, r in dec.cells:
        m = dec.measure_fn(cell)
        m = Fraction(m) if not isinstance(m, Surd) else m
        if isinstance(m, Fraction):
            num, den = m.numerator, m.denominator
        else:  # surd measures only arise for rotations; report approx
            f = m.approx(96).limit_denominator(10**12)
            num, den = f.numerator, f.denominator
        count = len(cell.level_indices) if isinstance(cell, LevelSet) else len(
            cell.intervals
        )
        rows.append((r, num, den, count))
    return rows


# ---------------------------------------------------------------------------
# Skyscrapers


@dataclass
class Skyscraper:
    base: object
    levels: list  # level 0 is the base; pairwise disjoint


def skyscraper(system, A, height_bound, working_stage=None):
    """Levels A, T(A)\\A, T^2(A)\\(A ∪ T(A)), ... up to the bound."""
    if system.kind == "rank_one":
        return _skyscraper_rank_one(system, A, height_bound, working_stage)
    if system.kind == "rotation":
        return _skyscraper_rotation(system, A, height_bound)
    raise NotImplementedError(f"no skyscraper for {system.kind}")


def _skyscraper_rank_one(system, A, bound, working_stage):
    sys = system.sys
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
            # the stack top leaks; only safe if the tower already exhausted
            # the whole mass (then every further level is null)
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


def _skyscraper_rotation(system, A, bound):
    alpha = system.angle.value
    levels = [A]
    seen = A
    for _ in range(bound):
        img = levels[-1].shift_mod1(alpha)
        new = img.difference(seen)
        seen = seen.union(new)
        levels.append(new)
    return Skyscraper(A, levels)
