"""Tower stages, symbolic points, and exact evaluation of the stack map.

Points are symbolic addresses (birth stage + column-digit stream), never
real coordinates.  All widths and measures are exact rationals, normalized
so the limiting total mass is 1 for periodic-tail specs.

The map induced on the stage-1 base level is an odometer on the column
digits, so RankOneSystem reads it as two pure functions of a digit stream:
carry, the stage and digit one step changes last, and advance, n steps in
one signed add.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .digits import (
    DigitStream,
    SeededDigits,
    explicit_extent,
    mixed_radix_add,
    streams_equal_beyond,
    zeros,
)
from .errors import ExhaustedDigits, NeedMoreDepth, SpecInvalid


@dataclass(frozen=True)
class RankOnePoint:
    """Symbolic address: born at (birth_stage, birth_level), then one column
    choice per stage from the digit stream (digits.digit(k) = column taken
    when the stage-k stack is cut)."""

    birth_stage: int
    birth_level: int
    digits: DigitStream
    # (system, base LevelSet, h, base point): point = T^h(base point), 0 <=
    # h < the base point's return time to the set, written only where the
    # code proves it (see matching.height_above_base); ==, hash and repr
    # ignore it
    anchor: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LevelSet:
    """A nearly clopen set realized exactly as a union of stage-k levels."""

    stage: int
    level_indices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "level_indices", frozenset(self.level_indices))

    def __len__(self):
        return len(self.level_indices)


SPACER = object()  # residual symbol for read_names


class RankOneSystem:
    """Exact evaluator for a cutting-and-stacking spec.

    Stage data (heights, column offsets, widths, the stage word of return
    times) is cached lazily; all queries are pure, so instances are safe to
    share across threads once warmed, and cheap to rebuild otherwise.
    """

    def __init__(self, spec):
        self.spec = spec
        # Stage data, indexed by stage and grown together by _grow: the cut
        # count and column offsets of stage k, the height h_k, and the carry
        # term G_k = sum over t < k of offs_t[0] - offs_t[c_t - 1].
        self._cuts = [None]
        self._offsets = [None]  # _offsets[k]: column start offsets, k -> k+1
        self._heights = [None, spec.initial_height]
        self._carry = [None, 0]
        self._unit_width = None
        self._widths = [None]
        self._word = []  # stage_word(_word_stage)
        self._word_stage = 0

    # -- stage data ---------------------------------------------------------

    def _grow(self, i):
        """Stage data through stage i, one spec.rule call per stage."""
        if i < 1:
            raise ValueError("stages are 1-based")
        while len(self._cuts) <= i:
            k = len(self._cuts)
            r = self.spec.rule(k)
            h = self._heights[k]
            offs = tuple(accumulate((h + s for s in r.spacers_above[:-1]),
                                    initial=r.spacers_below))
            self._cuts.append(r.cuts)
            self._offsets.append(offs)
            self._heights.append(offs[-1] + h + r.spacers_above[-1])
            self._carry.append(self._carry[k] + offs[0] - offs[-1])

    def height(self, i):
        if i >= len(self._heights) or i < 1:
            self._grow(i - 1)
        return self._heights[i]

    def offsets(self, i):
        """Start offset of each column copy when stage i embeds in stage i+1."""
        if i >= len(self._offsets) or i < 1:
            self._grow(i)
        return self._offsets[i]

    def cuts(self, i):
        if i >= len(self._cuts) or i < 1:
            self._grow(i)
        return self._cuts[i]

    def stage_word(self, k):
        """Return times of the induced base map from positions 0 .. P_k - 2
        of the stage-1..k digit block (P_k = c_1 ... c_k) as the first
        P_k - 1 entries of one list: word k-1, R(k, 0), word k-1, ...,
        R(k, c_k - 2), word k-1 (R is return_time)."""
        word = self._word
        for s in range(self._word_stage + 1, k + 1):
            block = word[:]
            for d in range(self.cuts(s) - 1):
                word.append(self.return_time(s, d))
                word += block
            self._word_stage = s
        return word

    def return_time(self, s, d):
        """R(s, d) = offs_s[d+1] - offs_s[d] + G_s: the base steps of an
        induced step whose carry raises the stage-s digit from d to d + 1
        (G_s is the carry term of the maximal digits below stage s)."""
        offs = self.offsets(s)
        return offs[d + 1] - offs[d] + self._carry[s]

    def carry(self, digits, start=1, step=1, budget=256):
        """(s, d): one induced step (step 1) or step back (step -1) from the
        base digits, added at stage `start`, carries into stage s and
        raises its digit from d, or lowers it to d; either way it spans
        return_time(s, d) base steps."""
        new = odometer_add(digits.digit, self.cuts, step, start, budget)
        return start + len(new) - 1, new[-1] - (step > 0)

    def advance(self, digits, n, budget=256):
        """(steps, digits'): n induced steps (either sign) from the base
        digits as one signed add.  steps is the signed T-step count, the
        sum of the offset changes of the digits the carry touches, and
        digits' overrides the stages it reached."""
        new = odometer_add(digits.digit, self.cuts, n, 1, budget)
        offsets, digit = self._offsets, digits.digit
        steps = 0
        for k, v in enumerate(new, 1):
            offs = offsets[k]
            steps += offs[v] - offs[digit(k)]
        return steps, digits.with_overrides(dict(enumerate(new, 1)))

    def unit_width(self):
        """w1, normalized so the limiting total mass is 1."""
        if self._unit_width is None:
            if not self.spec.is_infinite:
                raise SpecInvalid("finite spec has no normalized width")
            self._unit_width = 1 / self.spec.total_mass()
        return self._unit_width

    def width(self, i):
        if i < 1:
            raise ValueError("stages are 1-based")
        if len(self._widths) == 1:
            self._widths.append(self.unit_width())
        while len(self._widths) <= i:
            k = len(self._widths) - 1
            self._widths.append(self._widths[k] / self.cuts(k))
        return self._widths[i]

    def residual_mass(self, i):
        """Mass not yet inside the stage-i stack (the spacer reservoir)."""
        return 1 - self.height(i) * self.width(i)

    def decompose(self, k, idx):
        """One provenance step for stage-k level idx (k >= 2).

        Returns ("copy", column, inner_level) or ("spacer",).
        """
        if not 1 < k <= len(self._offsets):
            self._grow(k - 1)
        offs = self._offsets[k - 1]
        a = bisect_right(offs, idx) - 1
        if a >= 0 and idx < offs[a] + self._heights[k - 1]:
            return ("copy", a, idx - offs[a])
        return ("spacer",)

    # -- points -------------------------------------------------------------

    def base_point(self, digits=None):
        if digits is None:
            digits = zeros()
        return RankOnePoint(1, 0, digits)

    def random_point(self, rng, stage, seed=None):
        """Uniform over the stage-`stage` stack (all levels equal width),
        with seeded deterministic digits beyond."""
        level = rng.randrange(self.height(stage))
        if seed is None:
            seed = rng.getrandbits(64)
        tail = SeededDigits(seed, self.cuts, start=stage)
        return self.point_at(stage, level, tail)

    def point_at(self, k, idx, stream):
        """The point whose stage-k level is idx, using `stream` for digits
        at stages >= k.  Descends provenance to the birth stage."""
        if k > len(self._offsets):
            self._grow(k - 1)
        offsets, heights = self._offsets, self._heights
        overrides = {}
        while k > 1:
            offs = offsets[k - 1]
            a = bisect_right(offs, idx) - 1
            if a < 0 or idx >= offs[a] + heights[k - 1]:
                break  # a spacer born at stage k
            overrides[k - 1] = a
            idx -= offs[a]
            k -= 1
        return RankOnePoint(k, idx, stream.with_overrides(overrides))

    # level_index and apply grow the tables one stage at a time, after
    # reading that stage's digit, so a finite spec runs out of rules at the
    # same stage, and after the same digit reads, as cuts() and offsets().

    def level_index(self, point, k):
        """Index of the point in the stage-k stack, 0..h_k - 1."""
        if k < point.birth_stage:
            raise ValueError("point not yet born at this stage")
        digit = point.digits.digit
        cuts, offsets = self._cuts, self._offsets
        idx = point.birth_level
        for j in range(point.birth_stage, k):
            a = digit(j)
            if not 0 < j < len(cuts):
                self._grow(j)
            if not 0 <= a < cuts[j]:
                raise ExhaustedDigits(
                    f"digit {a} out of range at stage {j} (cuts={cuts[j]})"
                )
            idx = offsets[j][a] + idx
        return idx

    def apply(self, point, steps, budget=64):
        """T^steps, resolved at the smallest stage where the move stays
        inside the stack.  Exact inverse: apply(apply(p, n), -n) == p."""
        if steps == 0:
            return point
        digit = point.digits.digit
        cuts, offsets, heights = self._cuts, self._offsets, self._heights
        k = point.birth_stage
        idx = point.birth_level
        while k <= budget:
            if not 0 < k < len(heights):
                self._grow(k - 1)
            t = idx + steps
            if 0 <= t < heights[k]:
                return self.point_at(k, t, point.digits)
            a = digit(k)
            if not 0 < k < len(cuts):
                self._grow(k)
            if not 0 <= a < cuts[k]:
                raise ExhaustedDigits(
                    f"digit {a} out of range at stage {k} (cuts={cuts[k]})"
                )
            idx = offsets[k][a] + idx
            k += 1
        raise NeedMoreDepth(
            f"T^{steps} unresolved within stage budget {budget}", budget=budget
        )

    def in_level_set(self, lset, point):
        """Exact membership; points born after lset.stage live in the
        residual and belong to no stage-level set."""
        if point.birth_stage > lset.stage:
            return False
        return self.level_index(point, lset.stage) in lset.level_indices

    def same_point(self, p, q):
        """Point equality across representations.

        Compares stack position at the deepest explicitly-addressed stage
        and digit streams beyond (see streams_equal_beyond): exact, or
        BudgetExhausted when two unrelated streams agree as far as read.

        Two points anchored over this system and one base set are T^h(b)
        with 0 <= h < r(b), b the last base visit at or before the point,
        so they are equal exactly when their heights and base points are:
        unequal heights answer False, and base points of one birth (stage,
        level) compare their streams from that stage, with no level climb.
        Any other pair takes the path above.
        """
        a, b = p.anchor, q.anchor
        if (a is not None and b is not None and a[0] is self
                and b[0] is self and a[1] == b[1]):
            if a[2] != b[2]:
                return False
            u, v = a[3], b[3]
            if (u.birth_stage == v.birth_stage
                    and u.birth_level == v.birth_level):
                return streams_equal_beyond(u.digits, v.digits, u.birth_stage)
        k = max(
            p.birth_stage,
            q.birth_stage,
            explicit_extent(p.digits) + 1,
            explicit_extent(q.digits) + 1,
        )
        if self.level_index(p, k) != self.level_index(q, k):
            return False
        return streams_equal_beyond(p.digits, q.digits, k)

    # -- names and spacer recovery -----------------------------------------

    def read_names(self, i, m):
        """Bottom-to-top partition names of the stage-i stack relative to the
        stage-m levels; levels born after stage m read as the residual."""
        if not 1 <= m <= i:
            raise ValueError("need 1 <= m <= i")
        names = []
        for idx in range(self.height(i)):
            k, cur = i, idx
            while k > m:
                step = self.decompose(k, cur)
                if step[0] == "spacer":
                    break
                cur = step[2]
                k -= 1
            names.append(cur if k == m else SPACER)
        return names

    def recover_spacers(self, i):
        """Read the stage-i spacer counts back off the stage-(i+1) names.

        Counts residual symbols before the first complete stage-i name and
        after each complete name; round-trips the spec rules exactly.
        """
        names = self.read_names(i + 1, i)
        h = self.height(i)
        below = 0
        above = []
        pos = 0
        n = len(names)
        while pos < n and names[pos] is SPACER:
            below += 1
            pos += 1
        while pos < n:
            for expect in range(h):
                if pos >= n or names[pos] != expect:
                    raise SpecInvalid(
                        f"malformed name sequence at level {pos} of stage {i + 1}"
                    )
                pos += 1
            count = 0
            while pos < n and names[pos] is SPACER:
                count += 1
                pos += 1
            above.append(count)
        return below, tuple(above)

    # -- measure ------------------------------------------------------------

    def measure(self, lset):
        return len(lset.level_indices) * self.width(lset.stage)

    def stage_report(self, depth):
        """Per-stage structured report (external interface)."""
        rows = []
        for i in range(1, depth + 1):
            h = self.height(i)
            w = self.width(i)
            # the levels of stage i that are not copies of stage i - 1
            spacers = h - self.cuts(i - 1) * self.height(i - 1) if i > 1 else 0
            rows.append(
                {
                    "i": i,
                    "h_i": h,
                    "w_i": f"{w.numerator}/{w.denominator}",
                    "level_count": h,
                    "spacer_count": spacers,
                    "residual_mass": str(self.residual_mass(i)),
                }
            )
        return rows


# ---------------------------------------------------------------------------
# The induced base map


def odometer_add(digit, cuts, steps, start, budget):
    """New base digits of stages start, start + 1, ... after adding `steps`
    at stage `start` (mixed_radix_add); every induced move goes through it.
    A carry past stage budget + 1 raises NeedMoreDepth."""
    new, carry = mixed_radix_add(digit, cuts, steps, start, budget + 1)
    if carry:
        edge = "maximal" if carry > 0 else "zero"
        raise NeedMoreDepth(f"all digits {edge} within budget", budget=budget)
    return new
