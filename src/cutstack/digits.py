"""Lazy column-digit streams for symbolic point addresses.

A stream supplies one digit per stage k >= start.  Three concrete kinds:
an explicit prefix with a periodic tail, a seeded deterministic generator,
and an overlay that patches finitely many digits on top of another stream.
Overlays always keep a single non-overlay base, so chains of point moves do
not accumulate indirection.
"""

import random
from math import lcm

from .errors import BudgetExhausted, ExhaustedDigits


class DigitStream:
    """Abstract digit supplier: digit(k) for stages k >= start."""

    start = 1

    def digit(self, k):
        raise NotImplementedError

    def with_overrides(self, overrides):
        """New stream equal to this one except at the given stages."""
        if not overrides:
            return self
        return OverlayDigits(self, overrides)


class PeriodicDigits(DigitStream):
    """Explicit prefix followed by a repeating tail (tail may be all zeros)."""

    def __init__(self, prefix=(), tail=(0,), start=1):
        if not tail:
            raise ValueError("periodic tail must be non-empty")
        self.prefix = tuple(prefix)
        self.tail = tuple(tail)
        self.start = start

    def digit(self, k):
        i = k - self.start
        if i < 0:
            raise ExhaustedDigits(f"no digit below start stage {self.start}")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail[(i - len(self.prefix)) % len(self.tail)]

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicDigits)
            and self.start == other.start
            and self.prefix == other.prefix
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.start, self.prefix, self.tail))

    def __repr__(self):
        return f"PeriodicDigits({self.prefix}, {self.tail}, start={self.start})"


class SeededDigits(DigitStream):
    """Deterministic pseudo-random digits: digit(k) < radix(k), seeded.

    The same (seed, radix_fn) pair always produces the same stream, across
    processes, so replays are bit-identical.
    """

    def __init__(self, seed, radix_fn, start=1):
        self.seed = seed
        self.radix_fn = radix_fn
        self.start = start
        self._cache = {}

    def digit(self, k):
        if k < self.start:
            raise ExhaustedDigits(f"no digit below start stage {self.start}")
        d = self._cache.get(k)
        if d is None:
            r = self.radix_fn(k)
            d = random.Random(f"{self.seed}:{k}").randrange(r)
            self._cache[k] = d
        return d

    def __eq__(self, other):
        return (
            isinstance(other, SeededDigits)
            and self.seed == other.seed
            and self.radix_fn == other.radix_fn
            and self.start == other.start
        )

    def __hash__(self):
        return hash(("seeded", self.seed, self.start))

    def __repr__(self):
        return f"SeededDigits({self.seed!r}, start={self.start})"


class OverlayDigits(DigitStream):
    """A base stream with finitely many stage digits replaced."""

    def __init__(self, base, overrides):
        if isinstance(base, OverlayDigits):
            overrides = {**base.overrides, **overrides}
            base = base.base
        else:
            overrides = dict(overrides)
        self.base = base
        self.overrides = overrides
        self.start = min(base.start, min(overrides, default=base.start))

    def digit(self, k):
        if k in self.overrides:
            return self.overrides[k]
        return self.base.digit(k)

    def __eq__(self, other):
        if not isinstance(other, OverlayDigits):
            return NotImplemented
        if self.base != other.base:
            return False
        keys = set(self.overrides) | set(other.overrides)
        return all(self.digit(k) == other.digit(k) for k in keys)

    def __hash__(self):
        # equal overlays may override different stages: hash the base alone
        return hash(self.base)

    def __repr__(self):
        return f"OverlayDigits({self.base!r}, {self.overrides})"


def zeros(start=1):
    """The all-zero digit stream."""
    return PeriodicDigits((), (0,), start=start)


def explicit_extent(stream):
    """Largest stage carrying a non-tail digit, or start-1 when fully periodic.

    Used when deciding a comparison stage for point equality.
    """
    if isinstance(stream, OverlayDigits):
        inner = explicit_extent(stream.base)
        return max(inner, max(stream.overrides))
    if isinstance(stream, PeriodicDigits):
        return stream.start - 1 + len(stream.prefix)
    return stream.start - 1


def mixed_radix_add(digit, radix, steps, start, stop):
    """Add `steps` (either sign) at stage `start` of the mixed-radix number
    whose stage-k digit is digit(k) < radix(k): (new digits of stages
    start, start + 1, ... as far as the carry reached, carry left past
    stage `stop`, 0 once it settles).  Each stage's digit is read before
    its radix, and nothing is written back."""
    new = []
    k = start
    while steps and k <= stop:
        steps, d = divmod(digit(k) + steps, radix(k))
        new.append(d)
        k += 1
    return new, steps


def streams_equal_beyond(s1, s2, stage):
    """Decide whether two streams agree at every stage >= `stage`.

    Exact when the bases are equal, or both periodic: past the last
    explicit digit the pair repeats with period lcm(tail lengths).  Any
    other pair is compared over 64 stages past the explicit digits; a
    difference there is an exact False, and no difference raises
    BudgetExhausted rather than guessing.
    """
    b1 = s1.base if isinstance(s1, OverlayDigits) else s1
    b2 = s2.base if isinstance(s2, OverlayDigits) else s2
    hi = max(explicit_extent(s1), explicit_extent(s2), stage)
    if b1 is b2 or b1 == b2:
        return all(s1.digit(k) == s2.digit(k) for k in range(stage, hi + 1))
    periodic = isinstance(b1, PeriodicDigits) and isinstance(b2, PeriodicDigits)
    span = lcm(len(b1.tail), len(b2.tail)) if periodic else 64
    if any(s1.digit(k) != s2.digit(k) for k in range(stage, hi + span + 1)):
        return False
    if periodic:
        return True
    raise BudgetExhausted(f"streams agree through stage {hi + span} "
                          f"and have different bases")
