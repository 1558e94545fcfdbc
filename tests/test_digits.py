import pytest

from cutstack.digits import (
    DigitStream,
    OverlayDigits,
    PeriodicDigits,
    SeededDigits,
    explicit_extent,
    streams_equal_beyond,
    zeros,
)
from cutstack.errors import BudgetExhausted
from cutstack.towers import RankOnePoint


def test_periodic_digits_prefix_then_tail():
    s = PeriodicDigits((1, 0, 2), (0, 1))
    assert [s.digit(k) for k in range(1, 8)] == [1, 0, 2, 0, 1, 0, 1]


def test_zeros_stream():
    z = zeros()
    assert [z.digit(k) for k in range(1, 6)] == [0] * 5


def test_seeded_digits_deterministic_and_in_range():
    radix = lambda k: 3 if k % 2 else 2
    a = SeededDigits("seed", radix)
    b = SeededDigits("seed", radix)
    for k in range(1, 40):
        assert a.digit(k) == b.digit(k)
        assert 0 <= a.digit(k) < radix(k)
    c = SeededDigits("other", radix)
    assert any(a.digit(k) != c.digit(k) for k in range(1, 40))


def test_overlay_digits_and_flattening():
    base = PeriodicDigits((), (1,))
    o = OverlayDigits(base, {2: 0, 5: 0})
    assert [o.digit(k) for k in range(1, 7)] == [1, 0, 1, 1, 0, 1]
    o2 = o.with_overrides({2: 1})
    # later overrides win, and overlays flatten onto the original base
    assert o2.digit(2) == 1
    assert o2.digit(5) == 0


def test_explicit_extent():
    base = PeriodicDigits((), (0,))
    assert explicit_extent(base) == 0
    assert explicit_extent(OverlayDigits(base, {3: 1, 7: 0})) == 7


def test_streams_equal_beyond():
    a = PeriodicDigits((2, 2, 2), (1,))
    b = PeriodicDigits((0, 0, 0), (1,))
    assert streams_equal_beyond(a, b, 4)
    c = PeriodicDigits((0, 0, 0, 0, 5), (1,))
    assert not streams_equal_beyond(a, c, 4)


def test_seeded_digits_equal_only_over_the_same_radixes():
    two = lambda k: 2
    three = lambda k: 3
    assert SeededDigits("s0", two) == SeededDigits("s0", two)
    a = SeededDigits("s0", two)
    b = SeededDigits("s0", three)
    assert a != b
    # the streams agree at stage 1 and differ later, so only a digit
    # comparison past the stage (not a shared seed) can tell them apart
    assert a.digit(1) == b.digit(1)
    assert not streams_equal_beyond(a, b, 1)


def test_periodic_streams_are_compared_over_one_common_period():
    # the tails have periods 71 and 1, and first differ at stage 71
    late = PeriodicDigits((), (0,) * 70 + (1,))
    assert not streams_equal_beyond(late, zeros(), 1)
    # the same digits as a prefix and a tail of period 213
    rotated = (late.tail[3:] + late.tail[:3]) * 3
    assert streams_equal_beyond(late.with_overrides({3: 1}),
                                PeriodicDigits((0, 0, 1), rotated), 1)


class _Forwarded(DigitStream):
    """A stream of its own kind that reads another stream's digits."""

    def __init__(self, src):
        self.src = src

    def digit(self, k):
        return self.src.digit(k)


def test_unrelated_streams_that_agree_are_not_guessed_equal():
    # the same digits from two different bases: no difference is found, so
    # the comparison cannot decide
    s = SeededDigits("unshift", lambda k: 3)
    with pytest.raises(BudgetExhausted):
        streams_equal_beyond(_Forwarded(s), s, 1)
    other = _Forwarded(SeededDigits("x", lambda k: 3))
    assert not streams_equal_beyond(other, s, 1)


def test_equal_overlays_hash_alike():
    # equal overlays may override different stages with the base's own
    # digits; they still hash alike, and so do points on them
    s = SeededDigits("h", lambda k: 3)
    a = OverlayDigits(s, {1: s.digit(1)})
    b = OverlayDigits(s, {2: s.digit(2)})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({RankOnePoint(1, 0, a), RankOnePoint(1, 0, b)}) == 1
