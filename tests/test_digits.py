from cutstack.digits import (
    OverlayDigits,
    PeriodicDigits,
    SeededDigits,
    explicit_extent,
    streams_equal_beyond,
    zeros,
)


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
    assert not streams_equal_beyond(a, c, 4, guard=8)


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
