"""Exact irrational rotations and mixed-radix odometers.

Rotations work in Z + Z*alpha for a quadratic irrational alpha, given by
an eventually periodic continued fraction: a point is an integer pair
(a, b) meaning frac(a + b*alpha), and every membership or comparison
query is decided exactly.  The integer a never changes the value:
frac(a + b*alpha) = frac(b*alpha), one floor of b*alpha
(Surd.floor_times), so values are read on the lattice Z*alpha alone.

The prefix-inducing construction induces the q-adic odometer od:[q,*] on
the first p levels of its height-q tower: the induced map is the adding
machine with digit sizes (p, q, q, ...) on the same digit stream, a
spacer-free RankOneSystem whose base digits `advance` moves.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass

from .errors import DslError, SpecInvalid
from .quadratic import ONE, ZERO, Surd, surd_from_cf
from .specs import spacer_free_spec
from .towers import LevelSet, RankOnePoint, RankOneSystem


# ---------------------------------------------------------------------------
# Rotation angles


class RotationAngle:
    """An angle alpha in (0,1): the quadratic irrational whose continued
    fraction is [prefix; period, period, ...], held as an exact Surd, so
    every query on it is decided exactly."""

    def __init__(self, prefix, period):
        self.prefix = tuple(prefix)
        self.period = tuple(period)
        self.value = surd_from_cf(self.prefix, self.period)
        if not (ZERO < self.value < ONE):
            raise ValueError("angle must lie in (0,1)")
        self.n = (1 / self.value).floor()  # floor(1/alpha)
        # record-return segments from above and below, grown by _grow_records
        self._records = ([(1, 1, 1, self.value)], [])
        self._k, self._q = 0, (0, 1)  # k and (q_{k-1}, q_k)

    @classmethod
    def parse(cls, text):
        """CF input syntax: cf:[0;a1,a2,(p1,p2,...)] with a parenthesized
        periodic tail; a CF without one is refused (SpecInvalid)."""
        m = re.match(r"^cf:\[(\d+);([^\]]*)\]$", text.replace(" ", ""))
        if not m:
            raise DslError(f"cannot parse CF syntax: {text!r}")
        a0 = int(m.group(1))
        body = m.group(2)
        pm = re.search(r"\(([^)]*)\)$", body)
        try:
            period = ()
            if pm:
                period = tuple(int(t) for t in pm.group(1).split(",") if t)
                body = body[: pm.start()].rstrip(",")
            pre = tuple(int(t) for t in body.split(",") if t)
        except ValueError:
            raise DslError(f"CF terms must be integers: {text!r}") from None
        if not period:
            raise SpecInvalid("induce needs an exact, periodic angle")
        try:
            return cls((a0,) + pre, period)
        except ValueError as e:
            raise SpecInvalid(f"{e}: {text!r}") from None

    def frac_value(self, a, b):
        """frac(a + b*alpha) = frac(b*alpha) as a Surd; a never changes it."""
        return self.value.frac_times(b)

    def compare_points(self, p, q):
        """Sign of frac(p) - frac(q) for RotationPoints, by three floors.

        With m = p.b - q.b, frac(p) - frac(q) = m*alpha - D where D =
        floor(p.b*alpha) - floor(q.b*alpha), and it lies in (-1, 1); so it
        is positive exactly when floor(m*alpha) >= D, and 0 only at m = 0."""
        m = p.b - q.b
        if m == 0:
            return 0
        floor = self.value.floor_times
        return 1 if floor(m) >= floor(p.b) - floor(q.b) else -1

    def _grow_records(self):
        """Append the records of one more convergent, as one segment.

        With theta_k = q_k*alpha - p_k, which is positive for even k, the
        steps q_{k-1} + j*q_k, j = 1..a_{k+1}, land at theta_{k-1} +
        j*theta_k: the next records from above for odd k, from below for
        even k (q_0 = 1, the first record from above, starts the table).
        A segment (first n, step, count, last gap) holds them all, so a
        partial quotient costs one Surd however large it is."""
        q0, q1 = self._q
        j = self._k + 1  # a_j of [a_0; a_1, a_2, ...]
        a = (self.prefix[j] if j < len(self.prefix)
             else self.period[(j - len(self.prefix)) % len(self.period)])
        side, sign = (0, 1) if self._k % 2 else (1, -1)
        self._records[side].append(
            (q0 + q1, q1, a, self.value.frac_times(sign * (q0 + a * q1))))
        self._q = (q1, q0 + a * q1)
        self._k += 1

    def first_gap(self, length, side):
        """(n, gap): the least n >= 1 whose gap is below length > 0, with
        gap = frac(n*alpha) on side 0 and 1 - frac(n*alpha) on side 1.

        Such a least n sets a record (its gap is below every earlier one),
        and records have falling gaps: one bisection of the segments by
        their last gaps finds the segment, and one inside it the record."""
        table = self._records[side]
        while not (table and table[-1][3] < length):
            self._grow_records()
        n, step, count, gap = table[
            bisect_left(table, True, key=lambda t: t[3] < length)]
        # the least j < count with a gap below length; j = hi has one
        lo, hi, sign = 0, count - 1, 1 - 2 * side
        while lo < hi:
            mid = (lo + hi) // 2
            g = self.value.frac_times(sign * (n + mid * step))
            if g < length:
                hi, gap = mid, g
            else:
                lo = mid + 1
        return n + hi * step, gap

    def __repr__(self):
        return f"RotationAngle({list(self.prefix)}+{list(self.period)}*)"


def sqrt2_minus_1():
    return RotationAngle((0,), (2,))


def golden_minus_1():
    """(sqrt(5)-1)/2, CF [0;(1)]."""
    return RotationAngle((0,), (1,))


@dataclass(frozen=True)
class RotationPoint:
    """Integers (a, b) denoting frac(a + b*alpha), which is frac(b*alpha):
    a is an integer, so it never changes the value."""

    a: int
    b: int


def rotate(angle, p, steps):
    """steps applications of x -> x + alpha (mod 1): pure index shift."""
    return RotationPoint(p.a, p.b + steps)


def point_value(angle, p):
    return angle.frac_value(p.a, p.b)


def in_interval(angle, p, left, right):
    """Exact membership of frac(p) in the half-open interval [left, right)."""
    v = point_value(angle, p)
    return left <= v < right


# ---------------------------------------------------------------------------
# Interval exchange: first return of a rotation to [0, alpha)


@dataclass
class ExchangeMap:
    """The two-piece exchange on [0, alpha): the left piece [0, 1 - n*alpha)
    shifts up by (n+1)*alpha - 1, the right piece [1 - n*alpha, alpha)
    shifts down by 1 - n*alpha, with n = floor(1/alpha)."""

    angle: RotationAngle
    n: int
    cut: Surd  # 1 - n*alpha
    upper_cut: Surd  # (n+1)*alpha - 1, where the image pieces meet

    def image(self, p):
        # v < 1 - n*alpha exactly when v + n*alpha stays below 1, that is
        # floor((b + n)*alpha) = floor(b*alpha)
        floor = self.angle.value.floor_times
        if floor(p.b + self.n) == floor(p.b):
            return RotationPoint(p.a - 1, p.b + self.n + 1)
        return RotationPoint(p.a - 1, p.b + self.n)

    def preimage(self, p):
        # inverse pieces: [(n+1)a-1, a) steps back n+1, [0, (n+1)a-1) back n;
        # v >= (n+1)*alpha - 1 exactly when v - (n+1)*alpha >= -1, that is
        # floor((b - n - 1)*alpha) - floor(b*alpha) >= -1
        floor = self.angle.value.floor_times
        if floor(p.b - self.n - 1) - floor(p.b) >= -1:
            return RotationPoint(p.a + 1, p.b - self.n - 1)
        return RotationPoint(p.a + 1, p.b - self.n)


def induced_exchange(angle):
    """The first-return map of the rotation to [0, alpha), as an exchange."""
    alpha, n = angle.value, angle.n
    cut = 1 - alpha * n
    em = ExchangeMap(angle, n, cut, alpha * (n + 1) - 1)
    # piece lengths positive and tiling [0, alpha)
    assert 0 < cut < alpha
    return em


def first_return_rotation(angle, p):
    """Least r >= 1 with frac(p + r*alpha) in [0, alpha), plus the landing
    point: the induced exchange's step (ExchangeMap.image), read by two
    floors whatever n = floor(1/alpha) is.

    A point v in [0, alpha) stays in [alpha, 1) for r < n, as v + r*alpha
    < n*alpha <= 1; it returns at n when v + n*alpha reaches 1, that is
    floor((b + n)*alpha) > floor(b*alpha), and at n + 1 otherwise.
    Membership is one floor difference: frac(b*alpha) < alpha exactly when
    floor(b*alpha) - floor((b-1)*alpha) = 1."""
    floor = angle.value.floor_times
    here = floor(p.b)
    if here - floor(p.b - 1) != 1:
        raise ValueError("point must lie in [0, alpha)")
    r = angle.n + (floor(p.b + angle.n) == here)
    return r, rotate(angle, p, r)


# ---------------------------------------------------------------------------
# Prefix inducing (rational case)


@dataclass
class PrefixInduction:
    """Inducing the q-adic odometer on its first p stage-2 levels.

    `system` is the spacer-free odometer od:[q,*], whose stage-2 stack is
    the height-q tower: a point's stage-1 digit is its tower level and its
    later digits are its columns.  The map induced on the first p levels
    adds one to that digit mod p and carries into the columns, so it is
    the adding machine with digit sizes (p, q, q, ...), the inverse limit
    Z/p x Z/pq x Z/pq^2 x ..., on the same digit stream.  `odometer` is
    that machine's spacer-free system, and `to_odometer` and
    `from_odometer` are the identity on streams, intertwining the induced
    map with one `odometer.advance` step.
    """

    q: int
    p: int
    system: RankOneSystem
    odometer: RankOneSystem

    def base_set(self):
        return LevelSet(2, frozenset(range(self.p)))

    def to_odometer(self, point):
        """A point in the first p levels -> its own digit stream."""
        if ((point.birth_stage, point.birth_level) != (1, 0)
                or not 0 <= point.digits.digit(1) < self.p):
            raise ValueError("point is not in the induced base set")
        return point.digits

    def from_odometer(self, digits):
        """The odometer's digits -> the point with that stream."""
        if not 0 <= digits.digit(1) < self.p:
            raise ValueError("first digit out of range")
        return RankOnePoint(1, 0, digits)


def induce_odometer_prefix(q, p):
    """Rational-case construction: the first p levels of the height-q
    tower of od:[q,*] induce the (p, q, q, ...) adding machine."""
    if not 1 <= p < q:
        raise ValueError("need 1 <= p < q")
    system = RankOneSystem(spacer_free_spec(f"od:[{q},*]", (), (q,)))
    odo = RankOneSystem(spacer_free_spec(f"od:[{p},{q},*]", (p,), (q,)))
    return PrefixInduction(q, p, system, odo)
