"""Exact irrational rotations and mixed-radix odometers.

Rotations work in Z + Z*alpha for a quadratic irrational alpha, given by
an eventually periodic continued fraction: a point is an integer pair
(a, b) meaning frac(a + b*alpha), and every membership or comparison
query is decided exactly.

Odometers are add-one-with-carry maps on mixed-radix digit streams; the
prefix-inducing construction turns the first p levels of a height-q tower
into the adding machine with digit sizes (p, q, q, ...).
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .digits import DigitStream, OverlayDigits, mixed_radix_add, zeros
from .errors import BudgetExhausted, CutstackError, DslError, SpecInvalid
from .quadratic import Surd, surd_from_cf
from .specs import q_adic_tower_spec
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
        if not (Surd(0) < self.value < Surd(1)):
            raise ValueError("angle must lie in (0,1)")
        self.n = (1 / self.value).floor()  # floor(1/alpha)

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
        """frac(a + b*alpha) as a Surd."""
        return (self.value * b + a).frac()

    def compare_points(self, p, q):
        """Sign of frac(p) - frac(q) for RotationPoints."""
        return self.frac_value(p.a, p.b)._cmp(self.frac_value(q.a, q.b))

    def __repr__(self):
        return f"RotationAngle({list(self.prefix)}+{list(self.period)}*)"


def sqrt2_minus_1():
    return RotationAngle((0,), (2,))


def golden_minus_1():
    """(sqrt(5)-1)/2, CF [0;(1)]."""
    return RotationAngle((0,), (1,))


@dataclass(frozen=True)
class RotationPoint:
    """Integers (a, b) denoting frac(a + b*alpha)."""

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
        v = point_value(self.angle, p)
        if v < self.cut:
            return RotationPoint(p.a - 1, p.b + self.n + 1)
        return RotationPoint(p.a - 1, p.b + self.n)

    def preimage(self, p):
        # inverse pieces: [(n+1)a-1, a) steps back n+1, [0, (n+1)a-1) back n
        v = point_value(self.angle, p)
        if v >= self.upper_cut:
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
    point.  For irrational alpha, r is n or n+1, so the search stops at
    n + 2."""
    alpha = angle.value
    if not in_interval(angle, p, 0, alpha):
        raise ValueError("point must lie in [0, alpha)")
    limit = angle.n + 2
    for r in range(1, limit + 1):
        q = rotate(angle, p, r)
        if in_interval(angle, q, 0, alpha):
            return r, q
    raise BudgetExhausted(f"no return within {limit} steps")


# ---------------------------------------------------------------------------
# Odometers


@dataclass(frozen=True)
class OdometerSpec:
    """Mixed-radix base sequence with a periodic tail, bases >= 1.

    Base 1 digits are frozen at 0; they appear when inducing with p = 1.
    """

    prefix: tuple
    tail: tuple

    def __post_init__(self):
        if not self.tail:
            raise SpecInvalid("odometer tail must be non-empty")
        if any(b < 1 for b in self.prefix + self.tail):
            raise SpecInvalid("odometer bases must be >= 1")
        if all(b == 1 for b in self.tail):
            raise SpecInvalid("odometer tail must contain a base >= 2")

    def base(self, k):
        """Base of digit k (1-based)."""
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail[(k - len(self.prefix) - 1) % len(self.tail)]

    @classmethod
    def parse(cls, text):
        """Syntax od:[b1,b2,*]; the final starred base repeats."""
        m = re.match(r"^od:\[([^\]]*)\]$", text.replace(" ", ""))
        if not m:
            raise DslError(f"cannot parse odometer syntax: {text!r}")
        toks = [t for t in m.group(1).split(",") if t]
        if not toks or toks[-1] != "*" or len(toks) < 2:
            raise DslError("odometer syntax needs bases then a trailing *")
        try:
            bases = [int(t) for t in toks[:-1]]
        except ValueError:
            raise DslError(f"bad odometer base in {text!r}") from None
        return cls(tuple(bases[:-1]), (bases[-1],))


@dataclass(frozen=True)
class OdometerPoint:
    digits: object  # DigitStream

    def digit(self, k):
        return self.digits.digit(k)


class NeedMoreDigits(CutstackError):
    """An odometer carry ran past the digit budget."""


def odometer_zero(spec):
    return OdometerPoint(zeros())


def odometer_apply(spec, point, steps, budget=256):
    """Add `steps` (either sign) in one mixed-radix add with a signed
    carry; exact cylinder-mass preserving.  Base-1 digits stay 0."""
    new, carry = mixed_radix_add(point.digit, spec.base, steps, 1, budget)
    if carry:
        edge = "maximal" if carry > 0 else "zero"
        raise NeedMoreDigits(f"all digits {edge} through {budget}")
    return OdometerPoint(point.digits.with_overrides(dict(enumerate(new, 1))))


def odometer_successor(spec, point, budget=256):
    return odometer_apply(spec, point, 1, budget)


def odometer_predecessor(spec, point, budget=256):
    return odometer_apply(spec, point, -1, budget)


def cylinder_mass(spec, depth):
    """Mass of any cylinder fixing the first `depth` digits."""
    m = Fraction(1)
    for k in range(1, depth + 1):
        m /= spec.base(k)
    return m


def truncated_value(spec, point, depth):
    """The integer the first `depth` digits encode (mixed radix)."""
    val = 0
    mult = 1
    for k in range(1, depth + 1):
        val += point.digit(k) * mult
        mult *= spec.base(k)
    return val


# ---------------------------------------------------------------------------
# Prefix inducing (rational case)


@dataclass
class PrefixInduction:
    """Inducing the q-adic tower on its first p levels.

    The induced map is the adding machine with digit sizes (p, q, q, ...),
    the inverse limit Z/p x Z/pq x Z/pq^2 x ...; `to_odometer` and
    `from_odometer` give the digit-level isomorphism intertwining the
    induced map with the new odometer's successor.
    """

    q: int
    p: int
    tower_spec: object  # StackingSpec of the q-adic tower
    system: RankOneSystem
    odometer: OdometerSpec

    def base_set(self):
        return LevelSet(1, frozenset(range(self.p)))

    def to_odometer(self, point):
        """RankOnePoint in the first p levels -> OdometerPoint."""
        if point.birth_stage != 1 or not 0 <= point.birth_level < self.p:
            raise ValueError("point is not in the induced base set")
        return OdometerPoint(_ShiftedDigits(point.digits, point.birth_level))

    def from_odometer(self, opoint):
        """OdometerPoint -> RankOnePoint.  A stream made by to_odometer
        (a _ShiftedDigits, bare or under an overlay) gives back its source
        stream, with the overlay's digits moved down one stage, so the
        point compares exactly with the points of that stream."""
        level = opoint.digit(1)
        if not 0 <= level < self.p:
            raise ValueError("first digit out of range")
        digits = opoint.digits
        overrides = {}
        if isinstance(digits, OverlayDigits):
            overrides = {k - 1: v for k, v in digits.overrides.items()
                         if k > 1}
            digits = digits.base
        if isinstance(digits, _ShiftedDigits):
            return RankOnePoint(1, level,
                                digits.src.with_overrides(overrides))
        return RankOnePoint(1, level, _UnshiftedDigits(opoint.digits))


class _ShiftedDigits(DigitStream):
    """Digit k=1 is the tower level; digit k>=2 is column digit k-1."""

    start = 1

    def __init__(self, src, level):
        self.src = src
        self.level = level

    def digit(self, k):
        if k == 1:
            return self.level
        return self.src.digit(k - 1)

    def __eq__(self, other):
        return (
            isinstance(other, _ShiftedDigits)
            and self.level == other.level
            and self.src == other.src
        )

    def __hash__(self):
        return hash(("shift", self.level, self.src))


class _UnshiftedDigits(DigitStream):
    """Inverse of _ShiftedDigits: drop the level digit."""

    start = 1

    def __init__(self, src):
        self.src = src

    def digit(self, k):
        return self.src.digit(k + 1)

    def __eq__(self, other):
        return isinstance(other, _UnshiftedDigits) and self.src == other.src

    def __hash__(self):
        return hash(("unshift", self.src))


def induce_odometer_prefix(q, p):
    """Rational-case construction: first p levels of the height-q
    tower induce the (p, q, q, ...) adding machine."""
    if not 1 <= p < q:
        raise ValueError("need 1 <= p < q")
    spec = q_adic_tower_spec(q)
    system = RankOneSystem(spec)
    odo = OdometerSpec((p,), (q,))
    return PrefixInduction(q, p, spec, system, odo)
