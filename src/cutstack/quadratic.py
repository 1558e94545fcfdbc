"""Exact arithmetic in quadratic fields Q(sqrt(d)).

Backs the rotation systems: every comparison, floor, and fractional part of
a number u + v*sqrt(d) is decided by integer arithmetic, never floats.

A Surd holds Python integers x, y, q > 0 with gcd(x, y, q) = 1 and the
value (x + y*sqrt(d)) / q.  The radicand is kept as given, and identity is
decided by comparison; nothing factors d, and a perfect square d collapses
to a rational by one isqrt.  The sign of x + y*sqrt(d) is read from the
signs of x and y, then x^2 against y^2 * d; floor(b * value), for an
integer b, is (b*x + floor(b*y*sqrt(d))) // q, one isqrt of b^2 * y^2 * d
(floor_times).  The rational parts u = x/q and v = y/q are Fraction
properties.  ZERO and ONE are built once, so hot loops need not call the
Fraction-based constructor.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm


def _make(x, y, q, d):
    """(x + y*sqrt(d)) / q in normal form: q > 0, gcd(x, y, q) = 1, and
    d None when y == 0.  d must not be a perfect square."""
    if q < 0:
        x, y, q = -x, -y, -q
    g = gcd(x, y, q)
    if g != 1:
        x //= g
        y //= g
        q //= g
    s = object.__new__(Surd)
    s.x, s.y, s.q, s.d = x, y, q, (d if y else None)
    return s


def _parts(other, d):
    """(x, y, q, d): other, a Surd, int or Fraction, as (x + y*sqrt(d)) / q,
    where a rational self (d None) takes other's radicand.  sqrt(e) is
    (isqrt(d*e) / d) * sqrt(d), exact when d*e is a perfect square; any
    other radicand raises ValueError, and any other operand TypeError."""
    if isinstance(other, Surd):
        x, y, q, e = other.x, other.y, other.q, other.d
        if e is None or d is None or e == d:
            return x, y, q, d or e
        r = isqrt(d * e)
        if r * r != d * e:
            raise ValueError(f"incompatible radicands {d} and {e}")
        return x * d, y * r, q * d, d
    if isinstance(other, (int, Fraction)):
        return other.numerator, 0, other.denominator, d
    raise TypeError(f"a Surd does not combine with {type(other).__name__}")


def _sign(x, y, d):
    """Sign of x + y*sqrt(d) for integers x, y (d unused when y == 0)."""
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0 or (x > 0) == (y > 0):
        return 1 if y > 0 else -1
    # opposite signs: compare x^2 with y^2 * d
    t = x * x - y * y * d
    s = (t > 0) - (t < 0)
    return s if x > 0 else -s


class Surd:
    """u + v*sqrt(d), held as (x + y*sqrt(d)) / q (see the module notes).
    The radicand is kept as given, and identity is decided by comparison:
    sqrt(8) and 2*sqrt(2) are equal and hash alike.  Rationals have y == 0
    and d None; mixing radicands of two different fields is an error."""

    __slots__ = ("x", "y", "q", "d")

    def __init__(self, u, v=0, d=None):
        for part in (u, v):  # the operators' rule (_parts)
            if not isinstance(part, (int, Fraction)):
                raise TypeError(
                    f"a Surd is not built from {type(part).__name__}")
        u, v = Fraction(u), Fraction(v)
        if d is not None and (type(d) is not int or d <= 0):
            raise ValueError("radicand must be a positive integer")
        if v != 0:
            if d is None:
                raise ValueError("irrational part needs a radicand")
            r = isqrt(d)
            if r * r == d:
                u += v * r
                v = Fraction(0)
        q = lcm(u.denominator, v.denominator)
        self.x = u.numerator * (q // u.denominator)
        self.y = v.numerator * (q // v.denominator)
        self.q = q
        self.d = d if self.y else None

    @classmethod
    def sqrt(cls, n):
        return cls(0, 1, n)

    @property
    def u(self):
        return Fraction(self.x, self.q)

    @property
    def v(self):
        return Fraction(self.y, self.q)

    # -- ring/field ops -----------------------------------------------------
    # An operand over self's radicand is read inline, any other by _parts.

    def __add__(self, other):
        if type(other) is Surd and other.d == self.d:
            x, y, q, d = other.x, other.y, other.q, self.d
        else:
            x, y, q, d = _parts(other, self.d)
        return _make(self.x * q + x * self.q, self.y * q + y * self.q,
                     self.q * q, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.x, -self.y, self.q, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Surd and other.d == self.d:
            x, y, q, d = other.x, other.y, other.q, self.d
        else:
            x, y, q, d = _parts(other, self.d)
        if d is None:
            return _make(self.x * x, 0, self.q * q, None)
        return _make(self.x * x + self.y * y * d, self.x * y + self.y * x,
                     self.q * q, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Surd and other.d == self.d:
            x, y, q, d = other.x, other.y, other.q, self.d
        else:
            x, y, q, d = _parts(other, self.d)
        if x == 0 and y == 0:
            raise ZeroDivisionError
        if d is None:
            return _make(self.x * q, 0, self.q * x, None)
        # multiply through by the conjugate x - y*sqrt(d)
        return _make((self.x * x - self.y * y * d) * q,
                     (self.y * x - self.x * y) * q,
                     self.q * (x * x - y * y * d), d)

    def __rtruediv__(self, other):
        return _make(*_parts(other, None)) / self

    # -- order --------------------------------------------------------------

    def sign(self):
        return _sign(self.x, self.y, self.d)

    def _cmp(self, other):
        """Sign of self - other, without building the difference."""
        if type(other) is Surd and other.d == self.d:
            x, y, q, d = other.x, other.y, other.q, self.d
        else:
            x, y, q, d = _parts(other, self.d)
        return _sign(self.x * q - x * self.q, self.y * q - y * self.q, d)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        # 1 and sqrt(d) are a basis over Q: equal values have equal u
        return hash(self.u)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- floor / frac / approx ---------------------------------------------

    def approx(self, bits=128):
        """Rational approximation within 2^-bits (for cross-checks only)."""
        if self.y == 0:
            return self.u
        scale = 1 << (bits + 8)
        root = isqrt(self.d * scale * scale)
        return Fraction(self.x * scale + self.y * root, self.q * scale)

    def __float__(self):
        return float(self.approx(64))

    def floor_times(self, b):
        """floor(b * self) for an integer b: (b*x + floor(b*y*sqrt(d))) // q,
        one isqrt and no normalisation."""
        x, y = b * self.x, b * self.y
        if y == 0:
            return x // self.q
        # floor(y*sqrt(d)) by one isqrt; y^2*d is never a square
        r = isqrt(y * y * self.d)
        return (x + (r if y > 0 else -r - 1)) // self.q

    def frac_times(self, b):
        """frac(b * self) for an integer b, by one floor and one _make."""
        return _make(b * self.x - self.floor_times(b) * self.q, b * self.y,
                     self.q, self.d)

    def floor(self):
        return self.floor_times(1)

    def frac(self):
        return self.frac_times(1)

    def __repr__(self):
        if self.y == 0:
            return f"Surd({self.u})"
        return f"Surd({self.u} + {self.v}*sqrt({self.d}))"


ZERO = _make(0, 0, 1, None)
ONE = _make(1, 0, 1, None)


# ---------------------------------------------------------------------------
# Continued fractions


def surd_from_cf(prefix, period):
    """Exact value of the eventually periodic continued fraction
    [prefix; period, period, ...] (a quadratic irrational).

    The periodic tail t solves t = (P t + P') / (Q t + Q') for the
    convergent matrix of one period, a quadratic with positive root.
    """
    if not period:
        raise ValueError("periodic tail must be non-empty (irrational)")
    if any(a < 1 for a in list(prefix[1:]) + list(period)):
        raise ValueError("continued fraction terms after the first must be >= 1")
    P, Pp, Q, Qp = 1, 0, 0, 1
    for a in period:
        P, Pp = a * P + Pp, P
        Q, Qp = a * Q + Qp, Q
    # Q t^2 + (Qp - P) t - Pp = 0
    disc = (Qp - P) ** 2 + 4 * Q * Pp
    t = Surd(Fraction(P - Qp, 2 * Q)) + Surd(0, Fraction(1, 2 * Q), disc)
    # fold the prefix: x = (p_k t + p_{k-1}) / (q_k t + q_{k-1})
    pa, pb, qa, qb = 0, 1, 1, 0
    for a in prefix:
        pa, pb = pb, a * pb + pa
        qa, qb = qb, a * qb + qa
    return (t * pb + pa) / (t * qb + qa)
