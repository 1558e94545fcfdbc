"""Exact arithmetic in quadratic fields Q(sqrt(d)).

Backs the rotation systems: every comparison, floor, and fractional part of
a number u + v*sqrt(d) is decided by integer arithmetic, never floats.

A Surd holds Python integers x, y, q > 0 with gcd(x, y, q) = 1 and the
value (x + y*sqrt(d)) / q, where d is reduced once, by the public
constructor.  The sign of x + y*sqrt(d) is read from the signs of x and y,
then x^2 against y^2 * d; the floor of b times it, for an integer b, is
(b*x + floor(b*y*sqrt(d))) // q with floor(b*y*sqrt(d)) one isqrt of
b^2 * y^2 * d (floor_times).  The rational parts u = x/q and v = y/q are
Fraction properties for callers that want them.  ZERO and ONE are built
once, so hot loops need not call the Fraction-based constructor.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm


# Radicand reduction: trial division below _TRIAL, then the cofactor's
# primes by Miller-Rabin and Pollard-Brent.  Miller-Rabin with the first
# 13 prime bases is exact below _MR_BOUND (Sorenson and Webster 2015); a
# cofactor at or above it is reduced by trial division instead.
_TRIAL = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin, exact for 41 < n < _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n):
    """A proper factor of the odd composite n: Pollard's rho on y^2 + c,
    with Brent's cycle search (y runs r steps from the saved x, r doubling);
    a cycle that closes mod n itself tries the next c."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _prime_factors(n, out):
    """Append the primes of n, which has none below _TRIAL, to out."""
    if n == 1:
        return
    if _is_prime(n):
        out.append(n)
        return
    g = _pollard_brent(n)
    _prime_factors(g, out)
    _prime_factors(n // g, out)


def _reduce_root(n):
    """Write n = s^2 * d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    primes = []
    for p in range(2, _TRIAL):  # a composite p never divides what is left
        while n % p == 0:
            n //= p
            primes.append(p)
    s = d = 1
    if n < _MR_BOUND:
        _prime_factors(n, primes)
    else:
        f = _TRIAL + 1
        while f * f <= n:
            while n % (f * f) == 0:
                n //= f * f
                s *= f
            f += 2
        d = n
    for p in set(primes):
        e = primes.count(p)
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


def _make(x, y, q, d):
    """(x + y*sqrt(d)) / q in normal form: q > 0, gcd(x, y, q) = 1, and
    d None when y == 0.  The radicand must already be reduced."""
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


def _parts(other):
    """(x, y, q, d) of a Surd, or of a rational read through Fraction."""
    if isinstance(other, Surd):
        return other.x, other.y, other.q, other.d
    if isinstance(other, int):
        return other, 0, 1, None
    f = Fraction(other)
    return f.numerator, 0, f.denominator, None


def _common_root(d1, d2):
    if d1 is None:
        return d2
    if d2 is not None and d2 != d1:
        raise ValueError(f"incompatible radicands {d1} and {d2}")
    return d1


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

    Rationals have y == 0 and d None; mixing two different irrational
    radicands is an error.  Ring operations carry the reduced radicand and
    gcd-normalise, so each value has one representation.
    """

    __slots__ = ("x", "y", "q", "d")

    def __init__(self, u, v=0, d=None):
        u = Fraction(u)
        v = Fraction(v)
        if v != 0:
            if d is None:
                raise ValueError("irrational part needs a radicand")
            s, d = _reduce_root(d)
            if isqrt(d) ** 2 == d:
                u += v * s * isqrt(d)
                v = Fraction(0)
            else:
                v *= s
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

    def __add__(self, other):
        x, y, q, d = _parts(other)
        return _make(self.x * q + x * self.q, self.y * q + y * self.q,
                     self.q * q, _common_root(self.d, d))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.x, -self.y, self.q, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        x, y, q, d = _parts(other)
        d = _common_root(self.d, d)
        if d is None:
            return _make(self.x * x, 0, self.q * q, None)
        return _make(self.x * x + self.y * y * d, self.x * y + self.y * x,
                     self.q * q, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        x, y, q, d = _parts(other)
        d = _common_root(self.d, d)
        if x == 0 and y == 0:
            raise ZeroDivisionError
        if d is None:
            return _make(self.x * q, 0, self.q * x, None)
        # multiply through by the conjugate x - y*sqrt(d)
        return _make((self.x * x - self.y * y * d) * q,
                     (self.y * x - self.x * y) * q,
                     self.q * (x * x - y * y * d), d)

    def __rtruediv__(self, other):
        return Surd(other) / self

    # -- order --------------------------------------------------------------

    def sign(self):
        return _sign(self.x, self.y, self.d)

    def _cmp(self, other):
        """Sign of self - other, without building the difference."""
        x, y, q, d = _parts(other)
        return _sign(self.x * q - x * self.q, self.y * q - y * self.q,
                     _common_root(self.d, d))

    def __eq__(self, other):
        try:
            return _parts(other) == (self.x, self.y, self.q, self.d)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        if self.y == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

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
    P, Pp = 1, 0
    Q, Qp = 0, 1
    for a in period:
        P, Pp = a * P + Pp, P
        Q, Qp = a * Q + Qp, Q
    # Q t^2 + (Qp - P) t - Pp = 0
    disc = (Qp - P) ** 2 + 4 * Q * Pp
    t = Surd(Fraction(P - Qp, 2 * Q)) + Surd(0, Fraction(1, 2 * Q), disc)
    # fold the prefix: x = (p_k t + p_{k-1}) / (q_k t + q_{k-1})
    pa, pb = 0, 1
    qa, qb = 1, 0
    for a in prefix:
        pa, pb = pb, a * pb + pa
        qa, qb = qb, a * qb + qa
    num = t * pb + pa
    den = t * qb + qa
    return num / den

