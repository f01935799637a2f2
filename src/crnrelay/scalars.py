"""Exact scalars: rationals and elements of a single real quadratic extension.

An ExactScalar is a + b*sqrt(d) with a, b rational and d a square-free integer
d >= 2 (d == 1 and b == 0 for plain rationals). All arithmetic is exact; sign
queries never fall back to floating point. Mixing two different extensions in
one operation raises MixedExtensions: every context in this package works
inside Q or a single Q(sqrt(d)), which is what makes that restriction safe.
When both operands are rational (b == 0), addition, subtraction, negation,
multiplication and division take one Fraction operation and skip the
quadratic-extension formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MixedExtensions

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer square-free decomposition
#
# Discriminants of the quadratics we solve come from cleared Fractions and can
# be large, so trial division alone is not honest. Deterministic Miller-Rabin
# (valid far beyond 2**64 with the witness set below) plus Pollard's rho gives
# a complete factorisation quickly for anything this package produces.
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    '''Return a nontrivial factor of composite odd n.'''
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # not reachable in practice


def _factorize(n: int) -> dict[int, int]:
    '''Prime factorisation of n >= 1 as {prime: multiplicity}.'''
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # strip small primes first; rho handles what is left
        for p in (2, 3, 5, 7, 11, 13):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def square_free_split(n: int) -> tuple[int, int]:
    '''Write n >= 1 as s*s*d with d square-free; return (s, d).'''
    if n < 1:
        raise ValueError("square_free_split needs a positive integer")
    r = math.isqrt(n)
    if r * r == n:
        return r, 1
    s = 1
    d = 1
    for p, k in _factorize(n).items():
        s *= p ** (k // 2)
        if k % 2:
            d *= p
    return s, d


# ---------------------------------------------------------------------------
# the scalar type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactScalar:
    """a + b*sqrt(d), normalised so that b == 0 implies d == 1."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self):
        if not self.b:
            if self.d != 1:
                object.__setattr__(self, "d", 1)
        elif self.d <= 1:
            raise ValueError("irrational part needs a square-free d >= 2")

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    def _join(self, other: "ExactScalar") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise MixedExtensions(f"sqrt({self.d}) vs sqrt({other.d})")
        return self.d

    def __add__(self, other) -> "ExactScalar":
        other = exact(other)
        if not self.b and not other.b:
            return ExactScalar(self.a + other.a)
        d = self._join(other)
        return ExactScalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        if not self.b:
            return ExactScalar(-self.a)
        return ExactScalar(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "ExactScalar":
        other = exact(other)
        if not self.b and not other.b:
            return ExactScalar(self.a - other.a)
        return self + (-other)

    def __rsub__(self, other) -> "ExactScalar":
        return exact(other) - self

    def __mul__(self, other) -> "ExactScalar":
        other = exact(other)
        if not self.b and not other.b:
            return ExactScalar(self.a * other.a)
        d = self._join(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return ExactScalar(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.b == 0:
            return ExactScalar(1 / self.a)
        n = self.a * self.a - self.b * self.b * self.d
        # n == 0 would force d to be the square of a rational; impossible for
        # square-free d >= 2 unless a == b == 0.
        return ExactScalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other) -> "ExactScalar":
        other = exact(other)
        if not self.b and not other.b and other.a:
            return ExactScalar(self.a / other.a)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return exact(other) * self.inverse()

    def __pow__(self, k: int) -> "ExactScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = exact(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        '''Exact sign in {-1, 0, 1}.'''
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare |a| against |b|*sqrt(d) by squaring
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:
            return 0  # unreachable for square-free d >= 2, kept for safety
        bigger_is_a = lhs > rhs
        return (1 if self.a > 0 else -1) if bigger_is_a else (1 if self.b > 0 else -1)

    def __lt__(self, other) -> bool:
        return (self - exact(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - exact(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - exact(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - exact(other)).sign() >= 0

    def sort_key(self):
        return (self.d, self.a, self.b)

    # -- output -------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            irr = f"sqrt({self.d})"
        elif self.b == -1:
            irr = f"-sqrt({self.d})"
        else:
            irr = f"{self.b}*sqrt({self.d})"
        if self.a == 0:
            return irr
        joiner = "+" if not irr.startswith("-") else ""
        return f"{self.a}{joiner}{irr}"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


def exact(x) -> ExactScalar:
    '''Coerce an int, Fraction, or ExactScalar to ExactScalar.'''
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, Fraction):
        return ExactScalar(x)
    if isinstance(x, int):
        return ExactScalar(Fraction(x))
    raise TypeError(f"cannot make an ExactScalar from {type(x).__name__}")


ZERO = exact(0)


def quadext_sign(x: ExactScalar) -> int:
    '''Sign of a quadratic-extension element, decided without floating point.'''
    return exact(x).sign()


def sqrt_fraction(q: Rational) -> ExactScalar:
    '''Exact square root of a nonnegative rational as an ExactScalar.

    sqrt(n/m) = sqrt(n*m)/m; the radicand is split into s*s*d with d
    square-free, giving (s/m)*sqrt(d).
    '''
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt_fraction needs a nonnegative rational")
    if q == 0:
        return ZERO
    n, m = q.numerator, q.denominator
    s, d = square_free_split(n * m)
    if d == 1:
        return ExactScalar(Fraction(s, m))
    return ExactScalar(Fraction(0), Fraction(s, m), d)
