"""Exact scalars: rationals and elements of a single real quadratic extension.

An ExactScalar is a + b*sqrt(d) with a, b rational and d a square-free integer
d >= 2 (d == 1 and b == 0 for plain rationals). All arithmetic is exact; sign
queries never fall back to floating point. Mixing two different extensions in
one operation raises MixedExtensions: every context in this package works
inside Q or a single Q(sqrt(d)), which is what makes that restriction safe.
When both operands are rational (b == 0), addition, subtraction, negation,
multiplication and division take one Fraction operation and skip the
quadratic-extension formula.

PairVector is the one evaluator of polynomials at exact values: poly.Split
folds parameters and poly.Folded sums state variables through it.
Its key, the values as integers, is what the package keys per-coordinate
caches on. Matrices inside the package stay in the same integer-pair form
(linalg.PairMatrix); ExactScalars are made only for values that leave it:
report fields, command-line output and the ExactMatrix returns of the public
functions. A report field given a Deferred in place of its value (OnRead,
the package's one descriptor) is made on its first read: a report keeps the
integer form its verdict was decided in, and its ExactScalars, and what
only reports on the verdict, are made only when someone reads them.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Collection, Sequence, Union

from .errors import (AlgebraError, AlgebraTypeError, AlgebraValueError, AlgebraZeroDivisionError,
                     MixedExtensions)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer square-free decomposition
#
# Discriminants of the quadratics we solve come from cleared Fractions and can
# be large, so trial division alone is not honest. Deterministic Miller-Rabin
# (valid far beyond 2**64 with the witness set below) plus Pollard's rho gives
# a complete factorisation quickly for anything this package produces. Rho
# takes about sqrt(p) steps to find a prime factor p, so a model can hand it
# a number it would not split for years (the product of two 20-digit primes):
# each factorize call may take _MAX_RHO_STEPS steps in all, and refuses past
# them.
# ---------------------------------------------------------------------------

_MAX_RHO_STEPS = 1 << 16

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


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    '''A nontrivial factor of composite odd n and the steps left of budget,
    the rho steps it may take; AlgebraError when they run out first.'''
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            if not budget:
                raise AlgebraError(f"cannot factor an integer of {n.bit_length()} bits "
                                   f"in {_MAX_RHO_STEPS} rho steps")
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, budget


def factorize(n: int) -> dict[int, int]:
    '''Prime factorisation of n >= 1 as {prime: multiplicity}, in at most
    _MAX_RHO_STEPS rho steps; AlgebraError past them.'''
    out: dict[int, int] = {}
    budget = _MAX_RHO_STEPS
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
        d, budget = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def square_free_split(n: int) -> tuple[int, int]:
    '''Write n >= 1 as s*s*d with d square-free; return (s, d).
    AlgebraError when n cannot be factored (factorize).'''
    if n < 1:
        raise AlgebraValueError("square_free_split needs a positive integer")
    r = math.isqrt(n)
    if r * r == n:
        return r, 1
    s = 1
    d = 1
    for p, k in factorize(n).items():
        s *= p ** (k // 2)
        if k % 2:
            d *= p
    return s, d


@functools.lru_cache(maxsize=1024)
def _square_free(d: int) -> bool:
    '''Whether d >= 2 is square-free, kept per d: pair_sign and every
    formula of Q(sqrt(d)) take d so.'''
    return d >= 2 and square_free_split(d)[1] == d


# ---------------------------------------------------------------------------
# decimal text of integers of any length
#
# Since Python 3.11 (and its backports) int() and str() refuse more than
# sys.get_int_max_str_digits() decimal digits, 4300 by default. The package
# reads and writes every decimal integer through these two, which split a
# longer one in halves until each part is within the limit.
# ---------------------------------------------------------------------------

_SAFE_DIGITS = 640   # no limit can be set below this


def _digit_limit() -> int:
    '''The interpreter's limit on decimal digits, 0 when it has none.'''
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def int_text(n: int) -> str:
    '''The decimal text of the int n, however long.'''
    if n.bit_length() <= 3 * _SAFE_DIGITS:   # then at most 0.91 * 640 + 1 digits
        return str(n)
    limit = _digit_limit()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    half = n.bit_length() * 3 // 20   # about half its digits
    high, low = divmod(n, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


def read_int(digits: str) -> int:
    '''The int of a string of decimal digits, however long.'''
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    limit = _digit_limit()
    if not limit or len(digits) <= limit:
        return int(digits)
    half = len(digits) // 2
    return read_int(digits[:-half]) * 10 ** half + read_int(digits[-half:])


# decimal digits in a number the package reads from text, and in the
# numerator and the denominator of a number the model parser computes, so
# that no number read holds it or the printer for long (converting 100000
# digits to or from text takes some 0.2 s)
MAX_DIGITS = 100_000
_LONG_BITS = 3 * MAX_DIGITS   # 10^k has more than 3k bits


@functools.cache
def _digit_bound() -> int:
    '''10^MAX_DIGITS, the least int of more than MAX_DIGITS digits.'''
    return 10 ** MAX_DIGITS


def too_long(n: int, d: int = 1) -> bool:
    '''Whether n or d > 0, a number's numerator and denominator or a
    polynomial's norm (MultiPoly.norm), has more than MAX_DIGITS digits.'''
    if n.bit_length() <= _LONG_BITS and d.bit_length() <= _LONG_BITS:
        return False
    return abs(n) >= _digit_bound() or d >= _digit_bound()


# blanks, an optional sign, a decimal, optionally '/' and a decimal, then
# blanks; a decimal is digits with at most one '.'. Each character can take
# one part only, so text that does not match fails in linear time.
_DECIMAL = r"(\d+(?:\.\d*)?|\.\d+)"
_RATIONAL = re.compile(rf"\s*([+-]?){_DECIMAL}(?:/{_DECIMAL})?\s*")


def read_decimal(t: str) -> Rational:
    '''The exact value of a decimal, digits with at most one '.': an int
    without a '.', else a Fraction.'''
    whole, _, frac = t.partition(".")
    if not frac:
        return read_int(whole)
    return Fraction(read_int(whole + frac), 10 ** len(frac))


def read_rational(text: str) -> Fraction:
    '''The Fraction that text writes as a decimal, optionally over a
    decimal (_RATIONAL), such as "3/2", "-.5", "1/2.5" or " 1/3 ": the
    package's one reader of a rational written as text, for --set, --kappa,
    Model.point and a model file's values. ValueError for any other text,
    a zero denominator, more than MAX_DIGITS digits in a decimal as written,
    or a value whose numerator or denominator has more.'''
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError("not a decimal or a decimal over a decimal")
    sign, num, den = match.groups()
    if any(len(t) - ("." in t) > MAX_DIGITS for t in (num, den or "")):
        raise ValueError(f"a number of more than {MAX_DIGITS} digits")
    den = read_decimal(den) if den else 1
    if not den:
        raise ValueError("zero denominator")
    value = Fraction(read_decimal(num), den)
    if too_long(value.numerator, value.denominator):
        raise ValueError(f"a value of more than {MAX_DIGITS} digits")
    return -value if sign == "-" else value


def rational_text(q: Rational) -> str:
    '''An int or a Fraction as str writes it, "n" or "n/d", however long.'''
    n, d = q.numerator, q.denominator
    return int_text(n) if d == 1 else f"{int_text(n)}/{int_text(d)}"


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
        elif not _square_free(self.d):
            raise AlgebraValueError(f"irrational part needs a square-free d >= 2, not {self.d}")

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise AlgebraValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = exact(other)
        if not self.b and not other.b:
            return ExactScalar(self.a + other.a)
        return ExactScalar(self.a + other.a, self.b + other.b, one_radicand((self.d, other.d)))

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
        d = one_radicand((self.d, other.d))
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return ExactScalar(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise AlgebraZeroDivisionError("inverse of zero")
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
        if not isinstance(k, int):
            raise AlgebraTypeError(f"an exact power takes an int, not {type(k).__name__}")
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
        '''Exact sign in {-1, 0, 1}: that of the pair of a and b over their
        common denominator.'''
        a, b = self.a, self.b
        return pair_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

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
            return rational_text(self.a)
        root = f"sqrt({int_text(self.d)})"
        if self.b == 1:
            irr = root
        elif self.b == -1:
            irr = f"-{root}"
        else:
            irr = f"{rational_text(self.b)}*{root}"
        if self.a == 0:
            return irr
        joiner = "+" if not irr.startswith("-") else ""
        return f"{rational_text(self.a)}{joiner}{irr}"

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
    raise AlgebraTypeError(f"cannot make an ExactScalar from {type(x).__name__}")


ZERO = exact(0)


# ---------------------------------------------------------------------------
# integer pairs
#
# A kernel that takes many operations inside one Q(sqrt(d)) writes its
# scalars once as integer pairs (u, w) over one common denominator Q, each
# scalar (u + w sqrt(d)) / Q, works in Z[sqrt(d)], and makes ExactScalars
# again only from its results.
# ---------------------------------------------------------------------------

_EXACT, _NO_RADICANDS = frozenset({Fraction, int, ExactScalar}), frozenset()


def to_pairs(xs: Collection) -> tuple[list[tuple[int, int]], int, AbstractSet[int]]:
    '''(pairs, Q, ds): each x of xs is (u + w sqrt(d)) / Q for its pair
    (u, w) and its radicand d, over one common denominator Q; ds holds the
    radicands of the irrational values. An int or a Fraction is taken as it
    is, with w = 0; a value of any other type than these and ExactScalar
    raises AlgebraError.'''
    types = set(map(type, xs))
    if not types <= _EXACT:
        bad = sorted(t.__name__ for t in types - _EXACT)
        raise AlgebraError(f"values of type {', '.join(bad)} are not exact")
    irr = {}
    if ExactScalar in types:
        irr = {i: x for i, x in enumerate(xs) if type(x) is ExactScalar and x.d != 1}
        xs = [x.a if type(x) is ExactScalar else x for x in xs]
    Q = math.lcm(*[x.denominator for x in xs], *[x.b.denominator for x in irr.values()])
    pairs = [(x.numerator * (Q // x.denominator), 0) for x in xs]
    for i, x in irr.items():
        pairs[i] = (pairs[i][0], x.b.numerator * (Q // x.b.denominator))
    return pairs, Q, {x.d for x in irr.values()} if irr else _NO_RADICANDS


class PairVector:
    '''Exact values x_i = (n_i + m_i sqrt(d_i)) / Q, converted once by
    to_pairs, with the powers of Q kept as they are asked for.

    sums evaluates polynomials in the x_i whose terms (s, c) are an integer
    c and a monomial s, the tuple of the indices i of its factors x_i, each
    repeated by its power (so that its degree t is len(s)): the term
    enters as c n^s Q^(K - t), so that every term of degree at most K is
    an element of Z[sqrt(d)] over the one denominator Q^K.'''

    __slots__ = ("_pairs", "_ds", "_radicands", "_powers", "key")

    def __init__(self, xs: Sequence):
        pairs, Q, ds = to_pairs(xs)
        self._set(pairs, Q, ds, [x.d if w else 1 for x, (_, w) in zip(xs, pairs)]
                  if len(ds) > 1 else None)

    @classmethod
    def of_quads(cls, quads: Sequence) -> "PairVector":
        '''The vector of the values (u + w sqrt(d)) / q of quads (u, w, q, d),
        each in lowest terms with q > 0 and d = 1 when w = 0, as poly.Folded.at
        gives them: the same vector, key included, as of their ExactScalars.'''
        Q = math.lcm(*[q for _, _, q, _ in quads])
        ds = {d for _, w, _, d in quads if w}
        vector = cls.__new__(cls)
        vector._set([(u * (Q // q), w * (Q // q)) for u, w, q, _ in quads], Q, ds,
                    [d for *_, d in quads] if len(ds) > 1 else None)
        return vector

    def _set(self, pairs: list, Q: int, ds: AbstractSet[int], radicands) -> None:
        self._pairs, self._ds, self._powers = pairs, ds, [1, Q]
        if radicands is not None:
            self._radicands = radicands
        # the values as integers: equal keys exactly when the values are equal
        self.key = (tuple(pairs), Q, tuple(radicands if radicands is not None else ds))

    @property
    def radicands(self) -> AbstractSet[int]:
        '''The radicands of the irrational values; empty when every value is
        rational.'''
        return self._ds

    def is_zero(self, i: int) -> bool:
        '''Whether x_i = 0.'''
        return self._pairs[i] == (0, 0)

    def sign(self, i: int) -> int:
        '''The sign of x_i, read from its pair (Q > 0).'''
        u, w = self._pairs[i]
        return pair_sign(u, w, self._radicand_at(i)) if w else (u > 0) - (u < 0)

    def scalars(self) -> list[ExactScalar]:
        '''The values as ExactScalars, equal to those they were made from.'''
        Q = self._powers[1]
        return [from_pair(u, w, Q, self._radicand_at(i) if w else 1)
                for i, (u, w) in enumerate(self._pairs)]

    def _radicand_at(self, i: int) -> int:
        '''The radicand of the irrational value x_i.'''
        return self._radicands[i] if len(self._ds) > 1 else next(iter(self._ds))

    def power(self, k: int) -> int:
        '''Q^k.'''
        pw = self._powers
        for _ in range(len(pw), k + 1):
            pw.append(pw[-1] * pw[1])
        return pw[k]

    def sums(self, groups, top: int):
        '''For each (key, terms) in groups, (key, u, w, d) with u + w sqrt(d)
        the sum of the c n^s Q^(top - len(s)) over the terms (s, c); d = 1
        when the terms hold no irrational value, MixedExtensions when they
        hold values of two radicands. A generator: each sum is taken when it
        is asked for.'''
        n, pw = self._pairs, self._powers
        while len(pw) <= top:
            pw.append(pw[-1] * pw[1])
        if not self._ds:
            for key, terms in groups:
                total = 0
                for s, c in terms:
                    c *= pw[top - len(s)]
                    for i in s:
                        c *= n[i][0]
                    total += c
                yield key, total, 0, 1
            return
        for key, terms in groups:
            d = self._radicand(terms)
            su = sw = 0
            for s, c in terms:
                u, w = c * pw[top - len(s)], 0
                for i in s:
                    x, y = n[i]
                    if y:
                        u, w = u * x + d * w * y, u * y + w * x
                    else:
                        u *= x
                        w *= x
                su += u
                sw += w
            yield key, su, sw, d

    def _radicand(self, terms) -> int:
        '''The one radicand of the values the terms hold, 1 for none.'''
        if len(self._ds) == 1:
            return next(iter(self._ds))
        return one_radicand({self._radicands[i] for s, _ in terms for i in s})


def one_radicand(ds) -> int:
    '''The one radicand other than 1 among the collection ds, 1 when there
    is none; MixedExtensions, naming the two least, when there are two.'''
    found = 1
    for d in ds:
        if d != 1 and d != found:
            if found != 1:
                two = sorted(set(ds) - {1})
                raise MixedExtensions(f"sqrt({two[0]}) vs sqrt({two[1]})")
            found = d
    return found


def pair_sign(u: int, w: int, d: int) -> int:
    '''The sign of u + w sqrt(d) for integers u, w and a square-free d: when
    u and w have opposite signs, that of the larger of u^2 and d w^2.'''
    su, sw = (u > 0) - (u < 0), (w > 0) - (w < 0)
    return su if su == sw or not sw or (su and u * u > d * w * w) else sw


def pair_product(x: tuple[int, int], y: tuple[int, int], d: int) -> tuple[int, int]:
    '''The product of the pairs x and y in Z[sqrt(d)], as a pair.'''
    (xu, xw), (yu, yw) = x, y
    return xu * yu + d * xw * yw, xu * yw + xw * yu


def quad(x: ExactScalar) -> tuple[int, int, int, int]:
    '''x as the integer quad (u, w, q, d) of from_pair, x = (u + w sqrt(d))
    / q in lowest terms, q > 0 and d = 1 when w = 0. The package makes its
    quads in integers (quadratic_roots, linalg.integer_roots, Folded.at);
    this conversion from an ExactScalar is the tests' reference for them.'''
    a, b = x.a, x.b
    q = math.lcm(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q, x.d


def from_pair(u: int, w: int, den: int, d: int) -> ExactScalar:
    '''(u + w sqrt(d)) / den for integers u, w and den != 0.'''
    if w:
        return ExactScalar(Fraction(u, den), Fraction(w, den), d)
    return ExactScalar(Fraction(u, den))


def quadratic_roots(c0: int, c1: int, c2: int) -> tuple[tuple[int, int, int, int], ...]:
    '''The real roots of c2 x^2 + c1 x + c0, for integers c2 and c1 not both
    zero, in ascending order, each as the quad (u, w, q, d) that quad gives
    for it. For c2 = 0 the one root -c0 / c1; otherwise none when the
    discriminant c1^2 - 4 c2 c0 is negative, the double root when it is
    zero, and (-c1 -+ s sqrt(d)) / (2 c2) when square_free_split writes it
    as s^2 d. The package's one quadratic formula.'''
    if not c2:
        return (lowest_quad(-c0, 0, c1, 1) if c1 > 0 else lowest_quad(c0, 0, -c1, 1),)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return ()
    u, q = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)
    if disc == 0:
        return (lowest_quad(u, 0, q, 1),)
    s, d = square_free_split(disc)
    if d == 1:
        return lowest_quad(u - s, 0, q, 1), lowest_quad(u + s, 0, q, 1)
    return lowest_quad(u, -s, q, d), lowest_quad(u, s, q, d)


def lowest_quad(u: int, w: int, q: int, d: int) -> tuple[int, int, int, int]:
    '''(u + w sqrt(d)) / q, q > 0, as a quad in lowest terms: the package's
    one quad normaliser.'''
    g = math.gcd(u, w, q)
    return u // g, w // g, q // g, d


# ---------------------------------------------------------------------------
# report fields made on first read
# ---------------------------------------------------------------------------

class Deferred:
    '''A value to be made by build(*args) on its first read, given to an
    OnRead field in place of the value. A type of its own, so that no value
    a field may hold, such as a callable UniPoly, is taken for one. With
    fields, the names of several fields of one report that are all given
    this Deferred, build returns one value for each, in that order, and is
    called once for all of them, on the first read of any.'''

    __slots__ = ("build", "args", "fields")

    def __init__(self, build, *args, fields: tuple[str, ...] | None = None):
        self.build, self.args, self.fields = build, args, fields


class OnRead:
    '''A field of a frozen dataclass that may be given a Deferred: the value
    is then made on the field's first read and kept; any other value is
    kept as given. A Deferred with fields fills, on that read, every one
    of them that still holds it. The dataclass's __init__, __eq__,
    __hash__ and __repr__ go through it, so they read made values, and the
    field has no default. The package's one descriptor: reports keep what
    their verdict was decided from, and a field the verdict does not need
    is made only when it is read: one that holds ExactScalars (the
    coordinates of a face equilibrium and their positivity violations, the
    characteristic polynomial and Hurwitz determinants of a block, a
    Metzler witness, the rows of a transversal block and of its split), or
    one that only reports on the verdict (an invasion report's
    next-generation split, with its ratio, cross-check and notes, and the
    notes of a relay resident).'''

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)   # the field has no default
        fields = obj.__dict__
        value = fields[self.name]
        if type(value) is Deferred:
            made = value.build(*value.args)
            if value.fields is None:
                fields[self.name] = made
                return made
            for name, part in zip(value.fields, made):
                if fields.get(name) is value:
                    fields[name] = part
            value = fields[self.name]
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def sqrt_fraction(q: Rational) -> ExactScalar:
    '''Exact square root of a nonnegative rational as an ExactScalar.

    sqrt(n/m) = sqrt(n*m)/m; the radicand is split into s*s*d with d
    square-free, giving (s/m)*sqrt(d). An int, a Fraction or a rational
    ExactScalar; anything exact refuses (a float, a str) is refused alike.
    '''
    if not isinstance(q, (int, Fraction)):
        q = exact(q).to_fraction()
    q = Fraction(q)
    if q < 0:
        raise AlgebraValueError("sqrt_fraction needs a nonnegative rational")
    if q == 0:
        return ZERO
    n, m = q.numerator, q.denominator
    s, d = square_free_split(n * m)
    if d == 1:
        return ExactScalar(Fraction(s, m))
    return ExactScalar(Fraction(0), Fraction(s, m), d)
