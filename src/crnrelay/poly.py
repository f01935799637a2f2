"""Sparse multivariate polynomials and rational functions over Q.

Every MultiPoly lives in a Ring: variable names sorted by name, one Ring
object per set of names (ring_of). A model's ring holds its variables and
parameters, and its file is parsed in it. A monomial is one int (packed
exponents, after Monagan and Pearce, CASC 2007): each exponent sits in a
field of _WIDTH bits, in ring order with the first name highest, and the
total degree in the field above them. So multiplying monomials adds ints,
graded lex order is int order (max(terms) leads), and + and * within one
ring never re-key a term. Each field keeps its top bit clear (a total
degree of _LIMIT or more raises AlgebraError), so no sum carries into the
next field and one subtraction over those guard bits tells whether a
monomial divides another. A polynomial leaves its ring, dropping the
variables that do not occur, only at the edges: the public constructor
MultiPoly(vars, terms) and the .vars and .terms views (ring order, tuple
exponents); == and arithmetic across two rings, which move both into the
ring of all their names (a constant belongs to every ring); and Split,
which reads the fields through a position map kept per (ring, state,
params). With sorted names, term order, leading(), primitive() and str do
not depend on how a polynomial was built.

A coefficient is an int when it is integral and a Fraction only when it is
not. RatFunc is a quotient of two MultiPoly in the canonical form used
throughout: the denominator is primitive (integer coefficients, gcd 1) with
a positive leading coefficient in graded lexicographic order. Only cheap
cancellations are applied on top of that (common monomials, exact division,
univariate gcd); full multivariate gcd reduction is never needed here
because eliminations clear denominators first.

A univariate polynomial outside a ring is a dense list of integer
coefficients, constant first. primitive_gcd, Euclid on primitive
pseudo-remainders, is the package's one univariate content and gcd: the
univariate cancellation of a RatFunc runs it on the integer coefficients of
the primitive parts, and the face solver's terminals, linalg.char_abscissa
and linalg.quad_solve make their polynomials primitive with it before they
split them into roots. Content itself has one implementation,
_signed_content, which primitive() and primitive_gcd both divide by.

Split regroups a polynomial once and folds its parameter terms at a point;
Folded sums a quotient of two folds at a vector of the state variables, and
quotient reduces the two sums to lowest terms. Every evaluation in the
package takes that path, MultiPoly.eval included, and the network's table
of rate derivatives folds and sums the groups of its Splits, all at once,
through the same PairVector.sums and quotient; assign stays the
independent substitution on Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (AlgebraError, AlgebraTypeError, AlgebraValueError,
                     AlgebraZeroDivisionError, DenominatorZero)
from .scalars import ExactScalar, PairVector, from_pair, one_radicand, rational_text

Coeff = int | Fraction   # int when integral
Expo = tuple[int, ...]

_WIDTH = 16                    # bits per exponent field
_FIELD = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 1)     # every total degree stays below this


def _coeff(c) -> Coeff:
    '''The stored form of a coefficient: int when integral, else Fraction.'''
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise AlgebraError(f"coefficient {c!r} is not an int or a Fraction")


def _clean(t: dict) -> dict:
    '''t without its zero coefficients, the others in stored form.'''
    return {k: c if type(c) is int else _coeff(c) for k, c in t.items() if c}


def content(coeffs: Iterable[Fraction]) -> Fraction:
    '''Positive content of rational coefficients: the largest g > 0 with
    every c / g an integer (those integers then have gcd one); 0 when every
    coefficient vanishes. For fractions in lowest terms this is the gcd of
    the numerators over the lcm of the denominators.'''
    g, den_lcm = 0, 1
    for c in coeffs:
        g = math.gcd(g, c.numerator)
        den_lcm = math.lcm(den_lcm, c.denominator)
    return Fraction(g, den_lcm)


def _signed_content(t: dict) -> Coeff:
    '''The content of t's coefficients (t not empty), an int when they are
    all ints, signed so that t divided by it leads positive.'''
    vals = t.values()
    g = math.gcd(*vals) if all(type(c) is int for c in vals) else content(vals)
    return -g if t[max(t)] < 0 else g


class Ring:
    '''Sorted variable names and the packing of monomials over them (see
    the module docstring); made by ring_of.'''
    __slots__ = ("names", "index", "shift", "unit", "deg_shift", "guard", "exps",
                 "_masks", "_positions")

    def __init__(self, names: tuple[str, ...]):
        n = len(names)
        self.names, self.index = names, {v: i for i, v in enumerate(names)}
        self.shift = tuple((n - 1 - i) * _WIDTH for i in range(n))
        self.deg_shift = n * _WIDTH
        self.unit = tuple((1 << self.deg_shift) | (1 << s) for s in self.shift)
        self.guard = sum(1 << (f * _WIDTH + _WIDTH - 1) for f in range(n + 1))
        self.exps = (1 << self.deg_shift) - 1   # every exponent field, not the degree
        self._masks, self._positions = {}, {}

    def var(self, name: str) -> "MultiPoly":
        return _make(self, {self.unit[self.index[name]]: 1})

    def from_monomials(self, names: Sequence[str], terms) -> "MultiPoly":
        '''The sum of the c x^s for the (s, c) in terms, each monomial s a
        tuple of indices into names repeated by their powers (the form a
        Split groups by); every name must be in the ring.'''
        units = [self.unit[self.index[v]] for v in names]
        return _make(self, _checked(self, _clean({sum(map(units.__getitem__, s)): c
                                                  for s, c in terms})))

    def mask(self, names) -> int:
        '''The fields of those names that are in the ring.'''
        key = names if isinstance(names, (tuple, frozenset)) else frozenset(names)
        if key not in self._masks:
            self._masks[key] = sum(_FIELD << self.shift[self.index[v]]
                                   for v in key if v in self.index)
        return self._masks[key]

    def fields(self, k: int) -> list[tuple[str, int]]:
        '''The (name, exponent) of monomial k, nonzero exponents only, in
        ring order: the highest nonzero field first, found by bit_length.'''
        k, out = k & self.exps, []
        while k:
            f = (k.bit_length() - 1) // _WIDTH
            out.append((self.names[-1 - f], k >> f * _WIDTH & _FIELD))
            k &= (1 << f * _WIDTH) - 1
        return out

    def gcd(self, keys, mask: Optional[int] = None) -> int:
        '''The greatest common divisor of monomials in the fields of mask
        (all when None), field by field the least exponent: where k >= g
        the guard bit survives k - g, and it becomes an all-ones field.'''
        mask = self.exps if mask is None else mask
        it = iter(keys)
        g, low = next(it, 0) & mask, self.guard & self.exps
        for k in it:
            if not g:
                break
            k &= mask
            keep = (((k + low - g) & low) >> (_WIDTH - 1)) * _FIELD
            g = (g & keep) | (k & ~keep)
        if not g:
            return 0
        # g times a one in every field holds the sum of g's fields in its top one
        deg = (g * (low >> (_WIDTH - 1))) >> (self.deg_shift - _WIDTH) & _FIELD
        return g | deg << self.deg_shift

    def embed(self, p: "MultiPoly") -> dict:
        '''The terms of p re-keyed into this ring, which holds p's names.'''
        if p.ring is self:
            return p._t
        return {sum(self.unit[self.index[v]] * e for v, e in p.ring.fields(k)): c
                for k, c in p._t.items()}

    def term(self, key: int, c) -> "MultiPoly":
        '''c times the monomial of packed key, whose total degree the
        caller has kept within the limit (check_degree).'''
        c = _coeff(c)
        return _make(self, {key: c} if c else {})

    def positions(self, state: Sequence[str], params: Sequence[str]):
        '''(fields, other): fields[f], for field f counted from the lowest
        (the last name), is (its bit offset, the bits below it, whether its
        name is in state, the name's index in state, else in params), or
        None for a name in neither; other holds the fields of those names.'''
        key = (tuple(state), tuple(params))
        if key not in self._positions:
            si = {v: i for i, v in enumerate(state)}
            pi = {v: j for j, v in enumerate(params) if v not in si}
            fields = []
            for v in reversed(self.names):
                low = len(fields) * _WIDTH
                where = (True, si[v]) if v in si else (False, pi[v]) if v in pi else None
                fields.append(where and (low, (1 << low) - 1, *where))
            self._positions[key] = (tuple(fields),
                                    self.exps & ~self.mask(key[0]) & ~self.mask(key[1]))
        return self._positions[key]


_RINGS: dict[tuple, Ring] = {}


def ring_of(names: Iterable[str]) -> Ring:
    '''The one Ring of a collection of names; AlgebraTypeError when a name
    is not a str.'''
    key = tuple(names)
    try:
        return _RINGS[key]
    except (KeyError, TypeError):   # a new ring, or an unhashable name
        if not all(isinstance(v, str) for v in key):
            raise AlgebraTypeError(f"variable names are strs, not {key!r}") from None
    names = tuple(sorted(set(key)))
    _RINGS[key] = _RINGS.get(names) or _RINGS.setdefault(names, Ring(names))
    return _RINGS[key]


_EMPTY = ring_of(())


def _make(ring: Ring, t: dict) -> "MultiPoly":
    '''A MultiPoly of ring over the packed terms t, already clean.'''
    p = object.__new__(MultiPoly)
    p.ring, p._t = ring, t
    return p


def _checked(ring: Ring, t: dict) -> dict:
    '''t, or AlgebraError when a total degree reaches _LIMIT.'''
    if t and max(t) >> ring.deg_shift >= _LIMIT:
        raise AlgebraError(f"total degree {max(t) >> ring.deg_shift} is past {_LIMIT - 1}")
    return t


def check_degree(degree: int, what: str) -> None:
    '''AlgebraError when the total degree of a power or a product (what)
    reaches _LIMIT, raised before anything is multiplied out.'''
    if degree >= _LIMIT:
        raise AlgebraError(f"a {what} of total degree past {_LIMIT - 1}")


def _is_const(t: dict) -> bool:
    return not t or (len(t) == 1 and 0 in t)


def _common(a: "MultiPoly", b: "MultiPoly") -> tuple[Ring, dict, dict]:
    '''One ring for a and b and their terms in it: the ring they share, the
    other's ring when one is a constant, else the ring of all their names.'''
    if a.ring is b.ring or _is_const(b._t):
        return a.ring, a._t, b._t
    if _is_const(a._t):
        return b.ring, a._t, b._t
    ring = ring_of(a.ring.names + b.ring.names)
    return ring, ring.embed(a), ring.embed(b)


class MultiPoly:
    __slots__ = ("ring", "_t")

    def __init__(self, vars: Iterable[str], terms: Mapping[Expo, Coeff]):
        '''The sum of the c x^e for the (e, c) in terms, each e a tuple of
        exponents of vars (any order); AlgebraError for a coefficient other
        than an int or a Fraction, a repeated name or a bad exponent tuple.'''
        vs = tuple(vars)
        ring = ring_of(vs)
        units = [ring.unit[ring.index[v]] for v in vs]
        t = {}
        for e, c in terms.items():
            c = _coeff(c)   # refuses a float even when it is zero
            if len(ring.names) < len(vs) or len(e) != len(vs) or any(
                    not isinstance(x, int) or x < 0 for x in e):
                raise AlgebraError(f"exponents {e!r} are not one nonnegative int per name of {vs}")
            if c:
                t[sum(x * u for x, u in zip(e, units))] = c
        self.ring, self._t = ring, _checked(ring, t)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _coeff(c)
        return _make(_EMPTY, {0: c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return ring_of((name,)).var(name)

    # -- views: the variables that occur, with tuple exponents ---------------

    @property
    def vars(self) -> tuple[str, ...]:
        used, out = reduce(or_, self._t, 0) & self.ring.exps, []
        while used:   # the highest used field first, so in ring order
            f = (used.bit_length() - 1) // _WIDTH
            out.append(self.ring.names[-1 - f])
            used &= (1 << f * _WIDTH) - 1
        return tuple(out)

    @property
    def terms(self) -> dict[Expo, Coeff]:
        shifts = [self.ring.shift[self.ring.index[v]] for v in self.vars]
        return {tuple(k >> s & _FIELD for s in shifts): c for k, c in self._t.items()}

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def is_constant(self) -> bool:
        return _is_const(self._t)

    @property
    def degree(self) -> int:
        '''The total degree, 0 for zero.'''
        return max(self._t) >> self.ring.deg_shift if self._t else 0

    @property
    def size(self) -> int:
        '''The number of terms.'''
        return len(self._t)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise AlgebraValueError(f"{self} is not constant")
        return Fraction(self._t.get(0, 0))

    def degree_in(self, name: str) -> int:
        if name not in self.ring.index:
            return 0
        s = self.ring.shift[self.ring.index[name]]
        return max((k >> s & _FIELD for k in self._t), default=0)

    def uses_only(self, names) -> bool:
        '''Whether every variable that occurs is one of names.'''
        return not reduce(or_, self._t, 0) & self.ring.exps & ~self.ring.mask(names)

    def linear_shape(self, name: str, params) -> Optional[tuple[bool, int]]:
        '''For self of degree one in name, c1 name + c0: whether c1 holds a
        variable outside params, and the number of its distinct monomials
        in the variables outside params; None for any other degree.'''
        if name not in self.ring.index:
            return None
        s = self.ring.shift[self.ring.index[name]]
        mask, seen = self.ring.exps & ~self.ring.mask(params) & ~(_FIELD << s), set()
        for k in self._t:
            if k >> s & _FIELD > 1:
                return None
            if k >> s & _FIELD:
                seen.add(k & mask)
        return (seen != {0}, len(seen)) if seen else None

    def monomial_gcd(self, names=None) -> "MultiPoly":
        '''The greatest monomial in names (in every variable when None),
        with coefficient 1, that divides every term; 1 for zero.'''
        mask = None if names is None else self.ring.mask(names)
        return _make(self.ring, {self.ring.gcd(self._t, mask): 1})

    def leading(self) -> tuple[Expo, Coeff]:
        '''Leading (exponent over vars, coefficient) in graded lex order.'''
        if self.is_zero:
            raise AlgebraValueError("zero polynomial has no leading term")
        k, ring = max(self._t), self.ring
        return tuple(k >> ring.shift[ring.index[v]] & _FIELD for v in self.vars), self._t[k]

    def content(self) -> Fraction:
        '''gcd of the coefficients, signed so the primitive part leads positive.'''
        return Fraction(_signed_content(self._t)) if self._t else Fraction(0)

    def primitive(self) -> "MultiPoly":
        '''self / self.content(): integer coefficients with gcd one and a
        positive leading coefficient (the zero polynomial stays zero).'''
        return _divided(self, _signed_content(self._t)) if self._t else self

    def norm(self) -> tuple[int, int]:
        '''(n, q): q the least common denominator of the coefficients and n
        the 1-norm of the integer coefficients of q self. A coefficient of
        self^e is at most n^e over q^e.'''
        q = math.lcm(*(c.denominator for c in self._t.values()))
        return sum(abs(c.numerator) * (q // c.denominator) for c in self._t.values()), q

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        ring, a, b = _common(self, as_poly(other))
        if len(a) < len(b):
            a, b = b, a
        t = dict(a)
        for k, c in b.items():
            c = t.get(k, 0) + c
            if c:
                t[k] = c if type(c) is int else _coeff(c)
            else:
                del t[k]
        return _make(ring, t)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _make(self.ring, {k: -c for k, c in self._t.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        ring, a, b = _common(self, as_poly(other))
        if not a or not b:
            return _make(ring, {})
        check_degree((max(a) + max(b)) >> ring.deg_shift, "product")
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:   # by one term: each product is a monomial of its own
            ((kb, cb),) = b.items()
            return _make(ring, a if (kb, cb) == (0, 1) else
                         _clean({k + kb: c * cb for k, c in a.items()}))
        out: dict[int, Coeff] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return _make(ring, _clean(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int):
            raise AlgebraTypeError(f"a polynomial power takes an int, not {type(k).__name__}")
        if k < 0:
            raise AlgebraValueError("negative power of a polynomial")
        check_degree(self.degree * k, "power")
        if k <= 1:
            return self if k else _ONE
        if len(self._t) <= 1:   # 0, or c m: c^k m^k, and k times m's packed key is m^k
            return _make(self.ring, {m * k: _coeff(c ** k) for m, c in self._t.items()})
        # Several terms: the multinomial expansion, unless its terms outnumber
        # n times the monomials the power can hold, as when many terms of p
        # share their monomials' products; then k - 1 products by self, which
        # for polynomials in two or more variables beat squaring (Fateman,
        # SIAM J. Comput. 3, 1974).
        n = len(self._t)
        span = math.prod(k * self.degree_in(v) + 1 for v in self.vars)
        if math.comb(k + n - 1, n - 1) <= n * span:
            return _make(self.ring, _clean(_multinomial(list(self._t.items()), k)))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def scaled(self, c) -> "MultiPoly":
        c = _coeff(c)
        if c == 1:
            return self
        return _make(self.ring, _clean({k: v * c for k, v in self._t.items()}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        _, a, b = _common(self, other)
        return a == b

    __hash__ = None  # mutable-dict payload; equality is semantic

    # -- structure ------------------------------------------------------

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        '''View self as a polynomial in one variable: {power: coefficient poly}.'''
        if name not in self.ring.index:
            return {0: self} if not self.is_zero else {}
        i = self.ring.index[name]
        s, u = self.ring.shift[i], self.ring.unit[i]
        buckets: dict[int, dict] = {}
        for k, c in self._t.items():
            buckets.setdefault(k >> s & _FIELD, {})[k - (k >> s & _FIELD) * u] = c
        return {p: _make(self.ring, t) for p, t in buckets.items()}

    def divide_by_monomial(self, m: "MultiPoly") -> "MultiPoly":
        '''Exact division by a monomial m with coefficient 1;
        AlgebraValueError when m is not one or does not divide every term.'''
        ring, t, mt = _common(self, m)
        if len(mt) != 1 or 1 not in mt.values():
            raise AlgebraValueError(f"{m} is not a monomial with coefficient 1")
        (km,) = mt
        if any((k - km + ring.guard) & ring.guard != ring.guard for k in t):
            raise AlgebraValueError(f"{m} does not divide {self}")
        return _make(ring, {k - km: c for k, c in t.items()}) if km else self

    def divide_by_var(self, name: str) -> "MultiPoly":
        '''Exact division by a variable that divides every term.'''
        return self.divide_by_monomial(MultiPoly.var(name))

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.ring.index:
            return _ZERO
        i = self.ring.index[name]
        s, u = self.ring.shift[i], self.ring.unit[i]
        return _make(self.ring, _clean({k - u: c * (k >> s & _FIELD)
                                        for k, c in self._t.items() if k >> s & _FIELD}))

    # -- substitution and evaluation --------------------------------------

    def set_zero(self, names) -> "MultiPoly":
        '''Substitute 0 for every variable in names.'''
        mask = self.ring.mask(names)
        t = {k: c for k, c in self._t.items() if not k & mask}
        return self if len(t) == len(self._t) else _make(self.ring, t)

    def assign(self, point: Mapping[str, Fraction]) -> "MultiPoly":
        '''Substitute rational values for a subset of the variables.'''
        out = self
        for v in self.vars:
            if v in point:
                x = _coeff(point[v])
                out = sum((c.scaled(x ** k) for k, c in out.coefficients_in(v).items()), _ZERO)
        return out

    def subst_ratio(self, name: str, num: "MultiPoly", den: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        '''Substitute name -> num/den; returns (P, den**K) with self = P/den**K.'''
        by_pow = self.coefficients_in(name)
        k_max = max(by_pow, default=0)
        if k_max == 0:
            return self, _ONE
        out = _ZERO
        for k, coef in by_pow.items():
            out = out + coef * num ** k * den ** (k_max - k)
        return out, den ** k_max

    def eval(self, point: Mapping[str, object]) -> ExactScalar:
        '''Evaluate with every variable assigned to an int, a Fraction or
        an ExactScalar; AlgebraError for a missing value or one of another
        type. Every variable is a state variable of its Split, folded at the
        empty parameter vector and summed at the values by Folded.at.'''
        vs = self.vars
        try:
            x = PairVector(list(map(point.__getitem__, vs)))
        except KeyError as exc:
            raise AlgebraError(f"no value for {exc.args[0]}") from None
        return from_pair(*Folded(Split(self, vs, ()), None, PairVector(())).at(x))

    # -- division ----------------------------------------------------------

    def exact_div(self, q: "MultiPoly"):
        '''Return self/q as a MultiPoly, or None when q does not divide
        exactly; AlgebraZeroDivisionError when q is zero.'''
        if q.is_zero:
            raise AlgebraZeroDivisionError("division by zero polynomial")
        if q.is_constant:
            return self.scaled(1 / q.constant_value())
        ring, rem, qt = _common(self, q)
        rem, qe, guard = dict(rem), max(qt), ring.guard
        qc = qt[qe]
        quo: dict[int, Coeff] = {}
        while rem:
            re = max(rem)
            diff = re - qe
            if (diff + guard) & guard != guard:
                return None   # some exponent of qe exceeds re's
            c = quo[diff] = _coeff(Fraction(rem[re], qc))
            for e2, c2 in qt.items():
                tgt = diff + e2
                nv = rem.get(tgt, 0) - c * c2
                if nv:
                    rem[tgt] = nv
                else:
                    rem.pop(tgt, None)
        return _make(ring, quo)

    # -- output --------------------------------------------------------------

    def __str__(self) -> str:
        return self.text()

    def text(self, first=frozenset()) -> str:
        '''The terms in descending graded lex order; in each monomial the
        names in first come before the others, each part in ring order.'''
        if self.is_zero:
            return "0"
        pieces = []
        for k in sorted(self._t, reverse=True):
            c = self._t[k]
            fields = self.ring.fields(k)
            if first:
                fields.sort(key=lambda f: f[0] not in first)
            mono = "*".join(v if p == 1 else f"{v}^{p}" for v, p in fields)
            if not mono:
                body = rational_text(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{rational_text(abs(c))}*{mono}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


_ZERO, _ONE = _make(_EMPTY, {}), _make(_EMPTY, {0: 1})


def _multinomial(terms: list, k: int) -> dict:
    '''The packed terms of (sum of the c x^m over terms)^k: each choice of
    powers a_1 + ... + a_n = k is written once, as the coefficient
    k! / (a_1! ... a_n!) prod c_i^a_i of the monomial sum a_i m_i (a packed
    key times a is the key of the monomial's a-th power). Powers are chosen
    term by term from a stack, each as left choose a times the running
    coefficient, and a choice with nothing left ends at once.'''
    out: dict = {}
    last = len(terms) - 1
    stack = [(0, k, 0, 1)]
    while stack:
        i, left, key, coeff = stack.pop()
        if not left or i == last:
            m, c = terms[i]
            key, coeff = key + left * m, coeff * c ** left
            out[key] = out.get(key, 0) + coeff
            continue
        m, c = terms[i]
        power = 1
        for a in range(left + 1):
            stack.append((i + 1, left - a, key + a * m, coeff * math.comb(left, a) * power))
            power *= c
    return out


def _divided(p: MultiPoly, cont: Coeff) -> MultiPoly:
    '''p / cont for cont = g/q its signed content: each coefficient a/b
    becomes the integer a * (q // b) // g, an exact division.'''
    if cont == 1:
        return p
    g, q = cont.numerator, cont.denominator
    return _make(p.ring, {k: c.numerator * (q // c.denominator) // g
                          for k, c in p._t.items()})


def as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise AlgebraTypeError(f"cannot make a MultiPoly from {type(x).__name__}")


# ---------------------------------------------------------------------------
# evaluation: split once, folded per parameter point, summed per state vector
# ---------------------------------------------------------------------------

class Split:
    '''A polynomial in state variables and parameters, named in the order
    of their vectors by state and params, regrouped once as the sum over
    state monomials x^s of (sum of terms c p^e) / scale, with integer c.

    A monomial is the tuple of its indices, each repeated by its power, so
    that its degree is its length. groups maps each s to its [(e, c), ...]
    in first-seen order; pdeg and sdeg are the largest degrees of the e and
    of the s. AlgebraError when a variable is in neither state nor params.'''
    __slots__ = ("groups", "scale", "pdeg", "sdeg")

    def __init__(self, p: MultiPoly, state: Sequence[str], params: Sequence[str]):
        t = p._t
        self.scale = scale = math.lcm(*(c.denominator for c in t.values()))
        fields, other = p.ring.positions(state, params)
        if reduce(or_, t, 0) & other:
            raise AlgebraError(f"{p} holds a variable that is neither state nor parameter")
        self.groups = groups = {}
        exps, pdeg = p.ring.exps, 0
        for k, c in t.items():
            # the nonzero fields of k, highest first (ring order), as Ring.fields reads them
            s, e, k = [], [], k & exps
            while k:
                low, below, in_state, j = fields[(k.bit_length() - 1) // _WIDTH]
                (s if in_state else e).extend((j,) * (k >> low))
                k &= below
            groups.setdefault(tuple(s), []).append(
                (tuple(e), c if scale == 1 else c.numerator * (scale // c.denominator)))
            if len(e) > pdeg:
                pdeg = len(e)
        self.pdeg = pdeg
        self.sdeg = max(map(len, groups), default=0)

    def fold(self, params: PairVector) -> tuple[list, int]:
        '''The (s, a) with a != 0 and their common denominator D at rational
        parameter values: there the polynomial is the sum of the a x^s / D.'''
        out = [(s, a) for s, a, _, _ in params.sums(self.groups.items(), self.pdeg) if a]
        return out, self.scale * params.power(self.pdeg)


class Folded:
    '''A quotient of two Splits folded at one parameter point (a den of
    None is the constant 1): (sum a x^s) fn / ((sum b x^s) fd), num and den
    holding the (s, a) and the (s, b) with a, b != 0; groups are the two
    sums of at, denominator first.'''
    __slots__ = ("num", "den", "fn", "fd", "sdeg", "groups")

    def __init__(self, num: Split, den: Optional[Split], params: PairVector):
        self.num, self.fd = num.fold(params)
        self.den, self.fn = den.fold(params) if den else ([((), 1)], 1)
        self.sdeg = max(num.sdeg, den.sdeg if den else 0)
        self.groups = (("den", self.den), ("num", self.num))

    def at(self, x: PairVector) -> tuple[int, int, int, int]:
        '''(u, w, q, d), the quotient (u + w sqrt(d)) / q at the state vector
        x in lowest terms, q > 0, d = 1 when w = 0: the denominator is summed
        first (DenominatorZero when it vanishes), and the numerator's sum is
        multiplied by the conjugate of the denominator's.'''
        sums = x.sums(self.groups, self.sdeg)
        _, c, e, d = next(sums)
        if not c and not e:
            raise DenominatorZero("denominator vanishes at the evaluation point")
        _, a, b, dn = next(sums)
        return quotient(a, b, dn, c, e, d, self.fn, self.fd)


def quotient(a: int, b: int, dn: int, c: int, e: int, d: int, fn: int, fd: int
             ) -> tuple[int, int, int, int]:
    '''(u, w, q, d), the quotient (a + b sqrt(dn)) fn / ((c + e sqrt(d)) fd)
    of two sums of PairVector.sums, c + e sqrt(d) != 0, fn, fd > 0, in
    lowest terms: q > 0 and d = 1 when w = 0. The numerator is multiplied
    by the conjugate of the denominator when that is irrational, and all
    three integers are divided by their gcd. MixedExtensions when the two
    sums hold two radicands. Folded.at and the Jacobian's rate table
    (network) both end here.'''
    if b and e and dn != d:
        one_radicand((dn, d))   # raises MixedExtensions
    d = dn if b else d if e else 1
    a, b, c, e = a * fn, b * fn, c * fd, e * fd
    if e:
        a, b, c = a * c - d * b * e, b * c - a * e, c * c - d * e * e
    g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
    return a // g, b // g, c // g, d if b else 1


# ---------------------------------------------------------------------------
# univariate polynomials: dense integer coefficients, constant first
# ---------------------------------------------------------------------------

def primitive_gcd(*fs: Sequence[int]) -> list[int]:
    '''The gcd of the integer polynomials fs, each a dense list of
    coefficients constant first, as a primitive list with a positive
    leading coefficient: the primitive part of a single one, [] when every
    one is zero. Euclid on pseudo-remainders, each made primitive (the
    primitive PRS; Collins, J. ACM 14, 1967): by Gauss's lemma the last
    nonzero one is the gcd over Q made primitive. The package's one
    univariate content and gcd.'''
    g: list[int] = []
    for f in fs:
        f = _primitive(f)
        while f:
            g, f = f, _primitive(_pseudo_remainder(g, f))
    return g


def _primitive(f: Sequence[int]) -> list[int]:
    '''f without its trailing zeros over its _signed_content; [] for zero.'''
    t = {i: c for i, c in enumerate(f) if c}
    if not t:
        return []
    g = _signed_content(t)
    return [c // g for c in f[:max(t) + 1]]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    '''A remainder of lc(b)^j a on division by b (lc(b) > 0, some j >= 0),
    without trailing zeros: while its degree reaches b's, the running
    remainder r becomes lc(b) r - lc(r) x^(deg r - deg b) b.'''
    r, lb, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        c = r.pop()
        k = len(r) - db   # x^k b has the degree r had
        r = [lb * x - c * b[i - k] if i >= k else lb * x for i, x in enumerate(r)]
        while r and not r[-1]:
            r.pop()
    return r


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = as_poly(num)
        if den is None:
            self.num, self.den = num if num._t else _ZERO, _ONE
            return
        den = as_poly(den)
        if den.is_zero:
            raise DenominatorZero("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = _ZERO, _ONE
            return
        num, den = _light_cancel(num, den)
        cont = _signed_content(den._t)
        if cont != 1:
            num, den = num.scaled(1 / Fraction(cont)), _divided(den, cont)
        self.num, self.den = num, den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(MultiPoly.const(c))

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc(MultiPoly.var(name))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def variables(self) -> set[str]:
        return set(self.num.vars) | set(self.den.vars)

    def primitive(self) -> tuple[Fraction, "RatFunc"]:
        '''(c, r) with self = c r: c the content of the numerator
        (MultiPoly.content) and r self with its numerator made primitive,
        which scaling leaves in the canonical form; (0, self) for zero.'''
        if self.is_zero:
            return Fraction(0), self
        c = _signed_content(self.num._t)
        return Fraction(c), _canonical(_divided(self.num, c), self.den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        if other.den.is_constant or self.den.is_constant:   # which is then 1
            # a / d + c is (a + c d) / d. A monomial or an exact quotient
            # that the constructor's cancellation (_light_cancel) finds for
            # a + c d and d it finds for a and d, which made a / d; its
            # univariate gcd runs only when the two hold one variable in
            # all. So over a constant d, or one in two or more variables,
            # (a + c d) / d is in the constructor's form as it is.
            if other.den.is_constant:
                num, d = self.num + other.num * self.den, self.den
            else:
                num, d = self.num * other.den + other.num, other.den
            if d.is_constant or len(d.vars) > 1:
                return _canonical(num, d)
            return RatFunc(num, d)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return as_ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        if other.is_zero:
            raise DenominatorZero("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return as_ratfunc(other) / self

    def __eq__(self, other) -> bool:
        try:
            other = as_ratfunc(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    __hash__ = None

    # -- calculus / substitution -------------------------------------------

    def derivative(self, name: str) -> "RatFunc":
        n, d = self.num, self.den
        if d.is_constant:   # no quotient rule over a constant, which is 1
            return RatFunc(n.derivative(name))
        if not n.degree_in(name) and not d.degree_in(name):
            return RatFunc(_ZERO)
        return RatFunc(n.derivative(name) * d - n * d.derivative(name), d * d)

    def set_zero(self, names) -> "RatFunc":
        den0 = self.den.set_zero(names)
        if den0.is_zero:
            raise DenominatorZero(f"denominator vanishes identically on {sorted(names)}")
        return RatFunc(self.num.set_zero(names), den0)

    def assign(self, point: Mapping[str, Fraction]) -> "RatFunc":
        den = self.den.assign(point)
        if den.is_zero:
            raise DenominatorZero("denominator vanishes at the given assignment")
        return RatFunc(self.num.assign(point), den)

    def eval(self, point: Mapping[str, object]) -> ExactScalar:
        den = self.den.eval(point)
        if den.is_zero:
            raise DenominatorZero("denominator vanishes at the evaluation point")
        return self.num.eval(point) / den

    # -- output ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant and self.den.constant_value() == 1:
            return str(self.num)
        ntxt = str(self.num)
        if self.num.size > 1:
            ntxt = f"({ntxt})"
        dtxt = str(self.den)
        if self.den.size > 1 or len(self.den.vars) > 1:   # a one-term den is a monic monomial
            dtxt = f"({dtxt})"
        return f"{ntxt}/{dtxt}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _canonical(num: MultiPoly, den: MultiPoly) -> RatFunc:
    '''num / den, already in the canonical form, as a RatFunc.'''
    if not num._t:
        return RatFunc(_ZERO)
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


def as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, MultiPoly)):
        return RatFunc(x)
    raise AlgebraTypeError(f"cannot make a RatFunc from {type(x).__name__}")


def _light_cancel(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    '''Cheap common-factor removal: shared monomials, exact division, and,
    when numerator and denominator involve one variable, their primitive_gcd,
    taken on the integer coefficients of their primitive parts.'''
    if den.is_constant:
        return num, den
    ring, a, b = _common(num, den)
    shared = ring.gcd(chain(a, b))
    if shared:
        num = _make(ring, {k - shared: c for k, c in a.items()})
        den = _make(ring, {k - shared: c for k, c in b.items()})
    if den.is_constant:
        return num, den
    q = num.exact_div(den)
    if q is not None:
        return q, _ONE
    used = set(num.vars) | set(den.vars)
    if len(used) == 1:
        dense = []
        for p in (num.primitive(), den.primitive()):
            # in one variable a monomial's total degree is its power
            powers = {k >> p.ring.deg_shift: c for k, c in p._t.items()}
            dense.append([powers.get(i, 0) for i in range(max(powers) + 1)])
        g = primitive_gcd(*dense)
        if len(g) > 1:
            gp = ring.from_monomials(tuple(used), (((0,) * i, c) for i, c in enumerate(g)))
            num = num.exact_div(gp)
            den = den.exact_div(gp)
    return num, den
