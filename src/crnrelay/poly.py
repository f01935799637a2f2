"""Sparse multivariate polynomials and rational functions over Q.

MultiPoly stores {exponent tuple: coefficient} against a tuple of variable
names. A coefficient is an int when it is integral and a Fraction only when
it is not, so the integer polynomials that dominate (right-hand sides,
Jacobians, primitive elimination equations, denominators) compute on plain
ints; variables that no longer occur are dropped so that equal polynomials
compare equal regardless of how they were built. RatFunc is a quotient of two
MultiPoly in the canonical form used throughout: the denominator is primitive
(integer coefficients, gcd 1) with a positive leading coefficient in graded
lexicographic order. Only cheap cancellations are applied on top of that
(common monomials, exact division, univariate gcd); full multivariate gcd
reduction is never needed here because eliminations clear denominators first.
Split regroups a polynomial once and folds its parameter terms at a point;
Folded sums a quotient of two folds at a vector of the state variables. Every
evaluation in the package takes that path, MultiPoly.eval included; assign
stays the independent substitution on Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AlgebraError, DenominatorZero
from .scalars import ExactScalar, PairVector, from_pair, one_radicand

Coeff = int | Fraction   # int when integral
Expo = tuple[int, ...]


def _coeff(c) -> Coeff:
    '''The stored form of a coefficient: int when integral, else Fraction.'''
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise AlgebraError(f"coefficient {c!r} is not an int or a Fraction")


def _grlex_key(e: Expo):
    return (sum(e), e)


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


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[Expo, Coeff]):
        vs = tuple(vars)
        # zeros are dropped; _coeff refuses a float even when it is zero
        clean = {e: c if type(c) is int else _coeff(c)
                 for e, c in terms.items() if c or _coeff(c)}
        # drop variables that appear in no term, in one pass over the exponents
        if vs:
            used = [any(col) for col in zip(*clean)]
            if len(used) < len(vs) or not all(used):
                keep = [i for i, u in enumerate(used) if u]
                vs2 = tuple(vs[i] for i in keep)
                clean = {tuple(e[i] for i in keep): c for e, c in clean.items()}
                vs = vs2
        self.vars = vs
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly((), {(): c})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get((), 0))

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> tuple[Expo, Coeff]:
        '''Leading (exponent, coefficient) in graded lex order.'''
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def content(self) -> Fraction:
        '''gcd of the coefficients, signed so the primitive part leads positive.'''
        if self.is_zero:
            return Fraction(0)
        cont = content(self.terms.values())
        return -cont if self.leading()[1] < 0 else cont

    def primitive(self) -> "MultiPoly":
        '''self / self.content(): integer coefficients with gcd one and a
        positive leading coefficient (the zero polynomial stays zero).'''
        return self if self.is_zero else _divided(self, self.content())

    def monomial_gcd(self) -> Expo:
        '''Componentwise minimum exponent over all terms.'''
        if self.is_zero:
            return ()
        it = iter(self.terms)
        low = list(next(it))
        for e in it:
            for i, k in enumerate(e):
                if k < low[i]:
                    low[i] = k
        return tuple(low)

    # -- alignment ----------------------------------------------------------

    def _on(self, vs: tuple[str, ...]) -> dict[Expo, Coeff]:
        '''Terms re-keyed onto the variable tuple vs (a superset of
        self.vars); the terms themselves when vs is self.vars.'''
        if vs == self.vars:
            return self.terms
        pos = [vs.index(v) for v in self.vars]
        out: dict[Expo, Coeff] = {}
        n = len(vs)
        for e, c in self.terms.items():
            ne = [0] * n
            for i, k in enumerate(e):
                ne[pos[i]] = k
            out[tuple(ne)] = c
        return out

    def _merge_vars(self, other: "MultiPoly") -> tuple[str, ...]:
        if self.vars == other.vars:
            return self.vars
        return tuple(sorted(set(self.vars) | set(other.vars)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = as_poly(other)
        vs = self._merge_vars(other)
        t = dict(self._on(vs))
        for e, c in other._on(vs).items():
            t[e] = t.get(e, 0) + c
        return MultiPoly(vs, t)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = as_poly(other)
        vs = self._merge_vars(other)
        a = self._on(vs)
        b = other._on(vs)
        out: dict[Expo, Coeff] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE if k == 0 else self
        for _ in range(k - 1):
            out = out * self
        return out

    def scaled(self, c) -> "MultiPoly":
        if c == 1:
            return self
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable-dict payload; equality is semantic

    # -- structure ------------------------------------------------------

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        '''View self as a polynomial in one variable: {power: coefficient poly}.'''
        if name not in self.vars:
            return {0: self} if not self.is_zero else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[Expo, Coeff]] = {}
        for e, c in self.terms.items():
            k = e[i]
            re = e[:i] + e[i + 1:]
            buckets.setdefault(k, {})[re] = c
        return {k: MultiPoly(rest, t) for k, t in buckets.items()}

    def divide_by_var(self, name: str) -> "MultiPoly":
        '''Exact division by a variable that divides every term.'''
        i = self.vars.index(name)
        if any(e[i] == 0 for e in self.terms):
            raise ValueError(f"{name} does not divide {self}")
        t = {e[:i] + (e[i] - 1,) + e[i + 1:]: c for e, c in self.terms.items()}
        return MultiPoly(self.vars, t)

    def divide_by_monomial(self, expo: Expo) -> "MultiPoly":
        t = {tuple(a - b for a, b in zip(e, expo)): c for e, c in self.terms.items()}
        return MultiPoly(self.vars, t)

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return _ZERO
        i = self.vars.index(name)
        out: dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
        return MultiPoly(self.vars, out)

    # -- substitution and evaluation --------------------------------------

    def set_zero(self, names) -> "MultiPoly":
        '''Substitute 0 for every variable in names.'''
        names = set(names) & set(self.vars)
        if not names:
            return self
        idx = [self.vars.index(n) for n in names]
        t = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return MultiPoly(self.vars, t)

    def assign(self, point: Mapping[str, Fraction]) -> "MultiPoly":
        '''Substitute rational values for a subset of the variables.'''
        hit = [(i, _coeff(point[v])) for i, v in enumerate(self.vars) if v in point]
        if not hit:
            return self
        rest = sorted((v, i) for i, v in enumerate(self.vars) if v not in point)
        out: dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            for i, x in hit:
                if e[i]:
                    c = c * x ** e[i]
            if c:
                key = tuple(e[i] for _, i in rest)
                out[key] = out.get(key, 0) + c
        return MultiPoly(tuple(v for v, _ in rest), out)

    def subst_ratio(self, name: str, num: "MultiPoly", den: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        '''Substitute name -> num/den; returns (P, den**K) with self = P/den**K.'''
        k_max = self.degree_in(name)
        if k_max == 0:
            return self, _ONE
        by_pow = self.coefficients_in(name)
        out = _ZERO
        for k, coef in by_pow.items():
            out = out + coef * num ** k * den ** (k_max - k)
        return out, den ** k_max

    def eval(self, point: Mapping[str, object]) -> ExactScalar:
        '''Evaluate with every variable assigned to an int, a Fraction or
        an ExactScalar; AlgebraError for a missing value or one of another
        type. Every variable is a state variable of its Split, folded at the
        empty parameter vector and summed at the values by Folded.at.'''
        try:
            x = PairVector(list(map(point.__getitem__, self.vars)))
        except KeyError as exc:
            raise AlgebraError(f"no value for {exc.args[0]}") from None
        return from_pair(*Folded(Split(self, self.vars, ()), None, PairVector(())).at(x))

    # -- division ----------------------------------------------------------

    def exact_div(self, q: "MultiPoly"):
        '''Return self/q as a MultiPoly, or None when q does not divide exactly.'''
        if q.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if q.is_constant:
            return self.scaled(1 / q.constant_value())
        vs = self._merge_vars(q)
        rem = dict(self._on(vs))
        qt = q._on(vs)
        qe = max(qt, key=_grlex_key)
        qc = qt[qe]
        quo: dict[Expo, Coeff] = {}
        while rem:
            re = max(rem, key=_grlex_key)
            diff = tuple(a - b for a, b in zip(re, qe))
            if any(x < 0 for x in diff):
                return None
            c = _coeff(Fraction(rem[re], qc))
            quo[diff] = quo.get(diff, 0) + c
            for e2, c2 in qt.items():
                tgt = tuple(a + b for a, b in zip(diff, e2))
                nv = rem.get(tgt, 0) - c * c2
                if nv:
                    rem[tgt] = nv
                else:
                    rem.pop(tgt, None)
        return MultiPoly(vs, quo)

    # -- output --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e) if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


_ZERO, _ONE = MultiPoly((), {}), MultiPoly((), {(): 1})


def _divided(p: MultiPoly, cont: Fraction) -> MultiPoly:
    '''p / cont for cont = g/q its signed content: each coefficient a/b
    becomes the integer a * (q // b) // g, an exact division.'''
    if cont == 1:
        return p
    g, q = cont.numerator, cont.denominator
    return MultiPoly(p.vars, {e: c.numerator * (q // c.denominator) // g
                              for e, c in p.terms.items()})


def as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise TypeError(f"cannot make a MultiPoly from {type(x).__name__}")


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
    of the s.'''
    __slots__ = ("groups", "scale", "pdeg", "sdeg")

    def __init__(self, p: MultiPoly, state: Sequence[str], params: Sequence[str]):
        self.scale = math.lcm(*(c.denominator for c in p.terms.values()))
        si, pi = {v: i for i, v in enumerate(state)}, {v: j for j, v in enumerate(params)}
        spos = [(i, si[name]) for i, name in enumerate(p.vars) if name in si]
        ppos = [(i, pi[name]) for i, name in enumerate(p.vars) if name not in si]
        self.groups: dict = {}
        for e, c in p.terms.items():
            c = c.numerator * (self.scale // c.denominator)
            self.groups.setdefault(_monomial(e, spos), []).append((_monomial(e, ppos), c))
        self.pdeg = max((len(pe) for terms in self.groups.values() for pe, _ in terms), default=0)
        self.sdeg = max(map(len, self.groups), default=0)

    def fold(self, params: PairVector) -> tuple[list, int]:
        '''The (s, a) with a != 0 and their common denominator D at rational
        parameter values: there the polynomial is the sum of the a x^s / D.'''
        out = [(s, a) for s, a, _, _ in params.sums(self.groups.items(), self.pdeg) if a]
        return out, self.scale * params.power(self.pdeg)


def _monomial(e, pos) -> tuple[int, ...]:
    '''The exponents e[i] of the (i, index) in pos as a repeated-index tuple.'''
    return tuple(j for i, j in pos for _ in range(e[i]))


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
        d = one_radicand((dn if b else 1, d if e else 1))
        a, b, c, e = a * self.fn, b * self.fn, c * self.fd, e * self.fd
        if e:
            a, b, c = a * c - d * b * e, b * c - a * e, c * c - d * e * e
        g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
        return a // g, b // g, c // g, d if b else 1


# ---------------------------------------------------------------------------
# univariate helpers (dense, constant-first)
# ---------------------------------------------------------------------------

def to_dense(p: MultiPoly, name: str) -> list[Fraction]:
    '''Dense constant-first coefficients of a polynomial in name alone.'''
    extra = set(p.vars) - {name}
    if extra:
        raise ValueError(f"{p} is not univariate in {name} (also uses {sorted(extra)})")
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    for e, c in p.terms.items():
        out[e[0] if e else 0] = Fraction(c)
    return out


def from_dense(coeffs: list[Fraction], name: str) -> MultiPoly:
    return MultiPoly((name,), {(i,): c for i, c in enumerate(coeffs) if c})


def dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    '''Monic gcd of two dense univariate polynomials over Q.'''
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = strip(list(a)), strip(list(b))
    while b:
        # a mod b
        r = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(r) - 1 >= db and strip(r):
            dr = len(r) - 1
            f = Fraction(r[-1], lb)
            for i in range(db + 1):
                r[dr - db + i] -= f * b[i]
            strip(r)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [Fraction(c, lead) for c in a]
    return a


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = as_poly(num)
        den = as_poly(den) if den is not None else _ONE
        if den.is_zero:
            raise DenominatorZero("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = _ZERO, _ONE
            return
        num, den = _light_cancel(num, den)
        cont = den.content()
        if cont != 1:
            num, den = num.scaled(1 / cont), _divided(den, cont)
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

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
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
        if name not in n.vars and name not in d.vars:
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
        if len(self.num.terms) > 1:
            ntxt = f"({ntxt})"
        dtxt = str(self.den)
        if len(self.den.terms) > 1:
            dtxt = f"({dtxt})"
        return f"{ntxt}/{dtxt}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, MultiPoly)):
        return RatFunc(x)
    raise TypeError(f"cannot make a RatFunc from {type(x).__name__}")


def _light_cancel(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    '''Cheap common-factor removal: shared monomials, exact division, and a
    univariate gcd when numerator and denominator involve one variable.'''
    if den.is_constant:
        return num, den
    # shared monomial factor
    vs = tuple(sorted(set(num.vars) | set(den.vars)))
    gn = dict(zip(num.vars, num.monomial_gcd()))
    gd = dict(zip(den.vars, den.monomial_gcd()))
    shared = {v: min(gn.get(v, 0), gd.get(v, 0)) for v in vs}
    if any(shared.values()):
        num = num.divide_by_monomial(tuple(shared.get(v, 0) for v in num.vars))
        den = den.divide_by_monomial(tuple(shared.get(v, 0) for v in den.vars))
    if den.is_constant:
        return num, den
    q = num.exact_div(den)
    if q is not None:
        return q, _ONE
    used = set(num.vars) | set(den.vars)
    if len(used) == 1:
        (v,) = used
        g = dense_gcd(to_dense(num, v), to_dense(den, v))
        if len(g) > 1:
            gp = from_dense(g, v)
            num = num.exact_div(gp)
            den = den.exact_div(gp)
    return num, den
