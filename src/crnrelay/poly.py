"""Sparse multivariate polynomials and rational functions over Q.

MultiPoly stores {exponent tuple: Fraction} against a tuple of variable
names; variables that no longer occur are dropped so that equal polynomials
compare equal regardless of how they were built. RatFunc is a quotient of two
MultiPoly in the canonical form used throughout: the denominator is primitive
(integer coefficients, gcd 1) with a positive leading coefficient in graded
lexicographic order. Only cheap cancellations are applied on top of that
(common monomials, exact division, univariate gcd); full multivariate gcd
reduction is never needed here because eliminations clear denominators first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DenominatorZero
from .scalars import ExactScalar, exact

Coeff = Fraction
Expo = tuple[int, ...]


def _grlex_key(e: Expo):
    return (sum(e), e)


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[Expo, Coeff]):
        vs = tuple(vars)
        clean = {e: c if isinstance(c, Fraction) else Fraction(c)
                 for e, c in terms.items() if c}
        # drop variables that appear in no term
        if vs:
            used = [any(e[i] for e in clean) for i in range(len(vs))]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                vs2 = tuple(vs[i] for i in keep)
                clean = {tuple(e[i] for i in keep): c for e, c in clean.items()}
                vs = vs2
        self.vars = vs
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

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
        return self.terms.get((), Fraction(0))

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
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, abs(c.numerator * (den_lcm // c.denominator)))
        cont = Fraction(g, den_lcm)
        if self.leading()[1] < 0:
            cont = -cont
        return cont

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
        '''Re-key terms onto the variable tuple vs (a superset of self.vars).'''
        if vs == self.vars:
            return dict(self.terms)
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
        t = self._on(vs)
        for e, c in other._on(vs).items():
            t[e] = t.get(e, Fraction(0)) + c
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
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def scaled(self, c) -> "MultiPoly":
        c = Fraction(c)
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
            return MultiPoly.const(0)
        i = self.vars.index(name)
        out: dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, Fraction(0)) + c * e[i]
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
        hit = [v for v in self.vars if v in point]
        if not hit:
            return self
        out = MultiPoly.const(0)
        for e, c in self.terms.items():
            f = Fraction(c)
            rest: dict[str, int] = {}
            for v, k in zip(self.vars, e):
                if k == 0:
                    continue
                if v in point:
                    f *= Fraction(point[v]) ** k
                else:
                    rest[v] = k
            if f == 0:
                continue
            vs = tuple(sorted(rest))
            mono = MultiPoly(vs, {tuple(rest[v] for v in vs): f})
            out = out + mono
        return out

    def subst_poly(self, name: str, rep: "MultiPoly") -> "MultiPoly":
        '''Substitute a polynomial for one variable.'''
        if name not in self.vars:
            return self
        out = MultiPoly.const(0)
        for k, coef in self.coefficients_in(name).items():
            out = out + coef * rep ** k
        return out

    def subst_ratio(self, name: str, num: "MultiPoly", den: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        '''Substitute name -> num/den; returns (P, den**K) with self = P/den**K.'''
        k_max = self.degree_in(name)
        if k_max == 0:
            return self, MultiPoly.const(1)
        by_pow = self.coefficients_in(name)
        out = MultiPoly.const(0)
        for k, coef in by_pow.items():
            out = out + coef * num ** k * den ** (k_max - k)
        return out, den ** k_max

    def eval(self, point: Mapping[str, object]) -> ExactScalar:
        '''Evaluate with every variable assigned (values coerce to ExactScalar).

        At a point where every value is rational the sum is taken in Fraction
        and wrapped once; a point in Q(sqrt(d)) uses ExactScalar arithmetic.'''
        vals = []
        for v in self.vars:
            if v not in point:
                raise KeyError(f"no value for {v}")
            vals.append(exact(point[v]))
        if not any(x.b for x in vals):
            vals = [x.a for x in vals]
        total = 0   # the int adds to a Fraction and to an ExactScalar alike
        pow_cache: dict[tuple[int, int], object] = {}
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                key = (i, k)
                if key not in pow_cache:
                    pow_cache[key] = vals[i] ** k
                term = term * pow_cache[key]
            total = total + term
        return exact(total)

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
            c = rem[re] / qc
            quo[diff] = quo.get(diff, Fraction(0)) + c
            for e2, c2 in qt.items():
                tgt = tuple(a + b for a, b in zip(diff, e2))
                nv = rem.get(tgt, Fraction(0)) - c * c2
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


def as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise TypeError(f"cannot make a MultiPoly from {type(x).__name__}")


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
        out[e[0] if e else 0] = c
    if not p.vars and not p.is_zero:
        out[0] = p.constant_value()
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
            f = r[-1] / lb
            for i in range(db + 1):
                r[dr - db + i] -= f * b[i]
            strip(r)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = as_poly(num)
        den = as_poly(den) if den is not None else MultiPoly.const(1)
        if den.is_zero:
            raise DenominatorZero("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = MultiPoly.const(0), MultiPoly.const(1)
            return
        num, den = _light_cancel(num, den)
        cont = den.content()
        self.num = num.scaled(1 / cont)
        self.den = den.scaled(1 / cont)

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

    def substitute(self, name: str, rep: "RatFunc") -> "RatFunc":
        rep = as_ratfunc(rep)
        n, nden = self.num.subst_ratio(name, rep.num, rep.den)
        d, dden = self.den.subst_ratio(name, rep.num, rep.den)
        # self = (n/nden) / (d/dden) = n*dden / (d*nden)
        if d.is_zero:
            raise DenominatorZero(f"denominator vanishes after substituting {name}")
        return RatFunc(n * dden, d * nden)

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
        return q, MultiPoly.const(1)
    used = set(num.vars) | set(den.vars)
    if len(used) == 1:
        (v,) = used
        g = dense_gcd(to_dense(num, v), to_dense(den, v))
        if len(g) > 1:
            gp = from_dense(g, v)
            num = num.exact_div(gp)
            den = den.exact_div(gp)
    return num, den


# ---------------------------------------------------------------------------
# public functional API
# ---------------------------------------------------------------------------

Func = Union[MultiPoly, RatFunc]


def differentiate(f: Func, name: str) -> Func:
    '''Exact partial derivative of a polynomial or rational function.'''
    return f.derivative(name)


def evaluate(f: Func, point: Mapping[str, object]) -> ExactScalar:
    '''Exact evaluation with every variable assigned; raises DenominatorZero
    when the denominator vanishes at the point.'''
    return f.eval(point)
