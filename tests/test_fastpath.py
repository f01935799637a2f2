"""The rational fast paths of ExactScalar and MultiPoly.eval against the
generic Q(sqrt(d)) formulas, a direct Fraction evaluation and sympy."""

import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from crnrelay.errors import MixedExtensions
from crnrelay.poly import MultiPoly
from crnrelay.scalars import ExactScalar, exact

SETTINGS = settings(max_examples=50)  # the rest comes from the tier1 profile

VARS = ("x", "y", "z")

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=30)
nonzero = fractions.filter(bool)
discriminants = st.sampled_from([2, 3, 5, 6, 7, 10, 13])
rationals = fractions.map(exact)


@st.composite
def irrationals(draw, d=discriminants):
    return ExactScalar(draw(fractions), draw(nonzero), draw(d))


@st.composite
def polys(draw):
    vs = tuple(sorted(draw(st.sets(st.sampled_from(VARS), min_size=1))))
    expos = st.tuples(*[st.integers(0, 3)] * len(vs))
    return MultiPoly(vs, draw(st.dictionaries(expos, fractions, max_size=6)))


# -- the generic formulas, field by field ----------------------------------

def generic(op, x, y):
    if x.b and y.b and x.d != y.d:
        raise MixedExtensions("two extensions")
    d = x.d if x.b else y.d
    if op is operator.sub:
        op, y = operator.add, ExactScalar(-y.a, -y.b, y.d)
    if op is operator.add:
        return x.a + y.a, x.b + y.b, d if x.b + y.b else 1
    b = x.a * y.b + x.b * y.a
    return x.a * y.a + x.b * y.b * d, b, d if b else 1


def fields(x):
    return x.a, x.b, x.d


OPS = [operator.add, operator.sub, operator.mul]


@pytest.mark.parametrize("op", OPS)
@SETTINGS
@given(x=rationals, y=rationals)
def test_rational_operands_match_the_generic_formula(op, x, y):
    got = op(x, y)
    assert fields(got) == generic(op, x, y)
    assert got.b == 0 and got.d == 1 and type(got.a) is Fraction
    assert fields(-x) == (-x.a, 0, 1)
    assert fields(op(x, y.a)) == fields(got)  # a plain Fraction operand
    if y.a:
        assert (x / y).a == x.a / y.a and (x / y).b == 0


@pytest.mark.parametrize("op", OPS)
@SETTINGS
@given(x=rationals, y=irrationals())
def test_rational_with_irrational_is_generic(op, x, y):
    assert fields(op(x, y)) == generic(op, x, y)
    assert fields(op(y, x)) == generic(op, y, x)
    assert fields(-y) == (-y.a, -y.b, y.d)
    assert x / y * y == x


@SETTINGS
@given(x=irrationals(d=st.just(2)), y=irrationals(d=st.just(3)))
def test_two_extensions_still_raise(x, y):
    for op in OPS + [operator.truediv]:
        with pytest.raises(MixedExtensions):
            op(x, y)


# -- MultiPoly.eval ----------------------------------------------------------

def direct(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        for v, k in zip(p.vars, e):
            c *= point[v] ** k
        total += c
    return total


def to_sympy(p):
    syms = sympy.symbols(p.vars)
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                for e, c in p.terms.items()), sympy.Integer(0)), syms


def sympy_value(x):
    return (sympy.Rational(x.a.numerator, x.a.denominator) +
            sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d))


@SETTINGS
@given(p=polys(), vals=st.tuples(fractions, fractions, fractions))
def test_eval_at_rational_points(p, vals):
    point = dict(zip(VARS, vals))
    got = p.eval(point)
    assert got.b == 0 and type(got.a) is Fraction
    assert got.a == direct(p, point)
    expr, syms = to_sympy(p)
    want = expr.subs({s: sympy.Rational(point[str(s)].numerator,
                                        point[str(s)].denominator) for s in syms})
    assert sympy.Rational(got.a.numerator, got.a.denominator) == want
    # values given as ExactScalar take the same path
    assert p.eval({v: exact(q) for v, q in point.items()}) == got


def generic_eval(p, point):
    total = exact(0)
    for e, c in p.terms.items():
        term = exact(c)
        for v, k in zip(p.vars, e):
            term = term * exact(point[v]) ** k
        total = total + term
    return total


@SETTINGS
@given(p=polys(), r=irrationals(), vals=st.tuples(fractions, fractions))
def test_eval_at_quadratic_points(p, r, vals):
    point = dict(zip(VARS, (r,) + vals))
    got = p.eval(point)
    assert got == generic_eval(p, point)
    expr, syms = to_sympy(p)
    want = expr.subs({s: sympy_value(exact(point[str(s)])) for s in syms})
    assert sympy.expand(want - sympy_value(got)) == 0
