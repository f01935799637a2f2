import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crnrelay.errors import DenominatorZero
from crnrelay.poly import (MultiPoly, RatFunc, as_poly, content, dense_gcd,
                           from_dense, to_dense)


def rand_poly(rng, names, max_terms=5, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in names)
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(names, terms)


def rand_point(rng, f):
    return {v: Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for v in (f.variables() if isinstance(f, RatFunc) else f.vars)}


def test_constructors_and_zero():
    z = MultiPoly.const(0)
    assert z.is_zero and z.vars == ()
    x = MultiPoly.var("x")
    assert x.degree_in("x") == 1 and not x.is_zero
    # unused variables are dropped from the support
    p = MultiPoly(("x", "y"), {(2, 0): Fraction(1)})
    assert p.vars == ("x",)


def test_ring_axioms_via_evaluation():
    rng = random.Random(1)
    names = ("x", "y", "z")
    for _ in range(150):
        f, g, h = (rand_poly(rng, names) for _ in range(3))
        pt = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for v in names}
        lhs = ((f + g) * h).eval(pt)
        rhs = (f * h).eval(pt) + (g * h).eval(pt)
        assert lhs == rhs
        assert (f * g).eval(pt) == (g * f).eval(pt)
        assert (f - f).eval(pt).is_zero


def test_derivative_product_rule():
    rng = random.Random(2)
    names = ("x", "y")
    for _ in range(100):
        f, g = rand_poly(rng, names), rand_poly(rng, names)
        d_fg = (f * g).derivative("x")
        rule = f.derivative("x") * g + f * g.derivative("x")
        assert (d_fg - rule).is_zero


def test_set_zero_and_subst():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * x * y + y + MultiPoly.const(3)
    assert p.set_zero({"x"}) == y + MultiPoly.const(3)
    assert p.set_zero({"y"}).constant_value() == 3


def test_dense_roundtrip_and_gcd():
    rng = random.Random(3)
    for _ in range(80):
        g = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [Fraction(1)]
        a = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [Fraction(1)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [Fraction(1)]

        def mul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return out

        ga, gb = mul(g, a), mul(g, b)
        d = dense_gcd(ga, gb)
        # the common factor g divides the computed gcd
        assert len(d) >= len(g)
        pg = from_dense(d, "t")
        assert from_dense(ga, "t").exact_div(pg) is not None
        assert from_dense(gb, "t").exact_div(pg) is not None


def test_to_dense_requires_single_variable():
    p = MultiPoly(("x", "y"), {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        to_dense(p, "x")


def test_ratfunc_cancellation_is_sound():
    rng = random.Random(4)
    names = ("x", "y")
    for _ in range(120):
        n, d = rand_poly(rng, names), rand_poly(rng, names)
        if d.is_zero:
            continue
        c = rand_poly(rng, names, max_terms=2, max_deg=1)
        if c.is_zero:
            continue
        f = RatFunc(n * c, d * c)
        g = RatFunc(n, d)
        pt = rand_point(rng, f)
        pt.update(rand_point(rng, g))
        try:
            assert (f - g).eval(pt).is_zero
        except DenominatorZero:
            pass


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(DenominatorZero):
        RatFunc(MultiPoly.var("x"), MultiPoly.const(0))


def test_ratfunc_arithmetic_matches_fraction_oracle():
    rng = random.Random(5)
    x = RatFunc.var("x")
    one = RatFunc.const(1)
    f = (x * x - one) / (x + one)   # cancels to x - 1
    assert f.num == (MultiPoly.var("x") - MultiPoly.const(1))
    for _ in range(50):
        v = Fraction(rng.randint(2, 30), rng.randint(1, 7))
        got = f.eval({"x": v})
        assert got.to_fraction() == v - 1


def test_evaluate_detects_pole():
    x = RatFunc.var("x")
    f = RatFunc.const(1) / (x - RatFunc.const(2))
    with pytest.raises(DenominatorZero):
        f.eval({"x": Fraction(2)})


def test_as_poly_accepts_ints():
    assert as_poly(3).constant_value() == 3


@given(st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=60),
                min_size=1, max_size=8).filter(any))
def test_content_leaves_coprime_integers(cs):
    g = content(cs)
    ints = [c / g for c in cs]
    assert g > 0 and all(x.denominator == 1 for x in ints)
    assert math.gcd(*(x.numerator for x in ints)) == 1
    # MultiPoly.content signs it so that the primitive part leads positive
    lead = next(c for c in reversed(cs) if c)
    assert from_dense(cs, "t").content() == (g if lead > 0 else -g)


def test_content_of_nothing_is_zero():
    assert content([]) == 0 and content([Fraction(0)] * 3) == 0
    assert MultiPoly.const(0).content() == 0
