import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory.multinomial import multinomial_coefficients
from hypothesis import example, given, settings, strategies as st

from crnrelay.errors import AlgebraError, DenominatorZero
from crnrelay.poly import _LIMIT, MultiPoly, RatFunc, as_poly, content, primitive_gcd, ring_of


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


def mul(p, q):
    '''The product of two dense coefficient lists, constant first.'''
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def dense_expr(f, x):
    return sum((c * x ** i for i, c in enumerate(f)), sympy.Integer(0))


def test_primitive_gcd_keeps_a_common_factor():
    x = SYMS["x"]
    rng = random.Random(3)
    for _ in range(80):
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.choice((-3, -1, 2))]
        fs = [mul(g, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
              for _ in range(rng.randint(1, 3))]
        d = primitive_gcd(*fs)
        # the common factor divides the gcd, and the gcd divides every input
        assert len(d) >= len(g)
        assert sympy.rem(dense_expr(d, x), dense_expr(g, x), x) == 0
        assert all(sympy.rem(dense_expr(f, x), dense_expr(d, x), x) == 0 for f in fs)


def test_ratfunc_cancels_a_univariate_gcd():
    x = MultiPoly.var("x")
    r = RatFunc(x ** 2 - 1, x ** 2 - 2 * x + 1)
    assert (r.num, r.den) == (x + 1, x - 1)


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
    p = MultiPoly(("t",), {(i,): c for i, c in enumerate(cs)})
    assert p.content() == (g if lead > 0 else -g)


def test_content_of_nothing_is_zero():
    assert content([]) == 0 and content([Fraction(0)] * 3) == 0
    assert MultiPoly.const(0).content() == 0


# -- int/Fraction coefficients against sympy ----------------------------------

SETTINGS = settings(max_examples=40)  # the rest comes from the tier1 profile
VARS = ("x", "y")
SYMS = dict(zip(VARS, sympy.symbols(VARS)))

coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=6))
values = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_terms=4):
    vs = tuple(sorted(draw(st.sets(st.sampled_from(VARS), max_size=2))))
    expos = st.tuples(*[st.integers(0, 3)] * len(vs))
    return MultiPoly(vs, draw(st.dictionaries(expos, coeffs, max_size=max_terms)))


nonzero_polys = polys().filter(lambda p: not p.is_zero)


def stored_coefficients_are_exact(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def sym(p):
    if isinstance(p, RatFunc):
        return sym(p.num) / sym(p.den)
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.Mul(*[SYMS[v] ** k for v, k in zip(p.vars, e)])
                for e, c in p.terms.items()), sympy.Integer(0))


def same(p, expr):
    assert stored_coefficients_are_exact(p)
    assert sympy.expand(sym(p) - expr) == 0


def rat(q):
    return sympy.Rational(q.numerator, q.denominator)


@SETTINGS
@given(f=polys(), g=polys(), q=values)
def test_poly_operations_match_sympy(f, g, q):
    x, y = SYMS["x"], SYMS["y"]
    same(f, sym(f))
    same(f + g, sym(f) + sym(g))
    same(f - g, sym(f) - sym(g))
    same(f * g, sym(f) * sym(g))
    same(f.derivative("x"), sympy.diff(sym(f), x))
    same(f.set_zero({"y"}), sym(f).subs(y, 0))
    same(f.assign({"x": q}), sym(f).subs(x, rat(q)))
    same(f.scaled(q), sym(f) * rat(q))
    assert f.scaled(1) is f
    point = {"x": q, "y": q + 1}
    assert rat(f.eval(point).to_fraction()) == sym(f).subs({x: rat(q), y: rat(q + 1)})


@SETTINGS
@given(f=polys(), num=polys(max_terms=2), den=nonzero_polys)
def test_subst_ratio_matches_sympy(f, num, den):
    p, d = f.subst_ratio("x", num, den)
    k = f.degree_in("x")
    same(d, sym(den) ** k)
    same(p, sympy.cancel(sym(f).subs(SYMS["x"], sym(num) / sym(den)) * sym(den) ** k))


@SETTINGS
@given(f=polys(), g=nonzero_polys, h=polys(max_terms=2))
def test_exact_div_matches_sympy(f, g, h):
    q = (f * g).exact_div(g)
    assert q is not None
    same(q, sym(f))
    # f*g + h is divisible by g exactly when sympy leaves no remainder
    quotient = (f * g + h).exact_div(g)
    _, rem = sympy.div(sym(f * g + h), sym(g), *SYMS.values())
    assert (quotient is None) == (rem != 0)
    if quotient is not None:
        same(quotient, sympy.cancel(sym(f * g + h) / sym(g)))


@settings(max_examples=25)
@given(f=polys(), g=nonzero_polys, h=nonzero_polys, q=values)
def test_ratfunc_operations_match_sympy(f, g, h, q):
    a, b = RatFunc(f, g), RatFunc(h, g + h)
    for r, expr in ((a, sym(f) / sym(g)), (a + b, sym(f) / sym(g) + sym(b)),
                    (a * b, sym(f) / sym(g) * sym(b)),
                    (a.derivative("y"), sympy.diff(sym(a), SYMS["y"]))):
        assert stored_coefficients_are_exact(r.num) and stored_coefficients_are_exact(r.den)
        assert sympy.cancel(sym(r) - expr) == 0
        # the denominator is primitive: integer coefficients, content one
        assert r.den.content() == 1 and all(type(c) is int for c in r.den.terms.values())
    try:
        got = a.eval({"x": q, "y": q + 1}).to_fraction()
    except DenominatorZero:
        assert sym(g).subs({SYMS["x"]: rat(q), SYMS["y"]: rat(q + 1)}) == 0
    else:
        assert rat(got) == sym(a).subs({SYMS["x"]: rat(q), SYMS["y"]: rat(q + 1)})


_X, _Y = MultiPoly.var("x"), MultiPoly.var("y")


@SETTINGS
@given(f=polys(), g=nonzero_polys, c=polys(), q=values)
# (x+1)(xy+2y+1) / ((x+1)(x+2)) keeps its factor x+1, which no cheap
# cancellation finds in two variables; less y (x+1)(x+2), the sum leaves x
# alone, and then the univariate gcd takes it out
@example(f=(_X + 1) * (_Y * (_X + 2) + 1), g=(_X + 1) * (_X + 2), c=-_Y, q=Fraction(1))
def test_adding_a_constant_denominator_side_gives_the_constructors_form(f, g, c, q):
    """A sum with a side over a constant denominator skips the constructor's
    cancellation where it could find nothing (poly.RatFunc.__add__); its
    numerator and denominator are the constructor's, term for term."""
    a = RatFunc(f, g)
    for side in (RatFunc(c), RatFunc(c * q)):
        want = RatFunc(a.num + side.num * a.den, a.den)
        for got in (a + side, side + a, a - (-side)):
            assert (got.num.vars, got.num.terms) == (want.num.vars, want.num.terms)
            assert (got.den.vars, got.den.terms) == (want.den.vars, want.den.terms)


@SETTINGS
@given(f=polys(max_terms=6))
def test_primitive_matches_scaling_by_one_over_content(f):
    got = f.primitive()
    assert got.vars == f.vars
    if f.is_zero:
        assert got.is_zero
        return
    want = f.scaled(1 / f.content())
    assert got.vars == want.vars and got.terms == want.terms
    assert list(got.terms) == list(want.terms)
    assert all(type(c) is int for c in got.terms.values())
    assert got.content() == 1 and got.leading()[1] > 0


@SETTINGS
@given(f=polys())
def test_queries_return_fractions(f):
    assert type(f.content()) is Fraction and type(content(f.terms.values())) is Fraction
    c = f.set_zero(VARS)
    assert type(c.constant_value()) is Fraction
    assert type(RatFunc(c, MultiPoly.const(3)).constant_value()) is Fraction


small_ints = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


@SETTINGS
@given(fs=st.lists(small_ints, min_size=1, max_size=4),
       g=small_ints.filter(lambda g: len(g) > 1 and g[-1]))
def test_primitive_gcd_of_integer_lists_matches_sympy(fs, g):
    x = SYMS["x"]
    fs = [mul(g, f) for f in fs]
    got = primitive_gcd(*fs)
    assert all(type(c) is int for c in got)
    want = sympy.gcd_list([dense_expr(f, x) for f in fs])
    if want == 0:
        assert got == [] and not any(c for f in fs for c in f)
        return
    # primitive, leading positive, dividing every input, and sympy's gcd
    assert got[-1] > 0 and math.gcd(*got) == 1
    assert all(sympy.rem(dense_expr(f, x), dense_expr(got, x), x) == 0 for f in fs)
    want = sympy.Poly(want, x).primitive()[1]
    assert sympy.Poly(dense_expr(got, x), x) == (want if want.LC() > 0 else -want)


def test_primitive_gcd_of_one_list_and_of_zeros():
    assert primitive_gcd([6, -4, 0, -2, 0]) == [-3, 2, 0, 1]
    assert primitive_gcd([0, 0], [], [0]) == [] and primitive_gcd() == []
    assert primitive_gcd([0, 0], [4, 2]) == [2, 1]
    assert primitive_gcd([-5]) == [1] and primitive_gcd([2, 4], [3]) == [1]


univariate = st.dictionaries(st.tuples(st.integers(0, 4)), coeffs, min_size=1, max_size=4).map(
    lambda t: MultiPoly(("x",), t))


@SETTINGS
@given(n=univariate, d=univariate.filter(lambda p: not p.is_zero), g=univariate.filter(
    lambda p: not p.is_zero))
def test_univariate_ratfunc_numerator_and_denominator_are_coprime(n, d, g):
    r = RatFunc(n * g, d * g)
    assert sympy.gcd(sym(r.num), sym(r.den)).is_number
    assert sympy.cancel(sym(r) - sym(n) / sym(d)) == 0
    assert r.den.content() == 1 and r.den.leading()[1] > 0


def test_integral_coefficients_are_stored_as_int():
    p = MultiPoly(("x",), {(1,): Fraction(4, 2), (0,): Fraction(1, 3)})
    assert p.terms == {(1,): 2, (0,): Fraction(1, 3)}
    assert type(p.terms[(1,)]) is int
    assert type(MultiPoly.const(True).terms[()]) is int


@pytest.mark.parametrize("make", [
    lambda: MultiPoly.const(0.1),
    lambda: MultiPoly.const(0.0),
    lambda: MultiPoly(("x",), {(1,): 0.5}),
    lambda: RatFunc.const(1.0),
    lambda: MultiPoly.var("x").scaled(0.5),
    lambda: MultiPoly.var("x").assign({"x": 0.5}),
    lambda: MultiPoly.const("1"),
    lambda: MultiPoly.const(None),
    lambda: MultiPoly.var("x").eval({"x": 0.5}),
])
def test_coefficients_must_be_int_or_fraction(make):
    with pytest.raises(AlgebraError):
        make()


def test_eval_needs_every_value():
    with pytest.raises(AlgebraError, match="no value for y"):
        (MultiPoly.var("x") * MultiPoly.var("y")).eval({"x": 1})


# -- the ring: packed monomials on one sorted variable order -------------------

# a model ring whose names sort around x and y, as a model's variables and
# parameters do
MODEL_RING = ring_of(("y", "b", "x", "z", "a"))


def in_ring(p, ring=MODEL_RING):
    """p rebuilt inside ring from its terms, through the ring's monomials."""
    vs = p.vars
    return ring.from_monomials(vs, [(tuple(i for i, k in enumerate(e) for _ in range(k)), c)
                                    for e, c in p.terms.items()])


def agree(inside, public):
    """A result computed inside the model ring equals the one computed through
    the public constructor, and reads the same."""
    assert inside == public and public == inside
    assert inside.vars == public.vars and inside.terms == public.terms
    assert str(inside) == str(public) and str(inside.primitive()) == str(public.primitive())
    if not public.is_zero:
        assert inside.leading() == public.leading()
        assert inside.primitive() == public.primitive()


@SETTINGS
@given(f=polys(), g=polys(), num=polys(max_terms=2), den=nonzero_polys)
def test_ring_operations_agree_with_the_public_constructor(f, g, num, den):
    rf, rg, rnum, rden = map(in_ring, (f, g, num, den))
    assert rf.ring is MODEL_RING
    agree(rf, f)
    for a, b in ((rf, rg), (rf, g), (f, rg)):   # inside the ring, and across rings
        agree(a + b, f + g)
        agree(a - b, f - g)
        agree(a * b, f * g)
    assert (rf * rg).ring is MODEL_RING
    for v in VARS:
        agree(rf.derivative(v), f.derivative(v))
        agree(rf.set_zero({v}), f.set_zero({v}))
        inside, public = rf.coefficients_in(v), f.coefficients_in(v)
        assert inside.keys() == public.keys()
        for k in public:
            agree(inside[k], public[k])
    want = f.subst_ratio("x", num, den)
    for got in (rf.subst_ratio("x", rnum, rden), f.subst_ratio("x", rnum, rden)):
        agree(got[0], want[0])
        agree(got[1], want[1])
    q = (rf * rden).exact_div(rden)
    agree(q, f)
    assert ((rf * rden + rnum).exact_div(rden) is None) == ((f * den + num).exact_div(den) is None)


def test_a_product_past_the_field_width_raises_and_never_carries():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    top = x ** (_LIMIT - 2)
    assert (top * x).terms == {(_LIMIT - 1,): 1}
    # in the ring (x, y) y's field sits below x's: a carry would add a y
    high = MultiPoly(("x", "y"), {(_LIMIT - 1, 0): 1, (0, 1): 1})
    assert high.terms == {(_LIMIT - 1, 0): 1, (0, 1): 1}
    assert (high * 2).terms == {(_LIMIT - 1, 0): 2, (0, 1): 2}
    for make in (lambda: top * x * x, lambda: high * x, lambda: high * y,
                 lambda: x ** (_LIMIT // 2) * y ** (_LIMIT // 2),
                 lambda: MultiPoly(("x",), {(_LIMIT,): 1}),
                 lambda: MultiPoly(("x", "y"), {(_LIMIT - 1, 1): 1})):
        with pytest.raises(AlgebraError):
            make()


def test_a_power_past_the_degree_limit_raises_before_it_multiplies(monkeypatch):
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    x_y = x * y
    monkeypatch.setattr(MultiPoly, "__mul__", lambda *_: pytest.fail("multiplied"))
    for base, k in ((x, _LIMIT), (x + 1, 40000), (x_y, _LIMIT // 2), (x_y + y, _LIMIT // 2)):
        with pytest.raises(AlgebraError, match="past"):
            base ** k
    # no degree to exceed: a constant, zero, and the powers 0 and 1
    assert (MultiPoly.const(2) ** 1).constant_value() == 2
    assert (MultiPoly.const(0) ** 0).constant_value() == 1
    assert (x_y ** 1).terms == {(1, 1): 1}


def test_a_power_takes_few_products(monkeypatch):
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    products = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    k = 200000
    assert (MultiPoly.const(2) ** k).constant_value() == 2 ** k
    assert len(products) <= 2 * math.ceil(math.log2(k))
    # one term, as a constant is: c^k and each exponent times k
    assert (MultiPoly.const(Fraction(-2, 3)) ** 5).constant_value() == Fraction(-32, 243)
    assert ((x * y * y).scaled(Fraction(3, 2)) ** 4).terms == {(4, 8): Fraction(81, 16)}
    assert (x.scaled(Fraction(1, 2)) ** 0).terms == {(): 1}
    # several terms: the product of k factors
    monkeypatch.undo()
    p = x + y.scaled(Fraction(1, 2)) - 1
    for k in range(6):
        want = MultiPoly.const(1)
        for _ in range(k):
            want = want * p
        assert (p ** k).terms == want.terms


@SETTINGS
@given(p=polys(max_terms=5), k=st.integers(0, 8))
def test_a_power_matches_sympy(p, k):
    same(p ** k, sym(p) ** k)


def test_a_dense_power_writes_each_term_of_the_multinomial_expansion_once(monkeypatch):
    x, y, a = (MultiPoly.var(v) for v in "xya")
    monkeypatch.setattr(MultiPoly, "__mul__", lambda *_: pytest.fail("multiplied"))
    p = (x + y + 1) ** 200
    monkeypatch.undo()
    got = p * a
    # sympy's multinomial coefficients of (x + y + 1)^200, keyed by the
    # powers of x, y and 1
    want = {(i, j, 1): c for (i, j, _), c in multinomial_coefficients(3, 200).items()}
    assert got.vars == ("a", "x", "y") and got.size == len(want) == 20301
    assert {(e[1], e[2], e[0]): c for e, c in got.terms.items()} == want


def test_a_power_whose_terms_share_their_products_is_taken_by_products():
    # (1 + x + ... + x^9)^12: 293,930 choices of powers for 109 monomials
    x = SYMS["x"]
    p = sum((MultiPoly.var("x") ** i for i in range(10)), MultiPoly.const(0))
    same(p ** 12, (sympy.Poly(sum(x ** i for i in range(10)), x) ** 12).as_expr())


@pytest.mark.parametrize("call, builtin", [
    (lambda: (MultiPoly.var("x") + 1).constant_value(), ValueError),
    (lambda: MultiPoly.var("x") ** -1, ValueError),
    (lambda: MultiPoly.const(0).leading(), ValueError),
    (lambda: (MultiPoly.var("x") + 1).divide_by_var("x"), ValueError),
    (lambda: MultiPoly.var("x").divide_by_var("y"), ValueError),
    (lambda: MultiPoly.var("x").exact_div(MultiPoly.const(0)), ZeroDivisionError),
    (lambda: as_poly(1.5), TypeError),
    (lambda: RatFunc.var("x") + 1.5, TypeError),
    (lambda: MultiPoly.var("x") ** 0.5, TypeError),
    (lambda: (MultiPoly.var("x") + 1) ** 0.5, TypeError),
    (lambda: (MultiPoly.var("x") + 1) ** 2.0, TypeError),
    (lambda: MultiPoly.var(5), TypeError),
    (lambda: MultiPoly([5], {(1,): 1}), TypeError),
    (lambda: RatFunc.var(None), TypeError),
    (lambda: MultiPoly.var(["x"]), TypeError),
], ids=["constant-value-of-x", "negative-power", "leading-of-zero", "divide-by-x-not-dividing",
        "divide-by-unknown-variable", "exact-div-by-zero",
        "as-poly-float", "ratfunc-plus-float", "power-one-half-of-x", "power-one-half-of-a-sum",
        "float-power-of-a-sum", "variable-named-an-int", "ring-of-an-int-name",
        "ratfunc-variable-named-none", "variable-named-a-list"])
def test_polynomial_strays_are_algebra_errors_and_their_builtin(call, builtin):
    with pytest.raises(AlgebraError) as info:
        call()
    assert isinstance(info.value, builtin)
