import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from crnrelay.errors import (AlgebraError, AlgebraTypeError, MixedExtensions, NotMetzler,
                             SingularMatrix)
from crnrelay.linalg import (_MAX_ROOT_CANDIDATES, PairMatrix, UniPoly, char_abscissa,
                             char_coeffs, char_poly, det, hurwitz_test, identity, inverse,
                             integer_roots, is_metzler, krylov_entries, leading_minors, mat,
                             mat_mul, metzler_sign, pair_matrix, poly_product, quad_solve,
                             submatrix)
from crnrelay.poly import MultiPoly, RatFunc
from crnrelay.scalars import ExactScalar, exact, from_pair, quad, quadratic_roots, square_free_split
from crnrelay.stability import hurwitz_blocks


def rand_matrix(rng, n, lo=-5, hi=5):
    return mat([[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)])


def to_numpy(m):
    return np.array([[float(x.a) for x in row] for row in m], dtype=float)


def test_det_matches_numpy():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        got = float(det(m).a)
        want = np.linalg.det(to_numpy(m))
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_inverse_exact():
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        if det(m).is_zero:
            continue
        done += 1
        prod = mat_mul(m, inverse(m))
        expect = identity(n)
        assert all(prod[i][j] == expect[i][j] for i in range(n) for j in range(n))
    with pytest.raises(SingularMatrix):
        inverse(mat([[1, 2], [2, 4]]))


def test_char_poly_matches_numpy():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        p = char_poly(m)
        assert p.degree == n
        assert p.coeffs[-1] == exact(1)
        # numpy returns leading-first coefficients of det(xI - M)
        want = np.poly(to_numpy(m))[::-1]
        for k in range(n + 1):
            assert abs(float(p.coeffs[k].a) - want[k]) < 1e-6 * max(1.0, abs(want[k]))


def test_char_poly_roots_are_eigenvalues():
    m = mat([[0, 1], [-2, -3]])
    p = char_poly(m)
    for lam in np.linalg.eigvals(to_numpy(m)):
        val = sum(float(c.a) * lam ** k for k, c in enumerate(p.coeffs))
        assert abs(val) < 1e-9


def test_hurwitz_known_cases():
    # lambda^3 + 2 lambda^2 + (5/4) lambda + 1/2 has determinants 2, 2, 1
    p = UniPoly.make([Fraction(1, 2), Fraction(5, 4), 2, 1])
    rep = hurwitz_test(p)
    assert rep.verdict == "Hurwitz"
    assert [x.to_fraction() for x in rep.determinants] == [2, 2, 1]
    assert hurwitz_test(UniPoly.make([-1, 0, 1])).verdict != "Hurwitz"
    assert hurwitz_test(UniPoly.make([0, 1, 1])).verdict == "Boundary"


def test_hurwitz_matches_numpy_eigenvalues():
    rng = random.Random(14)
    agree = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        alpha = max(np.linalg.eigvals(to_numpy(m)).real)
        if abs(alpha) < 1e-6:
            continue
        rep = hurwitz_test(char_poly(m))
        if alpha < 0:
            assert rep.verdict == "Hurwitz"
        else:
            assert rep.verdict != "Hurwitz"
        agree += 1
    assert agree > 100


def rand_metzler(rng, n):
    rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(-rng.randint(0, 12), rng.randint(1, 2))
    return mat(rows)


def test_metzler_sign_matches_numpy():
    rng = random.Random(15)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rand_metzler(rng, n)
        alpha = max(np.linalg.eigvals(to_numpy(m)).real)
        if abs(alpha) < 1e-6:
            continue
        verdict = metzler_sign(m).verdict
        assert verdict == ("Positive" if alpha > 0 else "Negative")
        checked += 1
    assert checked > 120


def test_metzler_sign_rejects_non_metzler():
    with pytest.raises(NotMetzler):
        metzler_sign(mat([[0, -1], [1, 0]]))
    assert is_metzler(mat([[-3, 0], [2, -1]]))


def test_quad_solve_classification():
    two = quad_solve(UniPoly.make([2, -3, 1]))       # (x-1)(x-2)
    assert two.kind == "TwoRational"
    assert [r.to_fraction() for r in two.roots] == [1, 2]

    double = quad_solve(UniPoly.make([1, -2, 1]))
    assert double.kind == "DoubleRoot" and len(double.roots) == 1

    ext = quad_solve(UniPoly.make([Fraction(-1, 2), 2, 1]))
    assert ext.kind == "QuadExt" and ext.d == 6
    assert [(r.a, r.b) for r in ext.roots] == [(-1, Fraction(-1, 2)), (-1, Fraction(1, 2))]

    none = quad_solve(UniPoly.make([1, 0, 1]))
    assert none.kind == "NoRealRoot" and none.roots == ()

    lin = quad_solve(UniPoly.make([3, -2]))
    assert lin.kind == "LinearRoot"
    assert lin.roots[0].to_fraction() == Fraction(3, 2)


def test_quad_solve_random_verified_by_substitution():
    rng = random.Random(16)
    for _ in range(200):
        c = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
        if c[2] == 0:
            c[2] = Fraction(1)
        p = UniPoly.make(c)
        roots = quad_solve(p).roots
        assert list(roots) == sorted(roots)   # ascending, whatever the lead's sign
        for r in roots:
            assert p(r).is_zero


def test_unipoly_str_parenthesises_a_coefficient_with_two_parts():
    r2 = ExactScalar(Fraction(0), Fraction(1), 2)
    assert str(UniPoly.make([1, 1 + r2])) == "(1+sqrt(2))*lambda + 1"
    assert str(UniPoly.make([r2 - 1, 1])) == "lambda + (-1+sqrt(2))"
    assert str(UniPoly.make([0, -1 - r2])) == "-(1+sqrt(2))*lambda"
    assert str(char_poly([[1 + r2, 0], [0, 1]])) == "lambda^2 - (2+sqrt(2))*lambda + (1+sqrt(2))"
    # rational and purely irrational coefficients print as they always have
    assert str(UniPoly.make([-r2, 2 * r2, Fraction(1, 2)])) == "1/2*lambda^2 + 2*sqrt(2)*lambda - sqrt(2)"
    assert str(UniPoly.make([3, -1, 1])) == "lambda^2 - lambda + 3"


small_fractions = st.one_of(st.just(Fraction(0)),
                            st.fractions(min_value=-9, max_value=9, max_denominator=4))


@settings(max_examples=60)
@given(parts=st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=5),
       d=st.sampled_from([1, 2, 3, 5, 7]))
def test_unipoly_str_reads_back_in_sympy(parts, d):
    t = sympy.Symbol("t")
    p = UniPoly.make([ExactScalar(a, b, d) if d > 1 else exact(a) for a, b in parts], "t")
    want = sum((sympy.Rational(a.numerator, a.denominator)
                + (sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d) if d > 1 else 0))
               * t ** k for k, (a, b) in enumerate(parts))
    assert sympy.expand(sympy.sympify(str(p).replace("^", "**")) - want) == 0


# -- the one quadratic formula on integer coefficients ---------------------------
#
# Coefficients of 40 digits and more come with discriminants whose square-free
# split is cheap: a square (rational roots, a zero constant), zero, negative,
# or s^2 d with s built from small primes and d small (irrational roots). A
# random 90-digit discriminant could take Pollard's rho arbitrarily long.

small = st.integers(-30, 30)
huge = st.one_of(st.integers(10**40, 10**45), st.integers(-10**45, -10**40))
smooth = st.builds(lambda a, b, c: 2**a * 3**b * 7**c,
                   st.integers(0, 70), st.integers(0, 50), st.integers(0, 30))


@st.composite
def integer_quadratics(draw):
    '''(c0, c1, c2), c2 != 0, of one of the shapes the formula tells apart,
    with small or 40+ digit coefficients and leads of either sign.'''
    shape = draw(st.sampled_from(["small", "square", "double", "negative",
                                  "zero constant", "irrational"]))
    big = st.one_of(small, huge)
    nonzero = big.filter(bool)
    if shape == "small":
        return draw(small), draw(small), draw(small.filter(bool))
    if shape == "square":    # (p x - r)(s x - t)
        p, s, r, t = draw(nonzero), draw(nonzero), draw(big), draw(big)
        return r * t, -(p * t + r * s), p * s
    if shape == "double":    # k (p x - r)^2
        k, p, r = draw(small.filter(bool)), draw(nonzero), draw(big)
        return k * r * r, -2 * k * p * r, k * p * p
    if shape == "negative":  # c2 c0 > c1^2 / 4
        c1, c2 = draw(big), draw(nonzero)
        c0 = (1 if c2 > 0 else -1) * (c1 * c1 // 4 + draw(st.integers(1, 10**45)))
        return c0, c1, c2
    if shape == "zero constant":
        return 0, draw(big), draw(nonzero)
    # k (q x - u - s sqrt(d)) (q x - u + s sqrt(d)), the lead's sign from k
    q, s, u = draw(smooth), draw(smooth), draw(big)
    d = draw(st.sampled_from([2, 3, 6, 10, 13, 26, 4 * 7, 9 * 5]))
    k = draw(st.sampled_from([1, -1])) * draw(st.integers(1, 20))
    return k * (u * u - s * s * d), -2 * k * u * q, k * q * q


@settings(max_examples=150)
@given(c=integer_quadratics(), scale=st.integers(1, 10**12))
def test_integer_quadratic_formula_matches_quad_solve_and_sympy(c, scale):
    c0, c1, c2 = c
    quads = quadratic_roots(c0, c1, c2)
    # quad_solve takes any rational multiple and gives the same roots
    rs = quad_solve(UniPoly.make([Fraction(x, scale) for x in c]))
    assert [quad(r) for r in rs.roots] == list(quads)
    disc = c1 * c1 - 4 * c2 * c0
    assert rs.disc == Fraction(disc, scale * scale)
    d = square_free_split(disc)[1] if disc > 0 else 1
    assert rs.kind == ("NoRealRoot" if disc < 0 else "DoubleRoot" if disc == 0
                       else "TwoRational" if d == 1 else "QuadExt")
    assert rs.d == d
    for u, w, q, r in quads:
        # a root, in lowest terms, q > 0, radicand 1 exactly when w = 0
        assert q > 0 and (w != 0) == (r != 1) and math.gcd(u, w, q) == 1
        assert c2 * (u * u + w * w * r) + c1 * u * q + c0 * q * q == 0
        assert w * (2 * c2 * u + c1 * q) == 0
    x = sympy.Symbol("x")
    want = sympy.Poly([c2, c1, c0], x).real_roots()
    got = [(sympy.Integer(u) + w * sympy.sqrt(r)) / q for u, w, q, r in quads]
    assert len(got) == len(dict.fromkeys(want))
    assert all(sympy.expand(g - w) == 0 for g, w in zip(got, dict.fromkeys(want)))


def test_integer_quadratic_formula_known_cases():
    assert quadratic_roots(2, -3, 1) == ((1, 0, 1, 1), (2, 0, 1, 1))
    assert quadratic_roots(-2, 3, -1) == ((1, 0, 1, 1), (2, 0, 1, 1))
    assert quadratic_roots(1, -2, 1) == ((1, 0, 1, 1),)
    assert quadratic_roots(1, 0, 1) == ()
    assert quadratic_roots(0, 4, 2) == ((-2, 0, 1, 1), (0, 0, 1, 1))
    assert quadratic_roots(-1, 4, 2) == ((-2, -1, 2, 6), (-2, 1, 2, 6))  # -1 -+ sqrt(6)/2
    assert quadratic_roots(-12, 0, 1) == ((0, -2, 1, 3), (0, 2, 1, 3))
    # c2 = 0: the one root of the linear polynomial
    assert quadratic_roots(3, -2, 0) == ((3, 0, 2, 1),)
    assert quadratic_roots(-6, -4, 0) == ((-3, 0, 2, 1),)
    assert quadratic_roots(0, -5, 0) == ((0, 0, 1, 1),)


# -- the exact kernels against sympy, over Q and Q(sqrt(d)) --------------------

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)

# dense; mostly zero; block upper-triangular (zero border rows in Berkowitz's
# recurrence); zero diagonal and subdiagonal (every first-choice pivot is
# zero, so the eliminations must exchange rows); one row a combination of
# others; integer entries in Z[sqrt(d)] (in Z for d = 1) whose leading
# minors are units (Bareiss then divides by pivots of norm 1 or -1 that are
# not 1).
PATTERNS = ("dense", "sparse", "block", "swap", "singular", "unit")

# units of Z[sqrt(d)] besides 1
UNITS = {1: (exact(-1),),
         2: (exact(-1), ExactScalar(Fraction(1), Fraction(1), 2),
             ExactScalar(Fraction(3), Fraction(2), 2)),
         13: (exact(-1), ExactScalar(Fraction(18), Fraction(5), 13))}


@st.composite
def entries(draw, d):
    a = draw(fractions)
    if d == 1 or draw(st.booleans()):
        return exact(a)
    return ExactScalar(a, draw(fractions.filter(bool)), d)


@st.composite
def matrices(draw, pattern):
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from((1, 2, 13)))
    if pattern == "unit":
        return unit_minors(draw, n, d)
    a = [[draw(entries(d)) for _ in range(n)] for _ in range(n)]
    zero = exact(0)
    if pattern == "sparse":
        for i in range(n):
            for j in range(n):
                if draw(st.integers(0, 9)) < 7:
                    a[i][j] = zero
    elif pattern == "block" and n > 1:
        k = draw(st.integers(1, n - 1))
        for i in range(k, n):
            a[i][:k] = [zero] * k
    elif pattern == "swap":
        for i in range(n):
            a[i][i] = zero
            if i + 1 < n:
                a[i + 1][i] = zero
    elif pattern == "singular":
        if n == 1:
            a = [[zero]]
        else:
            i = draw(st.integers(0, n - 1))
            j, k = (draw(st.sampled_from([r for r in range(n) if r != i]))
                    for _ in range(2))
            c = exact(draw(fractions))
            a[i] = [c * x + y for x, y in zip(a[j], a[k])]
    return a


def unit_minors(draw, n, d):
    '''L U with L lower and U upper triangular, units of Z[sqrt(d)] on
    their diagonals and small integers of Z[sqrt(d)] below and above: every
    leading minor is a product of units.'''
    def small():
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)) if d > 1 else 0
        return ExactScalar(Fraction(a), Fraction(b), d) if b else exact(a)

    unit = st.sampled_from((exact(1),) + UNITS[d])
    L = [[draw(unit) if i == j else small() if j < i else exact(0)
          for j in range(n)] for i in range(n)]
    U = [[draw(unit) if i == j else small() if j > i else exact(0)
          for j in range(n)] for i in range(n)]
    return mat_mul(L, U)


def to_sympy(x):
    return (sympy.Rational(x.a.numerator, x.a.denominator) +
            sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d))


def oracle(a):
    '''The matrix over its own field in sympy's exact kernels (QQ or
    QQ<sqrt(d)>); sympy's Matrix methods reach these too, but through the
    symbolic EX domain on irrational entries, which takes minutes at 8x8.'''
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in a])
    return DomainMatrix.from_Matrix(m, extension=True).to_field()


def same(x, want):
    return sympy.expand(to_sympy(x) - want) == 0


@pytest.mark.parametrize("pattern", PATTERNS)
@settings(max_examples=25)
@given(data=st.data())
def test_kernels_match_sympy(pattern, data):
    a = data.draw(matrices(pattern))
    n = len(a)
    m = oracle(a)
    to_expr = m.domain.to_sympy

    p = char_poly(a)
    assert p.degree == n
    assert all(same(c, to_expr(w))
               for c, w in zip(reversed(p.coeffs), m.charpoly()))  # leading-first

    d = det(a)
    assert same(d, to_expr(m.det()))
    if pattern == "singular":
        assert d.is_zero
    if d.is_zero:
        with pytest.raises(SingularMatrix):
            inverse(a)
        return
    inv = inverse(a)
    want = m.inv().to_Matrix()
    assert all(same(inv[i][j], want[i, j]) for i in range(n) for j in range(n))
    assert mat_mul(a, inv) == identity(n) == mat_mul(inv, a)


@pytest.mark.parametrize("pattern", PATTERNS)
@settings(max_examples=25)
@given(data=st.data())
def test_kernels_match_sympy_on_pair_matrices(pattern, data):
    a = data.draw(matrices(pattern))
    p = pair_matrix(a)
    assert type(p) is PairMatrix and p.scalars() == a
    n = len(a)
    m = oracle(a)
    to_expr = m.domain.to_sympy

    assert all(same(c, to_expr(w))
               for c, w in zip(reversed(char_poly(p).coeffs), m.charpoly()))
    assert leading_minors(p) == leading_minors(a)
    d = det(p)
    assert same(d, to_expr(m.det()))
    if pattern == "singular":
        assert d.is_zero
    if d.is_zero:
        with pytest.raises(SingularMatrix):
            inverse(p)
        return
    inv = inverse(p)
    assert type(inv) is PairMatrix
    want = m.inv().to_Matrix()
    assert all(same(x, want[i, j]) for i, row in enumerate(inv.scalars())
               for j, x in enumerate(row))
    assert mat_mul(p, inv).scalars() == identity(n) == mat_mul(inv, p).scalars()


@settings(max_examples=40)
@given(data=st.data())
def test_pair_matrix_arithmetic_matches_exact_scalars(data):
    a = data.draw(matrices(data.draw(st.sampled_from(PATTERNS))))
    d = next((x.d for row in a for x in row if x.b), 1)
    b = [[data.draw(entries(d)) for _ in row] for row in a]
    n = len(a)
    p, q = pair_matrix(a), pair_matrix(b)
    c = data.draw(entries(d))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    shifted = [row[:] for row in a]
    shifted[i][j] = shifted[i][j] + c
    assert p.plus({(i, j): c}).scalars() == shifted
    assert PairMatrix.of_entries(n, p.cells() + q.cells(-1)).scalars() == [
        [x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert mat_mul(p, q).scalars() == mat_mul(a, b)
    assert (-p).scalars() == [[-x for x in row] for row in a]
    idx = data.draw(st.permutations(range(n)))
    assert submatrix(p, idx, idx).scalars() == submatrix(a, idx, idx)
    assert all(p.sign(r, k) == a[r][k].sign() for r in range(n) for k in range(n))
    assert is_metzler(p) == is_metzler(a)


S2, S3 = ExactScalar(Fraction(0), Fraction(1), 2), ExactScalar(Fraction(1), Fraction(1), 3)


@pytest.mark.parametrize("a, error", [
    ([[S2, exact(1)], [exact(0), S3]], MixedExtensions),
    ([[exact(x) for x in row] for row in ((1, 2, 3), (4, 5, 6))], AlgebraError),
    ([[exact(x) for x in row] for row in ((1, 2), (3, 4), (5, 6))], AlgebraError),
    ([[exact(1), exact(2)], [exact(3)]], AlgebraError),
], ids=["two-radicands", "2x3", "3x2", "ragged"])
def test_two_radicands_raise_mixed_extensions(a, error):
    for kernel in (det, inverse, leading_minors, char_poly, char_abscissa,
                   lambda m: krylov_entries(m, 0, 0)):
        with pytest.raises(error):
            kernel(a)


@pytest.mark.parametrize("call", [
    lambda: mat([[1, 2], [3]]),
    lambda: mat([[1, 0.5], [3, 4]]),
    lambda: hurwitz_test(UniPoly.make([])),
    lambda: hurwitz_test([1, 2, 3]),
    lambda: quad_solve(UniPoly.make([])),
    lambda: quad_solve(UniPoly.make([3])),
    lambda: quad_solve(UniPoly.make([S2, 0, 1])),
    lambda: krylov_entries([[2, 1], [1, 1]], -1, 0),
    lambda: krylov_entries(identity(2), 5, 0),
    lambda: krylov_entries(pair_matrix([[2, 1], [1, 1]]), 0, 2),
    lambda: krylov_entries([[2, 1], [1, 1]], True, 0),
    lambda: krylov_entries([[2, 1], [1, 1]], 0, 1.0),
    lambda: krylov_entries(pair_matrix([[2, 1], [1, 1]]), True, 1),
    lambda: krylov_entries(pair_matrix([[2, 1], [1, 1]]), 0, False),
    lambda: pair_matrix([[2, 1], [1, 1]]).plus({(-1, 0): 1}),
    lambda: pair_matrix([[2, 1], [1, 1]]).plus({(0, 0): 1, (0, 2): 1}),
    lambda: pair_matrix([[2, 1], [1, 1]]).plus({(True, 0): 1}),
    lambda: pair_matrix([[2, 1], [1, 1]]).plus({(0, 1): 0.5}),
    lambda: mat_mul([[1, 2], [3, 4]], [[1], [2], [3]]),
    lambda: mat_mul([[1, 2]], [[1, 2]]),
    lambda: mat_mul(pair_matrix([[1, 2]], False), pair_matrix([[1, 2]], False)),
    lambda: quad_solve([1, 2, 1]),
    lambda: char_poly(None),
    lambda: det([1, 2]),
    lambda: char_abscissa([1, 2]),
    lambda: char_abscissa(None),
    lambda: hurwitz_blocks([[-1, 1], [0, -1]], ["x"]),
], ids=["mat-ragged", "mat-float", "hurwitz-zero", "hurwitz-list", "quad-zero", "quad-constant",
        "quad-irrational", "krylov-negative-column", "krylov-column-past-end",
        "krylov-pairs-row-past-end", "krylov-bool-column", "krylov-float-row",
        "krylov-pairs-bool-column", "krylov-pairs-false-row", "plus-negative-row",
        "plus-column-past-end", "plus-bool-row", "plus-float-value",
        "mat-mul-2-columns-3-rows", "mat-mul-2-columns-1-row", "mat-mul-pairs-2-columns-1-row", "quad-list",
        "char-poly-none", "det-of-a-row", "char-abscissa-of-a-row", "char-abscissa-none",
        "hurwitz-blocks-fewer-names"])
def test_public_entry_points_refuse_with_algebra_error(call):
    with pytest.raises(AlgebraError):
        call()


@pytest.mark.parametrize("call", [
    lambda: hurwitz_test([1, 2, 3]),
    lambda: quad_solve([1, 2, 1]),
    lambda: hurwitz_test(None),
    lambda: quad_solve((1, 2)),
], ids=["hurwitz-list", "quad-list", "hurwitz-none", "quad-tuple"])
def test_univariate_entry_points_refuse_anything_but_a_unipoly(call):
    with pytest.raises(AlgebraTypeError, match="takes a UniPoly"):
        call()


@pytest.mark.parametrize("coeffs", [(2, 3, 1), (Fraction(1, 2), Fraction(-3, 2), 1),
                                    (0, exact(-2), Fraction(1))],
                         ids=["ints", "fractions", "mixed"])
@pytest.mark.parametrize("call", [hurwitz_test, quad_solve, str],
                         ids=["hurwitz_test", "quad_solve", "str"])
def test_a_unipoly_built_directly_coerces_its_coefficients(coeffs, call):
    p = UniPoly(coeffs)
    assert all(type(c) is ExactScalar for c in p.coeffs)
    assert p == UniPoly.make(coeffs)
    assert call(p) == call(UniPoly.make(coeffs))


@pytest.mark.parametrize("coeffs", [(2, 1.5), (Fraction(1), 0.0), 5],
                         ids=["float", "float-zero", "not-a-sequence"])
def test_a_unipoly_refuses_inexact_coefficients(coeffs):
    with pytest.raises(AlgebraTypeError):
        UniPoly(coeffs)


# -- characteristic coefficients over Q(a, b, x) against sympy ------------------

A, B, X = (MultiPoly.var(v) for v in "abx")
# saturating denominators, shared between entries as in osn_omega0's rates
DENOMINATORS = [(1 + A * X + B) ** 2, 2 + X]


def rand_ratfunc(rng):
    if rng.random() < 0.3:
        return RatFunc.const(0)
    num = sum((Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))
               * A ** rng.randint(0, 1) * B ** rng.randint(0, 1) * X ** rng.randint(0, 1)
               for _ in range(rng.randint(1, 3))), MultiPoly.const(0))
    return RatFunc(num, rng.choice(DENOMINATORS) if rng.random() < 0.3 else 1)


def to_ring(p, ring):
    '''A MultiPoly in a, b, x as an element of sympy's ring over those.'''
    pos = ["abx".index(v) for v in p.vars]
    terms = {}
    for e, c in p.terms.items():
        full = [0, 0, 0]
        for i, k in zip(pos, e):
            full[i] = k
        terms[tuple(full)] = sympy.QQ(c.numerator, c.denominator)
    return ring.from_dict(terms)


def test_char_coeffs_match_sympy_charpoly():
    rng = random.Random(17)
    K = sympy.QQ.frac_field(*sympy.symbols("a b x"))
    ring = K.field.ring
    for _ in range(20):
        n = rng.randint(2, 4)
        a = [[rand_ratfunc(rng) for _ in range(n)] for _ in range(n)]
        want = DomainMatrix([[K.field(to_ring(x.num, ring)) / K.field(to_ring(x.den, ring))
                              for x in row] for row in a], (n, n), K).charpoly()
        got = char_coeffs(a)
        assert len(got) == n
        for c, w in zip(got, want[1:]):
            assert to_ring(c.num, ring) * w.denom == to_ring(c.den, ring) * w.numer


def test_char_coeffs_take_a_denominator_dividing_another_once():
    # entries over D and D^2 share the denominator D^2, not D^3
    D = 1 + A * X + B
    rng = random.Random(19)
    K = sympy.QQ.frac_field(*sympy.symbols("a b x"))
    ring = K.field.ring
    for _ in range(10):
        n = rng.randint(2, 4)
        a = [[RatFunc(rand_ratfunc(rng).num, rng.choice((D, D ** 2, 1))) for _ in range(n)]
             for _ in range(n)]
        a[0][0], a[-1][-1] = RatFunc(A + 1, D), RatFunc(X - 2, D ** 2)
        want = DomainMatrix([[K.field(to_ring(x.num, ring)) / K.field(to_ring(x.den, ring))
                              for x in row] for row in a], (n, n), K).charpoly()
        got = char_coeffs(a)
        assert len(got) == n
        for k, (c, w) in enumerate(zip(got, want[1:]), 1):
            assert to_ring(c.num, ring) * w.denom == to_ring(c.den, ring) * w.numer
            assert max(map(sum, c.den.terms)) <= k * 4   # deg D^2 = 4


# -- the shared decision primitives --------------------------------------------

@settings(max_examples=40)
@given(data=st.data())
def test_leading_minors_are_determinants_of_leading_blocks(data):
    a = data.draw(matrices(data.draw(st.sampled_from(PATTERNS))))
    got = leading_minors(a)
    assert len(got) == len(a)
    for k, x in enumerate(got, 1):
        m = oracle([row[:k] for row in a[:k]])
        assert same(x, m.domain.to_sympy(m.det()))


def poly_mul(p, q):
    out = [exact(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def factored_polys(draw):
    '''Constant-first coefficients of lead * (rational linear factors) *
    (quadratics: no real root, or irrational roots) * (a rational cubic),
    with lead over Q or, sometimes, over Q(sqrt(2)).'''
    factors = [[-exact(draw(small_q)), exact(1)]
               for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        b, c = draw(small_q), draw(small_q)
        if draw(st.booleans()):
            c = b * b / 4 + abs(c) + Fraction(1, 3)   # no real root
        else:
            c = -draw(st.sampled_from((2, 3, 5, 7)))  # two real roots, irrational when b = 0
            b = 0 if draw(st.booleans()) else b
        factors.append([exact(c), exact(b), exact(1)])
    if draw(st.booleans()):
        factors.append([exact(draw(small_q)) for _ in range(3)] + [exact(1)])
    lead = exact(draw(small_q.filter(bool)))
    if draw(st.integers(0, 3)) == 0:
        lead = lead + ExactScalar(Fraction(0), Fraction(1), 2)
    p = [lead]
    for f in factors:
        p = poly_mul(p, f)
    return p


def companion(p):
    '''The companion matrix of the polynomial with constant-first
    coefficients p (ExactScalars, the last nonzero): its characteristic
    polynomial is p over its leading coefficient.'''
    n = len(p) - 1
    c = [x / p[-1] for x in p[:-1]]
    return [[-c[i] if j == n - 1 else exact(int(i == j + 1)) for j in range(n)]
            for i in range(n)]


def value(q):
    u, w, den, d = q
    return (sympy.Integer(u) + w * sympy.sqrt(d)) / den


def check_char_abscissa(a):
    '''char_abscissa(a) against sympy's characteristic polynomial P of a,
    returned when it passes. The roots found are reduced quads and roots of
    P with multiplicity: P is their product of x - r times a factor R, left
    unsolved, with no root at zero and never linear. Over Q, R has no
    rational root when its degree is above two, unless its end
    coefficients give more than _MAX_ROOT_CANDIDATES candidates, and no
    real root when it is two. alpha is None exactly when R has degree above
    two, or two over Q(sqrt(d)); otherwise it is exactly the largest real
    part among the roots found and R's. sign is None when alpha is known,
    and otherwise the verdict of hurwitz_test's determinants when none is
    zero.'''
    got = alpha, roots, rational, sign = char_abscissa(a)
    m = oracle(a)
    x = sympy.Symbol("x")
    P = sympy.Poly([m.domain.to_sympy(c) for c in m.charpoly()], x, extension=True)
    assert rational == all(c.is_rational for c in P.all_coeffs())
    for u, w, q, d in roots:
        assert q > 0 and math.gcd(u, w, q) == 1 and (w != 0) == (d != 1)
    found = [value(r) for r in roots]
    R, zero = sympy.div(P.as_expr(), sympy.Mul(*[x - v for v in found]), x, extension=True)
    assert zero == 0
    R = sympy.Poly(R, x, extension=True)
    k = R.degree()
    assert R.eval(0) != 0 and k != 1
    if rational and k == 2:
        assert R.discriminant() < 0
    if rational and k > 2 and any(r.is_rational for r in R.real_roots()):
        c = R.clear_denoms()[1].primitive()[1].all_coeffs()
        assert sympy.divisor_count(c[0]) * sympy.divisor_count(c[-1]) > _MAX_ROOT_CANDIDATES
    assert (alpha is None) == (k > 2 or (k == 2 and not rational))
    if alpha is None:
        rep = hurwitz_test(char_poly(a))
        assert sign == (None if any(x.is_zero for x in rep.determinants)
                        else "Negative" if rep.is_hurwitz else "Positive")
        return got
    assert sign is None
    parts = [sympy.re(v) for v in found + sympy.roots(R, multiple=True)]
    best = value(alpha)
    assert any(sympy.expand(best - r) == 0 for r in parts)
    assert all(sympy.expand(best - r) >= 0 for r in parts)
    return got


@pytest.mark.parametrize("pattern", PATTERNS + ("metzler", "nonnegative"))
@settings(max_examples=15)
@given(data=st.data())
def test_char_abscissa_matches_sympy(pattern, data):
    a = data.draw(matrices(pattern if pattern in PATTERNS else "dense"))
    if pattern in ("metzler", "nonnegative"):   # off the diagonal, or everywhere, as K = V^-1 F
        a = [[-x if x.sign() < 0 and (i != j or pattern == "nonnegative") else x
              for j, x in enumerate(row)] for i, row in enumerate(a)]
    check_char_abscissa(a)


@settings(max_examples=60)
@given(coeffs=factored_polys())
def test_char_abscissa_splits_companion_matrices(coeffs):
    # the eigenvalues of p's companion matrix are p's roots: those of
    # rational linear factors, of quadratics with no real root or with
    # irrational roots and of a rational cubic
    assume(len(coeffs) > 1)   # a constant has no companion matrix
    check_char_abscissa(companion(coeffs))


def test_char_abscissa_past_five_hundred_candidates():
    # (x - 2)(2x - 3)(2x + 3)(x^2 - 2)(36x^2 + 12x + 85) / 144: the end
    # coefficients 3060 and 144 give 36 * 15 = 540 candidates p/q
    x = sympy.Symbol("x")
    f = sympy.Poly(sympy.expand((x - 2) * (2 * x - 3) * (2 * x + 3) * (x**2 - 2)
                                * (36 * x**2 + 12 * x + 85) / 144), x)
    coeffs = [exact(Fraction(int(c.p), int(c.q))) for c in reversed(f.all_coeffs())]
    alpha, roots, rational, sign = check_char_abscissa(companion(coeffs))
    assert sorted(roots, key=lambda r: from_pair(*r).sort_key()) == [
        (-3, 0, 2, 1), (3, 0, 2, 1), (2, 0, 1, 1)]
    # -3/2 and 3/2 sum to zero, so the Hurwitz determinant D(n-1) vanishes
    assert alpha is None and rational and sign is None
    # the factor left unsolved, in integers
    primitive = [int(c * 144) for c in reversed(f.all_coeffs())]
    want = sympy.Poly(sympy.expand((x**2 - 2) * (36 * x**2 + 12 * x + 85)), x)
    assert integer_roots(primitive)[1] == [int(c) for c in reversed(want.all_coeffs())]


@pytest.mark.parametrize("coeffs, want", [
    # 3 x^2 (x - 1)^2: two zeros, then a double root from the quadratic formula
    ([0, 0, 3, -6, 3], ((1, 0, 1, 1), [(0, 0, 1, 1)] * 2 + [(1, 0, 1, 1)] * 2, True, None)),
    # (x - 2)(x^2 + 1): a rational root divided out, a pair of real part 0 left
    ([-2, 1, -2, 1], ((2, 0, 1, 1), [(2, 0, 1, 1)], True, None)),
    # (x + 1)(x^2 - 2x + 5): the pair 1 -+ 2i leads
    ([5, 3, -1, 1], ((1, 0, 1, 1), [(-1, 0, 1, 1)], True, None)),
    # over Q(sqrt(2)): a zero root and a linear factor
    ([0, S2, 1], ((0, 0, 1, 1), [(0, 0, 1, 1), (0, -1, 1, 2)], False, None)),
    # x^2 + x + sqrt(2): the quadratic stays; Hurwitz determinants 1, sqrt(2)
    ([S2, 1, 1], (None, [], False, "Negative")),
    # x^2 - x + sqrt(2): determinants -1, -sqrt(2)
    ([S2, -1, 1], (None, [], False, "Positive")),
    # x^2 + sqrt(2): D1 = 0 leaves the sign open
    ([S2, 0, 1], (None, [], False, None)),
], ids=["zeros-and-double-root", "rational-root-and-pair", "pair-leads", "sqrt2-linear",
        "sqrt2-quadratic-negative", "sqrt2-quadratic-positive", "sqrt2-quadratic-open"])
def test_char_abscissa_known_cases(coeffs, want):
    a = companion([exact(c) for c in coeffs])
    assert check_char_abscissa(a) == want
    assert char_abscissa(pair_matrix(a)) == want


def test_char_abscissa_of_an_irrational_matrix_with_a_rational_polynomial():
    # [[0, sqrt(2)], [2 sqrt(2), 0]] has lambda^2 - 4: the rational route
    a = [[exact(0), S2], [2 * S2, exact(0)]]
    assert check_char_abscissa(a) == ((2, 0, 1, 1), [(-2, 0, 1, 1), (2, 0, 1, 1)], True, None)
    # and [[0, sqrt(2)], [sqrt(2), 0]] has lambda^2 - 2, roots -+ sqrt(2)
    a = [[exact(0), S2], [S2, exact(0)]]
    assert check_char_abscissa(a) == ((0, 1, 1, 2), [(0, -1, 1, 2), (0, 1, 1, 2)], True, None)


# Factors for integer_roots whose end coefficients stay cheap to factor (the
# rational-root search factors them) and whose discriminants stay cheap to
# split: 40+ digit coefficients come as powers of 2 and 3, or in the middle of
# a quadratic with a negative discriminant.
few = st.builds(lambda a, b, c: 2**a * 3**b * 5**c,
                st.integers(0, 3), st.integers(0, 2), st.integers(0, 1))
far = st.sampled_from([2**140, 3**90, 2**70 * 3**45])
IRREDUCIBLE_CUBICS = ([-2, 0, 0, 1], [1, 1, 0, 1], [3, 0, -4, 2])


@st.composite
def integer_factors(draw):
    '''One factor (constant first) of a shape integer_roots tells apart.'''
    sign = draw(st.sampled_from([1, -1]))
    shape = draw(st.sampled_from(["linear", "double", "negative", "irrational",
                                  "small", "power of x", "cubic"]))
    if shape in ("linear", "double"):    # (q x - p), squared: a zero discriminant
        p = sign * draw(st.one_of(few, far))
        q = draw(few)
        g = math.gcd(p, q)
        f = [-p // g, q // g]
        return poly_mul_int(f, f) if shape == "double" else f
    if shape == "negative":              # c1 of 40+ digits, 4 c2 c0 > c1^2
        c1 = sign * draw(st.integers(10**40, 10**45))
        c2 = draw(few)
        return [2 ** (2 * c1.bit_length()), c1, c2]
    if shape == "irrational":            # c2 x^2 - c0: roots +- sqrt(c0 / c2)
        return [-draw(st.one_of(few, far)), 0, draw(few)]
    if shape == "small":                 # any discriminant
        return [draw(st.integers(-30, 30)), draw(st.integers(-30, 30)),
                draw(st.integers(1, 30))]
    if shape == "power of x":
        return [0] * draw(st.integers(1, 3)) + [1]
    return list(draw(st.sampled_from(IRREDUCIBLE_CUBICS)))


def poly_mul_int(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@settings(max_examples=80)
@given(factors=st.lists(integer_factors(), min_size=1, max_size=4),
       sign=st.sampled_from([1, -1]))
def test_integer_roots_split_f_exactly(factors, sign):
    f = [sign]
    for g in factors:
        f = poly_mul_int(f, g)
    c = math.gcd(*f)
    f = [a // c for a in f]
    roots, rest = integer_roots(f)
    for u, w, q, d in roots:   # reduced quads, as quadratic_roots gives them
        assert q > 0 and math.gcd(u, w, q) == 1 and (w != 0) == (d != 1)
    x = sympy.Symbol("x")
    F, R = sympy.Poly(f[::-1], x), sympy.Poly(rest[::-1], x)
    values = [(sympy.Integer(u) + w * sympy.sqrt(d)) / q for u, w, q, d in roots]
    # f is rest times an integer polynomial h whose roots are the roots found
    h, r = sympy.div(F, R, domain=sympy.QQ)
    assert r.is_zero and all(a.is_integer for a in h.all_coeffs())
    assert sympy.expand(h.as_expr() - h.LC() * sympy.Mul(*[x - v for v in values])) == 0
    # sympy's real roots of f are the roots found and those of rest
    want = F.real_roots()
    for v in values:
        want.pop(next(i for i, w in enumerate(want) if sympy.expand(v - w) == 0))
    left = R.real_roots() if R.degree() > 0 else []
    assert sorted(want, key=str) == sorted(left, key=str)
    # rest is 1 or -1, a quadratic with no real root, or of degree above two
    # with no rational root unless its end coefficients give more than
    # _MAX_ROOT_CANDIDATES candidates
    assert rest in ([1], [-1]) or len(rest) > 3 or (len(rest) == 3 and not left)
    if len(rest) > 3 and any(w.is_rational for w in left):
        assert (sympy.divisor_count(abs(rest[0])) * sympy.divisor_count(abs(rest[-1]))
                > _MAX_ROOT_CANDIDATES)


def test_integer_roots_known_cases():
    # x^2 (x - 1)^2: two zeros, then the double root of the quadratic
    assert integer_roots([0, 0, 1, -2, 1]) == ([(0, 0, 1, 1)] * 2 + [(1, 0, 1, 1)] * 2, [1])
    # (x - 2)(x^2 + 1): a rational root divided out, the pair left
    assert integer_roots([-2, 1, -2, 1]) == ([(2, 0, 1, 1)], [1, 0, 1])
    # (2 x - 3)(3 x + 1)(x^2 - 2): two rational roots, then -+ sqrt(2)
    f = poly_mul_int(poly_mul_int([-3, 2], [1, 3]), [-2, 0, 1])
    roots, rest = integer_roots(f)
    assert sorted(roots[:2]) == [(-1, 0, 3, 1), (3, 0, 2, 1)]
    assert roots[2:] == [(0, -1, 1, 2), (0, 1, 1, 2)] and rest == [1]
    # 2 x^2 - 1, -(3 x + 5), an irreducible cubic, constants, zero
    assert integer_roots([-1, 0, 2]) == ([(0, -1, 2, 2), (0, 1, 2, 2)], [1])
    assert integer_roots([-5, -3]) == ([(-5, 0, 3, 1)], [1])
    assert integer_roots([-2, 0, 0, 1]) == ([], [-2, 0, 0, 1])
    assert integer_roots([1]) == ([], [1])
    assert integer_roots([]) == ([], [])


@st.composite
def block_triangular(draw):
    '''A matrix that is block lower-triangular up to a hidden permutation
    of its rows and columns, with random (possibly sparse) diagonal blocks
    shifted left by a random amount.'''
    n = draw(st.integers(1, 6))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    block = [b for b, k in enumerate(sizes) for _ in range(k)]
    shift = draw(st.integers(0, 6))
    a = [[exact(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if block[j] < block[i] or (block[j] == block[i] and draw(st.integers(0, 3))):
                a[i][j] = exact(draw(small_q))
        a[i][i] = a[i][i] - shift
    perm = draw(st.permutations(range(n)))
    return submatrix(a, perm, perm)


@settings(max_examples=60)
@given(J=block_triangular())
def test_hurwitz_blocks_agree_with_the_whole_matrix(J):
    rep = hurwitz_blocks(J, [f"x{i}" for i in range(len(J))])
    assert sorted(v for b in rep.blocks for v in b.vars) == sorted(f"x{i}" for i in range(len(J)))
    assert (rep.verdict == "LAS") == hurwitz_test(char_poly(J)).is_hurwitz


_PAIRS = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=9)


@settings(max_examples=200)
@given(_PAIRS, _PAIRS, st.sampled_from([1, 2, 3, 5, 6, 7]), st.integers(0, 20))
def test_a_truncated_product_is_the_prefix_of_the_full_one(a, b, d, size):
    """poly_product with a size gives the first size coefficients of the
    full product over Z[sqrt(d)], which is checked against sympy's."""
    full = poly_product(a, b, d)
    assert poly_product(a, b, d, size) == full[:size]
    r = sympy.sqrt(d)
    got = sympy.Poly([u + w * r for u, w in full][::-1], sympy.Symbol("x"))
    want = (sympy.Poly([u + w * r for u, w in a][::-1], sympy.Symbol("x"))
            * sympy.Poly([u + w * r for u, w in b][::-1], sympy.Symbol("x")))
    assert sympy.expand(got.as_expr() - want.as_expr()) == 0
