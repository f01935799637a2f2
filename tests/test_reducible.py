"""The blocked kernels and the rank-one report against sympy, on reducible matrices.

det is the product of the determinants of the strongly connected blocks,
and so is the characteristic polynomial that char_blocks gives block by
block; the rank-one report reads its adjugate entry from those pairs and
krylov_entries. They are checked here, with inverse, against sympy's exact
kernels over QQ and QQ<sqrt(d)>, on matrices that are block
lower-triangular under a hidden permutation of their rows and columns:
diagonal blocks that may be singular, chains of blocks along which one
column reaches the whole matrix, and entries in Z[sqrt(d)].
"""

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from crnrelay.errors import SingularMatrix
from crnrelay.linalg import (char_blocks, det, inverse, krylov_entries, pair_matrix,
                             poly_product, strong_blocks, submatrix)
from crnrelay.scalars import ExactScalar, exact, from_pair
from crnrelay.stability import rank_one_bound

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _scalar(draw, d, nonzero=False):
    a = draw(fractions.filter(bool) if nonzero else fractions)
    if d == 1 or draw(st.booleans()):
        return exact(a)
    return ExactScalar(a, draw(fractions.filter(bool)), d)


@st.composite
def reducible(draw, max_n=8):
    '''(a, d): a block lower-triangular under a random simultaneous
    permutation of rows and columns, with entries in Q or Q(sqrt(d)).
    Each diagonal block is strongly connected when "chain" is drawn, and
    then each block also feeds the next, so a column of the first block
    reaches every row; "singular" zeroes one row of one diagonal block.'''
    n = draw(st.integers(1, max_n))
    d = draw(st.sampled_from((1, 2, 13)))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    block = [b for b, k in enumerate(sizes) for _ in range(k)]
    first = {b: block.index(b) for b in set(block)}
    chain, singular = draw(st.booleans()), draw(st.integers(0, 3)) == 0
    zero = exact(0)
    a = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if block[j] < block[i] and draw(st.integers(0, 2)) == 0:
                a[i][j] = _scalar(draw, d)
            elif block[j] == block[i] and (i == j or draw(st.booleans())):
                a[i][j] = _scalar(draw, d)
    if chain:
        for b, k in enumerate(sizes):
            idx = list(range(first[b], first[b] + k))
            for i, j in zip(idx, idx[1:] + idx[:1]):   # a cycle through the block
                if i != j:
                    a[j][i] = _scalar(draw, d, nonzero=True)
            if b:
                a[first[b]][first[b - 1]] = _scalar(draw, d, nonzero=True)
    if singular:
        b = draw(st.integers(0, len(sizes) - 1))
        i = draw(st.integers(first[b], first[b] + sizes[b] - 1))
        for j in range(first[b], first[b] + sizes[b]):
            a[i][j] = zero
    perm = draw(st.permutations(range(n)))
    return submatrix(a, perm, perm), d


def to_sympy(x):
    return (sympy.Rational(x.a.numerator, x.a.denominator) +
            sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d))


def oracle(a):
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in a])
    return DomainMatrix.from_Matrix(m, extension=True).to_field()


def same(x, want) -> bool:
    return sympy.expand(to_sympy(x) - want) == 0


def reaches(a, j) -> set:
    '''The rows that column j reaches: an edge k -> i wherever a[i][k] != 0.'''
    seen, todo = {j}, [j]
    while todo:
        k = todo.pop()
        for i, row in enumerate(a):
            if row[k] and i not in seen:
                seen.add(i)
                todo.append(i)
    return seen


@settings(max_examples=60)
@given(case=reducible())
def test_blocked_kernels_match_sympy(case):
    a, _ = case
    n = len(a)
    m = oracle(a)
    to_expr = m.domain.to_sympy
    want_det = to_expr(m.det())
    # the blocks are the classes of mutual reach, sorted, by smallest member
    reach = [reaches(a, j) for j in range(n)]
    blocks = strong_blocks([[bool(x) for x in row] for row in a])
    assert sorted(i for b in blocks for i in b) == list(range(n)) and blocks == sorted(blocks)
    assert all(b == sorted(b) for b in blocks)
    assert {(i, j) for b in blocks for i in b for j in b} == {
        (i, j) for i in range(n) for j in range(n) if i in reach[j] and j in reach[i]}

    p = pair_matrix(a)
    for form in (a, p):
        d = det(form)
        assert same(d, want_det)
        if d.is_zero:
            with pytest.raises(SingularMatrix):
                inverse(form)
            continue
        inv = m.inv().to_Matrix()
        got = inverse(form)
        rows = got.scalars() if form is p else got
        assert all(same(rows[i][j], inv[i, j]) for i in range(n) for j in range(n))
        # column j of the inverse is zero outside the rows that j reaches
        assert all(rows[i][j].is_zero for j in range(n) for i in range(n)
                   if i not in reaches(a, j))


@settings(max_examples=60)
@given(case=reducible(), data=st.data())
def test_block_pairs_and_krylov_entries_match_sympy(case, data):
    a, _ = case
    n = len(a)
    u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    p = pair_matrix(a)
    Q, d = p.Q, p.d
    blocks = char_blocks(a)
    assert [idx for idx, _ in blocks] == strong_blocks([[bool(x) for x in row] for row in a])
    c = [(1, 0)]
    for _, b in blocks:
        c = poly_product(c, b, d)
    m = oracle(a)
    # the pair c_k is the coefficient of lambda^(n-k) in det(lambda I - a) times Q^k
    assert len(c) == n + 1 and all(same(from_pair(*x, Q ** k, d), m.domain.to_sympy(w))
                                   for k, (x, w) in enumerate(zip(c, m.charpoly())))
    # the i-th Krylov entry is (a^i)[v][u] times Q^i
    assert all(same(from_pair(*x, Q ** i, d), m.domain.to_sympy((m ** i)[v, u].element))
               for i, x in enumerate(krylov_entries(p, u, v)))


@settings(max_examples=60)
@given(case=reducible(), data=st.data())
def test_rank_one_identity_holds_on_every_coefficient(case, data):
    """On reducible, mostly non-Metzler matrices, singular ones among them,
    with u = v half the time and kappa over Q or in A's radicand: the
    identity holds, the gain is sympy's -inv(A)[v][u] by the magnitude and
    note rules, and the singular note appears exactly when sympy's
    determinant is zero."""
    a, d = case
    n = len(a)
    u = data.draw(st.integers(0, n - 1))
    v = u if data.draw(st.booleans()) else data.draw(st.integers(0, n - 1))
    if d > 1 and data.draw(st.booleans()):
        kappa = ExactScalar(data.draw(fractions), data.draw(fractions.filter(bool)), d)
    else:
        kappa = data.draw(fractions)
    rep = rank_one_bound(a, u, v, kappa)
    assert rep.identity_checked
    m = oracle(a)
    singular = m.det() == m.domain.zero
    assert ("A is singular; no dc gain" in rep.notes) == singular
    if singular:
        assert rep.gain is None and rep.bound_holds is None and not rep.guaranteed
        return
    g = -m.inv().to_Matrix()[v, u]
    assert same(rep.gain, g if g >= 0 else -g)
    assert ("dc gain is negative; bound applied to its magnitude" in rep.notes) == bool(g < 0)


@settings(max_examples=40)
@given(case=reducible(max_n=6), data=st.data())
def test_rank_one_report_matches_sympy(case, data):
    a, d = case
    n = len(a)
    u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if d > 1 and data.draw(st.booleans()):
        kappa = ExactScalar(data.draw(fractions), data.draw(fractions.filter(bool)), d)
    else:
        kappa = data.draw(fractions)
    rep = rank_one_bound(a, u, v, kappa)
    k = to_sympy(exact(kappa))

    m = oracle(a)
    if m.det() == m.domain.zero:
        assert rep.gain is None and rep.bound_holds is None
    else:
        g = -m.inv().to_Matrix()[v, u]
        want = g if g >= 0 else -g
        assert same(rep.gain, want)
        assert rep.bound_holds == bool(sympy.simplify(abs(k) * want - 1) < 0)
        assert ("dc gain is negative; bound applied to its magnitude" in rep.notes) == bool(g < 0)

    A = sympy.Matrix([[to_sympy(x) for x in row] for row in a])
    J = A.copy()
    J[u, v] += k
    checked, held, lam = 0, True, 1
    while checked < 3 and lam < 50:
        shifted = DomainMatrix.from_Matrix(lam * sympy.eye(n) - A, extension=True).to_field()
        if shifted.det() != shifted.domain.zero:
            left = DomainMatrix.from_Matrix(lam * sympy.eye(n) - J, extension=True).to_field()
            right = (shifted.domain.to_sympy(shifted.det())
                     * (1 - k * shifted.inv().to_Matrix()[v, u]))
            held = held and sympy.expand(left.domain.to_sympy(left.det()) - right) == 0
            checked += 1
        lam += 1
    assert rep.identity_checked == (held and checked == 3)
    assert rep.kappa == exact(kappa)
