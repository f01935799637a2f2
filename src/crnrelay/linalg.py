"""Exact matrices, characteristic polynomials, and stability sign tests.

The module is functional in the style of small scientific codebases rather
than object-oriented. Everything is exact. A matrix has one form inside the
package, PairMatrix: rows of integer pairs (u, w) over one common
denominator Q, each entry (u + w sqrt(d)) / Q, with w = 0 and d = 1 for a
rational matrix. network builds Jacobians in it, and the kernels, the
transversal blocks, the NGM split and the rank-one check hand it on without
converting it again. The public API still takes plain lists of lists of
ExactScalars (alias ExactMatrix): pair_matrix converts such a matrix once
(a matrix holding two radicands raises MixedExtensions), and a matrix
result comes back in the form it was given. Determinants, inverses and
leading minors come from one fraction-free Bareiss elimination over
Z[sqrt(d)] (Bareiss, Math. Comp. 22, 1968), and each result has one route
through it: det is one pass with row exchanges (_det_pair); the leading
minors are the pivots of one pass without them (_leading_pairs); whether a
Z-matrix is a nonsingular M-matrix is read from one count of its positive
pivots (_positive_pivots), for metzler_sign and leading_solve; and a^-1 b
from one back substitution (_solution), for inverse and leading_solve.
ExactScalars are made only from the values that leave, such as
determinants, minors and coefficients. strong_blocks is the package's one
splitter into strongly connected blocks, for stability's screen and for
char_blocks, which gives the characteristic pairs of each diagonal block,
for stability's Hurwitz blocks and rank-one report.
Leading minors depend on the order of rows and columns, so leading_minors,
leading_solve and metzler_sign eliminate the matrix as it is given.
leading_solve runs that elimination
once over [A | B] without row exchanges, for the next-generation split of
stability: its pivots are the leading minors of A, which decide whether A
is a nonsingular M-matrix, and when they are all positive, back
substitution gives A^-1 B from the same pass. Characteristic polynomials come
from one division-free recurrence (Berkowitz, Inf. Process. Lett. 18, 1984),
written once over a ring given by its dot product, negation and zero test:
char_poly and char_blocks run it on the integer form, and char_coeffs on
the numerators of a rational-function matrix over one common denominator.
poly_product multiplies such pairs as polynomials, and krylov_entries gives
the entries (B^i)[v][u] that, with them, make one adjugate entry of the
characteristic matrix (Faddeev-LeVerrier). One Hurwitz core,
_hurwitz, reads the Hurwitz verdict from the signs of the Bareiss pivots of
a polynomial's Hurwitz matrix in integer pairs: hurwitz_test runs it on a
UniPoly's coefficients, and char_hurwitz, for the char_blocks of
stability.hurwitz_blocks, straight on Berkowitz's pairs, making the
characteristic polynomial and the determinants only when they are read.
metzler_sign likewise decides from the signs of minors in integer pairs and
makes its witness on read. integer_roots is
the package's one real-root splitter: from the primitive integer
coefficients of a univariate polynomial to the real roots that exact
arithmetic can reach, as integer quads, through roots at zero, rational
roots and the one quadratic formula, scalars.quadratic_roots. Its input is
made primitive by poly.primitive_gcd, the package's one univariate content
and gcd. The face solver's terminals call it on the primitive_gcd of their
folded coefficients. char_abscissa calls it on the primitive_gcd of a
characteristic polynomial over Q, read like char_hurwitz's from one pass
of Berkowitz's pairs, and gives stability and relay what they decide from
characteristic roots: the real eigenvalues found, the largest real part
when the factor left unsolved hides none, and otherwise the sign that
nonzero Hurwitz determinants decide; the spectral radius of a
next-generation split is read from it alone. An integer that
scalars.factorize cannot split within its step budget gives no rational
root candidates, so its factor is left unsolved. No decision builds a UniPoly:
char_poly, hurwitz_test and quad_solve (which scales a quadratic's
coefficients by the lcm of their denominators and classifies the roots
that scalars.quadratic_roots gives for their primitive_gcd) are public API,
report fields made on read and closed-form oracles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .errors import AlgebraError, AlgebraTypeError, DegreeTooHigh, NotMetzler, SingularMatrix
from .poly import MultiPoly, RatFunc, primitive_gcd
from .scalars import (Deferred, ExactScalar, OnRead, exact, factorize, from_pair, lowest_quad,
                      one_radicand, pair_sign, quadratic_roots, to_pairs)

ExactMatrix = list  # list[list[ExactScalar]]


class PairMatrix:
    '''A matrix in integer form: rows of integer pairs (u, w) over one
    common denominator Q > 0 and one radicand d, each entry (u + w sqrt(d))
    / Q, with w = 0 and d = 1 in a rational matrix. The package builds its
    matrices in this form (network.Evaluation.pairs), and every kernel here
    takes it as it is. The rows are never changed once made: a kernel that
    eliminates copies them. scalars() gives the entries as ExactScalars.'''

    __slots__ = ("rows", "Q", "d")

    def __init__(self, rows: list, Q: int, d: int = 1):
        self.rows, self.Q, self.d = rows, Q, d

    @staticmethod
    def of_entries(n: int, cells) -> "PairMatrix":
        '''The n x n matrix whose entry (i, j) is the sum of (u + w sqrt(d))
        / q over the (i, j, u, w, q, d) of cells with that (i, j), q > 0, and
        zero where there is none, over the lcm of the q.'''
        Q = math.lcm(*[q for _, _, _, _, q, _ in cells])
        rows = [[(0, 0)] * n for _ in range(n)]
        for i, j, u, w, q, _ in cells:
            x, y = rows[i][j]
            rows[i][j] = (x + u * (Q // q), y + w * (Q // q))
        return PairMatrix(rows, Q, one_radicand([d for *_, d in cells]))

    def __len__(self) -> int:
        return len(self.rows)

    def scalars(self) -> ExactMatrix:
        Q, d = self.Q, self.d
        return [[from_pair(u, w, Q, d) for u, w in row] for row in self.rows]

    def sign(self, i: int, j: int) -> int:
        return pair_sign(*self.rows[i][j], self.d)

    def entry(self, i: int, j: int) -> ExactScalar:
        return from_pair(*self.rows[i][j], self.Q, self.d)

    def __neg__(self) -> "PairMatrix":
        return PairMatrix([[(-u, -w) for u, w in row] for row in self.rows], self.Q, self.d)

    def cells(self, sign: int = 1) -> list:
        '''The entries times sign, as the cells of of_entries.'''
        Q, d = self.Q, self.d
        return [(i, j, sign * u, sign * w, Q, d)
                for i, row in enumerate(self.rows) for j, (u, w) in enumerate(row)]

    def plus(self, cells: Mapping) -> "PairMatrix":
        '''A copy with x (an int, a Fraction or an ExactScalar) added to
        entry (i, j) for each (i, j): x of cells; AlgebraError when (i, j)
        is not an entry (see _require_entry) or x is not exact.'''
        for i, j in cells:
            _require_entry(len(self.rows), i, j)
        pairs, q, ds = to_pairs(list(cells.values()))
        Q = math.lcm(self.Q, q)
        s, t = Q // self.Q, Q // q
        rows = [[(s * u, s * w) for u, w in row] if s > 1 else list(row) for row in self.rows]
        for (i, j), (u, w) in zip(cells, pairs):
            x, y = rows[i][j]
            rows[i][j] = (x + t * u, y + t * w)
        return PairMatrix(rows, Q, one_radicand((self.d, *ds)))


def _require_entry(n: int, i, j) -> None:
    '''AlgebraError when (i, j) is not an entry of an n x n matrix: each
    an int, not a bool, in range(n).'''
    if not all(isinstance(k, int) and not isinstance(k, bool) and 0 <= k < n for k in (i, j)):
        raise AlgebraError(f"no entry ({i!r}, {j!r}) in a matrix of size {n}")


def _reduced(rows: list, Q: int, d: int) -> PairMatrix:
    '''The rows over Q (of either sign) as a PairMatrix, with the common
    factor of Q and every integer of the rows taken out.'''
    g = math.gcd(Q, *[x for row in rows for pair in row for x in pair])
    if Q < 0:
        g = -g
    if g != 1:
        rows = [[(u // g, w // g) for u, w in row] for row in rows]
    return PairMatrix(rows, Q // g, d)


def pair_matrix(a, square: bool = True) -> PairMatrix:
    '''a as a PairMatrix: a itself when it is one, otherwise its entries
    (ints, Fractions or ExactScalars) converted once by to_pairs, over their
    least common denominator. MixedExtensions when a holds two radicands;
    AlgebraError when a is not a sequence of rows, is ragged, or is not
    square and square is set.'''
    rows = a.rows if type(a) is PairMatrix else a
    try:
        widths = set(map(len, rows))
    except TypeError:
        raise AlgebraError("a matrix is a sequence of rows, each a sequence of entries") from None
    if len(widths) > 1 or (square and not widths <= {len(rows)}):
        raise AlgebraError(f"{'non-square' if square else 'ragged'} matrix: "
                           f"rows of lengths {[len(r) for r in rows]}")
    if type(a) is PairMatrix:
        return a
    pairs, Q, ds = to_pairs([x for row in a for x in row])
    k = widths.pop() if widths else 0
    return PairMatrix([pairs[i * k:(i + 1) * k] for i in range(len(a))], Q, one_radicand(ds))


# ---------------------------------------------------------------------------
# matrix basics: each takes an ExactMatrix or a PairMatrix, and a matrix it
# returns is a PairMatrix when one of its arguments is
# ---------------------------------------------------------------------------

def mat(rows) -> ExactMatrix:
    '''Coerce nested ints/Fractions/ExactScalars to a rectangular ExactMatrix.'''
    try:
        out = [[exact(x) for x in row] for row in rows]
    except TypeError as exc:
        raise AlgebraError(str(exc)) from None
    if out and any(len(r) != len(out[0]) for r in out):
        raise AlgebraError(f"ragged matrix: rows of lengths {[len(r) for r in out]}")
    return out


def identity(n: int) -> ExactMatrix:
    return [[exact(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    '''a b; AlgebraError when the columns of a do not match the rows of b.'''
    pa, pb = pair_matrix(a, False), pair_matrix(b, False)
    if pa.rows and len(pa.rows[0]) != len(pb):
        raise AlgebraError(f"{len(pa.rows[0])} columns times {len(pb)} rows")
    d = one_radicand((pa.d, pb.d))
    cols = list(zip(*pb.rows))
    rows = []
    for row in pa.rows:
        terms = [(k, x) for k, x in enumerate(row) if x != (0, 0)]
        rows.append([_dot(terms, col, d) for col in cols])
    out = _reduced(rows, pa.Q * pb.Q, d)
    return out if PairMatrix in (type(a), type(b)) else out.scalars()


def _dot(terms, v, d: int) -> tuple[int, int]:
    '''The sum of x v[j] over the (j, x) in terms, in Z[sqrt(d)].'''
    su = sw = 0
    for j, (xu, xw) in terms:
        yu, yw = v[j]
        su += xu * yu + d * xw * yw
        sw += xu * yw + xw * yu
    return su, sw


def submatrix(a, rows: Sequence[int], cols: Sequence[int]):
    if type(a) is PairMatrix:
        return PairMatrix([[a.rows[i][j] for j in cols] for i in rows], a.Q, a.d)
    return [[a[i][j] for j in cols] for i in rows]


def _bareiss(m: list, d: int, exchange: bool = True) -> tuple[list, int]:
    '''Fraction-free elimination (Bareiss) of the rows m of integer pairs
    in place, over Z[sqrt(d)], to upper-triangular form in their first
    len(m) columns; later columns are right-hand sides. Step k sets every
    entry right of column k in the rows below it to (p x - a y) / q, with p
    the pivot, a the row's entry in column k, y the pivot row's entry and q
    the previous pivot; the division is exact, through the conjugate and
    the norm of q, and runs whenever q is not 1 (a unit such as -1 or
    1 + sqrt(2) divides too). The k-th pivot is then the k-th leading minor
    of the (row-exchanged) matrix. A zero pivot is exchanged for the first
    nonzero entry below it, or, without exchange, ends the elimination.

    Returns the pivots found and the sign of the row permutation; fewer
    than len(m) pivots means the square part is singular (or, without
    exchange, that a leading minor vanishes).'''
    n = len(m)
    width = len(m[0]) if m else 0
    sign = 1
    pivots = []
    qu, qw = 1, 0
    for k in range(n):
        if m[k][k] == (0, 0):
            r = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None) if exchange else None
            if r is None:
                break
            m[k], m[r] = m[r], m[k]
            sign = -sign
        prow = m[k]
        pu, pw = prow[k]
        pivots.append((pu, pw))
        norm = qu * qu - d * qw * qw
        for r in range(k + 1, n):
            row = m[r]
            au, aw = row[k]
            for c in range(k + 1, width):
                xu, xw = row[c]
                yu, yw = prow[c]
                if not (xu or xw) and (not (au or aw) or not (yu or yw)):
                    continue
                tu = pu * xu + d * pw * xw - au * yu - d * aw * yw
                tw = pu * xw + pw * xu - au * yw - aw * yu
                if qw:
                    tu, tw = tu * qu - d * tw * qw, tw * qu - tu * qw
                    row[c] = (tu // norm, tw // norm)
                elif qu != 1:
                    row[c] = (tu // qu, tw // qu)
                else:
                    row[c] = (tu, tw)
        qu, qw = pu, pw
    return pivots, sign


def _solve_pairs(m: list, col: int, D: tuple, d: int) -> list:
    '''D times the solution of the upper-triangular system left by
    _bareiss, for its right-hand side in column col, with D its last
    pivot. By Cramer's rule that product is integral, so each step divides
    exactly.'''
    n = len(m)
    Du, Dw = D
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        bu, bw = row[col]
        su, sw = Du * bu + d * Dw * bw, Du * bw + Dw * bu
        for k in range(i + 1, n):
            yu, yw = row[k]
            if yu or yw:
                xu, xw = x[k]
                su -= yu * xu + d * yw * xw
                sw -= yu * xw + yw * xu
        pu, pw = row[i]
        norm = pu * pu - d * pw * pw
        x[i] = ((su * pu - d * sw * pw) // norm, (sw * pu - su * pw) // norm)
    return x


def _solution(m: list, pivots: list, d: int, Qa: int, Qb: int) -> PairMatrix:
    '''a^-1 b as a PairMatrix, for the rows m = [A | B] that _bareiss
    eliminated with all n pivots found, A = Qa a and B = Qb b integer
    forms. With D the last pivot, _solve_pairs gives each column x of D
    A^-1 B, and a^-1 b = Qa A^-1 B / Qb is Qa x times the conjugate of D,
    over Qb and the norm of D. The package's one back substitution.'''
    n = len(pivots)
    Du, Dw = pivots[-1] if pivots else (1, 0)
    cols = [_solve_pairs(m, c, (Du, Dw), d) for c in range(n, len(m[0]) if m else n)]
    rows = [[(Qa * (xu * Du - d * xw * Dw), Qa * (xw * Du - xu * Dw)) for xu, xw in row]
            for row in zip(*cols)]
    return _reduced(rows, Qb * (Du * Du - d * Dw * Dw), d)


def _support(rows: list) -> list:
    '''Where the square rows of integer pairs are nonzero: the support that
    strong_blocks and _closure read.'''
    return [[u or w for u, w in row] for row in rows]


def _closure(support) -> list[int]:
    '''For each vertex j of the graph on range(n) with an edge j -> i
    wherever support[i][j] is true, the vertices j reaches (j included) as
    the bits of one int, closed by Warshall's algorithm.'''
    n = len(support)
    reach = [1 << j for j in range(n)]
    for i, row in enumerate(support):
        for j in range(n):
            if row[j]:
                reach[j] |= 1 << i
    for k in range(n):
        for j in range(n):
            if reach[j] >> k & 1:
                reach[j] |= reach[k]
    return reach


def strong_blocks(support) -> list[list[int]]:
    '''The strongly connected components of the graph on range(n) with an
    edge j -> i wherever support[i][j] is true, for a square support matrix:
    the sets of vertices that reach each other (_closure). Each component
    sorted, and the components ordered by their smallest member. One
    simultaneous permutation of rows and columns makes a matrix with that
    support block-triangular, with these blocks on its diagonal. The
    package's one splitter into strongly connected blocks.'''
    reach = _closure(support)
    n = len(reach)
    blocks, placed = [], 0
    for v in range(n):
        if not placed >> v & 1:
            block = [k for k in range(n) if reach[v] >> k & 1 and reach[k] >> v & 1]
            for k in block:
                placed |= 1 << k
            blocks.append(block)
    return blocks


def _det_pair(rows: list, d: int) -> tuple[int, int]:
    '''The determinant of the square rows of integer pairs over
    Z[sqrt(d)], as a pair, from one Bareiss elimination with row
    exchanges.'''
    pivots, sign = _bareiss([list(row) for row in rows], d)
    if len(pivots) < len(rows):
        return 0, 0
    u, w = pivots[-1] if pivots else (1, 0)
    return sign * u, sign * w


def _leading_pairs(rows: list, d: int) -> list:
    '''The leading principal minors of the square rows of integer pairs
    over Z[sqrt(d)], as pairs: the pivots of one Bareiss elimination
    without row exchanges and, from the first zero pivot on, the _det_pair
    of each remaining block. For rows over a denominator Q, the k-th is
    the k-th leading minor times Q^k, so each has that minor's sign.'''
    pivots = _bareiss([list(row) for row in rows], d, False)[0]
    return pivots + [_det_pair([row[:k] for row in rows[:k]], d)
                     for k in range(len(pivots) + 1, len(rows) + 1)]


def _positive_pivots(m: list, d: int) -> tuple[int, list]:
    '''The number k of leading principal minors of the square part of the
    rows m of integer pairs over Z[sqrt(d)] that are positive before the
    first that is not, and the pivots, from one Bareiss elimination of m in
    place without row exchanges, whose pivots have the signs of those
    minors. k == len(m) exactly when every leading minor is positive: for
    a Z-matrix, when it is a nonsingular M-matrix.'''
    pivots = _bareiss(m, d, False)[0]
    return next((k for k, p in enumerate(pivots) if pair_sign(*p, d) <= 0), len(pivots)), pivots


def det(a) -> ExactScalar:
    '''Exact determinant: _det_pair of the integer form, one Bareiss
    elimination over Z[sqrt(d)] with row exchanges.'''
    p = pair_matrix(a)
    return from_pair(*_det_pair(p.rows, p.d), p.Q ** len(p), p.d)


def leading_minors(a) -> list[ExactScalar]:
    '''The leading principal minors det(a[:k][:k]) for k = 1..n, from
    _leading_pairs of the integer form.'''
    p = pair_matrix(a)
    Q, d = p.Q, p.d
    return [from_pair(u, w, Q ** k, d) for k, (u, w) in enumerate(_leading_pairs(p.rows, d), 1)]


def leading_solve(a, b) -> tuple[int, PairMatrix | None]:
    '''One Bareiss elimination of [a | b] without row exchanges, for a
    square and b with as many rows: its k-th pivot is the k-th leading
    principal minor of a times a positive factor. Returns the number k of
    leading minors of a that are positive before the first that is not
    (_positive_pivots) and, when all n are (k == n), a^-1 b as a
    PairMatrix from back substitution on the same pass (_solution); None
    otherwise. AlgebraError when b has another number of rows.'''
    pa, pb = pair_matrix(a), pair_matrix(b, False)
    n = len(pa)
    if len(pb) != n:
        raise AlgebraError(f"{n} rows on the left, {len(pb)} on the right")
    d = one_radicand((pa.d, pb.d))
    m = [ra + rb for ra, rb in zip(pa.rows, pb.rows)]
    k, pivots = _positive_pivots(m, d)
    if k < n:
        return k, None
    return n, _solution(m, pivots, d, pa.Q, pb.Q)


def inverse(a):
    '''Exact inverse, from one Bareiss elimination with row exchanges of
    the integer form Q a beside the unit columns, and _solution on it.
    SingularMatrix when the determinant vanishes.'''
    p = pair_matrix(a)
    n, d = len(p), p.d
    m = [list(row) + [(int(i == j), 0) for j in range(n)] for i, row in enumerate(p.rows)]
    pivots = _bareiss(m, d)[0]
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    inv = _solution(m, pivots, d, p.Q, 1)
    return inv if type(a) is PairMatrix else inv.scalars()


# ---------------------------------------------------------------------------
# univariate polynomials over ExactScalar (constant-first coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients constant-first: ints,
    Fractions or ExactScalars, kept as ExactScalars; AlgebraTypeError for
    anything else, a float among them."""

    coeffs: tuple[ExactScalar, ...]
    name: str = "lambda"

    def __post_init__(self):
        try:
            coeffs = tuple(self.coeffs)
        except TypeError:
            raise AlgebraTypeError(f"the coefficients of a UniPoly are a sequence, "
                                   f"not {type(self.coeffs).__name__}") from None
        object.__setattr__(self, "coeffs", tuple(map(exact, coeffs)))

    @staticmethod
    def make(coeffs, name: str = "lambda") -> "UniPoly":
        cs = [exact(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return UniPoly(tuple(cs), name)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> ExactScalar:
        x = exact(x)
        acc = exact(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def rational_coeffs(self) -> list[Fraction]:
        return [c.to_fraction() for c in self.coeffs]

    def __str__(self) -> str:
        '''The terms from the highest power down, each a sign and the
        coefficient's magnitude, in parentheses when it has both a rational
        and an irrational part.'''
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            mag = c if c.sign() > 0 else -c
            body = f"({mag})" if mag.a and mag.b else str(mag)
            if k:
                mono = self.name if k == 1 else f"{self.name}^{k}"
                body = mono if mag == exact(1) else f"{body}*{mono}"
            parts.append(("- " if c.sign() < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _berkowitz(a: list, dot, neg, is_zero, one) -> list:
    '''The leading-first coefficients (one, p_1, ..., p_n) of det(lambda I - a)
    for a square matrix a over a commutative ring, by Berkowitz's
    division-free recurrence (Inf. Process. Lett. 18, 1984). With A_r the
    leading r x r block of a, column c and row s its border in A_{r+1}, and
    b its corner entry, the coefficients for A_{r+1} are the Toeplitz product
    of (1, -b, -s c, -s A_r c, ..., -s A_r^(r-1) c) with those for A_r.

    The ring enters through dot(terms, v), the sum of x v[j] over the
    (j, x) in terms, through neg, and through is_zero, which drops the zero
    entries of a from every product.'''
    p = [one, neg(a[0][0])] if a else [one]
    for r in range(1, len(a)):
        toeplitz = [one, neg(a[r][r])]
        block = [[(j, x) for j, x in enumerate(a[i][:r]) if not is_zero(x)] for i in range(r)]
        border = [(j, x) for j, x in enumerate(a[r][:r]) if not is_zero(x)]
        v = [a[i][r] for i in range(r)]  # A_r^k c
        for k in range(r):
            toeplitz.append(neg(dot(border, v)))
            if k < r - 1:
                v = [dot(row, v) for row in block]
        p = [one] + [dot([(i - j, p[j]) for j in range(min(i, r) + 1)], toeplitz)
                     for i in range(1, r + 2)]
    return p


def _char_pairs(p: PairMatrix) -> list:
    '''_berkowitz on B = Q M, the integer form of M over Z[sqrt(d)]
    (rational matrices have w = 0): the pairs c_0 = 1, c_1, ..., c_n,
    leading first, of det(mu I - B); the coefficient of lambda^(n-k) in
    det(lambda I - M) is c_k / Q^k.'''
    d = p.d
    return _berkowitz(p.rows, lambda terms, v: _dot(terms, v, d), lambda x: (-x[0], -x[1]),
                      (0, 0).__eq__, (1, 0))


def char_blocks(m) -> list[tuple[list[int], list]]:
    '''The strong_blocks of a square matrix m (an ExactMatrix or a
    PairMatrix), each with the _char_pairs of its diagonal block of the
    integer form B = Q m. One simultaneous permutation makes B
    block-triangular with these blocks on its diagonal, so the pairs of
    det(mu I - B) are the poly_product of the blocks' pairs.'''
    p = pair_matrix(m)
    return [(idx, _char_pairs(submatrix(p, idx, idx))) for idx in strong_blocks(_support(p.rows))]


def poly_product(a: list, b: list, d: int, size: Optional[int] = None) -> list:
    '''The coefficients of the product of two polynomials whose
    coefficients, both taken in one order, are the integer pairs a and b
    over Z[sqrt(d)]; only the first size of them when size is given, each
    computed from the terms that reach it alone.'''
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    out = [(0, 0)] * size
    for i, (au, aw) in enumerate(a[:size]):
        if au or aw:
            for j, (bu, bw) in enumerate(b[:size - i], i):
                u, w = out[j]
                out[j] = (u + au * bu + d * aw * bw, w + au * bw + aw * bu)
    return out


def krylov_entries(m, u: int, v: int) -> list:
    '''The pairs (B^i)[v][u] for i = 0, ..., n - 1, for B = Q m the integer
    form of a square matrix m, from n - 1 products of B, its zero entries
    dropped, with the vectors B^i e_u. AlgebraError when (u, v) is not an
    entry of m (each an int, not a bool, in range(n)).'''
    p = pair_matrix(m)
    n, d = len(p), p.d
    _require_entry(n, u, v)
    rows = [[(j, x) for j, x in enumerate(row) if x != (0, 0)] for row in p.rows]
    x = [(int(i == u), 0) for i in range(n)]
    out = [x[v]]
    for _ in range(n - 1):
        x = [_dot(row, x, d) for row in rows]
        out.append(x[v])
    return out


def _unipoly(c: list, Q: int, d: int) -> UniPoly:
    '''The characteristic polynomial of M from the _char_pairs c of its
    integer form over Q.'''
    return UniPoly(tuple(from_pair(u, w, Q ** k, d) for k, (u, w) in enumerate(c))[::-1])


def char_poly(m) -> UniPoly:
    '''Monic characteristic polynomial det(lambda*I - M), from the
    _char_pairs of its integer form.'''
    p = pair_matrix(m)
    return _unipoly(_char_pairs(p), p.Q, p.d)


def char_coeffs(a: Sequence[Sequence[RatFunc]]) -> list[RatFunc]:
    '''The coefficients c_1..c_n of det(lambda I - A) = lambda^n + c_1
    lambda^(n-1) + ... + c_n for a square matrix A of rational functions.

    _berkowitz on the numerators of A over one common denominator L; then
    c_k = p_k / L^k. L is the product of the distinct entry denominators,
    taken by decreasing total degree, less each one that divides the
    product of those before it (so entries over D and D^2 give L = D^2).'''
    dens: list[MultiPoly] = []
    for row in a:
        for x in row:
            if not x.den.is_constant and x.den not in dens:
                dens.append(x.den)
    L = MultiPoly.const(1)
    for den in sorted(dens, key=lambda q: -sum(q.leading()[0])):
        if L.exact_div(den) is None:
            L = L * den
    num = [[x.num * L.exact_div(x.den) for x in row] for row in a]
    p = _berkowitz(num, lambda terms, v: sum((x * v[j] for j, x in terms), MultiPoly.const(0)),
                  operator.neg, operator.attrgetter("is_zero"), MultiPoly.const(1))
    return [RatFunc(pk, L ** k) for k, pk in enumerate(p[1:], 1)]


# ---------------------------------------------------------------------------
# Hurwitz test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HurwitzReport:
    verdict: str  # "Hurwitz" | "NotHurwitz" | "Boundary"
    determinants: tuple[ExactScalar, ...]

    @property
    def is_hurwitz(self) -> bool:
        return self.verdict == "Hurwitz"


def hurwitz_test(p: UniPoly) -> HurwitzReport:
    '''Classify a real polynomial by its Hurwitz determinants.

    With the leading coefficient normalised positive: all determinants
    positive means every root has negative real part ("Hurwitz"); any
    negative determinant reports "NotHurwitz"; otherwise (some determinant
    exactly zero, none negative) the verdict is "Boundary". The zero/negative
    split is the pinned contract of this function; degenerate inputs are
    classified by it as stated, not by any sharper root analysis. The
    verdict and the determinants come from _hurwitz, the one Hurwitz core,
    on the coefficients' integer pairs over their common denominator D: its
    k-th pair is the k-th determinant times D^k.
    AlgebraTypeError for anything but a UniPoly.
    '''
    if not isinstance(p, UniPoly):
        raise AlgebraTypeError(f"hurwitz_test takes a UniPoly, not {type(p).__name__}")
    if p.is_zero:
        raise AlgebraError("cannot classify the zero polynomial")
    a, D, ds = to_pairs(p.coeffs)
    d = one_radicand(ds)
    if pair_sign(*a[-1], d) < 0:
        a = [(-u, -w) for u, w in a]
    verdict, minors = _hurwitz(a, d)
    return _hurwitz_report(verdict, minors, d, D.__pow__)


def char_hurwitz(c: list, Q: int, d: int) -> tuple[str, Deferred, Deferred]:
    '''The verdict of hurwitz_test(char_poly(m)) for a square matrix m,
    decided in integers from the _char_pairs c of its integer form B = Q m
    over Z[sqrt(d)] (char_blocks gives them block by block), with
    char_poly(m) and that report as Deferreds that make them when read
    (scalars.OnRead).

    The c_k are the coefficients of det(mu I - B), whose roots are Q times
    the eigenvalues of m, so the one Hurwitz core, _hurwitz, gives m's
    verdict on them as they are. Its Hurwitz matrix is m's with row i
    times Q^(2i) and column j times Q^-j, so its k-th leading minor is m's
    k-th Hurwitz determinant times Q^(k(k+1)/2).'''
    verdict, minors = _hurwitz(c[::-1], d)
    return (verdict, Deferred(_unipoly, c, Q, d),
            Deferred(_hurwitz_report, verdict, minors, d, lambda k: Q ** (k * (k + 1) // 2)))


def _hurwitz(a: list, d: int) -> tuple[str, list]:
    '''The Hurwitz verdict (see hurwitz_test) on the polynomial whose
    coefficients, constant first, the leading one positive, are the integer
    pairs a over Z[sqrt(d)], and the leading minors of its Hurwitz matrix
    H[i][j] = a_{n-2i+j} (1-based i, j), zero where the index runs out, as
    _leading_pairs gives them; the verdict reads only their signs.'''
    n = len(a) - 1
    H = [[a[k] if 0 <= k <= n else (0, 0) for k in range(n - 2 * i - 1, 2 * n - 2 * i - 1)]
         for i in range(n)]
    minors = _leading_pairs(H, d)
    signs = {pair_sign(u, w, d) for u, w in minors}
    return ("NotHurwitz" if -1 in signs else "Boundary" if 0 in signs else "Hurwitz"), minors


def _hurwitz_report(verdict: str, minors: list, d: int, scale) -> HurwitzReport:
    '''The report of _hurwitz's verdict and minors, the k-th determinant
    being the k-th minor over scale(k).'''
    return HurwitzReport(verdict, tuple(from_pair(u, w, scale(k), d)
                                        for k, (u, w) in enumerate(minors, 1)))


# ---------------------------------------------------------------------------
# Metzler abscissa sign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignReport:
    verdict: str  # "Negative" | "Zero" | "Positive"
    witness: dict = OnRead()   # made on first read (see metzler_sign)


def is_metzler(m) -> bool:
    p = pair_matrix(m)
    n = len(p)
    return all(p.sign(i, j) >= 0 for i in range(n) for j in range(n) if i != j)


def metzler_sign(m) -> SignReport:
    '''Sign of the spectral abscissa of a Metzler matrix, by M-matrix minors.

    Let A = -M (a Z-matrix). All leading principal minors of A positive means
    A is a nonsingular M-matrix, i.e. the abscissa of M is negative. Failing
    that, all principal minors of A nonnegative puts the spectrum of M in the
    closed left half-plane with 0 attained: abscissa zero. Anything else is
    positive.

    The verdict reads the signs of the minors' integer pairs (the count of
    _positive_pivots, then _det_pair); the witness, the leading minors and
    for "Positive" the first negative principal minor and its index, is
    made on first read.
    '''
    p = pair_matrix(m)
    n, d = len(p), p.d
    if not is_metzler(p):
        raise NotMetzler("metzler_sign needs nonnegative off-diagonal entries")
    a = -p
    if _positive_pivots([list(row) for row in a.rows], d)[0] == n:
        return SignReport("Negative", Deferred(_metzler_witness, a))
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            if pair_sign(*_det_pair(submatrix(a, idx, idx).rows, d), d) < 0:
                return SignReport("Positive", Deferred(_metzler_witness, a, idx))
    return SignReport("Zero", Deferred(_metzler_witness, a))


def _metzler_witness(a: PairMatrix, idx: Optional[tuple] = None) -> dict:
    witness = {"leading_minors": tuple(leading_minors(a))}
    if idx is not None:
        witness.update(negative_minor_index=idx, negative_minor=det(submatrix(a, idx, idx)))
    return witness


# ---------------------------------------------------------------------------
# exact quadratic root classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    kind: str  # "LinearRoot" | "TwoRational" | "DoubleRoot" | "QuadExt" | "NoRealRoot"
    roots: tuple[ExactScalar, ...]
    disc: Fraction | None = None
    d: int = 1


def quad_solve(p: UniPoly) -> RootSet:
    '''Exact real roots of a rational polynomial of degree at most two.

    Classification is part of the contract: a linear input gives LinearRoot;
    a quadratic gives TwoRational (perfect-square discriminant), DoubleRoot
    (zero discriminant), QuadExt with the square-free d of the extension, or
    NoRealRoot. Roots are sorted ascending. AlgebraTypeError for anything
    but a UniPoly.
    '''
    if not isinstance(p, UniPoly):
        raise AlgebraTypeError(f"quad_solve takes a UniPoly, not {type(p).__name__}")
    if not all(c.is_rational for c in p.coeffs):
        raise AlgebraError(f"quad_solve needs rational coefficients, got {p}")
    coeffs = p.rational_coeffs()
    if not coeffs:
        raise AlgebraError("cannot solve the zero polynomial")
    n = len(coeffs) - 1
    if n > 2:
        raise DegreeTooHigh(f"degree {n} polynomial; this solver stops at 2")
    if n == 0:
        raise AlgebraError("constant polynomial has no roots to classify")
    lcm = math.lcm(*(c.denominator for c in coeffs))
    f = primitive_gcd([c.numerator * (lcm // c.denominator) for c in coeffs])
    quads = quadratic_roots(*f + [0] * (2 - n))
    roots = tuple(from_pair(*r) for r in quads)
    if n == 1:
        return RootSet("LinearRoot", roots)
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    d = quads[0][3] if quads else 1
    kind = ("NoRealRoot" if disc < 0 else "DoubleRoot" if disc == 0
            else "TwoRational" if d == 1 else "QuadExt")
    return RootSet(kind, roots, disc, d)


# ---------------------------------------------------------------------------
# exact real roots of a univariate polynomial
# ---------------------------------------------------------------------------

_MAX_ROOT_CANDIDATES = 1 << 16


def integer_roots(f: Sequence[int]) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    '''The real roots found exactly, with multiplicity, of the polynomial
    with primitive integer coefficients f (constant first, the last one
    nonzero), each as the reduced quad (u, w, q, d) of
    scalars.quadratic_roots, and the integer factor rest of f left
    unsolved: f is rest times an integer polynomial whose roots are the
    roots found. Roots at zero are split off; while the degree is above
    two, rational roots p/q found by _rational_root are divided out as
    q x - p; a last factor of degree one or two is solved by
    scalars.quadratic_roots. rest is then 1 or -1, a quadratic with no
    real root, or a factor of degree above two with no rational root among the
    first _MAX_ROOT_CANDIDATES candidates. The package's one root
    splitter.'''
    f = list(f)
    roots = []
    while len(f) > 1 and not f[0]:
        roots.append((0, 0, 1, 1))
        f.pop(0)
    while len(f) > 3 and (r := _rational_root(f)) is not None:
        roots.append((r[0], 0, r[1], 1))
        f = _deflate(f, *r)
    if len(f) in (2, 3):
        found = quadratic_roots(*f, *[0] * (3 - len(f)))
        if found:
            roots.extend(found * (2 if len(f) == 3 and len(found) == 1 else 1))
            f = [1]
    return roots, f


def char_abscissa(m) -> tuple[Optional[tuple], list, bool, Optional[str]]:
    '''What the characteristic roots of a square matrix m (an ExactMatrix or
    a PairMatrix) decide, read from one _char_pairs pass over its integer
    form, whose pairs give Q^n det(lambda I - m) the coefficient c_(n-j) Q^j
    of lambda^j: (alpha, roots, rational, sign).

    rational says whether every coefficient is rational (every w = 0), and
    roots are the real eigenvalues found exactly, with multiplicity, as
    quads (u, w, q, d) of scalars.from_pair. Over Q they are those that
    integer_roots finds in the primitive_gcd of those coefficients; over
    Q(sqrt(d)), the roots at zero and the root -c_1 / Q of a last linear
    factor. alpha is the largest real part among the eigenvalues, as a
    quad, when the factor left unsolved hides none: a constant, or a
    quadratic r2 x^2 + r1 x + r0 with no real root (r2 > 0), whose pair
    has real part -r1 / (2 r2); None otherwise. When alpha is None and no Hurwitz determinant
    (_hurwitz on the same pairs) is zero, sign is "Negative" if they are
    all positive and "Positive" if not (no root lies on the imaginary axis,
    and a negative determinant forces a root with positive real part); it
    is None otherwise.'''
    p = pair_matrix(m)
    Q, d = p.Q, p.d
    c = _char_pairs(p)
    rational = not any(w for _, w in c)
    if rational:
        f = [u * Q ** j for j, (u, _) in enumerate(reversed(c))]
        roots, rest = integer_roots(primitive_gcd(f))
        known = len(rest) in (1, 3)
        parts = roots + [lowest_quad(-rest[1], 0, 2 * rest[2], 1)] if len(rest) == 3 else roots
    else:   # the roots at zero, and the root of lambda + c_1 / Q when that factor is left
        zeros = next(j for j, x in enumerate(reversed(c)) if x != (0, 0))
        known = zeros == len(c) - 2
        roots = [(0, 0, 1, 1)] * zeros
        if known:
            roots.append(lowest_quad(-c[1][0], -c[1][1], Q, d))
        parts = roots
    alpha = max(parts, key=cmp_to_key(_quad_order)) if known and parts else None
    sign = None
    if alpha is None:
        verdict, minors = _hurwitz(c[::-1], d)
        if all(pair_sign(u, w, d) for u, w in minors):
            sign = "Negative" if verdict == "Hurwitz" else "Positive"
    return alpha, roots, rational, sign


def _quad_order(x: tuple, y: tuple) -> int:
    '''The sign of x - y for quads x and y of one radicand, or of d = 1.'''
    (xu, xw, xq, xd), (yu, yw, yq, yd) = x, y
    return pair_sign(xu * yq - yu * xq, xw * yq - yw * xq, max(xd, yd))


def _rational_root(f: list[int]) -> Optional[tuple[int, int]]:
    '''One rational root p/q in lowest terms, q > 0, of the primitive
    integer polynomial f (constant first) with a nonzero constant term, as
    (p, q), or None. Then p | a_0 and q | a_n, p/q lies within Cauchy's
    bound |p/q| <= 1 + max|a_i| / |a_n|, and (q - p) | f(1) and (q + p) |
    f(-1) (Gauss's lemma). The candidates within the bound are tried
    lazily, at most _MAX_ROOT_CANDIDATES of them, and only those that pass
    the divisibility tests are evaluated.'''
    ps = _divisors(abs(f[0]))
    qs = _divisors(abs(f[-1]))
    if ps is None or qs is None:
        return None
    lead = abs(f[-1])
    reach = lead + max(abs(c) for c in f[:-1])   # p/q <= reach/lead
    at_one = sum(f)
    at_minus_one = sum(c if k % 2 == 0 else -c for k, c in enumerate(f))
    n = len(f) - 1
    tried = 0
    for q in qs:
        for p in ps:
            if p * lead > q * reach:
                break
            tried += 1
            if tried > _MAX_ROOT_CANDIDATES:
                return None
            if math.gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if (q - s and at_one % (q - s)) or (q + s and at_minus_one % (q + s)):
                    continue
                if sum(c * s ** k * q ** (n - k) for k, c in enumerate(f)) == 0:
                    return s, q
    return None


def _deflate(f: list[int], p: int, q: int) -> list[int]:
    '''f / (q x - p) in integers, for p/q a root of the integer
    polynomial f (constant first): by Gauss's lemma every step divides
    exactly.'''
    out = [0] * (len(f) - 1)
    acc = 0
    for k in range(len(f) - 1, 0, -1):
        acc = (f[k] + acc * p) // q
        out[k - 1] = acc
    return out


def _divisors(n: int) -> Optional[list[int]]:
    '''The positive divisors of n >= 1 in ascending order; None when there
    are more than _MAX_ROOT_CANDIDATES of them or n cannot be factored.'''
    try:
        primes = factorize(n)
    except AlgebraError:
        return None
    divs = [1]
    for p, k in primes.items():
        divs = [d * p ** e for d in divs for e in range(k + 1)]
        if len(divs) > _MAX_ROOT_CANDIDATES:
            return None
    return sorted(divs)
