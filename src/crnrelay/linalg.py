"""Exact matrices, characteristic polynomials, and stability sign tests.

Matrices are plain lists of lists of ExactScalar (alias ExactMatrix); the
module is functional in the style of small scientific codebases rather than
object-oriented. Everything is exact. Determinants, inverses and single
columns of an inverse come from one forward Gaussian elimination over the
field; characteristic polynomials from a reduction to upper Hessenberg form
by similarity followed by the Hessenberg recurrence (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.2.9), O(n^3) field operations.
These kernels work on plain Fractions when every entry is rational and on
ExactScalars otherwise, with one body for both. real_roots splits off the
real roots of a univariate polynomial that exact arithmetic can reach;
quadratic root classification goes through integer square-free
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import DegreeTooHigh, NotMetzler, SingularMatrix
from .poly import content
from .scalars import ExactScalar, exact, factorize, sqrt_fraction

ExactMatrix = list  # list[list[ExactScalar]]


# ---------------------------------------------------------------------------
# matrix basics
# ---------------------------------------------------------------------------

def mat(rows) -> ExactMatrix:
    '''Coerce nested ints/Fractions/ExactScalars to a rectangular ExactMatrix.'''
    out = [[exact(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> ExactMatrix:
    return [[exact(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = exact(0)
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_scale(a: ExactMatrix, c) -> ExactMatrix:
    c = exact(c)
    return [[x * c for x in row] for row in a]


def submatrix(a: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    return [[a[i][j] for j in cols] for i in rows]


def _field(a: ExactMatrix):
    '''Row copies of a in the smallest field holding its entries, with that
    field's zero and one: plain Fractions when every entry is rational,
    ExactScalars otherwise.'''
    if all(not x.b for row in a for x in row):
        return [[x.a for x in row] for row in a], Fraction(0), Fraction(1)
    return [row[:] for row in a], exact(0), exact(1)


def _eliminate(m: list, zero, one):
    '''Reduce the rows m in place to upper-triangular form in their first
    len(m) columns, pivoting on the first nonzero entry of each column; the
    row operations reach every column, so entries past the square part act
    as right-hand sides. Returns the determinant of the square part, or
    zero (leaving m partly reduced) when it is singular.'''
    n = len(m)
    width = len(m[0]) if m else 0
    result = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        prow = m[col]
        result = result * prow[col]
        inv = one / prow[col]
        for r in range(col + 1, n):
            row = m[r]
            if not row[col]:
                continue
            f = row[col] * inv
            for c in range(col + 1, width):
                if prow[c]:
                    row[c] = row[c] - f * prow[c]
    return result


def _back_substitute(m: list, col: int) -> list:
    '''Solve the upper-triangular system left by _eliminate for its
    right-hand side in column col.'''
    n = len(m)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        s = row[col]
        for k in range(i + 1, n):
            if row[k]:
                s = s - row[k] * x[k]
        x[i] = s / row[i]
    return x


def det(a: ExactMatrix) -> ExactScalar:
    '''Exact determinant by Gaussian elimination with first-nonzero pivoting.'''
    m, zero, one = _field(a)
    return exact(_eliminate(m, zero, one))


def leading_minors(a: ExactMatrix) -> list[ExactScalar]:
    '''The leading principal minors det(a[:k][:k]) for k = 1..n.

    One elimination without row exchanges: adding multiples of a row to
    the rows below it leaves every leading minor unchanged, so the k-th
    minor is the product of the first k pivots. From the first zero pivot
    on, each remaining minor is one det of its block.'''
    m, zero, one = _field(a)
    n = len(m)
    out = []
    d = one
    for k in range(n):
        prow = m[k]
        if not prow[k]:
            break
        d = d * prow[k]
        out.append(exact(d))
        inv = one / prow[k]
        for r in range(k + 1, n):
            row = m[r]
            if not row[k]:
                continue
            f = row[k] * inv
            for c in range(k + 1, n):
                if prow[c]:
                    row[c] = row[c] - f * prow[c]
    return out + [det([row[:k] for row in a[:k]]) for k in range(len(out) + 1, n + 1)]


def det_solve(a: ExactMatrix, j: int) -> tuple[ExactScalar, list[ExactScalar] | None]:
    '''det(a) and column j of a^-1 from one elimination; (0, None) when a
    is singular.'''
    m, zero, one = _field(a)
    for i, row in enumerate(m):
        row.append(one if i == j else zero)
    d = _eliminate(m, zero, one)
    if not d:
        return exact(0), None
    return exact(d), [exact(x) for x in _back_substitute(m, len(m))]


def inverse(a: ExactMatrix) -> ExactMatrix:
    '''Exact inverse; raises SingularMatrix when the determinant vanishes.'''
    m, zero, one = _field(a)
    n = len(m)
    for i, row in enumerate(m):
        row.extend(one if j == i else zero for j in range(n))
    if not _eliminate(m, zero, one):
        raise SingularMatrix("matrix is singular")
    cols = [_back_substitute(m, n + j) for j in range(n)]
    return [[exact(cols[j][i]) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# univariate polynomials over ExactScalar (constant-first coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients constant-first."""

    coeffs: tuple[ExactScalar, ...]
    name: str = "lambda"

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

    def scaled(self, c) -> "UniPoly":
        c = exact(c)
        return UniPoly.make([x * c for x in self.coeffs], self.name)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            if k == 0:
                body = str(c) if c.sign() > 0 else str(-c)
            else:
                mono = self.name if k == 1 else f"{self.name}^{k}"
                if c == exact(1):
                    body = mono
                elif c == exact(-1):
                    body = mono
                else:
                    mag = c if c.sign() > 0 else -c
                    body = f"{mag}*{mono}"
            parts.append(("- " if c.sign() < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def char_poly(m: ExactMatrix) -> UniPoly:
    '''Monic characteristic polynomial det(lambda*I - M).

    M is brought to upper Hessenberg form H by similarity: for each column,
    swap a nonzero subdiagonal entry into place (rows and columns together)
    and clear the entries below it with row operations, each undone on the
    columns. The polynomial then follows from the recurrence p_0 = 1,
    p_k = (lambda - h_kk) p_{k-1}
          - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}.
    '''
    h, zero, one = _field(m)
    n = len(h)
    for k in range(1, n - 1):
        pivot = next((i for i in range(k, n) if h[i][k - 1]), None)
        if pivot is None:
            continue
        if pivot != k:
            h[k], h[pivot] = h[pivot], h[k]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
        hk = h[k]
        inv = one / hk[k - 1]
        for i in range(k + 1, n):
            hi = h[i]
            if not hi[k - 1]:
                continue
            u = hi[k - 1] * inv
            hi[k - 1] = zero
            for j in range(k, n):
                if hk[j]:
                    hi[j] = hi[j] - u * hk[j]
            for row in h:
                if row[i]:
                    row[k] = row[k] + u * row[i]
    polys = [[one]]  # p_0 .. p_n, constant-first
    for k in range(n):
        prev = polys[k]
        p = [zero] + prev
        hkk = h[k][k]
        if hkk:
            for c, x in enumerate(prev):
                p[c] = p[c] - hkk * x
        t = one
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i]
            if not t:
                break
            coef = h[i][k] * t
            if coef:
                for c, x in enumerate(polys[i]):
                    p[c] = p[c] - coef * x
        polys.append(p)
    return UniPoly.make(polys[n])


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


def hurwitz_matrix(coeffs: Sequence[ExactScalar]) -> ExactMatrix:
    '''Hurwitz matrix H[i][j] = a_{n-2i+j} (1-based i, j) for constant-first a.'''
    n = len(coeffs) - 1
    zero = exact(0)

    def a(k: int) -> ExactScalar:
        return coeffs[k] if 0 <= k <= n else zero

    return [[a(n - 2 * (i + 1) + (j + 1)) for j in range(n)] for i in range(n)]


def hurwitz_test(p: UniPoly) -> HurwitzReport:
    '''Classify a real polynomial by its Hurwitz determinants.

    With the leading coefficient normalised positive: all determinants
    positive means every root has negative real part ("Hurwitz"); any
    negative determinant reports "NotHurwitz"; otherwise (some determinant
    exactly zero, none negative) the verdict is "Boundary". The zero/negative
    split is the pinned contract of this function; degenerate inputs are
    classified by it as stated, not by any sharper root analysis.
    '''
    if p.is_zero:
        raise ValueError("cannot classify the zero polynomial")
    coeffs = list(p.coeffs)
    if coeffs[-1].sign() < 0:
        coeffs = [-c for c in coeffs]
    dets = tuple(leading_minors(hurwitz_matrix(coeffs)))
    signs = [x.sign() for x in dets]
    if any(s < 0 for s in signs):
        return HurwitzReport("NotHurwitz", dets)
    if any(s == 0 for s in signs):
        return HurwitzReport("Boundary", dets)
    return HurwitzReport("Hurwitz", dets)


# ---------------------------------------------------------------------------
# Metzler abscissa sign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignReport:
    verdict: str  # "Negative" | "Zero" | "Positive"
    witness: dict = field(default_factory=dict)


def is_metzler(m: ExactMatrix) -> bool:
    n = len(m)
    return all(m[i][j].sign() >= 0 for i in range(n) for j in range(n) if i != j)


def metzler_sign(m: ExactMatrix) -> SignReport:
    '''Sign of the spectral abscissa of a Metzler matrix, by M-matrix minors.

    Let A = -M (a Z-matrix). All leading principal minors of A positive means
    A is a nonsingular M-matrix, i.e. the abscissa of M is negative. Failing
    that, all principal minors of A nonnegative puts the spectrum of M in the
    closed left half-plane with 0 attained: abscissa zero. Anything else is
    positive.
    '''
    n = len(m)
    if not is_metzler(m):
        raise NotMetzler("metzler_sign needs nonnegative off-diagonal entries")
    a = mat_scale(m, -1)
    leading = tuple(leading_minors(a))
    if all(x.sign() > 0 for x in leading):
        return SignReport("Negative", {"leading_minors": leading})
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            value = det(submatrix(a, idx, idx))
            if value.sign() < 0:
                return SignReport("Positive", {
                    "leading_minors": leading,
                    "negative_minor_index": idx,
                    "negative_minor": value,
                })
    return SignReport("Zero", {"leading_minors": leading})


# ---------------------------------------------------------------------------
# exact quadratic root classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    kind: str  # "LinearRoot" | "TwoRational" | "DoubleRoot" | "QuadExt" | "NoRealRoot"
    roots: tuple[ExactScalar, ...]
    disc: Fraction | None = None
    d: int = 1


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    '''Exact rational square root of q >= 0, or None when irrational.'''
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def quad_solve(p: UniPoly) -> RootSet:
    '''Exact real roots of a rational polynomial of degree at most two.

    Classification is part of the contract: a linear input gives LinearRoot;
    a quadratic gives TwoRational (perfect-square discriminant), DoubleRoot
    (zero discriminant), QuadExt with the square-free d of the extension, or
    NoRealRoot. Roots are sorted ascending.
    '''
    coeffs = p.rational_coeffs()
    if not coeffs:
        raise ValueError("cannot solve the zero polynomial")
    n = len(coeffs) - 1
    if n > 2:
        raise DegreeTooHigh(f"degree {n} polynomial; this solver stops at 2")
    if n == 0:
        raise ValueError("constant polynomial has no roots to classify")
    if n == 1:
        b, a = coeffs
        return RootSet("LinearRoot", (exact(Fraction(-b, 1) / a),))
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return RootSet("NoRealRoot", (), disc)
    if disc == 0:
        return RootSet("DoubleRoot", (exact(-c1 / (2 * c2)),), disc)
    root = _fraction_sqrt(disc)
    if root is not None:
        r1 = exact((-c1 - root) / (2 * c2))
        r2 = exact((-c1 + root) / (2 * c2))
        lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
        return RootSet("TwoRational", (lo, hi), disc)
    s = sqrt_fraction(disc)
    half = exact(Fraction(1, 2)) / exact(c2)
    r1 = (exact(-c1) - s) * half
    r2 = (exact(-c1) + s) * half
    lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
    return RootSet("QuadExt", (lo, hi), disc, s.d)


# ---------------------------------------------------------------------------
# exact real roots of a univariate polynomial
# ---------------------------------------------------------------------------

_MAX_ROOT_CANDIDATES = 1 << 16


def real_roots(p: UniPoly) -> tuple[list[ExactScalar], UniPoly]:
    '''The real roots of p found exactly, with multiplicity, and the factor
    left unsolved: rest * prod(x - r) == p, so rest carries p's leading
    coefficient.

    Over any field, roots at zero are split off and a linear factor is
    solved. Over Q, rational roots are deflated down to degree two and
    quad_solve finishes; rest is then a constant, a quadratic with no real
    root, or a factor of degree above two with no rational root among the
    first _MAX_ROOT_CANDIDATES candidates within a root bound. Over
    Q(sqrt(d)), rest may also be a factor of degree two or more with
    irrational coefficients.
    '''
    cs = list(p.coeffs)
    roots: list[ExactScalar] = []
    while len(cs) > 1 and cs[0].is_zero:
        roots.append(exact(0))
        cs.pop(0)
    if all(c.is_rational for c in cs):
        q = [c.to_fraction() for c in cs]
        while len(q) > 3 and (r := _rational_root(q)) is not None:
            roots.append(exact(r))
            q = _deflate(q, r)
        if len(q) == 3:
            rs = quad_solve(UniPoly.make(q, p.name))
            if rs.kind != "NoRealRoot":
                roots.extend(rs.roots * (2 if rs.kind == "DoubleRoot" else 1))
                q = q[2:]
        cs = [exact(c) for c in q]
    if len(cs) == 2:
        roots.append(-cs[0] / cs[1])
        cs = cs[1:]
    return roots, UniPoly.make(cs, p.name)


def _rational_root(coeffs: list[Fraction]) -> Optional[Fraction]:
    '''One rational root of a dense constant-first polynomial with a nonzero
    constant term, or None. A root p/q in lowest terms of its primitive
    integer multiple f has p | a_0 and q | a_n, lies within Cauchy's bound
    |p/q| <= 1 + max|a_i| / |a_n|, and has (q - p) | f(1) and (q + p) | f(-1)
    (Gauss's lemma). The candidates within the bound are tried lazily, at
    most _MAX_ROOT_CANDIDATES of them, and only those that pass the
    divisibility tests are evaluated.'''
    g = content(coeffs)
    f = [int(c / g) for c in coeffs]
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
                    return Fraction(s, q)
    return None


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    '''Divide a dense constant-first polynomial by (x - root).'''
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for k in range(n, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    return out


def _divisors(n: int) -> Optional[list[int]]:
    divs = [1]
    for p, k in factorize(n).items():
        divs = [d * p ** e for d in divs for e in range(k + 1)]
        if len(divs) > _MAX_ROOT_CANDIDATES:
            return None
    return sorted(divs)
