"""Exact matrices, characteristic polynomials, and stability sign tests.

Matrices are plain lists of lists of ExactScalar (alias ExactMatrix); the
module is functional in the style of small scientific codebases rather than
object-oriented. Everything is exact: determinants by fraction-free-enough
Gaussian elimination over the field, characteristic polynomials by the
Faddeev-LeVerrier recursion, root classification through integer square-free
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DegreeTooHigh, NotMetzler, SingularMatrix
from .scalars import ExactScalar, exact, sqrt_fraction

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


def trace(a: ExactMatrix) -> ExactScalar:
    t = exact(0)
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def submatrix(a: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    return [[a[i][j] for j in cols] for i in rows]


def det(a: ExactMatrix) -> ExactScalar:
    '''Exact determinant by Gaussian elimination with first-nonzero pivoting.'''
    n = len(a)
    m = [row[:] for row in a]
    result = exact(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            return exact(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        p = m[col][col]
        result = result * p
        inv = p.inverse()
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f.is_zero:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return result


def inverse(a: ExactMatrix) -> ExactMatrix:
    '''Exact inverse; raises SingularMatrix when the determinant vanishes.'''
    n = len(a)
    m = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero:
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


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
    '''Monic characteristic polynomial det(lambda*I - M), Faddeev-LeVerrier.'''
    n = len(m)
    coeffs = [exact(0)] * n + [exact(1)]  # constant-first; leading is 1
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        c = -(trace(work) / k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                work[i][i] = work[i][i] + c
    return UniPoly.make(coeffs)


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
    n = len(coeffs) - 1
    if n == 0:
        return HurwitzReport("Hurwitz", ())
    h = hurwitz_matrix(coeffs)
    dets = tuple(det(submatrix(h, range(k), range(k))) for k in range(1, n + 1))
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
    leading = [det(submatrix(a, range(k), range(k))) for k in range(1, n + 1)]
    if all(x.sign() > 0 for x in leading):
        return SignReport("Negative", {"leading_minors": tuple(leading)})
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            value = det(submatrix(a, idx, idx))
            if value.sign() < 0:
                return SignReport("Positive", {
                    "leading_minors": tuple(leading),
                    "negative_minor_index": idx,
                    "negative_minor": value,
                })
    return SignReport("Zero", {"leading_minors": tuple(leading)})


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
