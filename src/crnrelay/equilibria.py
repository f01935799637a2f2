"""Exact equilibria on invariant coordinate faces.

face_equilibria sets the face variables to zero, instantiates the parameters,
and eliminates the remaining system by repeatedly (1) cancelling variable
factors that are required to be nonzero on the face's relative interior,
(2) solving linear-in-one-variable equations, preferring constant pivot
coefficients and deferring the designated keep variable, and (3) finishing
with an exact gcd of the surviving univariate polynomials, solved in closed
form through degree two. Pivots with non-constant coefficients spawn a side
branch (coefficient = 0 and constant part = 0) so no solution is lost, and
every candidate is verified against the original right-hand sides before it
is reported, so spurious roots introduced by cleared denominators are
discarded rather than returned.

Candidates keep their full coordinate vector; the zero set may be strictly
larger than the requested face (ambient variables that happen to vanish).
Variables that belong to some minimal siphon but not to the face are required
to be nonzero: candidates violating that live on a smaller face and are
reported there instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional

from .errors import DegenerateFace, DenominatorZero, MixedExtensions
from .linalg import UniPoly, quad_solve
from .network import Instance, Model, hosting_node, require_invariant_face
from .poly import MultiPoly, RatFunc, dense_gcd, to_dense
from .scalars import ExactScalar, exact
from .scalars import _factorize  # deterministic integer factorisation

_MAX_BRANCH_DEPTH = 6
_MAX_ROOT_CANDIDATES = 512


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceEquilibrium:
    face: frozenset                  # requested face (lattice node)
    zero_set: frozenset              # full set of vanishing coordinates
    coords: dict                     # var -> ExactScalar (empty when Undecided)
    classification: str              # "Rational" | "QuadraticRUR" | "Undecided"
    d: int = 1                       # extension discriminant when QuadraticRUR
    name: Optional[str] = None
    reason: Optional[str] = None

    @property
    def is_decided(self) -> bool:
        return self.classification != "Undecided"

    def describe(self, variables) -> str:
        label = self.name or "equilibrium"
        if not self.is_decided:
            return f"{label}: undecided ({self.reason})"
        parts = [f"{v}={self.coords[v]}" for v in variables]
        return f"{label} [{self.classification}]: " + ", ".join(parts)


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: Optional[bool]           # None when the equilibrium is Undecided
    violations: tuple[tuple[str, ExactScalar], ...]


def positivity_check(e: FaceEquilibrium) -> ExistenceVerdict:
    '''Strict positivity of every nonzero coordinate.'''
    if not e.is_decided:
        return ExistenceVerdict(None, ())
    bad = tuple((v, c) for v, c in e.coords.items()
                if v not in e.zero_set and c.sign() < 0)
    return ExistenceVerdict(not bad, bad)


def assemble_equilibrium(m: Model, coords: dict, name: Optional[str] = None,
                         face: Optional[frozenset] = None) -> FaceEquilibrium:
    '''Build a FaceEquilibrium from a full coordinate map.'''
    coords = {v: exact(coords[v]) for v in m.variables}
    zero_set = frozenset(v for v, c in coords.items() if c.is_zero)
    host = hosting_node(m.lattice(), zero_set)
    ds = {c.d for c in coords.values() if c.b != 0}
    if len(ds) > 1:
        raise MixedExtensions(f"coordinates span extensions {sorted(ds)}")
    classification = "QuadraticRUR" if ds else "Rational"
    d = ds.pop() if ds else 1
    if name is None and m.namer is not None:
        name = m.namer(host, zero_set)
    return FaceEquilibrium(face if face is not None else host,
                           zero_set, coords, classification, d, name)


# ---------------------------------------------------------------------------
# the elimination core
# ---------------------------------------------------------------------------

class _FaceSolver:
    def __init__(self, keep: Optional[str], required: frozenset):
        self.keep = keep
        self.required = required
        self.notes: list[str] = []
        self.terminals: list[tuple[str, tuple[Fraction, ...], int]] = []

    # equation clean-up ----------------------------------------------------

    def _simplify(self, eqs: list[MultiPoly], unknowns: tuple[str, ...]):
        out = []
        for eq in eqs:
            if eq.is_zero:
                continue
            for v in self.required:
                while v in eq.vars and all(
                        e[eq.vars.index(v)] > 0 for e in eq.terms):
                    eq = eq.divide_by_var(v)
            cont = eq.content()
            if cont not in (0, 1):
                eq = eq.scaled(1 / cont)
            out.append(eq)
        return out

    # pivot search ------------------------------------------------------------

    def _find_pivot(self, eqs, unknowns):
        best = None
        for ei, eq in enumerate(eqs):
            for vi, v in enumerate(unknowns):
                if eq.degree_in(v) != 1:
                    continue
                parts = eq.coefficients_in(v)
                c1 = parts[1]
                c0 = parts.get(0, MultiPoly.const(0))
                score = (v == self.keep, not c1.is_constant, len(c1.terms), vi, ei)
                if best is None or score < best[0]:
                    best = (score, ei, v, c1, c0)
        return best

    # terminal univariate ---------------------------------------------------

    def _solve_univariate(self, eqs, var, depth) -> list[dict]:
        dense = [to_dense(eq, var) for eq in eqs]
        g = reduce(dense_gcd, dense)
        if len(g) <= 1:
            return []  # gcd constant: no common root
        self.terminals.append((var, tuple(g), depth))
        roots: list[ExactScalar] = []
        coeffs = list(g)
        while len(coeffs) - 1 > 2:
            r = _rational_root(coeffs)
            if r is None:
                self.notes.append(
                    f"irreducible degree {len(coeffs) - 1} factor in {var} left unsolved")
                return []
            roots.append(exact(r))
            coeffs = _deflate(coeffs, r)
        if len(coeffs) > 1:
            rs = quad_solve(UniPoly.make(coeffs, name=var))
            roots.extend(rs.roots)
        seen = []
        for r in roots:
            if all((r - s).sign() != 0 for s in seen):
                seen.append(r)
        return [{var: r} for r in seen]

    # recursion -----------------------------------------------------------

    def solve(self, eqs: list[MultiPoly], unknowns: tuple[str, ...], depth: int = 0) -> list[dict]:
        eqs = self._simplify(eqs, unknowns)
        for eq in eqs:
            if eq.is_constant and not eq.is_zero:
                return []
        if not unknowns:
            return [{}]
        live = [v for v in unknowns if any(v in eq.vars for eq in eqs)]
        if len(live) < len(unknowns):
            # A variable no equation mentions is only a problem if the rest of
            # the system is consistent; then the face holds a continuum.
            if self.solve(eqs, tuple(live), depth):
                free = sorted(set(unknowns) - set(live))
                raise DegenerateFace(
                    f"variables {free} are unconstrained on the face")
            return []
        pivot = self._find_pivot(eqs, unknowns)
        if pivot is None:
            if len(live) == 1:
                return self._solve_univariate(eqs, live[0], depth)
            if len(eqs) < len(live):
                raise DegenerateFace(
                    f"{len(eqs)} equations for {len(live)} unknowns with no usable pivot")
            self.notes.append(
                f"no linear pivot among {live}; enumeration incomplete")
            return []
        _, ei, v, c1, c0 = pivot
        rest_eqs = [eq for i, eq in enumerate(eqs) if i != ei]
        rest_unknowns = tuple(u for u in unknowns if u != v)
        out: list[dict] = []
        if c1.is_constant:
            rep = c0.scaled(-1 / c1.constant_value())
            reduced = [eq.subst_poly(v, rep) for eq in rest_eqs]
            for cand in self.solve(reduced, rest_unknowns, depth):
                out.append(cand | {v: rep.eval(cand)})
            return out
        neg_c0 = -c0
        reduced = []
        for eq in rest_eqs:
            p, _ = eq.subst_ratio(v, neg_c0, c1)
            reduced.append(p)
        for cand in self.solve(reduced, rest_unknowns, depth):
            den = c1.eval(cand)
            if den.is_zero:
                continue  # outside this branch; the side branch has it
            out.append(cand | {v: neg_c0.eval(cand) / den})
        if depth < _MAX_BRANCH_DEPTH:
            side = rest_eqs + [c1, c0]
            for cand in self.solve(side, unknowns, depth + 1):
                if not any(_same_point(cand, c) for c in out):
                    out.append(cand)
        else:
            self.notes.append("branch depth limit hit; enumeration may be incomplete")
        return out


def _poly_value(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_root(coeffs: list[Fraction]) -> Optional[Fraction]:
    '''One rational root of a dense constant-first polynomial, or None.'''
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return Fraction(0)
    ps = _divisors(abs(a0))
    qs = _divisors(abs(an))
    if ps is None or qs is None or len(ps) * len(qs) > _MAX_ROOT_CANDIDATES:
        return None
    for p in ps:
        for q in qs:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_value(coeffs, cand) == 0:
                    return cand
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
    if n == 0:
        return None
    divs = [1]
    for p, k in _factorize(n).items():
        divs = [d * p ** e for d in divs for e in range(k + 1)]
        if len(divs) > _MAX_ROOT_CANDIDATES:
            return None
    return sorted(divs)


def _same_point(a: dict, b: dict) -> bool:
    return all((a[k] - b[k]).sign() == 0 for k in a)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _face_system(inst: Instance, face: frozenset):
    unknowns = tuple(v for v in inst.model.variables if v not in face)
    eqs = []
    for v in unknowns:
        try:
            on_face = inst.rhs(v).set_zero(face)
        except DenominatorZero as exc:
            raise DegenerateFace(f"rhs of {v} undefined on the face: {exc}") from exc
        eqs.append(on_face.num)
    return unknowns, eqs


def _eliminate(inst: Instance, face: frozenset):
    '''Run the elimination on one face: (solver, candidates). The solver
    keeps the notes and terminal polynomials of the run.'''
    m = inst.model
    required = frozenset(m.lattice().union_all - face)
    unknowns, eqs = _face_system(inst, face)
    solver = _FaceSolver(m.keep_variable if m.keep_variable in unknowns else None, required)
    return solver, solver.solve(eqs, unknowns)


def face_equilibria(m: Model, face, params: Mapping[str, Fraction] | None = None
                    ) -> list[FaceEquilibrium]:
    '''All isolated equilibria in the relative interior of an invariant face
    (interior meant with respect to the siphon variables; ambient variables
    may vanish). See the module docstring for the elimination strategy.
    A face is solved once per parameter point (see Model.at); every call
    returns a new list.'''
    face = require_invariant_face(m, face)
    inst = m.at(params)
    if face not in inst.faces:
        inst.faces[face] = _solve_face(inst, face)
    return list(inst.faces[face])


def _solve_face(inst: Instance, face: frozenset) -> tuple[FaceEquilibrium, ...]:
    m = inst.model
    solver, candidates = _eliminate(inst, face)
    results: list[FaceEquilibrium] = []
    seen: list[dict] = []
    for cand in candidates:
        coords = {v: exact(0) for v in face} | {v: exact(c) for v, c in cand.items()}
        if any(coords[v].is_zero for v in solver.required):
            continue  # lives on a smaller face; reported there
        if not _verify_candidate(inst, coords):
            continue
        if any(_same_point(coords, s) for s in seen):
            continue
        seen.append(coords)
        eq = assemble_equilibrium(m, coords, face=face)
        results.append(eq)
    results.sort(key=lambda e: tuple(e.coords[v].sort_key() for v in m.variables))
    for note in solver.notes:
        results.append(FaceEquilibrium(face, face, {}, "Undecided", reason=note))
    return tuple(results)


def _verify_candidate(inst: Instance, coords) -> bool:
    for v in inst.model.variables:
        f = inst.rhs(v)
        try:
            val = f.eval(coords)
        except DenominatorZero:
            return False
        if not val.is_zero:
            return False
    return True


def eliminate_univariate(m: Model, face, params: Mapping[str, Fraction] | None = None
                         ) -> tuple[str, UniPoly]:
    '''Run the face elimination and return the main-branch terminal univariate
    polynomial (variable name, primitive polynomial), for audit purposes.'''
    face = require_invariant_face(m, face)
    solver, _ = _eliminate(m.at(params), face)
    main = [t for t in solver.terminals if t[2] == 0]
    if not main:
        raise DegenerateFace("elimination did not reach a univariate polynomial")
    var, coeffs, _ = main[0]
    return var, _primitive(UniPoly.make(coeffs, name=var))


def _primitive(poly: UniPoly) -> UniPoly:
    '''Scale to integer coefficients with content one and positive lead.'''
    cs = poly.rational_coeffs()
    if not cs:
        return poly
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, g)
    if cs[-1] < 0:
        scale = -scale
    return poly.scaled(scale)


def all_equilibria(m: Model, params: Mapping[str, Fraction] | None = None,
                   include_interior: bool = True) -> dict[frozenset, list[FaceEquilibrium]]:
    '''face_equilibria over every lattice node (plus the interior face).'''
    lattice = m.lattice()
    faces = list(lattice.nodes)
    if include_interior:
        faces.append(frozenset())
    out: dict[frozenset, list[FaceEquilibrium]] = {}
    for face in faces:
        out[face] = face_equilibria(m, face, params)
    return out
