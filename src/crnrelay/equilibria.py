"""Exact equilibria on invariant coordinate faces.

face_equilibria sets the face variables to zero and eliminates the remaining
system by repeatedly (1) cancelling variable factors that are required to be
nonzero on the face's relative interior, (2) solving linear-in-one-variable
equations, preferring constant pivot coefficients and deferring the
designated keep variable, and (3) finishing with the surviving univariate
polynomials: linalg.integer_roots, the package's one root splitter, takes
poly.primitive_gcd of their folded coefficients, one polynomial or
several, of any degree. A terminal whose roots need the square root of an
integer that scalars.factorize cannot split within its budget gives a note
instead, as a factor left unsolved does: that face reports Undecided, and
the other faces are solved as usual.
Pivots with non-constant coefficients spawn a side branch (coefficient = 0
and constant part = 0) so no solution is lost, and every candidate is
verified against the original right-hand sides before it is reported, so
spurious roots introduced by cleared denominators are discarded rather than
returned.

The elimination returns a plan rather than roots: the terminal univariate
polynomials, the back-substitution formulas v = -c0/c1 and the side
branches, evaluated at a point to give the candidates. It starts from the
numerators of the right-hand sides on the face, with the parameters
symbolic; one system per model and face (_face_system) names the unknowns
and the variables required nonzero for both paths below. Each model
compiles the plan of a face once, with the parameters symbolic, from the
model's second point on (Instance.first). A coefficient without unknowns
then counts as a constant, and each one the elimination takes as nonzero (a
pivot, a parameter-only equation that rules a branch out, the leading
coefficient of a terminal polynomial) is recorded as a condition c(p) != 0.
At a point where no condition vanishes, the plan's polynomials, each split
(poly.Split) when its node is first evaluated, are folded through the
Instance's parameter vector (Instance.params): the terminal roots, then
back-substitution by poly.Folded.at, like model entries.
Otherwise, at the model's first point, and for a face whose symbolic run
raised, gave up somewhere or grew past _MAX_PLAN_TERMS, the system's
equations are folded through that vector first and the same solver and
evaluator run on them.

Each compiled plan is a tree of nodes that belongs to its face, kept on the
model under ("face_plan", face). A point checks its conditions and then
evaluates the tree in one pass; only the face's result is kept at the point.

Candidates keep their full coordinate vector, as integer quads (see
_Pivot) from the terminal roots until they are verified at it, one
scalars.PairVector, in one pass over every right-hand side
(Evaluation.is_equilibrium). A verified candidate becomes a
FaceEquilibrium straight from its vector, which it keeps for Instance.at:
the zero set, host, classification and name are read from its integers,
a face with two or more equilibria is ordered by ExactScalar.sort_key
computed from the quads, and positivity_check reads the coordinates'
signs. The coords, ExactScalars, are made on first read (scalars.OnRead),
so a sweep that reads verdicts only never makes them.
A face's equilibria, and the undecided and inhabited ones among them that
face_residents hands to relay, are kept together, once per point. The zero
set may be strictly larger than the requested face (ambient variables that
happen to vanish).
Variables that belong to some minimal siphon but not to the face are required
to be nonzero: candidates violating that live on a smaller face and are
reported there instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import (AlgebraError, CrnRelayError, DegenerateFace, DenominatorZero,
                     MixedExtensions, ModelError)
from .linalg import UniPoly, integer_roots
from .models import equilibrium_namer
from .network import (Evaluation, FaceEquilibrium, Instance, Model, hosting_node, require,
                      require_invariant_face)
from .poly import Folded, MultiPoly, RatFunc, Split, primitive_gcd
from .scalars import Deferred, ExactScalar, OnRead, PairVector, exact

_MAX_BRANCH_DEPTH = 6
_MAX_PLAN_TERMS = 256   # a symbolic run stops past this many terms in one equation
_NO_PARAMS = PairVector(())  # the parameter vector of a system folded at a point
_ZERO_QUAD = (0, 0, 1, 1)   # the value of a face variable in a candidate


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceVerdict:
    exists: Optional[bool]           # None when the equilibrium is Undecided
    violations: tuple[tuple[str, ExactScalar], ...] = OnRead()   # made on first read


def positivity_check(e: FaceEquilibrium) -> ExistenceVerdict:
    '''Strict positivity of every nonzero coordinate, read from the signs
    of the coordinates (FaceEquilibrium.signs); the violations, each
    negative coordinate with its value, are made on first read. ModelError
    for anything but a FaceEquilibrium.'''
    if not isinstance(e, FaceEquilibrium):
        raise ModelError(f"positivity_check takes a FaceEquilibrium, not {type(e).__name__}")
    if not e.is_decided:
        return ExistenceVerdict(None, ())
    bad = tuple(v for v, s in e.signs().items() if s < 0 and v not in e.zero_set)
    return ExistenceVerdict(not bad, Deferred(_violations, e, bad) if bad else ())


def _violations(e: FaceEquilibrium, names: tuple) -> tuple:
    return tuple((v, e.coords[v]) for v in names)


def assemble_equilibrium(m: Model, coords: Mapping, name: Optional[str] = None,
                         face: Optional[frozenset] = None) -> FaceEquilibrium:
    '''Build a FaceEquilibrium from a full coordinate map (ints, Fractions
    or ExactScalars): _equilibrium of their vector in model order, as the
    face solver builds one.'''
    return _equilibrium(m, PairVector([exact(coords[v]) for v in m.variables]), face, name)


def _equilibrium(m: Model, x: PairVector, face: Optional[frozenset] = None,
                 name: Optional[str] = None) -> FaceEquilibrium:
    '''The FaceEquilibrium of the coordinate vector x, in model order: its
    zero set, host, classification and name read from the integers of x.
    It keeps x, and makes coords from x on first read. MixedExtensions when
    x holds two radicands.'''
    zero_set = frozenset(v for i, v in enumerate(m.variables) if x.is_zero(i))
    host = hosting_node(m.lattice(), zero_set)
    ds = x.radicands
    if len(ds) > 1:
        raise MixedExtensions(f"coordinates span extensions {sorted(ds)}")
    if name is None:
        name = equilibrium_namer(m)(host, zero_set)
    return FaceEquilibrium(face if face is not None else host, zero_set,
                           Deferred(_coordinates, m.variables, x),
                           "QuadraticRUR" if ds else "Rational", next(iter(ds), 1), name,
                           vector=(m.variables, x))


def _coordinates(names: tuple, x: PairVector) -> MappingProxyType:
    return MappingProxyType(dict(zip(names, x.scalars())))


# ---------------------------------------------------------------------------
# the elimination core
# ---------------------------------------------------------------------------

class _Abandon(Exception):
    '''A symbolic run grew an equation past _MAX_PLAN_TERMS.'''


class _Solved:
    '''Every unknown is eliminated: one solution, the empty assignment.'''

    def evaluate(self, x, notes) -> list[dict]:
        return [{}]


_SOLVED = _Solved()


@dataclass(frozen=True)
class _Note:
    '''A place where the elimination gave up; evaluating it reports text.'''
    text: str

    def evaluate(self, x, notes) -> list[dict]:
        notes.append(self.text)
        return []


@dataclass(frozen=True, eq=False)
class _Terminal:
    '''The last unknown var is a common root of these polynomials in var
    and the parameters named in order by params; each is split, with var
    its one state variable, when the node is first evaluated. At a point
    its roots, as integer quads, are those integer_roots finds in the
    primitive_gcd of the folded polynomials (coefficients); a factor of
    degree above two left unsolved, or a square root of an integer
    factorize cannot split, gives a note instead.'''
    var: str
    polys: tuple[MultiPoly, ...]
    params: tuple[str, ...]

    @cached_property
    def splits(self) -> tuple[Split, ...]:
        return tuple(Split(p, (self.var,), self.params) for p in self.polys)

    def coefficients(self, x: PairVector) -> list[int]:
        '''The primitive_gcd of the polynomials folded at the parameter
        vector x: primitive integer coefficients, constant first and leading
        positive; [] when they all vanish there.'''
        dense = []
        for p in self.splits:
            # the folded integer coefficients share one positive denominator
            coeffs = [0] * (p.sdeg + 1)
            for s, a in p.fold(x)[0]:
                coeffs[len(s)] = a
            dense.append(coeffs)
        return primitive_gcd(*dense)

    def evaluate(self, x, notes) -> list[dict]:
        try:
            roots, rest = integer_roots(self.coefficients(x))
        except AlgebraError as exc:   # factorize ran out of rho steps
            notes.append(f"{exc}, for the roots in {self.var}")
            return []
        if len(rest) > 3:
            notes.append(f"irreducible degree {len(rest) - 1} factor in {self.var} left unsolved")
            return []
        return [{self.var: r} for r in dict.fromkeys(roots)]


@dataclass(frozen=True, eq=False)
class _Pivot:
    '''var = num / den on the solutions of main, where den does not vanish;
    side solves the system with den = num = 0 added (None when den holds
    no unknown and so is nonzero by a recorded condition). num and den are
    split over the unknowns they hold, named in order by state, and the
    parameters named in order by params, when the main branch first yields
    a candidate. A candidate maps each unknown it solves to its value as
    an integer quad (u, w, q, d), (u + w sqrt(d)) / q in lowest terms, as
    poly.Folded.at gives it.'''
    var: str
    state: tuple[str, ...]
    num: MultiPoly
    den: MultiPoly
    params: tuple[str, ...]
    main: tuple
    side: Optional[tuple]

    @cached_property
    def splits(self) -> tuple[Split, Split]:
        return tuple(Split(p, self.state, self.params) for p in (self.num, self.den))

    def evaluate(self, x, notes) -> list[dict]:
        out: list[dict] = []
        main = _evaluate(self.main, x, notes)
        ratio = Folded(*self.splits, x) if main else None
        for cand in main:
            try:
                value = ratio.at(PairVector.of_quads([cand[v] for v in self.state]))
            except DenominatorZero:
                continue  # outside this branch; the side branch has it
            out.append(cand | {self.var: value})
        if self.side is not None:
            for cand in _evaluate(self.side, x, notes):
                if cand not in out:
                    out.append(cand)
        return out


@dataclass(frozen=True, eq=False)
class _Unconstrained:
    '''No equation mentions free; that is only a problem if the rest of the
    system (plan) has a solution, for then the face holds a continuum.'''
    free: tuple[str, ...]
    plan: tuple

    def evaluate(self, x, notes) -> list[dict]:
        if _evaluate(self.plan, x, notes):
            raise DegenerateFace(f"variables {list(self.free)} are unconstrained on the face")
        return []


def _evaluate(plan, x: PairVector, notes) -> list[dict]:
    '''The candidates of a plan at the parameter vector x (_NO_PARAMS for a
    system folded at a point); the notes of the places that gave up go to
    notes.'''
    return [cand for node in plan for cand in node.evaluate(x, notes)]


class _FaceSolver:
    '''Eliminates a face system into a plan: a list of _Solved, _Note,
    _Terminal, _Pivot and _Unconstrained nodes whose candidates are the
    candidates of the system.

    The equations are polynomials in the unknowns and in the symbolic
    parameters, which order names in the order of the point's vector (none
    when the point is already folded in). A polynomial without unknowns
    counts as a constant; where the elimination takes one as nonzero (a
    pivot coefficient, an equation that rules a branch out, the leading
    coefficient of a terminal polynomial) it is recorded in conditions, and
    the plan holds at every point where no condition vanishes.'''

    def __init__(self, keep: Optional[str], required: frozenset, order: tuple = ()):
        self.keep = keep
        self.required = required
        self.params, self.order = frozenset(order), order
        self.conditions: list[MultiPoly] = []
        self.notes: list[str] = []

    def _constant(self, p: MultiPoly) -> bool:
        return p.uses_only(self.order)

    def _assume_nonzero(self, c: MultiPoly) -> None:
        if not c.is_constant:
            self.conditions.append(c)

    def _note(self, text: str) -> list:
        self.notes.append(text)
        return [_Note(text)]

    # equation clean-up ----------------------------------------------------

    def _simplify(self, eqs: list[MultiPoly]):
        out = []
        for eq in eqs:
            if eq.is_zero:
                continue
            eq = eq.divide_by_monomial(eq.monomial_gcd(self.required)).primitive()
            if self.params and eq.size > _MAX_PLAN_TERMS:
                raise _Abandon()
            out.append(eq)
        return out

    # pivot search ------------------------------------------------------------

    def _find_pivot(self, eqs, unknowns):
        '''(ei, v, c1, c0) with eqs[ei] = c1 v + c0 for the pair of least
        score: the keep variable last, then a constant c1 first, then c1
        with the fewest monomials in the unknowns, then by position; None
        when no equation is linear in an unknown.'''
        best = None
        for ei, eq in enumerate(eqs):
            for vi, v in enumerate(unknowns):
                shape = eq.linear_shape(v, self.order)
                if shape is not None:
                    score = (v == self.keep, *shape, vi, ei)
                    if best is None or score < best[0]:
                        best = (score, ei, v)
        if best is None:
            return None
        _, ei, v = best
        parts = eqs[ei].coefficients_in(v)
        return ei, v, parts[1], parts.get(0, MultiPoly.const(0))

    # terminal univariate ---------------------------------------------------

    def _terminal(self, eqs, var) -> list:
        for eq in eqs:
            parts = eq.coefficients_in(var)
            self._assume_nonzero(parts[max(parts)])
        return [_Terminal(var, tuple(eqs), self.order)]

    # recursion -----------------------------------------------------------

    def solve(self, eqs: list[MultiPoly], unknowns: tuple[str, ...], depth: int = 0) -> list:
        eqs = self._simplify(eqs)
        for eq in eqs:
            if self._constant(eq):
                self._assume_nonzero(eq)
                return []
        if not unknowns:
            return [_SOLVED]
        used = set().union(*(eq.vars for eq in eqs))
        live = [v for v in unknowns if v in used]
        if len(live) < len(unknowns):
            free = tuple(sorted(set(unknowns) - set(live)))
            return [_Unconstrained(free, tuple(self.solve(eqs, tuple(live), depth)))]
        pivot = self._find_pivot(eqs, unknowns)
        if pivot is None:
            if len(live) == 1:
                return self._terminal(eqs, live[0])
            if len(eqs) < len(live):
                raise DegenerateFace(
                    f"{len(eqs)} equations for {len(live)} unknowns with no usable pivot")
            return self._note(f"no linear pivot among {live}; enumeration incomplete")
        ei, v, c1, c0 = pivot
        rest_eqs = [eq for i, eq in enumerate(eqs) if i != ei]
        rest_unknowns = tuple(u for u in unknowns if u != v)
        neg_c0 = -c0
        reduced = [eq.subst_ratio(v, neg_c0, c1)[0] for eq in rest_eqs]
        main = tuple(self.solve(reduced, rest_unknowns, depth))
        used = {*c0.vars, *c1.vars}
        pivot = (v, tuple(u for u in rest_unknowns if u in used), neg_c0, c1, self.order, main)
        if self._constant(c1):
            self._assume_nonzero(c1)
            return [_Pivot(*pivot, None)]
        if depth < _MAX_BRANCH_DEPTH:
            side = tuple(self.solve(rest_eqs + [c1, c0], unknowns, depth + 1))
        else:
            side = tuple(self._note("branch depth limit hit; enumeration may be incomplete"))
        return [_Pivot(*pivot, side)]


@dataclass(frozen=True)
class _Plan:
    '''A face's elimination compiled with the parameters symbolic, its
    conditions also split, over the model's parameters.'''
    nodes: tuple
    conditions: tuple[MultiPoly, ...]
    splits: tuple[Split, ...]

    def candidates(self, x: PairVector, notes) -> Optional[list[dict]]:
        '''The candidates at the parameter vector x, or None when a
        condition vanishes there.'''
        if all(c.fold(x)[0] for c in self.splits):
            return _evaluate(self.nodes, x, notes)
        return None


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FaceSystem:
    '''The unknowns (the variables outside the face); the indices of the
    face's variables; the siphon variables required nonzero, and the keep
    variable if it is an unknown.'''
    unknowns: tuple[str, ...]
    zero: frozenset
    required: frozenset
    keep: Optional[str]


def _face_system(m: Model, face: frozenset) -> _FaceSystem:
    '''The model's system of the face, built on first use and kept.'''
    return m.kept(("face_system", face), _build_face_system, m, face)


def _build_face_system(m: Model, face: frozenset) -> _FaceSystem:
    unknowns = tuple(v for v in m.variables if v not in face)
    return _FaceSystem(
        unknowns, frozenset(map(m.var_index, face)), frozenset(m.lattice().union_all - face),
        m.keep_variable if m.keep_variable in unknowns else None)


def _point_plan(inst: Instance, face: frozenset) -> tuple:
    '''The plan of the face system folded through the point's parameter
    vector. Setting the face to zero commutes with the fold, so each
    equation is the Instance's fold of a right-hand side without the face's
    monomials. DegenerateFace where a right-hand side is undefined there.'''
    m, system = inst.model, _face_system(inst.model, face)
    eqs = []
    for v in system.unknowns:
        try:
            f = inst.fold(("rhs", v))
        except DenominatorZero as exc:
            raise DegenerateFace(f"rhs of {v} undefined on the face: {exc}") from exc
        if f is None:
            continue   # the right-hand side vanishes at the point
        num, den = ([(s, a) for s, a in terms if system.zero.isdisjoint(s)]
                    for terms in (f.num, f.den))
        if not den:
            raise DegenerateFace(f"rhs of {v} undefined on the face: "
                                 f"denominator vanishes identically on {sorted(face)}")
        # The fold's denominators are positive and the solver makes each
        # equation primitive; a factor the point makes common to numerator
        # and denominator (at beta1 = 0, in S1' of the builtins) cancels.
        eq = m.ring.from_monomials(m.variables, num)
        if any(s for s, _ in den):
            eq = RatFunc(eq, m.ring.from_monomials(m.variables, den)).num
        eqs.append(eq)
    return tuple(_FaceSolver(system.keep, system.required).solve(eqs, system.unknowns))


def _compile(m: Model, face: frozenset) -> Optional[_Plan]:
    '''The plan of the face system with the parameters symbolic (each
    unknown's right-hand side with the face set to zero), or None when a
    denominator vanishes on the face or the run raised, gave up somewhere
    or grew past _MAX_PLAN_TERMS.'''
    system = _face_system(m, face)
    rhs = [m.rhs(v) for v in system.unknowns]
    dens = [f.den.set_zero(face) for f in rhs]
    if any(d.is_zero for d in dens):
        return None
    solver = _FaceSolver(system.keep, system.required, m.parameters)
    try:
        nodes = solver.solve([RatFunc(f.num.set_zero(face), d).num for f, d in zip(rhs, dens)],
                             system.unknowns)
    except (CrnRelayError, _Abandon):
        return None
    if solver.notes:
        return None
    distinct = {}
    for c in solver.conditions:
        c = c.primitive()
        distinct.setdefault(str(c), c)
    return _Plan(tuple(nodes), tuple(distinct.values()),   # one Split per condition
                 tuple(Split(c, (), m.parameters) for c in distinct.values()))


def face_equilibria(m: Model, face, params: Mapping[str, Fraction] | None = None
                    ) -> list[FaceEquilibrium]:
    '''All isolated equilibria in the relative interior of an invariant face
    (interior meant with respect to the siphon variables; ambient variables
    may vanish). See the module docstring for the elimination strategy.
    A face is solved once per parameter point (see Model.at); every call
    returns a new list.'''
    return list(_solution(m, face, params)[0])


def face_residents(m: Model, face, params: Mapping[str, Fraction] | None = None
                   ) -> tuple[tuple[FaceEquilibrium, ...], tuple[FaceEquilibrium, ...]]:
    '''The undecided and the inhabited equilibria (decided, with a positive
    realisation by positivity_check) of an invariant face, in
    face_equilibria's order: selected from the same solve, once per
    parameter point, and handed out as kept.'''
    return _solution(m, face, params)[1:]


def _solution(m: Model, face, params: Mapping[str, Fraction] | None) -> tuple:
    '''The face's equilibria, its undecided and its inhabited ones, solved
    and selected once per point and kept under ("face", face).'''
    face = require_invariant_face(m, face)
    inst = m.at(params)
    return inst.kept(("face", face), _solve_face, inst, face)


def _solve_face(inst: Instance, face: frozenset) -> tuple[tuple[FaceEquilibrium, ...], ...]:
    m = inst.model
    required = [m.var_index(v) for v in _face_system(m, face).required]
    plan = None if inst.first else m.kept(("face_plan", face), _compile, m, face)
    notes: list[str] = []
    candidates = plan.candidates(inst.params, notes) if plan is not None else None
    if candidates is None:
        candidates = _evaluate(_point_plan(inst, face), _NO_PARAMS, notes)
    found = []
    seen = set()
    for cand in candidates:
        quads = [cand.get(v, _ZERO_QUAD) for v in m.variables]
        x = PairVector.of_quads(quads)
        if any(x.is_zero(i) for i in required):
            continue  # lives on a smaller face; reported there
        if _verify_candidate(inst, x) and x.key not in seen:
            seen.add(x.key)
            found.append((quads, _equilibrium(m, x, face)))
    if len(found) > 1:
        found.sort(key=lambda f: list(map(_sort_key, f[0])))
    results = [e for _, e in found]
    for note in notes:
        results.append(FaceEquilibrium(face, face, {}, "Undecided", reason=note))
    return (tuple(results), tuple(e for e in results if not e.is_decided),
            tuple(e for e in results if e.is_decided and positivity_check(e).exists))


def _sort_key(quad: tuple) -> tuple:
    '''ExactScalar.sort_key, (d, a, b), of the value of quad, with a and b
    left as ints over q = 1.'''
    u, w, q, d = quad
    return (d, u, w) if q == 1 else (d, Fraction(u, q), Fraction(w, q))


def _verify_candidate(inst: Instance, x: PairVector) -> bool:
    '''Whether every right-hand side vanishes at the coordinate vector x;
    a denominator vanishing there rejects the candidate.'''
    return Evaluation(inst, x).is_equilibrium()


def eliminate_univariate(m: Model, face, params: Mapping[str, Fraction] | None = None
                         ) -> tuple[str, UniPoly]:
    '''Run the face elimination at the point and return the main-branch
    terminal univariate polynomial (variable name, primitive polynomial),
    for audit purposes.'''
    face = require_invariant_face(m, face)
    plan = _point_plan(m.at(params), face)
    _evaluate(plan, _NO_PARAMS, [])  # raises where the face solve raises
    for t in _main_terminals(plan):
        g = t.coefficients(_NO_PARAMS)
        if len(g) > 1:
            return t.var, UniPoly.make(g, name=t.var)
    raise DegenerateFace("elimination did not reach a univariate polynomial")


def _main_terminals(plan):
    '''The terminals reached without taking a side branch, in order.'''
    for node in plan:
        if isinstance(node, _Terminal):
            yield node
        elif isinstance(node, _Pivot):
            yield from _main_terminals(node.main)
        elif isinstance(node, _Unconstrained):
            yield from _main_terminals(node.plan)


def all_equilibria(m: Model, params: Mapping[str, Fraction] | None = None
                   ) -> dict[frozenset, list[FaceEquilibrium]]:
    '''face_equilibria over every lattice node and the interior face.'''
    return {face: face_equilibria(m, face, params)
            for face in (*require(m, Model).lattice().nodes, frozenset())}
