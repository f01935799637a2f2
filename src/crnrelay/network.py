"""Models, reaction-network extraction, siphons, and the siphon lattice.

A Model is an autonomous ODE system dx/dt = f(x; p) with rational right-hand
sides, stored as the list of top-level summands the author wrote (the summand
structure is what makes network extraction well defined). extract_network
rewrites the system as stoichiometry times rates: every monomial summand
becomes a mass-action-style rate keyed by its variable and parameter
monomials under a first-seen-coefficient convention, and every fractional
summand becomes a single rate whose reactant multiset is the common variable
factor of its numerator, with the rate's variables appearing on both sides of
the reaction so the net change stays what the ODE says.

Siphons are variable sets where every reaction producing a member also
consumes a member; faces of the nonnegative orthant indexed by siphons are
exactly the forward-invariant coordinate faces, which is what the rest of the
package leans on.

Model.at(point) writes the point once as a parameter vector, and every fold
at the point goes through it: the model's entries here, the face systems and
face plans in equilibria. Model.at(point).at(coords) evaluates the model in
integers: as extract_network writes each right-hand side as Gamma r, the
Jacobian at a coordinate vector, its blocks, and the next-generation F over
a mask's reactions, are Gamma D, D the rates' derivatives, built straight
into one linalg.PairMatrix by Evaluation.pairs. D comes from one table per
model (_rate_table): every rate derivative split once and given a slot, the
numerator and denominator groups of all slots concatenated. The table is
folded at a point by one PairVector.sums pass per parameter degree, kept on
the Instance (_fold_rates), and summed at a coordinate vector by one pass
per state degree, kept per coordinate key (_sum_rates), each slot then
reduced by its gcd (poly.quotient) as Folded.at reduces an entry; a slot
undefined at the point or the vector refuses only the cells that ask for
it. Whether the vector is an equilibrium is one integer pass over every
right-hand side (Evaluation.is_equilibrium). An Instance builds no rational
functions. A FaceEquilibrium keeps its coordinate vector; its
signs are read from the vector, and its coords, ExactScalars, are made
on first read when the face solver built it.

A Model and an Instance keep what they compute once by one rule, Kept.kept,
each in its one table _cache, which no other module reads or writes.
"""

from __future__ import annotations

import reprlib
import weakref
from dataclasses import InitVar, dataclass, field
from functools import reduce
from operator import add
from fractions import Fraction
from collections.abc import Container, Mapping, Sequence
from types import MappingProxyType
from typing import Optional

from .errors import (DenominatorZero, ExtractionError, MixedExtensions, ModelError,
                     NotInvariantFace)
from .linalg import PairMatrix, submatrix
from .poly import Folded, RatFunc, Ring, Split, quotient, ring_of
from .scalars import (Deferred, ExactScalar, OnRead, PairVector, one_radicand, rational_text,
                      read_rational)

_MISSING = object()
_ZERO = RatFunc.const(0)
_ZERO_QUAD = (0, 0, 1, 1)


class Kept:
    '''The one rule by which a Model or an Instance keeps what it computes
    once, in its table _cache.'''

    def kept(self, key, build, *args):
        '''The value kept under key; on first use, build(*args), kept. A
        build that raises keeps nothing; a kept None counts as kept.'''
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = build(*args)
        return value


@dataclass
class Model(Kept):
    name: str
    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    rhs_terms: dict[str, tuple[RatFunc, ...]]
    values: dict[str, Fraction] = field(default_factory=dict)
    ngm_masks: dict[frozenset, tuple[int, ...]] = field(default_factory=dict)
    rank_one_edge: Optional[tuple[str, str, str]] = None  # (row var, col var, scale param)
    keep_variable: Optional[str] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    rhs_sums: InitVar[Optional[Mapping[str, RatFunc]]] = None

    def __post_init__(self, rhs_sums):
        '''rhs_sums, when given, maps variables to the sums of their
        summands, as a parser that bounds each sum already made them: each
        is kept as rhs gives it, the sum of one summand.'''
        for var, total in (rhs_sums or {}).items():
            self.kept(("rhs", var), _sum, (total,))

    @property
    def ring(self) -> Ring:
        '''The ring of the variables and parameters, in which a model file
        is parsed and the model's polynomials are built.'''
        return ring_of(self.variables + self.parameters)

    def rhs(self, var: str) -> RatFunc:
        '''Combined right-hand side for one variable; ModelError, from
        var_index, for anything else.'''
        self.var_index(var)
        return self.kept(("rhs", var), _sum, self.rhs_terms[var])

    def network(self) -> "ReactionNetwork":
        return self.kept("network", extract_network, self)

    def lattice(self) -> "SiphonLattice":
        return self.kept("lattice", _lattice, self)

    def jacobian(self) -> tuple[tuple[RatFunc, ...], ...]:
        '''Symbolic Jacobian in variable order, built once as tuple rows.'''
        return self.kept("jacobian", _jacobian, self)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ModelError(f"unknown variable {name!r}") from None

    def sort_vars(self, names) -> tuple[str, ...]:
        '''The variables of a face, a collection of their names (as_face), in
        model order; ModelError for anything else.'''
        return tuple(sorted(as_face(names), key=self.var_index))

    def point(self, overrides: Mapping[str, Fraction] | None = None) -> dict[str, Fraction]:
        '''Complete parameter assignment from defaults plus overrides. A
        value is an int, a Fraction or a rational string such as "1/3" or
        "0.1"; a float or anything else is refused, since a float is
        already rounded. overrides that are not a mapping are refused.'''
        if overrides is not None and not isinstance(overrides, Mapping):
            raise ModelError(f"parameter overrides must map names to values, not {overrides!r}")
        vals = dict(self.values)
        for k, v in (overrides or {}).items():
            if k not in self.parameters:
                raise ModelError(f"unknown parameter {reprlib.repr(k)}")
            vals[k] = v
        missing = [p for p in self.parameters if p not in vals]
        if missing:
            raise ModelError(f"no value for parameter(s): {', '.join(missing)}")
        return {p: _rational(p, vals[p]) for p in self.parameters}

    def at(self, overrides: Mapping[str, Fraction] | None = None) -> "Instance":
        '''The model at one parameter point, built once per point.

        The Instance holds the completed point as a dict and as one
        parameter vector (Instance.params), and keeps what is computed at
        the point (see Instance). The model keeps only the Instance of the
        last point asked for: a call at another point, or after `values`
        changed, builds a new one. A call with overrides and `values` equal
        to the last call's returns the Instance without completing the
        point again. The first Instance the model makes is marked first,
        and face plans are compiled from its second point on (see
        equilibria). The Instance refers to the model weakly and raises
        ModelError once the model is freed.'''
        given = overrides or {}
        last = self._cache.get("instance_inputs")
        if last is not None and last[0] == given and last[1] == self.values:
            return self._cache["instance"]
        point = self.point(overrides)
        inst = self._cache.get("instance")
        if inst is None or inst.point != point:
            inst = self._cache["instance"] = Instance(self, point, inst is None)
        self._cache["instance_inputs"] = (dict(given), dict(self.values))
        return inst

    def _form(self, key) -> Optional[tuple[Split, Optional[Split]]]:
        '''The right-hand side of key, ("rhs", var), as the Splits of its
        numerator and denominator (_split), split once per model.'''
        return self.kept(("form", key), _split, self, self.rhs(key[1]))


def _sum(terms: Sequence[RatFunc]) -> RatFunc:
    return reduce(add, terms) if terms else _ZERO


def _lattice(m: Model) -> "SiphonLattice":
    return siphon_lattice(m.network())


def _jacobian(m: Model) -> tuple[tuple[RatFunc, ...], ...]:
    return tuple(tuple(m.rhs(v).derivative(w) for w in m.variables) for v in m.variables)


def _split(m: Model, f: RatFunc) -> Optional[tuple[Split, Optional[Split]]]:
    '''f = num/den as the Splits of num and den (den None when it is the
    constant 1, as a RatFunc's constant denominator always is), None when
    f is identically zero.'''
    if f.is_zero:
        return None
    vs, ps = m.variables, m.parameters
    return Split(f.num, vs, ps), None if f.den.is_constant else Split(f.den, vs, ps)


def _rate_table(m: Model) -> tuple:
    '''Every rate derivative of the model as one table, built once:
    (rows, passes, slots). Each derivative of reaction k's rate (0-based,
    extraction order) in a variable, not identically zero, has a slot.
    rows is Gamma by rows with the pattern of D: for each variable, the
    (k, p, q, cols) of each reaction k that changes it by p/q, cols the
    (j, slot) of each variable j, by index, that k's rate has such a
    derivative in. passes holds, for each parameter degree P, (P, scales,
    groups): groups the state-monomial groups (s, terms) of every
    numerator and denominator Split of that degree, concatenated, each
    keyed (t, s), t = 2 slot for a numerator and 2 slot + 1 for a
    denominator, and scales the (t, scale) of each Split. slots holds the
    (sdeg, has_den) of each slot: its state degree, as Folded gives it,
    and whether it has a denominator Split.'''
    rows = [[] for _ in m.variables]
    splits = []
    for k, r in enumerate(m.network().reactions):
        used, cols = {*r.rate.num.vars, *r.rate.den.vars}, []
        for j, v in enumerate(m.variables):
            form = _split(m, r.rate.derivative(v)) if v in used else None
            if form is not None:
                cols.append((j, len(splits)))
                splits.append(form)
        for v, g in r.net().items():
            rows[m.var_index(v)].append((k, *Fraction(g).as_integer_ratio(), tuple(cols)))
    by_degree: dict = {}
    for slot, form in enumerate(splits):
        for t, sp in enumerate(form, 2 * slot):
            if sp is not None:
                scales, groups = by_degree.setdefault(sp.pdeg, ([], []))
                scales.append((t, sp.scale))
                groups += [((t, s), terms) for s, terms in sp.groups.items()]
    passes = tuple((P, tuple(scales), groups) for P, (scales, groups) in sorted(by_degree.items()))
    slots = tuple((max(num.sdeg, den.sdeg if den else 0), den is not None) for num, den in splits)
    return tuple(map(tuple, rows)), passes, slots


def _rational(name: str, value) -> Fraction:
    '''value as a Fraction; a refusal shows it cut short (reprlib.repr), a
    str with its length and the reason read_rational gives.'''
    if isinstance(value, (int, Fraction)):
        return value if type(value) is Fraction else Fraction(value)
    try:
        return read_rational(value)   # TypeError for anything but a str
    except (TypeError, ValueError) as exc:
        got = reprlib.repr(value)
        if isinstance(value, str):
            got += f" of {len(value)} characters ({exc})"
        raise ModelError(f"value of {name!r} must be an exact rational, got {got}") from None


# ---------------------------------------------------------------------------
# evaluation: split per model, folded per point, summed per coordinate vector
# ---------------------------------------------------------------------------

class Instance(Kept):
    '''A Model at one completed parameter point; see Model.at.

    The point is written once as params, one scalars.PairVector over the
    model's parameters, and everything at the point folds through it. Each
    right-hand side the model splits (Model._form) is folded at the point
    on first use (poly.Folded): every state monomial gets one integer
    coefficient, the sum of its parameter terms over the vector. The fold
    takes the place of assigning the parameters into rational functions;
    the face equations (equilibria) and compiled face plans fold through
    the same vector, and the model's table of rate derivatives
    (_rate_table) folds through it in one pass per parameter degree
    (_fold_rates). at(coords) evaluates the entries at one coordinate
    vector. What is computed at the point, the folds (each under its
    entry's key), the verification groups, the folded rate table, the
    Jacobian and the rate derivatives' values per coordinate key and the
    facts other modules decide there, is kept for the point's life
    (Kept.kept). first marks the first Instance the model made.'''

    def __init__(self, model: Model, point: dict[str, Fraction], first: bool):
        # The model keeps its Instance, so the Instance refers back weakly: a
        # model parsed for one call is freed as soon as it is dropped, with
        # everything the point holds, and not only by the cycle collector.
        self._model = weakref.ref(model)
        self.point, self.first = point, first
        self.params = PairVector([point[p] for p in model.parameters])
        self._cache: dict = {}

    @property
    def model(self) -> Model:
        '''The model; ModelError once it has been freed.'''
        model = self._model()
        if model is None:
            raise ModelError("the model of this Instance was freed; keep a reference "
                             "to the model while its Instance is in use")
        return model

    def fold(self, key) -> Optional[Folded]:
        '''The entry key folded at the point, None when it vanishes there;
        DenominatorZero when its denominator vanishes there.'''
        return self.kept(key, _fold, self, key)

    def at(self, coords) -> "Evaluation":
        '''The point's entries at one coordinate vector: a mapping of every
        variable, or a FaceEquilibrium, whose coords are read, or whose
        vector is taken as it is when it was made for these variables. Each
        coordinate is an int, a Fraction or an ExactScalar: ModelError when
        one is missing or coords is neither, AlgebraError when one is of
        any other type.'''
        if isinstance(coords, FaceEquilibrium):
            if coords.vector is not None and coords.vector[0] == self.model.variables:
                return Evaluation(self, coords.vector[1])
            coords = coords.coords
        elif not isinstance(coords, Mapping):
            raise ModelError(f"coordinates must be a mapping or a FaceEquilibrium, "
                             f"got {type(coords).__name__}")
        try:
            values = [coords[v] for v in self.model.variables]
        except KeyError as exc:
            raise ModelError(f"no value for coordinate {exc.args[0]!r}") from None
        return Evaluation(self, PairVector(values))


def _fold(inst: Instance, key) -> Optional[Folded]:
    form = inst.model._form(key)
    folded = None if form is None else Folded(*form, inst.params)
    if folded is not None and not folded.den:
        raise DenominatorZero("denominator vanishes at the given assignment")
    return folded if folded is not None and folded.num else None


def _fold_rates(inst: Instance) -> tuple[list, tuple]:
    '''The model's rate table folded at the point: (values, passes).
    Every numerator and denominator of one parameter degree is folded in
    one PairVector.sums pass, each as Split.fold folds it. values holds,
    per slot, the DenominatorZero of a derivative whose denominator
    vanishes at the point, _ZERO_QUAD for one whose numerator does, or
    None for one to be summed at a vector. passes holds, for each state
    degree K of those, (K, parts, groups): groups the folded denominator
    (when there is one) and numerator of each, parts their (slot, fn, fd,
    has_den), fn and fd the denominators of the folded denominator and
    numerator, as in Folded.'''
    m, params = inst.model, inst.params
    _, passes, slots = m.kept("rates", _rate_table, m)
    terms = [[] for _ in range(2 * len(slots))]   # by t, as in _rate_table
    scale = [1] * len(terms)
    for P, scales, groups in passes:
        for (t, s), a, _, _ in params.sums(groups, P):
            if a:
                terms[t].append((s, a))
        QP = params.power(P)
        for t, c in scales:
            scale[t] = c * QP
    values, by_degree = [], {}
    for slot, (sdeg, has_den) in enumerate(slots):
        num, den = terms[2 * slot], terms[2 * slot + 1]
        if has_den and not den:
            values.append(DenominatorZero("denominator vanishes at the given assignment"))
            continue
        values.append(None if num else _ZERO_QUAD)
        if num:
            parts, groups = by_degree.setdefault(sdeg, ([], []))
            parts.append((slot, scale[2 * slot + 1], scale[2 * slot], has_den))
            if has_den:
                groups.append((slot, den))
            groups.append((slot, num))
    return values, tuple((K, tuple(parts), groups) for K, (parts, groups) in by_degree.items())


def _sum_rates(inst: Instance, x: PairVector) -> list:
    '''The value of every rate derivative at the coordinate vector x, by
    slot: its quad (u, w, q, d) in lowest terms as Folded.at gives it, or,
    not raised, the DenominatorZero of a derivative undefined at the point
    (_fold_rates) or the DenominatorZero or MixedExtensions that Folded.at
    raises for it at x. One PairVector.sums pass per state degree; when x
    holds two radicands, each group is summed alone, so that one whose
    terms hold both refuses only its own derivative.'''
    values, passes = inst.kept("rates", _fold_rates, inst)
    values = list(values)
    for K, parts, groups in passes:
        sums = x.sums(groups, K) if len(x.radicands) < 2 else _each_group(x, groups, K)
        QK = x.power(K)
        for slot, fn, fd, has_den in parts:
            den = next(sums) if has_den else (slot, QK, 0, 1)
            values[slot] = _rate_value(next(sums), den, fn, fd)
    return values


def _each_group(x: PairVector, groups, top: int):
    '''x.sums(groups, top) a group at a time, each MixedExtensions in the
    place of its group's sums.'''
    for group in groups:
        try:
            yield next(x.sums((group,), top))
        except MixedExtensions as exc:
            yield exc.with_traceback(None)


def _rate_value(num, den, fn: int, fd: int):
    '''The quad of num fn / (den fd), num and den sums of PairVector.sums,
    or the error that Folded.at raises for it, not raised.'''
    if isinstance(den, MixedExtensions):
        return den
    _, c, e, d = den
    if not c and not e:
        return DenominatorZero("denominator vanishes at the evaluation point")
    if isinstance(num, MixedExtensions):
        return num
    _, a, b, dn = num
    try:
        return quotient(a, b, dn, c, e, d, fn, fd)
    except MixedExtensions as exc:
        return exc.with_traceback(None)


def _verification(inst: Instance) -> tuple[tuple, int, Optional[tuple]]:
    '''(groups, top, undefined): for each right-hand side folded at the
    point, in variable order, the group (True, terms) of its denominator
    unless that is a constant, then (False, terms) of its numerator; top,
    the largest state degree among them; undefined, the key of the first
    right-hand side whose denominator vanishes at the point (the groups stop
    before it), or None. Summed at one top, each group is its Folded.at sum
    times a positive factor, which leaves every zero test as it is.'''
    groups, top = [], 0
    for v in inst.model.variables:
        try:
            f = inst.fold(("rhs", v))
        except DenominatorZero:
            return tuple(groups), top, ("rhs", v)
        if f is None:
            continue
        if any(s for s, _ in f.den):
            groups.append((True, f.den))
        groups.append((False, f.num))
        top = max(top, f.sdeg)
    return tuple(groups), top, None


class Evaluation:
    '''An Instance at one coordinate vector x.

    The coordinates are one scalars.PairVector over the model's variables;
    key, its integers, identifies them. Folded.at sums the numerator and the
    denominator of a folded entry of state degree at most K over the vector,
    so both share the factor Q^K, and one division (by the conjugate when
    the denominator is irrational) ends it in integers: (u + w sqrt(d)) / q
    in lowest terms (poly.quotient). The rate derivatives are summed so
    all at once, one PairVector.sums pass per state degree over the
    point's folded rate table, and their values kept per coordinate key
    (_sum_rates); pairs sums them into Gamma D, one linalg.PairMatrix over
    their least common denominator. is_equilibrium sums the denominators
    and numerators of every right-hand side in one pass.'''

    __slots__ = ("inst", "key", "_coords")

    def __init__(self, inst: Instance, coords: PairVector):
        self.inst, self.key, self._coords = inst, coords.key, coords

    def is_zero(self, i: int) -> bool:
        '''Whether the coordinate of variable i vanishes here.'''
        return self._coords.is_zero(i)

    def is_equilibrium(self) -> bool:
        '''Every right-hand side vanishes here, its denominator not: one
        PairVector.sums pass over the point's verification groups (see
        _verification), which stops at the first denominator that vanishes
        or numerator that does not. MixedExtensions when a numerator and its
        denominator hold two radicands; DenominatorZero, after every
        right-hand side before it vanished here, when one is undefined at
        the point.'''
        groups, top, undefined = self.inst.kept("verification", _verification, self.inst)
        e = r = 0
        for is_den, u, w, d in self._coords.sums(groups, top):
            if is_den:
                if not (u or w):
                    return False
                e, r = w, d
                continue
            if u or w:
                if w and e:
                    one_radicand((d, r))   # MixedExtensions when d != r
                return False
            e = 0
        if undefined is not None:
            self.inst.fold(undefined)   # raises DenominatorZero
        return True

    def pairs(self, idx: Optional[Sequence[int]] = None,
              reactions: Optional[Container[int]] = None) -> PairMatrix:
        '''Gamma D here over every reaction (the Jacobian, kept per
        coordinate key) or over reactions (0-based, extraction order), in
        variable order or on the rows and columns idx, as a PairMatrix; idx
        is taken from a kept Jacobian, and anything else is evaluated alone
        and not kept. ExtractionError when the model is not a reaction
        network; DenominatorZero when a rate derivative asked for is
        undefined at the point or here, and MixedExtensions when one holds
        two radicands or the entries asked for do.'''
        inst, key = self.inst, ("jacobian", self.key)
        if reactions is not None or (idx is not None and key not in inst._cache):
            return self._product(idx, reactions)
        J = inst.kept(key, self._product, None, None)
        return J if idx is None else submatrix(J, idx, idx)

    def _product(self, idx: Optional[Sequence[int]],
                 reactions: Optional[Container[int]]) -> PairMatrix:
        '''Gamma D over reactions on the rows and columns idx (None: every
        reaction, every variable). D is read from the values of the rate
        table kept per coordinate key (_sum_rates), so every product at one
        vector sums each derivative once; an error is raised for a
        derivative only when its cell is asked for, in the order of the
        cells.'''
        inst, m = self.inst, self.inst.model
        rows = m.kept("rates", _rate_table, m)[0]
        values = inst.kept(("rates", self.key), _sum_rates, inst, self._coords)
        idx = range(len(m.variables)) if idx is None else idx
        col, cells = {j: l for l, j in enumerate(idx)}, []
        for r, i in enumerate(idx):
            for k, p, q, cols in rows[i]:
                for j, slot in cols if reactions is None or k in reactions else ():
                    if j in col:
                        value = values[slot]
                        if type(value) is not tuple:
                            raise type(value)(*value.args)
                        u, w, s, d = value
                        cells.append((r, col[j], p * u, p * w, q * s, d))
        return PairMatrix.of_entries(len(idx), cells)

    def jacobian(self) -> list[list[ExactScalar]]:
        '''The Jacobian here as new rows of ExactScalars.'''
        return self.pairs().scalars()


# ---------------------------------------------------------------------------
# reaction networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reaction:
    reactants: tuple[tuple[str, int], ...]
    products: tuple[tuple[str, int | Fraction], ...]
    rate: RatFunc

    def net(self) -> dict[str, int | Fraction]:
        out = dict(self.products)
        for v, k in self.reactants:
            out[v] = out.get(v, 0) - k
        return {v: c for v, c in out.items() if c}

    def __str__(self) -> str:
        def side(pairs):
            if not pairs:
                return "0"
            return " + ".join(v if c == 1 else f"{rational_text(c)} {v}" for v, c in pairs)
        return f"{side(self.reactants)} -> {side(self.products)}  @ {self.rate_text()}"

    def rate_text(self) -> str:
        '''The rate as text; a monomial's rate names its reactants before its
        parameters (U*x1*beta), as a mass-action rate is written.'''
        if self.rate.den.is_constant:
            return self.rate.num.text(first={v for v, _ in self.reactants})
        return str(self.rate)


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    def verify_decomposition(self, m: Model) -> bool:
        '''Check stoichiometry times rates reproduces every right-hand side.'''
        for v in self.species:
            total = RatFunc.const(0)
            for r in self.reactions:
                c = r.net().get(v)
                if c:
                    total = total + r.rate * RatFunc.const(c)
            if not (total == m.rhs(v)):
                return False
        return True


def extract_network(m: Model) -> ReactionNetwork:
    '''Decompose the right-hand sides into a reaction network.

    Summands with constant denominator contribute one rate per monomial,
    keyed by the monomial in variables and parameters; the first occurrence
    fixes the rate's coefficient and later occurrences only scale the
    stoichiometry. A fractional summand is one rate; occurrences in several
    equations are matched up to a rational factor. Every summand is read on
    its packed terms in one ring (poly.Ring.embed), the model's unless a
    summand holds a name outside it: a monomial's key is its packed key, a
    fractional rate's the packed terms of its primitive numerator and of
    its denominator. Integral stoichiometry stays int.
    '''
    ring = require(m, Model).ring
    rings = {p.ring for terms in m.rhs_terms.values() for term in terms for p in (term.num, term.den)}
    names = {v for r in rings for v in r.names}
    if not names <= ring.index.keys():
        ring = ring_of(ring.names + tuple(names))
    state = ring.mask(m.variables)
    order: list = []                      # rate keys in first-seen order
    rates: dict = {}                      # key -> RatFunc
    reactants: dict = {}                  # key -> packed monomial of the reactants
    nets: dict = {}                       # key -> dict[var, int | Fraction]
    firsts: dict = {}                     # monomial key -> its rate's coefficient

    def record(key, rate, alpha, var, amount):
        if key not in rates:
            order.append(key)
            rates[key] = rate
            reactants[key] = alpha
            nets[key] = {}
        nets[key][var] = nets[key].get(var, 0) + amount

    for var in m.variables:
        for term in m.rhs_terms[var]:
            if term.is_zero:
                continue
            if term.den.is_constant:   # a RatFunc's constant denominator is 1
                t = ring.embed(term.num)
                for k in sorted(t, reverse=True):   # the leading term first
                    c = t[k]
                    if k not in rates:
                        firsts[k] = abs(c)
                        record(k, RatFunc(ring.term(k, abs(c))), k & state, var, 1 if c > 0 else -1)
                    else:
                        q = Fraction(c, firsts[k])
                        record(k, None, None, var, q.numerator if q.denominator == 1 else q)
            else:
                cont, rate = term.primitive()
                t = ring.embed(rate.num)
                key = (frozenset(t.items()), frozenset(ring.embed(rate.den).items()))
                amount = cont.numerator if cont.denominator == 1 else cont
                if key not in rates:
                    record(key, rate, ring.gcd(t, state), var, amount)
                else:
                    record(key, None, None, var, amount)

    reactions = []
    for key in order:
        alpha = dict(ring.fields(reactants[key]))
        beta = dict(alpha)
        for v, c in nets[key].items():
            beta[v] = beta.get(v, 0) + c
        bad = [v for v, c in beta.items() if c < 0]
        if bad:
            raise ExtractionError(
                f"rate {rates[key]} consumes more of {bad} than its reactant multiset holds")
        reactions.append(Reaction(
            tuple(sorted(((v, c) for v, c in alpha.items() if c), key=lambda t: m.var_index(t[0]))),
            tuple(sorted(((v, c) for v, c in beta.items() if c), key=lambda t: m.var_index(t[0]))),
            rates[key],
        ))
    return ReactionNetwork(m.variables, tuple(reactions))


# ---------------------------------------------------------------------------
# siphons
# ---------------------------------------------------------------------------

def as_face(face) -> frozenset:
    '''A face, a collection of variable names, as a frozenset; ModelError
    for anything else, a bare str included (its letters are not names).'''
    if not isinstance(face, str):
        try:
            return frozenset(face)
        except TypeError:
            pass
    raise ModelError(f"a face is a collection of variable names, not {face!r}")


def require(value, kind: type):
    '''value, when it is a kind (the Model, ReactionNetwork or
    SiphonLattice an entry point takes); ModelError otherwise.'''
    if not isinstance(value, kind):
        raise ModelError(f"expected a {kind.__name__}, not {value!r}")
    return value


def is_siphon(net: ReactionNetwork, subset) -> bool:
    '''True when every reaction producing a member also consumes a member.'''
    subset = as_face(subset)
    species = require(net, ReactionNetwork).species
    return _violated(_species_masks(net), sum(1 << i for i, v in enumerate(species)
                                              if v in subset)) is None


def _species_masks(net: ReactionNetwork) -> list[tuple[int, int, list[int]]]:
    '''Per reaction, as bitmasks over net.species (bit i for species i):
    the species it consumes, those it produces, and the bit of each species
    it consumes, in the order of its reactants.'''
    bit = {v: 1 << i for i, v in enumerate(net.species)}
    out = []
    for r in net.reactions:
        feeders = [bit[v] for v, c in r.reactants if c > 0 and v in bit]
        out.append((sum(set(feeders)), sum({bit[v] for v, c in r.products if c > 0 and v in bit}),
                    feeders))
    return out


def _violated(masks, s: int) -> Optional[int]:
    '''The index of the first reaction that produces a member of s, a
    bitmask of species, and consumes none.'''
    for i, (consumed, produced, _) in enumerate(masks):
        if produced & s and not consumed & s:
            return i
    return None


def _members(bits: int) -> list[int]:
    '''The indices of the set bits, ascending.'''
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _bits_key(bits: int) -> tuple[int, list[int]]:
    '''The order of faces: by size, then by their species indices.'''
    members = _members(bits)
    return len(members), members


def minimal_siphons(net: ReactionNetwork) -> tuple[frozenset, ...]:
    '''All inclusion-minimal nonempty siphons, by branch-and-bound closure
    on bitmasks of species.'''
    if len(require(net, ReactionNetwork).species) > 30:
        raise ModelError("siphon enumeration guarded to 30 species")
    masks = _species_masks(net)
    found: list[int] = []
    for seed in range(len(net.species)):
        stack = [1 << seed]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if any(mn & cur == mn != cur for mn in found):
                continue  # any completion would contain a known minimal siphon
            r = _violated(masks, cur)
            if r is None:
                if cur not in found:
                    found.append(cur)
                continue
            # an inflow (no feeders) produces a member: no siphon extends cur
            stack.extend(cur | b for b in masks[r][2])

    minimal = [s for s in found if not any(t & s == t != s for t in found)]
    minimal.sort(key=_bits_key)
    return tuple(frozenset(net.species[i] for i in _members(s)) for s in minimal)


@dataclass(frozen=True)
class SiphonLattice:
    minimal: tuple[frozenset, ...]
    nodes: tuple[frozenset, ...]          # nonempty unions of minimal siphons
    covers: tuple[tuple[frozenset, frozenset], ...]  # (lower, upper) pairs, lower may be empty
    union_all: frozenset
    species: tuple[str, ...]

    def label(self, s: frozenset) -> str:
        '''The members of s in species order, any others after them by name.'''
        s = as_face(s)
        rest = s.difference(self.species)
        if not all(isinstance(v, str) for v in rest):
            raise ModelError(f"a face is a collection of variable names, not {set(s)!r}")
        return "{" + ",".join([v for v in self.species if v in s] + sorted(rest)) + "}"


def siphon_lattice(net: ReactionNetwork) -> SiphonLattice:
    '''Union-closure of the minimal siphons, plus its covering pairs.

    Nodes are the nonempty unions. Covering pairs (lower, upper) additionally
    admit the empty set as lower bound, so every minimal siphon is covered
    from below; this makes the interior of the orthant a valid starting face
    for invasion walks. Computed on bitmasks of species: the lower covers of
    a node are the maximal nodes strictly below it, or the empty set when
    there is none.
    '''
    minimal = minimal_siphons(net)
    if len(minimal) > 16:
        raise ModelError("siphon lattice guarded to 16 minimal siphons")
    bit = {v: 1 << i for i, v in enumerate(net.species)}
    unions = [0]
    for s in minimal:   # the union of each subset of the minimal siphons
        s = sum(map(bit.__getitem__, s))
        unions += [u | s for u in unions]
    keys = {s: _bits_key(s) for s in set(unions[1:])}
    nodes = sorted(keys, key=keys.__getitem__)
    # up in order, and below it the nodes in order, give the covers sorted
    covers = []
    for up in nodes:
        below = [t for t in nodes if t & up == t != up]
        covers += [(lo, up) for lo in below if not any(lo & t == lo != t for t in below)] \
            or [(0, up)]
    faces = {s: frozenset(net.species[i] for i in keys[s][1]) for s in nodes}
    faces[0] = frozenset()
    return SiphonLattice(minimal, tuple(faces[s] for s in nodes),
                         tuple((faces[lo], faces[up]) for lo, up in covers),
                         frozenset().union(*minimal), net.species)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    failing: tuple[str, ...]
    details: dict


def verify_face_invariance(m: Model, face) -> InvarianceReport:
    '''Check the coordinate face {x_v = 0 for v in face} is forward invariant:
    every member's right-hand side must vanish identically on the face.'''
    face = as_face(face)
    unknown = face - set(require(m, Model).variables)
    if unknown:
        raise ModelError(f"unknown variable(s) {sorted(unknown)}")
    failing = []
    details = {}
    for v in m.sort_vars(face):
        rf = m.rhs(v)
        residual = rf.num.set_zero(face)
        den0 = rf.den.set_zero(face)
        if den0.is_zero:
            failing.append(v)
            details[v] = "denominator vanishes identically on the face"
        elif not residual.is_zero:
            failing.append(v)
            details[v] = f"rhs restricts to {RatFunc(residual, den0)}"
    return InvarianceReport(not failing, tuple(failing), details)


def require_invariant_face(m: Model, face) -> frozenset:
    '''The face as a frozenset, or NotInvariantFace. Invariance is a property
    of the symbolic model, so each face's report is kept on the model.'''
    face = as_face(face)
    rep = require(m, Model).kept(("invariance", face), verify_face_invariance, m, face)
    if not rep.ok:
        raise NotInvariantFace(
            f"face {sorted(face)} is not invariant; offending variables: {list(rep.failing)}")
    return face


@dataclass(frozen=True)
class FaceEquilibrium:
    '''An equilibrium on a face, as equilibria.face_equilibria finds it;
    defined here so that Instance.at can read its coordinates, which it
    keeps as a read-only copy. vector, when set, is (variables, x): the
    coordinates as the PairVector x in the order of variables, which
    Instance.at takes as it is for a model with those variables. coords
    may be given as a scalars.Deferred that makes the read-only mapping on
    its first read (OnRead), as every equilibrium the package builds gives
    it with its vector; signs reads the vector and makes no coordinate.'''
    face: frozenset                  # requested face (lattice node)
    zero_set: frozenset              # full set of vanishing coordinates
    coords: Mapping = OnRead()       # var -> ExactScalar (empty when Undecided)
    classification: str              # "Rational" | "QuadraticRUR" | "Undecided"
    d: int = 1                       # extension discriminant when QuadraticRUR
    name: Optional[str] = None
    reason: Optional[str] = None
    vector: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.__dict__["coords"]) is not Deferred:
            object.__setattr__(self, "coords", MappingProxyType(dict(self.coords)))

    def __hash__(self) -> int:
        '''The hash of every field == compares but coords, so that equal
        equilibria hash alike and hashing makes no coordinate.'''
        return hash((self.face, self.zero_set, self.classification, self.d, self.name,
                     self.reason))

    @property
    def is_decided(self) -> bool:
        return self.classification != "Undecided"

    def signs(self) -> dict[str, int]:
        '''The sign of each coordinate, in the order of coords: read from
        the vector when it is set, otherwise from coords.'''
        if self.vector is not None:
            names, x = self.vector
            return {v: x.sign(i) for i, v in enumerate(names)}
        return {v: c.sign() for v, c in self.coords.items()}

    def describe(self, variables) -> str:
        '''One line: the name, the classification and the coordinates of
        variables, in their order; ModelError when one is not a coordinate.'''
        label = self.name or "equilibrium"
        if not self.is_decided:
            return f"{label}: undecided ({self.reason})"
        try:
            parts = [f"{v}={self.coords[v]}" for v in variables]
        except (TypeError, KeyError):
            raise ModelError(f"describe takes the variables of the model, not {variables!r}") from None
        return f"{label} [{self.classification}]: " + ", ".join(parts)


def hosting_node(lattice: SiphonLattice, zero_set) -> frozenset:
    '''Project an equilibrium's zero set onto the siphon variable pool.'''
    return as_face(zero_set) & require(lattice, SiphonLattice).union_all
