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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import ExtractionError, ModelError, NotInvariantFace
from .poly import MultiPoly, RatFunc

FrozenVars = frozenset


@dataclass
class Model:
    name: str
    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    rhs_terms: dict[str, tuple[RatFunc, ...]]
    values: dict[str, Fraction] = field(default_factory=dict)
    ngm_masks: dict[frozenset, tuple[int, ...]] = field(default_factory=dict)
    rank_one_edge: Optional[tuple[str, str, str]] = None  # (row var, col var, scale param)
    keep_variable: Optional[str] = None
    namer: Optional[object] = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def rhs(self, var: str) -> RatFunc:
        '''Combined right-hand side for one variable.'''
        key = ("rhs", var)
        if key not in self._cache:
            total = RatFunc.const(0)
            for t in self.rhs_terms[var]:
                total = total + t
            self._cache[key] = total
        return self._cache[key]

    def network(self) -> "ReactionNetwork":
        if "network" not in self._cache:
            self._cache["network"] = extract_network(self)
        return self._cache["network"]

    def lattice(self) -> "SiphonLattice":
        if "lattice" not in self._cache:
            self._cache["lattice"] = siphon_lattice(self.network())
        return self._cache["lattice"]

    def jacobian(self) -> list[list[RatFunc]]:
        '''Symbolic Jacobian in variable order.'''
        if "jacobian" not in self._cache:
            self._cache["jacobian"] = [[self.rhs(v).derivative(w) for w in self.variables]
                                       for v in self.variables]
        return self._cache["jacobian"]

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ModelError(f"unknown variable {name!r}") from None

    def sort_vars(self, names) -> tuple[str, ...]:
        return tuple(sorted(names, key=self.var_index))

    def point(self, overrides: Mapping[str, Fraction] | None = None) -> dict[str, Fraction]:
        '''Complete parameter assignment from defaults plus overrides.'''
        vals = dict(self.values)
        for k, v in (overrides or {}).items():
            if k not in self.parameters:
                raise ModelError(f"unknown parameter {k!r}")
            vals[k] = Fraction(v)
        missing = [p for p in self.parameters if p not in vals]
        if missing:
            raise ModelError(f"no value for parameter(s): {', '.join(missing)}")
        return {p: Fraction(vals[p]) for p in self.parameters}

    def at(self, overrides: Mapping[str, Fraction] | None = None) -> "Instance":
        '''The model at one parameter point, built once per point.

        The Instance holds the completed point, the right-hand sides, Jacobian
        entries and reaction-rate derivatives with the parameters assigned
        (each filled on first use), the verified equilibria of every face
        already solved at the point, and the invasion reports computed there.
        The model keeps only the Instance of the last point asked for: a call
        at another point, or after `values` changed, builds a new one.'''
        point = self.point(overrides)
        inst = self._cache.get("instance")
        if inst is None or inst.point != point:
            inst = self._cache["instance"] = Instance(self, point)
        return inst


class Instance:
    '''A Model with the parameters of one completed point assigned; see
    Model.at. Entries are filled on first use and kept for the point's life.'''

    def __init__(self, model: Model, point: dict[str, Fraction]):
        self.model = model
        self.point = point
        self.faces: dict[frozenset, tuple] = {}   # face -> verified equilibria
        self.invasions: dict[tuple, object] = {}  # see stability.invasion_number
        self._entries: dict = {}

    def _entry(self, key, make):
        if key not in self._entries:
            self._entries[key] = make()
        return self._entries[key]

    def rhs(self, var: str) -> RatFunc:
        return self._entry(("rhs", var), lambda: self.model.rhs(var).assign(self.point))

    def jacobian_entry(self, i: int, j: int) -> RatFunc:
        return self._entry(("jac", i, j),
                           lambda: self.model.jacobian()[i][j].assign(self.point))

    def rate_derivative(self, k: int, var: str) -> RatFunc:
        '''Derivative of reaction k's rate (0-based, extraction order).'''
        rate = self._entry(("rate", k), lambda: self.model.network()
                           .reactions[k].rate.assign(self.point))
        return self._entry(("drate", k, var), lambda: rate.derivative(var))


# ---------------------------------------------------------------------------
# reaction networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reaction:
    reactants: tuple[tuple[str, Fraction], ...]
    products: tuple[tuple[str, Fraction], ...]
    rate: RatFunc

    def net(self) -> dict[str, Fraction]:
        out = dict(self.products)
        for v, k in self.reactants:
            out[v] = out.get(v, Fraction(0)) - k
        return {v: c for v, c in out.items() if c}

    def __str__(self) -> str:
        def side(pairs):
            if not pairs:
                return "0"
            return " + ".join(v if c == 1 else f"{c} {v}" for v, c in pairs)
        return f"{side(self.reactants)} -> {side(self.products)}  @ {self.rate}"


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


def _split_monomial(poly_vars, expo, model_vars):
    var_part = []
    par_part = []
    for name, k in zip(poly_vars, expo):
        if k == 0:
            continue
        (var_part if name in model_vars else par_part).append((name, k))
    return tuple(var_part), tuple(par_part)


def extract_network(m: Model) -> ReactionNetwork:
    '''Decompose the right-hand sides into a reaction network.

    Summands with constant denominator contribute one rate per monomial,
    keyed by (variable monomial, parameter monomial); the first occurrence
    fixes the rate's coefficient and later occurrences only scale the
    stoichiometry. A fractional summand is one rate; occurrences in several
    equations are matched up to a rational factor.
    '''
    model_vars = set(m.variables)
    order: list = []                      # rate keys in first-seen order
    rates: dict = {}                      # key -> RatFunc
    reactants: dict = {}                  # key -> dict[var, Fraction]
    nets: dict = {}                       # key -> dict[var, Fraction]

    def record(key, rate, alpha, var, amount):
        if key not in rates:
            order.append(key)
            rates[key] = rate
            reactants[key] = alpha
            nets[key] = {}
        nets[key][var] = nets[key].get(var, Fraction(0)) + amount

    for var in m.variables:
        for term in m.rhs_terms[var]:
            if term.is_zero:
                continue
            if term.den.is_constant:
                scale = 1 / term.den.constant_value()
                num = term.num
                for expo in sorted(num.terms, key=lambda e: (sum(e), e), reverse=True):
                    coeff = num.terms[expo] * scale
                    vpart, ppart = _split_monomial(num.vars, expo, model_vars)
                    key = ("mono", vpart, ppart)
                    if key not in rates:
                        mono_vars = tuple(n for n, _ in vpart + ppart)
                        mono = MultiPoly(mono_vars, {tuple(k for _, k in vpart + ppart): abs(coeff)})
                        record(key, RatFunc(mono), {n: Fraction(k) for n, k in vpart}, var,
                               Fraction(1) if coeff > 0 else Fraction(-1))
                    else:
                        first = rates[key].num.leading()[1]
                        record(key, None, None, var, coeff / first)
            else:
                cont = term.num.content()
                prim = term.num.scaled(1 / cont)
                key = ("frac",
                       prim.vars, tuple(sorted(prim.terms.items())),
                       term.den.vars, tuple(sorted(term.den.terms.items())))
                if key not in rates:
                    gcd_expo = prim.monomial_gcd()
                    alpha = {n: Fraction(k) for n, k in zip(prim.vars, gcd_expo)
                             if k and n in model_vars}
                    record(key, RatFunc(prim, term.den), alpha, var, cont)
                else:
                    record(key, None, None, var, cont)

    reactions = []
    for key in order:
        alpha = reactants[key]
        net = nets[key]
        beta = dict(alpha)
        for v, c in net.items():
            beta[v] = beta.get(v, Fraction(0)) + c
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

def is_siphon(net: ReactionNetwork, subset) -> bool:
    '''True when every reaction producing a member also consumes a member.'''
    s = set(subset)
    for r in net.reactions:
        produces = any(v in s for v, c in r.products if c > 0)
        if produces and not any(v in s for v, c in r.reactants if c > 0):
            return False
    return True


def minimal_siphons(net: ReactionNetwork) -> tuple[frozenset, ...]:
    '''All inclusion-minimal nonempty siphons, by branch-and-bound closure.'''
    if len(net.species) > 30:
        raise ModelError("siphon enumeration guarded to 30 species")
    found: list[frozenset] = []

    def violated(cur: set):
        for r in net.reactions:
            if any(v in cur for v, c in r.products if c > 0) and \
               not any(v in cur for v, c in r.reactants if c > 0):
                return r
        return None

    for seed in net.species:
        stack = [frozenset({seed})]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if any(mn < cur for mn in found):
                continue  # any completion would contain a known minimal siphon
            r = violated(set(cur))
            if r is None:
                if cur not in found:
                    found.append(cur)
                continue
            feeders = [v for v, c in r.reactants if c > 0]
            if not feeders:
                continue  # an inflow produces a member: no siphon extends cur
            for v in feeders:
                stack.append(cur | {v})

    minimal = [s for s in found if not any(t < s for t in found)]
    minimal.sort(key=lambda s: (len(s), sorted(net.species.index(v) for v in s)))
    return tuple(minimal)


@dataclass(frozen=True)
class SiphonLattice:
    minimal: tuple[frozenset, ...]
    nodes: tuple[frozenset, ...]          # nonempty unions of minimal siphons
    covers: tuple[tuple[frozenset, frozenset], ...]  # (lower, upper) pairs, lower may be empty
    union_all: frozenset
    species: tuple[str, ...]

    def label(self, s: frozenset) -> str:
        members = sorted(s, key=self.species.index)
        return "{" + ",".join(members) + "}"


def siphon_lattice(net: ReactionNetwork) -> SiphonLattice:
    '''Union-closure of the minimal siphons, plus its covering pairs.

    Nodes are the nonempty unions. Covering pairs (lower, upper) additionally
    admit the empty set as lower bound, so every minimal siphon is covered
    from below; this makes the interior of the orthant a valid starting face
    for invasion walks.
    '''
    minimal = minimal_siphons(net)
    if len(minimal) > 16:
        raise ModelError("siphon lattice guarded to 16 minimal siphons")
    nodes_set = set()
    n = len(minimal)
    for mask in range(1, 1 << n):
        u = frozenset().union(*(minimal[i] for i in range(n) if mask >> i & 1))
        nodes_set.add(u)
    key = lambda s: (len(s), tuple(sorted(net.species.index(v) for v in s)))
    nodes = sorted(nodes_set, key=key)
    lattice_points = [frozenset()] + nodes
    covers = []
    for lo in lattice_points:
        for up in nodes:
            if lo >= up or not lo <= up:
                continue
            if any(lo < t < up for t in nodes):
                continue
            covers.append((lo, up))
    covers.sort(key=lambda p: (key(p[1]), key(p[0])))
    return SiphonLattice(minimal, tuple(nodes), tuple(covers),
                         frozenset().union(*minimal) if minimal else frozenset(),
                         net.species)


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
    face = frozenset(face)
    unknown = face - set(m.variables)
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
    rep = verify_face_invariance(m, face)
    if not rep.ok:
        raise NotInvariantFace(
            f"face {sorted(face)} is not invariant; offending variables: {list(rep.failing)}")
    return frozenset(face)


def hosting_node(lattice: SiphonLattice, zero_set) -> frozenset:
    '''Project an equilibrium's zero set onto the siphon variable pool.'''
    return frozenset(zero_set) & lattice.union_all
