"""Invasion relays over the siphon lattice.

A cover (lower, upper) of lattice nodes is read as a possible hand-off: a
community resting on the upper face (more coordinates zero) is invaded along
the directions sigma = upper - lower, and the question is whether a stable
community on the lower face is there to receive it. relay_test_cover answers
this per resident equilibrium with exact arithmetic and aggregates the
verdicts; relay_graph classifies the invasions of every cover and assembles
the directed hand-off structure. Both take the residents from one selection
of a face's inhabited equilibria (equilibria.face_residents) and their
invasions from one per-cover pass, so the edges and the verdicts agree on
which residents are invaded. The selection is made with the face's solve,
once per face and point, and kept with it by the Instance, and each
invasion report is kept per point by invasion_number, so relay_test_cover
reads the reports relay_graph made. The verdicts read only each
invasion's abscissa sign: the next-generation split, and a resident's
notes, which lead with the invasion's, are made when they are read. The
order in which relay_graph lists faces and covers is fixed by the lattice
and kept by the model.

relay_test_cover_strict reproduces a more conservative convention some
reference analyses use: only rational equilibria participate, the invasion
abscissa must be a rational number (an irrational leading eigenvalue aborts
the whole test as Undecided, even though the sign would be computable; the
roots and the abscissa come from linalg.char_abscissa), and
a successor counts only when its full Jacobian is Hurwitz (las_test, which
tests it block by block). Keep it for cross-checking; prefer the refined test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .equilibria import FaceEquilibrium, face_residents
from .errors import BadCover, ModelError
from .linalg import char_abscissa
from .network import Model, as_face, require
from .scalars import Deferred, ExactScalar, OnRead, from_pair
from .stability import InvasionReport, hurwitz_blocks, invasion_number, las_test

_PRIORITY = ("RelayHolds", "Undecided", "SuccessorExistsUnstable",
             "NoSuccessor", "NoInvasion")


@dataclass(frozen=True)
class ResidentReport:
    '''The relay verdict at one resident of the upper face. rho and notes
    are made on read: the invasion report's rho, and its notes followed by
    the relay's own, so a verdict read alone makes no split.'''

    resident: FaceEquilibrium
    abscissa: str                     # sign of the invasion abscissa
    rho: Optional[ExactScalar] = OnRead()   # the invasion report's, made on read
    verdict: str
    stable_successor: Optional[FaceEquilibrium]
    successors: tuple[FaceEquilibrium, ...]
    tangential: Optional[str]         # within-face stability, evaluated lazily
    notes: tuple[str, ...] = OnRead()


@dataclass(frozen=True)
class RelayReport:
    sigma: frozenset                  # resident face (upper node)
    sigma_prime: frozenset            # successor face (lower node)
    invading: tuple[str, ...]
    verdict: str
    residents: tuple[ResidentReport, ...]
    notes: tuple[str, ...] = ()


def _check_cover(m: Model, sigma, sigma_prime) -> tuple[frozenset, frozenset]:
    lat = require(m, Model).lattice()
    up = as_face(sigma)
    low = as_face(sigma_prime)
    if (low, up) not in lat.covers:
        raise BadCover(f"({lat.label(low)}, {lat.label(up)}) is not a cover "
                       "of the siphon lattice")
    return up, low


def _invasions(m: Model, up: frozenset, low: frozenset, residents,
               params: Mapping[str, Fraction] | None):
    '''The invading variables up - low of a cover, and each resident of the
    upper face paired with its invasion report along them.'''
    sdiff = tuple(m.sort_vars(up - low))
    return sdiff, [(e, invasion_number(m, sdiff, e, params)) for e in residents]


def _notes(inv: InvasionReport, own: tuple[str, ...]) -> tuple[str, ...]:
    '''A resident's notes: its invasion report's, then the relay's own.'''
    return (*inv.notes, *own)


def relay_test_cover(m: Model, sigma, sigma_prime,
                     params: Mapping[str, Fraction] | None = None) -> RelayReport:
    '''Exact relay test for one lattice cover.

    For every inhabited equilibrium on the upper face: if the invading block
    has negative abscissa the resident repels the invader (NoInvasion); if it
    is positive, the lower face is searched for an inhabited equilibrium, and
    the verdict reports whether a locally stable one exists (RelayHolds),
    only unstable ones do (SuccessorExistsUnstable), or none at all
    (NoSuccessor, in which case the resident's within-face stability is also
    evaluated and reported).
    '''
    up, low = _check_cover(m, sigma, sigma_prime)
    notes: list[str] = []
    undecided, inhabited = face_residents(m, up, params)
    sdiff, invasions = _invasions(m, up, low, inhabited, params)
    reports = [ResidentReport(e, "Unknown", None, "Undecided", None, (), None,
                              (e.reason or "undecided resident",))
               for e in undecided]
    if not invasions and not reports:
        notes.append("resident face is uninhabited")

    for e, inv in invasions:
        rnotes = []
        stable, succ, tang = None, (), None
        if inv.abscissa_sign in ("Negative", "Zero"):
            verdict = "NoInvasion"
            if inv.abscissa_sign == "Zero":
                rnotes.append("invasion block sits on the stability boundary")
        elif inv.abscissa_sign == "Unknown":
            verdict = "Undecided"
        else:
            lower_undecided, succ = face_residents(m, low, params)
            stable = next((s for s in succ if las_test(m, s, params).verdict == "LAS"), None)
            if succ:
                verdict = "SuccessorExistsUnstable" if stable is None else "RelayHolds"
            elif lower_undecided:
                verdict = "Undecided"
                rnotes.append("successor face has undecided candidates")
            else:
                verdict, tang = "NoSuccessor", _tangential_verdict(m, e, sdiff, params)
        reports.append(ResidentReport(e, inv.abscissa_sign, Deferred(getattr, inv, "rho"),
                                      verdict, stable, succ, tang,
                                      Deferred(_notes, inv, tuple(rnotes))))

    verdict = next((v for v in _PRIORITY if any(r.verdict == v for r in reports)), "NoInvasion")
    return RelayReport(up, low, sdiff, verdict, tuple(reports), tuple(notes))


def _tangential_verdict(m: Model, e: FaceEquilibrium, sdiff,
                        params: Mapping[str, Fraction] | None) -> str:
    '''Stability of the resident within its own face: the Jacobian restricted
    to the non-invading directions, split into strongly connected blocks.'''
    keep = [i for i, v in enumerate(m.variables) if v not in sdiff]
    J = m.at(params).at(e).pairs(keep)
    verdict = hurwitz_blocks(J, [m.variables[i] for i in keep]).verdict
    return "Stable" if verdict == "LAS" else verdict


# ---------------------------------------------------------------------------
# strict reference emulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictRelayReport:
    sigma: frozenset
    sigma_prime: frozenset
    verdict: str                      # "RelayHolds" | "NoRelay" | "Undecided"
    trace: tuple[str, ...]


def relay_test_cover_strict(m: Model, sigma, sigma_prime,
                            params: Mapping[str, Fraction] | None = None
                            ) -> StrictRelayReport:
    '''Conservative relay test restricted to rational data (see module
    docstring). An irrational leading eigenvalue of the invasion block stops
    the test immediately with Undecided.'''
    up, low = _check_cover(m, sigma, sigma_prime)
    sdiff = tuple(m.sort_vars(up - low))
    trace: list[str] = []
    residents = [e for e in face_residents(m, up, params)[1] if e.classification == "Rational"]
    if not residents:
        trace.append("no rational inhabited resident on the upper face")
    successors = None
    for e in residents:
        alpha = _rational_abscissa(m.at(params).at(e).pairs(
            [m.var_index(v) for v in sdiff]))
        if alpha is None:
            trace.append(f"{e.name or 'resident'}: leading eigenvalue of the "
                         "invasion block is not rational")
            return StrictRelayReport(up, low, "Undecided", tuple(trace))
        if alpha.sign() <= 0:
            trace.append(f"{e.name or 'resident'}: abscissa {alpha} <= 0")
            continue
        trace.append(f"{e.name or 'resident'}: abscissa {alpha} > 0")
        if successors is None:
            successors = [s for s in face_residents(m, low, params)[1]
                          if s.classification == "Rational"
                          and all(x > 0 for v, x in s.signs().items() if v in sdiff)]
        for s in successors:
            if las_test(m, s, params).verdict == "LAS":
                trace.append(f"successor {s.name or '?'} passes the full "
                             "Hurwitz test")
                return StrictRelayReport(up, low, "RelayHolds", tuple(trace))
            trace.append(f"successor {s.name or '?'} fails the full Hurwitz test")
        if not successors:
            trace.append("no rational successor with positive invading coordinates")
    return StrictRelayReport(up, low, "NoRelay", tuple(trace))


def _rational_abscissa(M) -> Optional[ExactScalar]:
    '''Largest real eigenvalue part, but only when it is rational; None as
    soon as an irrational candidate could be the leading one: a
    characteristic coefficient or a real root that is irrational, or a
    factor left unsolved (linalg.char_abscissa).'''
    alpha, roots, rational, _ = char_abscissa(M)
    if not rational or alpha is None or any(w for _, w, _, _ in roots):
        return None
    return from_pair(*alpha)


# ---------------------------------------------------------------------------
# the relay graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphNode:
    face: frozenset
    label: str
    residents: tuple[str, ...]
    inhabited: bool


@dataclass(frozen=True)
class GraphEdge:
    source: frozenset
    target: frozenset
    invading: tuple[str, ...]
    residents: tuple[str, ...]        # residents whose invasion is positive
    kind: str                         # "full" | "multiple" | "cross-branch"


@dataclass(frozen=True)
class RelayGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def node(self, face) -> GraphNode:
        face = as_face(face)
        for n in self.nodes:
            if n.face == face:
                return n
        raise ModelError(f"{sorted(face, key=str)} is not a node of the relay graph")

    def to_dot(self) -> str:
        style = {"full": "solid", "multiple": "dashed", "cross-branch": "dotted"}
        lines = ["digraph relay {", "  rankdir=LR;"]
        for n in self.nodes:
            attrs = [f'label="{n.label}"']
            if not n.inhabited:
                attrs.append('color="gray"')
                attrs.append('fontcolor="gray"')
            lines.append(f'  "{n.label}" [{" ".join(attrs)}];')
        for e in self.edges:
            src = self.node(e.source).label
            dst = self.node(e.target).label
            lines.append(f'  "{src}" -> "{dst}" [style={style[e.kind]} '
                         f'label="{",".join(e.invading)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def relay_graph(m: Model, params: Mapping[str, Fraction] | None = None) -> RelayGraph:
    '''Hand-off structure over all lattice covers at one parameter point.

    Nodes are the lattice faces plus the interior; an edge runs along a cover
    whenever an inhabited resident on the upper face is invadable. The kind
    is read from the edge's first invader: "full" when it is invaded along
    this cover alone, "multiple" when along several, and "cross-branch" when
    the invading directions lie outside every multi-species minimal siphon
    while the resident already carries multi-species content (the hand-off
    switches the platform branch and drags the standing community along).
    '''
    faces, covers, labels = _graph_order(require(m, Model))
    strain_union = frozenset().union(*[s for s in m.lattice().minimal if len(s) >= 2])
    residents = {face: face_residents(m, face, params)[1] for face in faces}

    # each cover's invaders, with their index among the upper face's
    # residents, and the number of covers each resident invades
    invaders, invaded = {}, Counter()
    for low, up in covers:
        sdiff, invasions = _invasions(m, up, low, residents[up], params)
        hits = [(k, e) for k, (e, inv) in enumerate(invasions) if inv.abscissa_sign == "Positive"]
        invaded.update((up, k) for k, _ in hits)
        invaders[up, low] = sdiff, hits

    nodes = []
    for face in faces:
        names = tuple(e.name or labels[face] for e in residents[face])
        label = "/".join(dict.fromkeys(names)) if names else labels[face]
        nodes.append(GraphNode(face, label, names, bool(names)))

    edges = []
    for (up, low), (sdiff, hits) in invaders.items():
        if hits:
            k, e = hits[0]   # the edge's kind is read from its first invader
            cross = (not (set(sdiff) & strain_union)
                     and any(s > 0 for v, s in e.signs().items() if v in strain_union))
            kind = "cross-branch" if cross else ("full" if invaded[up, k] == 1 else "multiple")
            edges.append(GraphEdge(up, low, sdiff, tuple(e.name or labels[up] for _, e in hits),
                                   kind))
    return RelayGraph(tuple(nodes), tuple(edges))


def _graph_order(m: Model) -> tuple[tuple, tuple, dict]:
    '''The lattice faces and the interior, and the covers, in the order the
    relay graph lists them (more zero coordinates first, then by label),
    with each face's label; fixed by the lattice, so kept by the model.'''
    return m.kept("relay_order", _order, m.lattice())


def _order(lat) -> tuple[tuple, tuple, dict]:
    labels = {face: lat.label(face) for face in (*lat.nodes, frozenset())}

    def facekey(f):
        return (-len(f), labels[f])

    return (tuple(sorted(labels, key=facekey)),
            tuple(sorted(lat.covers, key=lambda c: (facekey(c[1]), facekey(c[0])))),
            labels)
