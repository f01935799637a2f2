"""Exact local stability analysis.

Everything here works on exact scalars: Jacobians are rational-function
matrices, evaluated equilibria may carry a single quadratic extension, and
all verdicts (Hurwitz, Metzler sign, spectral-radius comparisons) come from
exact sign computations, never floats.

The module provides four layers:

* Jacobians and transversal blocks of a model at a point.
* Next-generation splittings M = F - V on a siphon block, either from an
  explicit routing of reaction indices (the model can carry a preferred
  routing as metadata) or the entrywise positive-part default, with the
  validity conditions checked rather than assumed.
* A local asymptotic stability test that first splits the evaluated Jacobian
  into strongly connected blocks and then applies the Hurwitz test per block,
  so the verdict comes with an attribution.
* A structural screen that certifies, per dependency block and per
  sign-pattern branch, that no pure-imaginary eigenvalue pair can occur,
  using only coefficient-sign certificates that hold for every positive
  parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

from .errors import NotApplicable, NotMetzler, NotOnFace, SingularMatrix
from .linalg import (ExactMatrix, HurwitzReport, UniPoly, char_poly, det,
                     hurwitz_test, inverse, is_metzler, mat_mul,
                     metzler_sign, quad_solve)
from .network import Model
from .poly import MultiPoly, RatFunc, as_ratfunc
from .scalars import ExactScalar, exact


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def jacobian(m: Model) -> list[list[RatFunc]]:
    '''Symbolic Jacobian in model variable order (cached on the model).'''
    return m.jacobian()


def jacobian_at(m: Model, coords: Mapping[str, object],
                params: Mapping[str, Fraction] | None = None) -> ExactMatrix:
    inst = m.at(params)
    point = {v: exact(coords[v]) for v in m.variables}
    n = len(m.variables)
    return [[inst.jacobian_entry(i, j).eval(point) for j in range(n)]
            for i in range(n)]


def transversal_block(m: Model, sigma, coords: Mapping[str, object],
                      params: Mapping[str, Fraction] | None = None) -> ExactMatrix:
    '''The sigma-rows-by-sigma-columns Jacobian block at a point lying on
    the face x_sigma = 0.'''
    svars = m.sort_vars(sigma)
    point = {v: exact(coords[v]) for v in m.variables}
    for v in svars:
        if not point[v].is_zero:
            raise NotOnFace(f"{v} is nonzero at the given point")
    inst = m.at(params)
    idx = [m.var_index(v) for v in svars]
    return [[inst.jacobian_entry(i, j).eval(point) for j in idx] for i in idx]


def mixed_block_zero(m: Model, face) -> bool:
    '''Whether the Jacobian rows of the face variables, taken against the
    columns of the remaining variables, vanish identically once the face
    variables are set to zero. True for every invariant face: the face rows
    then decouple and the Jacobian is block lower-triangular at any
    equilibrium on the face.'''
    face = frozenset(face)
    jac = jacobian(m)
    for v in m.sort_vars(face):
        i = m.var_index(v)
        for w in m.variables:
            if w in face:
                continue
            if not jac[i][m.var_index(w)].set_zero(face).is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# next-generation splittings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NgmSplit:
    sigma: tuple[str, ...]
    F: ExactMatrix
    V: ExactMatrix
    valid: bool
    notes: tuple[str, ...] = ()


def ngm_split(m: Model, sigma, coords: Mapping[str, object],
              params: Mapping[str, Fraction] | None = None,
              mask="auto", F: Optional[ExactMatrix] = None) -> NgmSplit:
    '''Split the transversal block as M = F - V.

    With an explicit F the split is taken as given. With a mask (1-based
    reaction indices in extraction order) F collects exactly the masked
    reactions' contributions to the block. mask="auto" looks the block up in
    the model metadata and falls back to the entrywise positive part.
    Validity (F nonnegative, V a Z-matrix with positive leading principal
    minors) is checked and reported, not assumed.
    '''
    M = transversal_block(m, sigma, coords, params)
    return _split_block(m, sigma, M, coords, params, mask, F)


def _split_block(m: Model, sigma, M: ExactMatrix, coords, params, mask,
                 F: Optional[ExactMatrix]) -> NgmSplit:
    '''ngm_split of the already computed transversal block M.'''
    svars = m.sort_vars(sigma)
    notes: list[str] = []
    if F is None and mask == "auto":
        mask = m.ngm_masks.get(frozenset(svars))
        if mask is None:
            notes.append("no routing metadata; using entrywise positive part")
    if F is not None:
        F = [[exact(x) for x in row] for row in F]
    elif mask is not None:
        F = _mask_split(m, svars, mask, coords, params)
    else:
        F = [[x if x.sign() > 0 else exact(0) for x in row] for row in M]
    n = len(svars)
    V = [[F[i][j] - M[i][j] for j in range(n)] for i in range(n)]
    valid = True
    if any(F[i][j].sign() < 0 for i in range(n) for j in range(n)):
        valid = False
        notes.append("F has a negative entry")
    if any(V[i][j].sign() > 0 for i in range(n) for j in range(n) if i != j):
        valid = False
        notes.append("V has a positive off-diagonal entry")
    for k in range(1, n + 1):
        if det([row[:k] for row in V[:k]]).sign() <= 0:
            valid = False
            notes.append(f"leading principal minor {k} of V is not positive")
            break
    return NgmSplit(tuple(svars), F, V, valid, tuple(notes))


def _mask_split(m: Model, svars, mask, coords, params) -> ExactMatrix:
    net = m.network()
    inst = m.at(params)
    point = {v: exact(coords[v]) for v in m.variables}
    n = len(svars)
    F = [[exact(0)] * n for _ in range(n)]
    for j in mask:
        if not 1 <= j <= len(net.reactions):
            raise NotApplicable(f"reaction index {j} out of range")
        rxn = net.reactions[j - 1]
        gains = rxn.net()
        for k, vk in enumerate(svars):
            g = gains.get(vk, Fraction(0))
            if g == 0:
                continue
            for l, vl in enumerate(svars):
                d = inst.rate_derivative(j - 1, vl).eval(point)
                F[k][l] = F[k][l] + d * g
    return F


@dataclass(frozen=True)
class InvasionReport:
    sigma: tuple[str, ...]
    block: ExactMatrix
    abscissa_sign: str               # "Negative" | "Zero" | "Positive" | "Unknown"
    abscissa_source: str
    rho: Optional[ExactScalar]       # spectral radius of F V^-1, when computable
    rho_vs_one: Optional[int]
    split: Optional[NgmSplit]
    consistent: Optional[bool]
    notes: tuple[str, ...] = ()


def invasion_number(m: Model, sigma, equilibrium,
                    params: Mapping[str, Fraction] | None = None,
                    mask="auto") -> InvasionReport:
    '''Growth verdict for the siphon block sigma at a boundary equilibrium:
    the sign of the block's spectral abscissa, plus the next-generation
    ratio rho(F V^-1) when a valid splitting is available. When both are
    computed they are checked against each other.

    The report is computed once per point, sigma, resolved mask and resident
    coordinates; later calls get a copy whose matrix rows are new lists.'''
    coords = equilibrium.coords if hasattr(equilibrium, "coords") else equilibrium
    svars = tuple(m.sort_vars(sigma))
    if mask == "auto":
        mask = m.ngm_masks.get(frozenset(svars), "auto")
    elif mask is not None:
        mask = tuple(mask)
    key = (svars, mask, tuple(exact(coords[v]) for v in m.variables))
    memo = m.at(params).invasions
    if key not in memo:
        memo[key] = _invasion_number(m, svars, coords, params, mask)
    rep = memo[key]
    split = replace(rep.split, F=[list(r) for r in rep.split.F],
                    V=[list(r) for r in rep.split.V])
    return replace(rep, block=[list(r) for r in rep.block], split=split)


def _invasion_number(m: Model, svars, coords, params, mask) -> InvasionReport:
    M = transversal_block(m, svars, coords, params)
    notes: list[str] = []

    try:
        sr = metzler_sign(M)
        abscissa, source = sr.verdict, "metzler-minors"
    except NotMetzler:
        abscissa, source = _abscissa_by_roots(M)
        notes.append("block is not Metzler; abscissa from characteristic roots")

    split = _split_block(m, svars, M, coords, params, mask, None)
    rho = rho_vs_one = None
    if split.valid:
        try:
            K = mat_mul(split.F, inverse(split.V))
            rho = _perron_root(K)
            if rho is None:
                notes.append("spectral radius not expressible in one square root")
        except SingularMatrix:
            notes.append("V is singular")
    else:
        notes.extend(split.notes)
    if rho is not None:
        rho_vs_one = (rho - 1).sign()
    consistent = None
    if rho_vs_one is not None and abscissa in ("Negative", "Zero", "Positive"):
        consistent = {"Negative": -1, "Zero": 0, "Positive": 1}[abscissa] == rho_vs_one
        if not consistent:
            notes.append("threshold ratio disagrees with abscissa sign")
    return InvasionReport(svars, M, abscissa, source, rho, rho_vs_one,
                          split, consistent, tuple(notes))


def _perron_root(K: ExactMatrix) -> Optional[ExactScalar]:
    p = char_poly(K)
    cs = list(p.coeffs)
    while cs and cs[0].is_zero:
        cs.pop(0)  # strip a zero eigenvalue
    if len(cs) <= 1:
        return exact(0)
    if len(cs) == 2:
        return -cs[0] / cs[1]
    if len(cs) == 3 and all(c.is_rational for c in cs):
        rs = quad_solve(UniPoly.make(cs))
        if rs.roots:
            return rs.roots[-1]
    return None


def _abscissa_by_roots(M: ExactMatrix) -> tuple[str, str]:
    p = char_poly(M)
    if p.degree <= 2 and all(c.is_rational for c in p.coeffs):
        rs = quad_solve(UniPoly.make([c.to_fraction() for c in p.coeffs]))
        if rs.kind == "NoRealRoot":
            # conjugate pair with real part -a1/2
            s = (-p.coeffs[1] / p.coeffs[2]).sign()
        else:
            s = rs.roots[-1].sign()
        return {-1: "Negative", 0: "Zero", 1: "Positive"}[s], "char-roots"
    return "Unknown", "char-roots"


# ---------------------------------------------------------------------------
# local asymptotic stability with attribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockVerdict:
    vars: tuple[str, ...]
    verdict: str                      # Hurwitz verdict for this block
    char: UniPoly
    hurwitz: HurwitzReport


@dataclass(frozen=True)
class StabilityReport:
    verdict: str                      # "LAS" | "Unstable" | "Boundary"
    blocks: tuple[BlockVerdict, ...]

    def offending(self) -> tuple[str, ...]:
        for b in self.blocks:
            if b.verdict != "Hurwitz":
                return b.vars
        return ()


def las_test(m: Model, equilibrium,
             params: Mapping[str, Fraction] | None = None) -> StabilityReport:
    '''Exact linearised stability at an equilibrium. The Jacobian is split
    into strongly connected blocks first, so a failure names the variables
    responsible.'''
    coords = equilibrium.coords if hasattr(equilibrium, "coords") else equilibrium
    J = jacobian_at(m, coords, params)
    comps = _scc([[not x.is_zero for x in row] for row in J])
    blocks: list[BlockVerdict] = []
    for comp in comps:
        idx = sorted(comp)
        sub = [[J[i][j] for j in idx] for i in idx]
        p = char_poly(sub)
        rep = hurwitz_test(p)
        blocks.append(BlockVerdict(tuple(m.variables[i] for i in idx),
                                   rep.verdict, p, rep))
    if any(b.verdict == "NotHurwitz" for b in blocks):
        verdict = "Unstable"
    elif any(b.verdict == "Boundary" for b in blocks):
        verdict = "Boundary"
    else:
        verdict = "LAS"
    return StabilityReport(verdict, tuple(blocks))


def _scc(adj: list[list[bool]]) -> list[list[int]]:
    '''Strongly connected components of the pattern adj[i][j] = (j -> i),
    iterative Tarjan, returned in a deterministic order (sorted by smallest
    member).'''
    n = len(adj)
    succ = [[i for i in range(n) if adj[i][j]] for j in range(n)]
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for next_i in range(pi, len(succ[v])):
                w = succ[v][next_i]
                if index[w] is None:
                    work[-1] = (v, next_i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


# ---------------------------------------------------------------------------
# coefficient-sign certificates
# ---------------------------------------------------------------------------

def certify_nonneg(p: MultiPoly) -> bool:
    '''Every coefficient nonnegative: p >= 0 on the closed positive orthant.'''
    return all(c >= 0 for c in p.terms.values())


def certify_positive(p: MultiPoly, positive) -> bool:
    '''p > 0 wherever the symbols in `positive` are strictly positive and all
    others are nonnegative. Sound, not complete: requires nonnegative
    coefficients plus one positive term supported on `positive`.'''
    if not certify_nonneg(p):
        return False
    for expo, c in p.terms.items():
        if c > 0 and all(p.vars[i] in positive for i, e in enumerate(expo) if e):
            return True
    return False


def _rf_positive(f: RatFunc, positive) -> bool:
    return (certify_positive(f.num, positive) and certify_positive(f.den, positive)) \
        or (certify_positive(-f.num, positive) and certify_positive(-f.den, positive))


def _rf_sign_definite(f: RatFunc, positive) -> bool:
    return _rf_positive(f, positive) or _rf_positive(-f, positive)


def _rf_nonneg(f: RatFunc, positive) -> bool:
    den_pos = certify_positive(f.den, positive)
    den_neg = certify_positive(-f.den, positive)
    if den_pos:
        return certify_nonneg(f.num)
    if den_neg:
        return certify_nonneg(-f.num)
    return False


# ---------------------------------------------------------------------------
# structural screen for oscillations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubBlockCertificate:
    vars: tuple[str, ...]
    kind: str            # "degree-1" | "trace-definite" | "surplus-definite" | ...
    ok: bool
    char: tuple[RatFunc, ...] = ()   # c1..cn of lambda^n + c1 lambda^(n-1) + ...


@dataclass(frozen=True)
class ScreenBranch:
    zeros: frozenset
    relation_vars: tuple[str, ...]
    positive: frozenset
    kind: str            # "certified" | "infeasible" | "failed"
    subblocks: tuple[SubBlockCertificate, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind != "failed"


@dataclass(frozen=True)
class ScreenBlock:
    vars: tuple[str, ...]
    branches: tuple[ScreenBranch, ...]
    certified: bool


@dataclass(frozen=True)
class ScreenReport:
    partition: tuple[tuple[str, ...], ...]
    blocks: tuple[ScreenBlock, ...]
    hopf_impossible: Optional[bool]   # True = certified for all positive params
    siphon_block_metzler: dict
    relay_interfaces_monotone: bool
    notes: tuple[str, ...] = ()


def dependency_partition(m: Model) -> tuple[tuple[str, ...], ...]:
    '''Strongly connected blocks of the symbolic dependency graph. The
    partition is parameter-independent: an edge exists when the Jacobian
    entry is not identically zero.'''
    jac = jacobian(m)
    comps = _scc([[not x.is_zero for x in row] for row in jac])
    return tuple(tuple(m.variables[i] for i in comp) for comp in comps)


def block_structure_screen(m: Model, max_block: int = 3) -> ScreenReport:
    '''Certify, block by block and sign-branch by sign-branch, that the
    linearisation at any equilibrium with nonnegative coordinates and
    positive parameters has no pure-imaginary eigenvalue pair.

    The state space splits into dependency blocks valid for every parameter
    value, so an oscillation has to be born inside one block. Within a block
    of size at most max_block, each variable whose rate carries it as a
    factor either vanishes at an equilibrium or imposes an algebraic
    relation; branching over these cases, the characteristic coefficients of
    the resulting (relation-corrected) block are checked for a definite sign.
    hopf_impossible is True when every block certifies, None when some block
    is too large to screen this way.
    '''
    partition = dependency_partition(m)
    params = frozenset(m.parameters)
    blocks: list[ScreenBlock] = []
    notes: list[str] = []
    inconclusive = False
    for bvars in partition:
        if len(bvars) > max_block:
            blocks.append(ScreenBlock(bvars, (), False))
            notes.append(f"block {{{','.join(bvars)}}} exceeds size {max_block}; not screened")
            inconclusive = True
            continue
        branches = _screen_block(m, bvars, frozenset(), {}, params)
        blocks.append(ScreenBlock(bvars, tuple(branches),
                                  all(b.ok for b in branches)))
    certified = all(b.certified for b in blocks if len(b.vars) <= max_block)
    hopf_impossible: Optional[bool]
    if inconclusive:
        hopf_impossible = None
    else:
        hopf_impossible = bool(certified)

    me = {}
    lat = m.lattice()
    for sig in lat.minimal:
        svars = m.sort_vars(sig)
        jac = jacobian(m)
        ok = True
        for v in svars:
            for w in svars:
                if v == w:
                    continue
                entry = jac[m.var_index(v)][m.var_index(w)].set_zero(sig)
                if not (entry.is_zero or _rf_nonneg(entry, params)):
                    ok = False
        me[lat.label(sig)] = ok
    return ScreenReport(partition, tuple(blocks), hopf_impossible, me,
                        all(me.values()), tuple(notes))


def _screen_block(m: Model, bvars: tuple[str, ...], zeros: frozenset,
                  relations: dict, params: frozenset) -> list[ScreenBranch]:
    # branch over the next variable that factors out of its own rate
    for v in bvars:
        if v in zeros or v in relations:
            continue
        f = m.rhs(v).set_zero(zeros)
        if v in f.num.vars and all(e[f.num.vars.index(v)] > 0 for e in f.num.terms):
            rel = RatFunc(f.num.divide_by_var(v), f.den)
            out = _screen_block(m, bvars, zeros | {v}, relations, params)
            out.extend(_screen_block(m, bvars, zeros, relations | {v: rel}, params))
            return out

    positive = set(params) | set(relations)
    # an impossible relation kills the branch outright
    for v, rel in relations.items():
        r = rel.set_zero(zeros)
        if _rf_sign_definite(r, positive):
            return [ScreenBranch(zeros, tuple(relations), frozenset(positive),
                                 "infeasible", detail=f"relation for {v} cannot vanish")]
    # derive further strict positivity from the relations
    changed = True
    while changed:
        changed = False
        for rel in relations.values():
            num = rel.set_zero(zeros).num
            for z in num.vars:
                if z in positive or z in zeros:
                    continue
                if num.degree_in(z) != 1:
                    continue
                parts = num.coefficients_in(z)
                a = parts[1]
                s = parts.get(0, MultiPoly.const(0))
                if (certify_positive(a, positive) and certify_positive(-s, positive)) or \
                        (certify_positive(-a, positive) and certify_positive(s, positive)):
                    positive.add(z)
                    changed = True

    J = _branch_jacobian(m, bvars, zeros, relations)
    comps = _scc([[not x.is_zero for x in row] for row in J])
    subs: list[SubBlockCertificate] = []
    ok = True
    for comp in comps:
        idx = sorted(comp)
        vars_ = tuple(bvars[i] for i in idx)
        sub = [[J[i][j] for j in idx] for i in idx]
        cert = _certify_subblock(vars_, sub, frozenset(positive))
        subs.append(cert)
        ok = ok and cert.ok
    return [ScreenBranch(zeros, tuple(relations), frozenset(positive),
                         "certified" if ok else "failed", tuple(subs))]


def _branch_jacobian(m: Model, bvars, zeros: frozenset, relations: dict):
    n = len(bvars)
    rows = []
    for v in bvars:
        if v in relations:
            # rhs_v = x_v * rel and rel vanishes at any equilibrium on this
            # branch, so d(rhs_v)/dw collapses to x_v * d(rel)/dw; in
            # particular the diagonal entry loses its rel term.
            xv = RatFunc.var(v)
            rows.append([(xv * relations[v].derivative(w)).set_zero(zeros)
                         for w in bvars])
        else:
            f = m.rhs(v)
            rows.append([f.derivative(w).set_zero(zeros) for w in bvars])
    return rows


def _certify_subblock(vars_: tuple[str, ...], sub, positive) -> SubBlockCertificate:
    n = len(sub)
    if n == 1:
        return SubBlockCertificate(vars_, "degree-1", True)
    cs = _char_coeffs_sym(sub)
    if n == 2:
        ok = _rf_sign_definite(cs[0], positive)
        return SubBlockCertificate(vars_, "trace-definite", ok, tuple(cs))
    if n == 3:
        surplus = cs[0] * cs[1] - cs[2]
        if _rf_sign_definite(surplus, positive):
            return SubBlockCertificate(vars_, "surplus-definite", True, tuple(cs))
        if _rf_positive(-cs[1], positive):
            return SubBlockCertificate(vars_, "middle-coefficient-negative", True, tuple(cs))
        return SubBlockCertificate(vars_, "surplus-definite", False, tuple(cs))
    return SubBlockCertificate(vars_, "too-large", False)


def _char_coeffs_sym(A) -> list[RatFunc]:
    '''Characteristic coefficients c1..cn of a rational-function matrix,
    Faddeev-LeVerrier over the function field.'''
    n = len(A)
    Mk = [[as_ratfunc(0)] * n for _ in range(n)]
    for i in range(n):
        Mk[i][i] = as_ratfunc(1)
    cs: list[RatFunc] = []
    for k in range(1, n + 1):
        AM = [[sum((A[i][t] * Mk[t][j] for t in range(n)), as_ratfunc(0))
               for j in range(n)] for i in range(n)]
        tr = sum((AM[i][i] for i in range(n)), as_ratfunc(0))
        ck = tr * Fraction(-1, k)
        cs.append(ck)
        Mk = [[AM[i][j] + (ck if i == j else as_ratfunc(0)) for j in range(n)]
              for i in range(n)]
    return cs


# ---------------------------------------------------------------------------
# rank-one coupling bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneReport:
    base_hurwitz: bool
    base_metzler: bool
    gain: Optional[ExactScalar]       # dc gain of the feedback path
    kappa: ExactScalar
    bound_holds: Optional[bool]       # |kappa| * gain < 1
    guaranteed: bool
    identity_checked: bool
    notes: tuple[str, ...] = ()


def rank_one_bound(A: ExactMatrix, u: int, v: int, kappa) -> RankOneReport:
    '''Stability of J = A + kappa e_u e_v^T from properties of A alone.

    When A is Metzler and Hurwitz, the perturbed matrix stays Hurwitz as long
    as |kappa| times the dc gain -(A^-1)[v][u] is below one. The determinant
    identity det(lI - J) = det(lI - A) (1 - kappa (lI - A)^-1 [v][u]) is
    verified at sample points as a self-check.'''
    kappa = exact(kappa)
    n = len(A)
    A = [[exact(x) for x in row] for row in A]
    notes: list[str] = []
    base_h = hurwitz_test(char_poly(A)).is_hurwitz
    base_m = is_metzler(A)
    gain = bound = None
    try:
        gain = -inverse(A)[v][u]
        if gain.sign() < 0:
            notes.append("dc gain is negative; bound applied to its magnitude")
            gain = -gain
        prod = kappa if kappa.sign() >= 0 else -kappa
        bound = (prod * gain - 1).sign() < 0
    except SingularMatrix:
        notes.append("A is singular; no dc gain")
    ident = _check_rank_one_identity(A, u, v, kappa)
    if not ident:
        notes.append("determinant identity failed at a sample point")
    guaranteed = bool(base_h and base_m and bound) and ident
    return RankOneReport(base_h, base_m, gain, kappa, bound, guaranteed,
                         ident, tuple(notes))


def _check_rank_one_identity(A: ExactMatrix, u: int, v: int,
                             kappa: ExactScalar) -> bool:
    n = len(A)
    J = [row[:] for row in A]
    J[u][v] = J[u][v] + kappa
    checked = 0
    lam = 1
    while checked < 3 and lam < 50:
        lamI_A = [[exact(lam if i == j else 0) - A[i][j] for j in range(n)]
                  for i in range(n)]
        if det(lamI_A).is_zero:
            lam += 1
            continue
        lamI_J = [[exact(lam if i == j else 0) - J[i][j] for j in range(n)]
                  for i in range(n)]
        lhs = det(lamI_J)
        rhs = det(lamI_A) * (exact(1) - kappa * inverse(lamI_A)[v][u])
        if (lhs - rhs).sign() != 0:
            return False
        checked += 1
        lam += 1
    return checked == 3


def rank_one_model_bound(m: Model, equilibrium,
                         params: Mapping[str, Fraction] | None = None) -> RankOneReport:
    '''Apply the rank-one bound to the model's designated coupling entry.'''
    if m.rank_one_edge is None:
        raise NotApplicable(f"model {m.name} declares no rank-one coupling")
    row, col, pname = m.rank_one_edge
    vals = m.point(params)
    kappa = vals[pname]
    coords = equilibrium.coords if hasattr(equilibrium, "coords") else equilibrium
    J = jacobian_at(m, coords, params)
    u, v = m.var_index(row), m.var_index(col)
    A = [r[:] for r in J]
    A[u][v] = A[u][v] - exact(kappa)
    return rank_one_bound(A, u, v, kappa)
