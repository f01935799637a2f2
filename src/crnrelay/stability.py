"""Exact local stability analysis.

Everything here works on exact scalars: Jacobians are rational-function
matrices, evaluated equilibria may carry a single quadratic extension, and
all verdicts (Hurwitz, Metzler sign, spectral-radius comparisons) come from
exact sign computations, never floats.

The module provides four layers:

* Jacobians and transversal blocks of a model at a point (Gamma D, see network).
* Next-generation splittings M = F - V on a siphon block, F either Gamma D
  over a routing of reaction indices (the model can carry a preferred
  routing as metadata) or the entrywise positive-part default, with the
  validity conditions checked rather than assumed (V a Z-matrix by
  linalg.is_metzler of -V). One Bareiss pass over [V | F]
  (linalg.leading_solve) yields V's leading minors, the last validity
  condition, and V^-1 F, which is similar to F V^-1: rho is the largest
  real part that linalg.char_abscissa reads from its characteristic
  polynomial's integer pairs, which it splits exactly when F has rank at
  most one, as under a single-reaction mask. An invasion report decides
  its abscissa sign at the call: that of a Metzler block from the signs of
  its minors' integer pairs (linalg.metzler_sign), that of any other block
  from linalg.char_abscissa (the largest real part of its characteristic
  roots, or the sign its Hurwitz determinants decide). For a valid split
  rho - 1 has the sign of the abscissa (van den Driessche and Watmough,
  Math. Biosci. 180, 2002, Lemma 1), so the split only reports on the
  verdict and cross-checks it: the report keeps the block M and F as the
  linalg.PairMatrix each was computed in, and makes the split, rho,
  rho_vs_one, consistent and the notes by one build on the first read of
  any of them (scalars.OnRead), and the block's tuple rows of ExactScalars
  on theirs. Each report is kept per point, so the relay tests, which read
  only the abscissa sign, share it and make none of these.
* A local asymptotic stability test that first splits the evaluated Jacobian
  into strongly connected blocks and then applies the Hurwitz test per block,
  so the verdict comes with an attribution. Each block's verdict is decided
  in integers (linalg.char_hurwitz) from its Berkowitz pairs
  (linalg.char_blocks); its characteristic polynomial and Hurwitz report
  are made on first read. A block with a negative characteristic
  coefficient has a root with positive real part, so it makes the
  equilibrium "Unstable" whatever its Hurwitz determinants.
* A structural screen that certifies, per dependency block and per
  sign-pattern branch, that no pure-imaginary eigenvalue pair can occur,
  using only coefficient-sign certificates that hold for every positive
  parameter value. The characteristic coefficients over the parameters come
  from linalg.char_coeffs, the same Berkowitz recurrence that gives
  char_poly at a point.

The stability test, the dependency partition and the screen split their
matrices with linalg.strong_blocks. The rank-one report decides in integer
pairs and runs no elimination. The Berkowitz pairs of A's blocks, which
give its Hurwitz verdict, and the Krylov entries (B^i)[v][u] of B = Q A
give every coefficient of det(lI - A) and adj(lI - A)[v][u]
(Faddeev-LeVerrier). The dc gain and |kappa| * gain < 1 are read from the
constant coefficients, and the determinant self-check compares every
coefficient of det(lI - J), from J's blocks, with those of det(lI - A) -
kappa adj(lI - A)[v][u], cross-multiplied by their two denominators. At a
model's equilibrium J is the evaluated Jacobian: the Instance keeps its
block pairs per coordinate vector (_jacobian_blocks), so las_test and the
rank-one reports there share one Berkowitz pass, and the check sees an A
that is not J - kappa e_u e_v^T. Its gain and kappa are made on read;
an invasion report's rho_vs_one is the sign of rho's pair minus its
denominator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import (AlgebraError, AlgebraTypeError, ModelError, NotApplicable, NotMetzler,
                     NotOnFace)
from .linalg import (ExactMatrix, HurwitzReport, PairMatrix, UniPoly, char_abscissa,
                     char_blocks, char_coeffs, char_hurwitz, is_metzler, krylov_entries,
                     leading_solve, metzler_sign, pair_matrix, poly_product, strong_blocks,
                     submatrix)
from .network import Evaluation, Model, as_face, require
from .poly import MultiPoly, RatFunc
from .scalars import (Deferred, ExactScalar, OnRead, exact, from_pair, one_radicand,
                      pair_product, pair_sign, to_pairs)


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def jacobian(m: Model) -> tuple[tuple[RatFunc, ...], ...]:
    '''Symbolic Jacobian in model variable order (see Model.jacobian).'''
    return require(m, Model).jacobian()


def jacobian_at(m: Model, coords, params: Mapping[str, Fraction] | None = None
                ) -> ExactMatrix:
    '''The Jacobian at a coordinate vector or an equilibrium, evaluated once
    per point and vector (see Instance.at); every call returns new rows.'''
    return require(m, Model).at(params).at(coords).jacobian()


def transversal_block(m: Model, sigma, coords,
                      params: Mapping[str, Fraction] | None = None) -> ExactMatrix:
    '''The sigma-rows-by-sigma-columns Jacobian block at a point (coordinates
    or an equilibrium, see Instance.at) lying on the face x_sigma = 0.'''
    svars = require(m, Model).sort_vars(as_face(sigma))
    return _block(m, svars, m.at(params).at(coords)).scalars()


def _block(m: Model, svars, at: Evaluation) -> PairMatrix:
    '''transversal_block of svars (in model order) at at, as a PairMatrix;
    NotApplicable when svars is empty, since a block needs a row.'''
    if not svars:
        raise NotApplicable("the invading set is empty: a transversal block needs a variable")
    idx = [m.var_index(v) for v in svars]
    for i in idx:
        if not at.is_zero(i):
            raise NotOnFace(f"{m.variables[i]} is nonzero at the given point")
    return at.pairs(idx)


def mixed_block_zero(m: Model, face) -> bool:
    '''Whether the Jacobian rows of the face variables, taken against the
    columns of the remaining variables, vanish identically once the face
    variables are set to zero. True for every invariant face: the face rows
    then decouple and the Jacobian is block lower-triangular at any
    equilibrium on the face.'''
    face = as_face(face)
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

def _rows(p: PairMatrix) -> tuple[tuple[ExactScalar, ...], ...]:
    '''The entries of p as tuple rows of ExactScalars: what a report's
    matrix field reads as, from the Deferred it keeps.'''
    return tuple(map(tuple, p.scalars()))


@dataclass(frozen=True)
class NgmSplit:
    sigma: tuple[str, ...]
    F: tuple[tuple[ExactScalar, ...], ...] = OnRead()
    V: tuple[tuple[ExactScalar, ...], ...] = OnRead()
    valid: bool
    notes: tuple[str, ...] = ()


def ngm_split(m: Model, sigma, coords,
              params: Mapping[str, Fraction] | None = None,
              mask="auto") -> NgmSplit:
    '''Split the transversal block as M = F - V: the split of
    invasion_number's report at the point (coordinates or an equilibrium).

    With a mask (1-based reaction indices in extraction order) F collects
    exactly the masked reactions' contributions to the block, and with None
    it is the entrywise positive part. mask="auto" looks the block up in the
    model metadata and falls back to the entrywise positive part. Validity
    (F nonnegative, V a Z-matrix with positive leading principal minors) is
    checked and reported, not assumed.
    '''
    return invasion_number(m, sigma, coords, params, mask).split


def _mask_indices(m: Model, mask) -> tuple[int, ...]:
    '''The mask as a tuple of reaction indices, a memo key; NotApplicable
    when it is not a collection, an index is not an int (a bool, equal to
    0 or 1, is not one) in 1..len(reactions), or an index is named twice
    (a reaction counts once in F). The key holds checked ints only, so a
    float or bool mask, equal to and hashed like an int one, never reads
    the int mask's report.'''
    try:
        indices = tuple(mask)
    except TypeError:
        raise NotApplicable(f"reaction index mask {mask!r} is not a collection") from None
    n = len(m.network().reactions)
    for k, j in enumerate(indices):
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= n:
            raise NotApplicable(f"reaction index {j!r} is not one of 1..{n}")
        if j in indices[:k]:
            raise NotApplicable(f"reaction index {j} is named twice in the mask")
    return indices


@dataclass(frozen=True)
class InvasionReport:
    '''The growth verdict of a siphon block at a boundary equilibrium.
    abscissa_sign is decided at the call; block, and the next-generation
    split with everything read from it (rho, rho_vs_one, consistent and
    the notes), are made on first read, the latter five by one build.'''

    sigma: tuple[str, ...]
    block: tuple[tuple[ExactScalar, ...], ...] = OnRead()
    abscissa_sign: str               # "Negative" | "Zero" | "Positive" | "Unknown"
    abscissa_source: str
    rho: Optional[ExactScalar] = OnRead()   # spectral radius of F V^-1, when computable
    rho_vs_one: Optional[int] = OnRead()
    split: NgmSplit = OnRead()
    consistent: Optional[bool] = OnRead()
    notes: tuple[str, ...] = OnRead()


_SPLIT_FIELDS = ("split", "rho", "rho_vs_one", "consistent", "notes")


def invasion_number(m: Model, sigma, equilibrium,
                    params: Mapping[str, Fraction] | None = None,
                    mask="auto") -> InvasionReport:
    '''Growth verdict for the siphon block sigma at a boundary equilibrium:
    the sign of the block's spectral abscissa, plus the next-generation
    ratio rho(F V^-1) when a valid splitting is available (see ngm_split for
    mask). When both are computed they are checked against each other.

    The report is computed once per point, sigma, resolved mask and resident
    coordinates; every call returns it as stored, with tuple rows.'''
    at = require(m, Model).at(params).at(equilibrium)   # refuses a missing or inexact coordinate
    svars = m.sort_vars(as_face(sigma))
    resolved = ()
    if mask == "auto":
        mask = m.ngm_masks.get(frozenset(svars))
        if mask is None:
            resolved = ("no routing metadata; using entrywise positive part",)
    if mask is not None:
        mask = _mask_indices(m, mask)
    return at.inst.kept(("invasion", svars, mask, resolved, at.key),
                        _invasion_number, m, svars, at, mask, resolved)


def _invasion_number(m: Model, svars, at: Evaluation, mask,
                     resolved: tuple[str, ...]) -> InvasionReport:
    '''The report on the block of svars at the Evaluation at, split by mask
    (None for the entrywise positive part); resolved holds the notes of
    resolving mask="auto", which lead the split's notes. The abscissa sign
    and F, whose masked form reads the rate derivatives M was evaluated
    from, are taken here; the split is made on read (_next_generation)
    from M, F and notes only, so a kept report holds nothing of the
    point.'''
    M = _block(m, svars, at)
    lead = ()
    try:
        abscissa, source = metzler_sign(M).verdict, "metzler-minors"
    except NotMetzler:
        abscissa, source = _abscissa_by_roots(M)
        lead = ("block is not Metzler; abscissa from characteristic roots",)
    if mask is not None:
        F = at.pairs([m.var_index(v) for v in svars], {j - 1 for j in mask})
    else:
        F = PairMatrix([[x if pair_sign(*x, M.d) > 0 else (0, 0) for x in row] for row in M.rows],
                       M.Q, M.d)
    split = Deferred(_next_generation, svars, M, F, resolved, abscissa, lead,
                     fields=_SPLIT_FIELDS)
    return InvasionReport(svars, Deferred(_rows, M), abscissa, source, split, split, split,
                          split, split)


def _next_generation(svars, M: PairMatrix, F: PairMatrix, resolved: tuple[str, ...],
                     abscissa: str, lead: tuple[str, ...]) -> tuple:
    '''The split M = F - V and what is read from it, an invasion report's
    _SPLIT_FIELDS in order. One Bareiss pass over [V | F] (leading_solve)
    gives V's leading minors and, when the split is valid, V^-1 F for rho
    (_ngm_radius); the report's notes are lead, then the split's faults or
    the ratio's, then a disagreement with the abscissa sign.'''
    n = len(svars)
    V = PairMatrix.of_entries(n, F.cells() + M.cells(-1))
    faults = []
    if any(F.sign(i, j) < 0 for i in range(n) for j in range(n)):
        faults.append("F has a negative entry")
    if not is_metzler(-V):
        faults.append("V has a positive off-diagonal entry")
    positive, K = leading_solve(V, F)
    if positive < n:
        faults.append(f"leading principal minor {positive + 1} of V is not positive")
    split = NgmSplit(svars, Deferred(_rows, F), Deferred(_rows, V), not faults,
                     (*resolved, *faults))
    notes = list(lead)
    rho = rho_vs_one = None
    if split.valid:
        rho, rho_vs_one = _ngm_radius(K)
        if rho is None:
            notes.append("spectral radius not expressible in one square root")
    else:
        notes.extend(split.notes)
    consistent = None
    if rho_vs_one is not None and abscissa in ("Negative", "Zero", "Positive"):
        consistent = {"Negative": -1, "Zero": 0, "Positive": 1}[abscissa] == rho_vs_one
        if not consistent:
            notes.append("threshold ratio disagrees with abscissa sign")
    return split, rho, rho_vs_one, consistent, tuple(notes)


def _ngm_radius(K: PairMatrix) -> tuple[Optional[ExactScalar], Optional[int]]:
    '''rho(F V^-1) of a valid split from K = V^-1 F, and the sign of rho - 1;
    (None, None) when rho is not expressible in one square root. Valid: F
    >= 0 and V^-1 >= 0, so K >= 0 and by Perron-Frobenius its spectral
    radius is its largest real part; K is similar to F V^-1 (conjugate by
    V), so both have one spectrum. rho is the largest real part that
    linalg.char_abscissa reads from K's characteristic polynomial, and its
    sign comes from rho's pair minus its denominator. When F, and so K, has
    rank at most one, that polynomial is lambda^(n-1) (lambda - tr K), which
    char_abscissa splits exactly.'''
    rho = char_abscissa(K)[0]
    if rho is None:
        return None, None
    u, w, q, d = rho
    return from_pair(u, w, q, d), pair_sign(u - q, w, d)


def _abscissa_by_roots(M) -> tuple[str, str]:
    '''Abscissa sign of a non-Metzler block, from linalg.char_abscissa: the
    sign of the largest real part when the roots give it, else the sign
    that nonzero Hurwitz determinants decide (the regular case of
    Routh-Hurwitz: nonzero D(n-1) and D(n) leave no root on the imaginary
    axis, and a negative determinant forces a sign change in Routh's
    sequence, hence a root with positive real part; Gantmacher, Theory of
    Matrices II, XV).'''
    alpha, _, _, sign = char_abscissa(M)
    if alpha is not None:
        u, w, _, d = alpha
        return {-1: "Negative", 0: "Zero", 1: "Positive"}[pair_sign(u, w, d)], "char-roots"
    return (sign, "hurwitz-determinants") if sign else ("Unknown", "char-roots")


# ---------------------------------------------------------------------------
# local asymptotic stability with attribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockVerdict:
    vars: tuple[str, ...]
    verdict: str                      # Hurwitz verdict for this block
    char: UniPoly = OnRead()          # made on first read (linalg.char_hurwitz)
    hurwitz: HurwitzReport = OnRead()


@dataclass(frozen=True)
class StabilityReport:
    verdict: str                      # "LAS" | "Unstable" | "Boundary"
    blocks: tuple[BlockVerdict, ...]

    def offending(self) -> tuple[str, ...]:
        '''The variables of the first block that proves the verdict: one
        that is not Hurwitz under "Boundary"; under "Unstable", one that is
        NotHurwitz or has a negative characteristic coefficient (read from
        its char); () under "LAS".'''
        for b in self.blocks:
            if b.verdict != "Hurwitz" and (self.verdict == "Boundary" or b.verdict == "NotHurwitz"
                                           or any(x.sign() < 0 for x in b.char.coeffs)):
                return b.vars
        return ()


def las_test(m: Model, equilibrium,
             params: Mapping[str, Fraction] | None = None) -> StabilityReport:
    '''Exact linearised stability at an equilibrium: hurwitz_blocks of its
    Jacobian, from the block pairs kept there (_jacobian_blocks). The report
    is computed once per point and coordinates; every call returns it as
    stored.'''
    at = require(m, Model).at(params).at(equilibrium)
    return at.inst.kept(("las", at.key), _las, at, m.variables)


def _las(at: Evaluation, names) -> StabilityReport:
    return _block_report(*_jacobian_blocks(at), names)


def _jacobian_blocks(at: Evaluation) -> tuple[PairMatrix, list]:
    '''The Jacobian at at and its linalg.char_blocks, both kept per point
    and coordinate vector: las_test and the rank-one reports there read one
    Berkowitz pass.'''
    J = at.pairs()
    return J, at.inst.kept(("char_blocks", at.key), char_blocks, J)


def hurwitz_blocks(J, names) -> StabilityReport:
    '''Split J (an ExactMatrix or a PairMatrix) into strongly connected
    blocks and run the Hurwitz test on each, so a failure names the
    variables responsible; names[i] labels row and column i of J. Each
    block's verdict is linalg.char_hurwitz's, decided in integers; its char
    and hurwitz, char_poly and hurwitz_test of the block, are made on first
    read. AlgebraError when names is not a sequence or is shorter than J.'''
    J = pair_matrix(J)
    if not isinstance(names, Sequence):
        raise AlgebraError(f"the rows of the matrix are named by a sequence, not {names!r}")
    if len(names) < len(J):
        raise AlgebraError(f"{len(names)} names for the {len(J)} rows of the matrix")
    return _block_report(J, char_blocks(J), names)


def _block_report(J: PairMatrix, blocks: list, names) -> StabilityReport:
    '''The report of hurwitz_blocks on J from its linalg.char_blocks. The
    verdict is "Unstable" when a block is NotHurwitz, or Boundary with a
    negative characteristic coefficient: a real polynomial with every root
    in Re <= 0 is a product of factors l + a and l^2 + b l + c with a, b >=
    0 and c > 0, so none of its coefficients is negative (nor is one of a
    Hurwitz block's). Each block keeps its own verdict.'''
    verdicts = tuple(BlockVerdict(tuple(names[i] for i in idx), *char_hurwitz(c, J.Q, J.d))
                     for idx, c in blocks)
    if any(b.verdict == "NotHurwitz"
           or b.verdict == "Boundary" and any(pair_sign(*x, J.d) < 0 for x in c)
           for b, (_, c) in zip(verdicts, blocks)):
        verdict = "Unstable"
    elif any(b.verdict == "Boundary" for b in verdicts):
        verdict = "Boundary"
    else:
        verdict = "LAS"
    return StabilityReport(verdict, verdicts)


# ---------------------------------------------------------------------------
# coefficient-sign certificates
# ---------------------------------------------------------------------------

def certify_positive(p: MultiPoly, positive) -> bool:
    '''p > 0 wherever the symbols in `positive` are strictly positive and all
    others are nonnegative. Sound, not complete: requires nonnegative
    coefficients plus one positive term supported on `positive`.
    AlgebraTypeError for anything but a MultiPoly.'''
    if not isinstance(p, MultiPoly):
        raise AlgebraTypeError(f"certify_positive takes a MultiPoly, not {type(p).__name__}")
    return (all(c >= 0 for c in p.terms.values())
            and not p.set_zero(set(p.vars).difference(positive)).is_zero)


def _sign(f: MultiPoly | RatFunc, positive) -> int:
    '''1 or -1 when certify_positive certifies f > 0 or f < 0 (a RatFunc
    through its numerator and denominator), else 0.'''
    if isinstance(f, RatFunc):
        return _sign(f.num, positive) * _sign(f.den, positive)
    return 1 if certify_positive(f, positive) else -1 if certify_positive(-f, positive) else 0


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
    siphon_block_metzler: Mapping[str, bool]   # read-only
    relay_interfaces_monotone: bool
    notes: tuple[str, ...] = ()


def dependency_partition(m: Model) -> tuple[tuple[str, ...], ...]:
    '''Strongly connected blocks of the symbolic dependency graph. The
    partition is parameter-independent: an edge exists when the Jacobian
    entry is not identically zero.'''
    support = [[not x.is_zero for x in row] for row in jacobian(m)]
    return tuple(tuple(m.variables[i] for i in comp) for comp in strong_blocks(support))


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
    is too large to screen this way or some branch fails only by sub-blocks
    too large to certify.

    The screen does not depend on the parameter point, so each model keeps
    its report per max_block and every call returns it as stored.
    max_block is an int (not a bool) of at least 1; anything else is a
    ModelError.
    '''
    if not isinstance(max_block, int) or isinstance(max_block, bool) or max_block < 1:
        raise ModelError(f"max_block must be an int of at least 1, not {max_block!r}")
    return require(m, Model).kept(("screen", max_block), _screen, m, max_block)


def _screen(m: Model, max_block: int) -> ScreenReport:
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
        # a branch whose only failures are sub-blocks refused by size is
        # not screened either
        inconclusive = inconclusive or any(
            all(s.ok or s.kind == "too-large" for s in b.subblocks)
            for b in branches if not b.ok)
    certified = all(b.certified for b in blocks if len(b.vars) <= max_block)
    hopf_impossible = None if inconclusive else certified

    me = {}
    lat = m.lattice()
    jac = jacobian(m)
    for sig in lat.minimal:
        svars = m.sort_vars(sig)
        ok = True
        for v in svars:
            for w in svars:
                if v == w:
                    continue
                entry = jac[m.var_index(v)][m.var_index(w)].set_zero(sig)
                # >= 0: a denominator of certified sign over a numerator of
                # that sign once every variable may be positive
                if not (entry.is_zero or
                        _sign(entry.num, entry.num.vars) == _sign(entry.den, params) != 0):
                    ok = False
        me[lat.label(sig)] = ok
    return ScreenReport(partition, tuple(blocks), hopf_impossible, MappingProxyType(me),
                        all(me.values()), tuple(notes))


def _screen_block(m: Model, bvars: tuple[str, ...], zeros: frozenset,
                  relations: dict, params: frozenset) -> list[ScreenBranch]:
    # branch over the next variable that factors out of its own rate
    for v in bvars:
        if v in zeros or v in relations:
            continue
        f = m.rhs(v).set_zero(zeros)
        if f.num.monomial_gcd((v,)).degree_in(v):   # v divides the rate
            rel = RatFunc(f.num.divide_by_var(v), f.den)
            out = _screen_block(m, bvars, zeros | {v}, relations, params)
            out.extend(_screen_block(m, bvars, zeros, relations | {v: rel}, params))
            return out

    positive = set(params) | set(relations)
    # an impossible relation kills the branch outright
    for v, rel in relations.items():
        r = rel.set_zero(zeros)
        if _sign(r, positive):
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
                if _sign(a, positive) * _sign(s, positive) == -1:
                    positive.add(z)
                    changed = True

    J = _branch_jacobian(m, bvars, zeros, relations)
    subs: list[SubBlockCertificate] = []
    ok = True
    for idx in strong_blocks([[not x.is_zero for x in row] for row in J]):
        vars_ = tuple(bvars[i] for i in idx)
        cert = _certify_subblock(vars_, submatrix(J, idx, idx), frozenset(positive))
        subs.append(cert)
        ok = ok and cert.ok
    return [ScreenBranch(zeros, tuple(relations), frozenset(positive),
                         "certified" if ok else "failed", tuple(subs))]


def _branch_jacobian(m: Model, bvars, zeros: frozenset, relations: dict):
    jac = jacobian(m)
    rows = []
    for v in bvars:
        if v in relations:
            # rhs_v = x_v * rel and rel vanishes at any equilibrium on this
            # branch, so d(rhs_v)/dw collapses to x_v * d(rel)/dw; in
            # particular the diagonal entry loses its rel term.
            xv = RatFunc(m.ring.var(v))
            rows.append([(xv * relations[v].derivative(w)).set_zero(zeros)
                         for w in bvars])
        else:
            row = jac[m.var_index(v)]
            rows.append([row[m.var_index(w)].set_zero(zeros) for w in bvars])
    return rows


def _certify_subblock(vars_: tuple[str, ...], sub, positive) -> SubBlockCertificate:
    n = len(sub)
    if n == 1:
        return SubBlockCertificate(vars_, "degree-1", True)
    if n > 3:
        return SubBlockCertificate(vars_, "too-large", False)
    cs = char_coeffs(sub)
    if n == 2:
        ok = _sign(cs[0], positive) != 0
        return SubBlockCertificate(vars_, "trace-definite", ok, tuple(cs))
    surplus = cs[0] * cs[1] - cs[2]
    if _sign(surplus, positive):
        return SubBlockCertificate(vars_, "surplus-definite", True, tuple(cs))
    if _sign(cs[1], positive) == -1:
        return SubBlockCertificate(vars_, "middle-coefficient-negative", True, tuple(cs))
    return SubBlockCertificate(vars_, "surplus-definite", False, tuple(cs))


# ---------------------------------------------------------------------------
# rank-one coupling bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneReport:
    base_hurwitz: bool
    base_metzler: bool
    gain: Optional[ExactScalar] = OnRead()   # dc gain of the feedback path, made on read
    kappa: ExactScalar = OnRead()
    bound_holds: Optional[bool]       # |kappa| * gain < 1
    guaranteed: bool
    identity_checked: bool
    notes: tuple[str, ...] = ()


def rank_one_bound(A, u: int, v: int, kappa) -> RankOneReport:
    '''Stability of J = A + kappa e_u e_v^T from properties of A (an
    ExactMatrix or a PairMatrix) alone.

    When A is Metzler and Hurwitz, the perturbed matrix stays Hurwitz as long
    as |kappa| times the dc gain -(A^-1)[v][u] is below one. The determinant
    identity det(lI - J) = det(lI - A) - kappa adj(lI - A)[v][u] is verified
    coefficient by coefficient in l as a self-check.

    Everything is read from integer pairs, without an elimination. With B =
    Q A the integer form of A and c_0, ..., c_n its characteristic pairs
    (the poly_product of linalg.char_blocks, the block pairs that also give
    base_hurwitz), the coefficient of l^(n-1-k) in adj(lI - A)[v][u] is
    r_k / Q^k, for r the first n pairs of the poly_product of c with the
    linalg.krylov_entries (B^i)[v][u] (Faddeev-LeVerrier: adj(mu I - B) =
    sum over k of mu^(n-1-k) (B^k + c_1 B^(k-1) + ... + c_k I)). kappa (an
    int, a Fraction or an ExactScalar, rational or in A's radicand) is a
    pair k over its denominator Qk. The left side c^L_0, ..., c^L_n are the
    block pairs of J over its own denominator Q_L: here J is built from A
    (A.plus), and on the model path (rank_one_coupling_bound) it is the
    evaluated Jacobian, whose pairs las_test reads too. The identity holds
    when (Q Qk)^(k+1) c^L_(k+1) = Q_L^(k+1) (Qk^(k+1) c_(k+1) - Q Qk^k k
    r_k) for every k < n, both sides over their common factor; when kappa =
    0 it reads det(lI - J) = det(lI - A) and cannot see r.

    The gain is Q r_(n-1) / c_n, the pair Q r_(n-1) conj(c_n) over N(c_n),
    and A is singular exactly when c_n = 0; the bound is the sign of
    |kappa| |gain| - 1 over their common denominator. gain and kappa are
    made on read. AlgebraError when (u, v) is not an entry of A (each an
    int, not a bool, in range(n), as PairMatrix.plus checks) or kappa is not
    exact; MixedExtensions when kappa holds another radicand than A.'''
    A = pair_matrix(A)
    J = A.plus({(u, v): kappa})   # refuses an entry outside A
    return _rank_one(A, u, v, kappa, (J.Q, char_blocks(J)))


def _rank_one(A: PairMatrix, u: int, v: int, kappa, left: tuple[int, list]) -> RankOneReport:
    '''The RankOneReport of A + kappa e_u e_v^T, the identity's left side
    given as left = (Q_L, the linalg.char_blocks of that matrix over Q_L);
    see rank_one_bound. A is split into its own blocks here, for
    base_hurwitz and c.'''
    n, Q = len(A), A.Q
    krylov = krylov_entries(A, u, v)
    (k,), Qk, ds = to_pairs([kappa])
    d = one_radicand((A.d, *ds))
    notes: list[str] = []
    blocks = char_blocks(A)
    base_h = _block_report(A, blocks, range(n)).verdict == "LAS"
    base_m = is_metzler(A)
    c = _char_product(blocks, d)
    r = poly_product(c, krylov, d, n)
    gain = bound = None
    cu, cw = c[n]
    if not (cu or cw):
        notes.append("A is singular; no dc gain")
    else:
        ru, rw = r[n - 1]
        norm = cu * cu - d * cw * cw
        t = Q if norm > 0 else -Q
        g = (t * (ru * cu - d * rw * cw), t * (rw * cu - ru * cw))   # over den
        den = abs(norm)
        if pair_sign(*g, d) < 0:
            notes.append("dc gain is negative; bound applied to its magnitude")
            g = (-g[0], -g[1])
        size = k if pair_sign(*k, d) >= 0 else (-k[0], -k[1])
        pu, pw = pair_product(size, g, d)
        bound = pair_sign(pu - Qk * den, pw, d) < 0
        gain = Deferred(from_pair, *g, den, A.d)
    QL, left_blocks = left
    lhs = _char_product(left_blocks, d)
    e = math.gcd(Q * Qk, QL)
    a, b = Q * Qk // e, QL // e   # c^L_j / Q_L^j = right_j / (Q Qk)^j, cross-multiplied
    ident = True
    for j, (ku, kw) in enumerate(pair_product(k, x, d) for x in r):   # k r_j
        sc, sr, sa, sb = Qk ** (j + 1), Q * Qk ** j, a ** (j + 1), b ** (j + 1)
        (lu, lw), (xu, xw) = lhs[j + 1], c[j + 1]
        ident = ident and (sa * lu, sa * lw) == (sb * (sc * xu - sr * ku), sb * (sc * xw - sr * kw))
    if not ident:
        notes.append("determinant identity failed at a coefficient in lambda")
    guaranteed = bool(base_h and base_m and bound) and ident
    return RankOneReport(base_h, base_m, gain, kappa if type(kappa) is ExactScalar
                         else Deferred(exact, kappa), bound, guaranteed, ident, tuple(notes))


def _char_product(blocks: list, d: int) -> list:
    '''The characteristic pairs of a matrix from those of its
    linalg.char_blocks: their poly_product.'''
    c = [(1, 0)]
    for _, b in blocks:
        c = poly_product(c, b, d)
    return c


def rank_one_model_bound(m: Model, equilibrium,
                         params: Mapping[str, Fraction] | None = None) -> RankOneReport:
    '''Apply the rank-one bound to the model's designated coupling entry:
    rank_one_coupling_bound with the edge's variables and its parameter's
    value at the point.'''
    if require(m, Model).rank_one_edge is None:
        raise NotApplicable(f"model {m.name} declares no rank-one coupling")
    row, col, pname = m.rank_one_edge
    return rank_one_coupling_bound(m, equilibrium, row, col, m.at(params).point[pname], params)


def rank_one_coupling_bound(m: Model, equilibrium, row: str, col: str, kappa,
                            params: Mapping[str, Fraction] | None = None) -> RankOneReport:
    '''The rank-one bound of the coupling kappa e_u e_v^T of the variable
    col (v) into the rate of row (u) at an equilibrium: rank_one_bound's
    report on A = J - kappa e_u e_v^T, J the Jacobian there, whose block
    pairs, kept there (_jacobian_blocks) and shared with las_test, are the
    identity's left side, so the identity also checks A against J.
    ModelError when row or col is not a variable of m.'''
    at = require(m, Model).at(params).at(equilibrium)
    u, v = m.var_index(row), m.var_index(col)
    J, blocks = _jacobian_blocks(at)
    return _rank_one(J.plus({(u, v): -kappa}), u, v, kappa, (J.Q, blocks))
