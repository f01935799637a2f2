import dataclasses
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from conftest import kept
from crnrelay import stability
from crnrelay.equilibria import all_equilibria, face_equilibria, positivity_check
from crnrelay.errors import (AlgebraError, CrnRelayError, ExtractionError, ModelError,
                             NotApplicable, NotOnFace, SingularMatrix)
from crnrelay.linalg import (PairMatrix, char_abscissa, char_blocks, char_poly, hurwitz_test,
                             inverse, leading_minors, leading_solve, mat, mat_mul, pair_matrix)
from crnrelay.modelfile import parse_model_text
from crnrelay.models import (OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT, builtin_model,
                             closed_form_oracle)
from crnrelay.poly import RatFunc
from crnrelay.scalars import Deferred, ExactScalar, exact, from_pair
from crnrelay.stability import (block_structure_screen, dependency_partition,
                                invasion_number, jacobian, jacobian_at,
                                las_test, mixed_block_zero, ngm_split,
                                rank_one_bound, rank_one_coupling_bound,
                                rank_one_model_bound, transversal_block)

P0 = {"Lambda": Fraction(2), "betaw": Fraction(1, 2), "beta1": Fraction(3)}

# which columns may be nonzero in each row of the omega>0 Jacobian
EXPECTED_PATTERN = {
    "S1": {"S1", "B1", "U"},
    "B1": {"S1", "B1"},
    "S2": {"S2", "B2", "U"},
    "B2": {"S2", "B2"},
    "U": {"U", "W", "x1"},
    "R": {"B1", "B2", "R"},
    "W": {"R", "U", "W"},
    "x1": {"U", "x1"},
}


def test_jacobian_zero_pattern():
    m = builtin_model("osn_omega_pos")
    jac = jacobian(m)
    for i, v in enumerate(m.variables):
        nonzero = {w for j, w in enumerate(m.variables) if not jac[i][j].is_zero}
        assert nonzero == EXPECTED_PATTERN[v], v


def test_jacobian_matches_finite_differences():
    rng = random.Random(41)
    m = builtin_model("osn_omega_pos")
    vals = m.point({k: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                    for k in m.parameters})
    point = {v: Fraction(rng.randint(1, 5), rng.randint(1, 4)) for v in m.variables}
    J = jacobian_at(m, {v: exact(q) for v, q in point.items()}, vals)

    mpmath.mp.dps = 40
    h = mpmath.mpf(10) ** -18

    def rhs_float(values, var):
        pt = {k: Fraction(q) for k, q in vals.items()}
        env = {n: mpmath.mpf(values[n].numerator) / values[n].denominator
               if isinstance(values[n], Fraction) else values[n]
               for n in values}
        f = m.rhs(var)
        num = _poly_mp(f.num, env, pt)
        den = _poly_mp(f.den, env, pt)
        return num / den

    def _poly_mp(p, env, pt):
        tot = mpmath.mpf(0)
        for e, c in p.terms.items():
            term = mpmath.mpf(c.numerator) / c.denominator
            for name, k in zip(p.vars, e):
                if k:
                    base = env[name] if name in env else \
                        mpmath.mpf(pt[name].numerator) / pt[name].denominator
                    term *= base ** k
            tot += term
        return tot

    for i, vi in enumerate(m.variables):
        for j, vj in enumerate(m.variables):
            up = {n: mpmath.mpf(q.numerator) / q.denominator for n, q in point.items()}
            dn = dict(up)
            up[vj] += h
            dn[vj] -= h
            num = (rhs_float(up, vi) - rhs_float(dn, vi)) / (2 * h)
            exactval = J[i][j]
            want = mpmath.mpf(exactval.a.numerator) / exactval.a.denominator
            assert abs(num - want) < mpmath.mpf(10) ** -12


def test_transversal_block_values_at_gosn():
    m = builtin_model("osn_omega_pos")
    g = closed_form_oracle(m, "gOSN", P0)
    M1 = transversal_block(m, {"S1", "B1"}, g.coords, P0)
    as_fr = [[x.to_fraction() for x in row] for row in M1]
    assert as_fr == [[-1, Fraction(3, 2)], [1, -1]]
    M2 = transversal_block(m, {"S2", "B2"}, g.coords, P0)
    assert [[x.to_fraction() for x in row] for row in M2] == [[-1, Fraction(1, 2)], [1, -1]]
    with pytest.raises(NotOnFace):
        transversal_block(m, {"U"}, g.coords, P0)


def test_invasion_numbers_at_reference_point():
    m = builtin_model("osn_omega_pos")
    g = closed_form_oracle(m, "gOSN", P0)
    inv1 = invasion_number(m, {"S1", "B1"}, g, P0)
    assert inv1.abscissa_sign == "Positive"
    assert inv1.rho.to_fraction() == Fraction(3, 2)
    assert inv1.rho_vs_one == 1
    assert inv1.consistent

    inv2 = invasion_number(m, {"S2", "B2"}, g, P0)
    assert inv2.abscissa_sign == "Negative"
    assert inv2.rho.to_fraction() == Fraction(1, 2)

    dfe = closed_form_oracle(m, "OSND", P0)
    invu = invasion_number(m, {"U"}, dfe, P0)
    assert invu.abscissa_sign == "Positive"
    assert invu.rho.to_fraction() == 2  # basic threshold ratio at the empty state


def fresh_omega_pos():
    return parse_model_text(OSN_OMEGA_POS_TEXT, default_name="osn_omega_pos")


def test_invasion_memo_matches_a_fresh_model():
    m = fresh_omega_pos()
    other = {**P0, "Lambda": Fraction(3)}
    seen = []
    for params in (P0, other, P0):
        g = closed_form_oracle(m, "gOSN", params)
        got = [invasion_number(m, s, g, params) for s in ({"S1", "B1"}, {"S2", "B2"})]
        fresh = fresh_omega_pos()
        assert got == [invasion_number(fresh, s, g, params)
                       for s in ({"S1", "B1"}, {"S2", "B2"})]
        seen.append(got)
    assert seen[0] != seen[1]
    assert seen[2] == seen[0]


def test_invasion_memo_returns_the_stored_report_and_follows_masks():
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    want = invasion_number(m, {"S1", "B1"}, g, P0)
    got = invasion_number(m, {"S1", "B1"}, g, P0)
    assert got is want
    with pytest.raises(TypeError):
        got.block[0][0] = exact(99)
    with pytest.raises(AttributeError):
        got.block.append(())
    with pytest.raises(AttributeError):
        got.split.F[0].clear()
    with pytest.raises(AttributeError):
        got.split.V.clear()
    assert invasion_number(m, {"S1", "B1"}, g, P0) == want
    assert want == invasion_number(fresh_omega_pos(), {"S1", "B1"}, g, P0)
    # "auto" is resolved against the model's routing metadata on every call
    del m.ngm_masks[frozenset({"S1", "B1"})]
    fresh = fresh_omega_pos()
    del fresh.ngm_masks[frozenset({"S1", "B1"})]
    after = invasion_number(m, {"S1", "B1"}, g, P0)
    assert after == invasion_number(fresh, {"S1", "B1"}, g, P0)
    assert "no routing metadata" in " ".join(after.split.notes)
    assert invasion_number(m, {"S1", "B1"}, g, P0, mask=None).split.notes == ()


def _eager(rep):
    '''The report built again from its rows, read once.'''
    s = rep.split
    split = stability.NgmSplit(s.sigma, tuple(s.F), tuple(s.V), s.valid, s.notes)
    return stability.InvasionReport(rep.sigma, tuple(rep.block), rep.abscissa_sign,
                                    rep.abscissa_source, rep.rho, rep.rho_vs_one, split,
                                    rep.consistent, rep.notes)


@pytest.mark.parametrize("name", ["osn_omega0", "osn_omega_pos"])
def test_reports_read_their_rows_as_reports_built_with_them(name):
    """An invasion report keeps its block, F and V as the matrices it was
    computed from and reads them as tuple rows; on every field, ==, hash and
    repr it is the report built with those rows."""
    text = OSN_OMEGA0_TEXT if name == "osn_omega0" else OSN_OMEGA_POS_TEXT
    m = parse_model_text(text)
    checked = 0
    for host in NAMES[name]:
        try:
            e = closed_form_oracle(m, host, P0)
        except CrnRelayError:
            continue
        for sigma in m.lattice().minimal:
            if not sigma <= e.zero_set:
                continue
            first = invasion_number(m, sigma, e, P0)
            other = invasion_number(parse_model_text(text), sigma, e, P0)
            eager = _eager(invasion_number(parse_model_text(text), sigma, e, P0))
            assert repr(first) == repr(eager) and first.split == eager.split
            assert other == eager and hash(other) == hash(eager)
            for rep in (first, other):
                for rows in (rep.block, rep.split.F, rep.split.V):
                    assert exact_rows(rows, tuple)
                assert rep.block is rep.block
                with pytest.raises(dataclasses.FrozenInstanceError):
                    rep.block = eager.block
                with pytest.raises(dataclasses.FrozenInstanceError):
                    rep.split.F = eager.split.F
            checked += 1
    assert checked > 3


def test_jacobian_memo_returns_fresh_rows():
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    J = jacobian_at(m, g.coords, P0)
    M = transversal_block(m, {"S1", "B1"}, g.coords, P0)
    want_J, want_M = [list(r) for r in J], [list(r) for r in M]
    J[0][0] = exact(99)
    J[1].clear()
    J.append([])
    M[0][1] = exact(-7)
    M.pop()
    assert jacobian_at(m, g.coords, P0) == want_J
    assert transversal_block(m, {"S1", "B1"}, g.coords, P0) == want_M
    assert jacobian_at(m, g.coords, P0) is not jacobian_at(m, g.coords, P0)


def test_symbolic_jacobian_is_handed_out_as_stored():
    m = parse_model_text(OSN_OMEGA0_TEXT)
    rfe = closed_form_oracle(m, "RFE")
    jac = jacobian(m)
    assert jac is jacobian(m) and type(jac) is tuple and all(type(r) is tuple for r in jac)
    with pytest.raises(TypeError):
        jac[0][0] = RatFunc.const(42)
    want = jacobian_at(builtin_model("osn_omega0"), rfe.coords)
    assert want[0][0] == exact(-1)
    assert jacobian_at(m, rfe.coords) == want


def test_memoised_reports_are_the_same_object_on_every_call():
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    assert invasion_number(m, {"S1", "B1"}, g, P0) is invasion_number(m, {"S1", "B1"}, g, P0)
    assert ngm_split(m, {"S2", "B2"}, g.coords, P0) is ngm_split(m, {"S2", "B2"}, g.coords, P0)
    assert (ngm_split(m, {"S2", "B2"}, g.coords, P0)
            is invasion_number(m, {"S2", "B2"}, g, P0).split)
    assert block_structure_screen(m) is block_structure_screen(m)


def test_jacobian_memo_matches_a_fresh_model():
    m = fresh_omega_pos()
    other = {**P0, "Lambda": Fraction(3), "betaw": Fraction(2, 3)}
    seen = []
    for params in (P0, other, P0):
        got = []
        for name in ("gOSN", "OSND", "RFE"):
            e = closed_form_oracle(m, name, params)
            fresh = fresh_omega_pos()
            got.append(jacobian_at(m, e.coords, params))
            assert got[-1] == jacobian_at(fresh, e.coords, params)
            assert (transversal_block(m, {"S2", "B2"}, e.coords, params) ==
                    transversal_block(fresh, {"S2", "B2"}, e.coords, params))
        seen.append(got)
    assert seen[0] != seen[1] and seen[2] == seen[0]
    # a change of the model's values moves the point the defaults give
    g = closed_form_oracle(m, "gOSN", P0)
    before = jacobian_at(m, g.coords)
    m.values["beta1"] = Fraction(5)
    fresh = fresh_omega_pos()
    fresh.values["beta1"] = Fraction(5)
    after = jacobian_at(m, g.coords)
    assert after == jacobian_at(fresh, g.coords) and after != before


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
def test_non_metzler_abscissa_sign_matches_numpy(lam):
    # Below R0 = 1 the U-branch equilibria carry U < 0, so a strain block
    # invading them is not Metzler and its sign comes from char_poly roots.
    m = builtin_model("osn_omega0")
    params = {"Lambda": lam}
    sign = {"Negative": -1, "Zero": 0, "Positive": 1}
    for name, sigma in (("E1g", {"S2", "B2"}), ("E2g", {"S1", "B1"}),
                        ("gOSN", {"S1", "B1"}), ("gOSN", {"S2", "B2"})):
        e = closed_form_oracle(m, name, params)
        inv = invasion_number(m, sigma, e, params)
        assert inv.abscissa_source == "char-roots", name
        block = np.array([[float(x) for x in row] for row in inv.block])
        alpha = max(np.linalg.eigvals(block).real)
        assert abs(alpha) > 1e-9
        assert sign[inv.abscissa_sign] == np.sign(alpha), (name, sorted(sigma))


S2 = ExactScalar(Fraction(0), Fraction(1), 2)


@pytest.mark.parametrize("rows, want", [
    ([[-1, -S2], [1, 0]], "Negative"),   # lambda^2 + lambda + sqrt2
    ([[1, -S2], [1, 0]], "Positive"),    # lambda^2 - lambda + sqrt2
    ([[0, -S2], [1, 0]], "Unknown"),     # lambda^2 + sqrt2: D1 = 0
])
def test_non_metzler_abscissa_from_hurwitz_determinants(rows, want):
    sign, source = stability._abscissa_by_roots(mat(rows))
    assert sign == want
    assert source == ("char-roots" if want == "Unknown" else "hurwitz-determinants")


def test_non_metzler_abscissa_sign_matches_numpy_over_extensions():
    rng = random.Random(31)
    sign = {"Negative": -1, "Zero": 0, "Positive": 1}
    sources = {"char-roots": 0, "hurwitz-determinants": 0}
    for _ in range(300):
        n = rng.choice((2, 3))
        d = rng.choice((2, 3, 5, 13))
        M = [[ExactScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 3)), d)
              for _ in range(n)] for _ in range(n)]
        M[0][1] = exact(-rng.randint(1, 6))   # not Metzler
        verdict, source = stability._abscissa_by_roots(M)
        if verdict == "Unknown":
            continue
        sources[source] += 1
        alpha = max(np.linalg.eigvals(np.array([[float(x) for x in row]
                                                for row in M])).real)
        assert abs(alpha) > 1e-9
        assert sign[verdict] == np.sign(alpha), (M, verdict, source)
    assert sources["hurwitz-determinants"] > 200


def test_an_irrational_block_with_a_rational_polynomial_reads_its_roots():
    # [[0, sqrt(2)], [2 sqrt(2), 0]] has lambda^2 - 4, so the roots -+2 decide
    assert stability._abscissa_by_roots([[0, S2], [2 * S2, 0]]) == ("Positive", "char-roots")


@settings(max_examples=60)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_abscissa_matches_numpy(rows):
    alpha, roots, _, _ = char_abscissa(mat(rows))
    eig = np.linalg.eigvals(np.array([[float(x) for x in r] for r in rows]))
    assert all(np.min(np.abs(eig - float(from_pair(*r)))) < 1e-4 for r in roots)
    if alpha is not None:
        assert abs(float(from_pair(*alpha)) - max(eig.real)) < 1e-4


def test_ngm_split_mask_and_validity():
    m = builtin_model("osn_omega_pos")
    g = closed_form_oracle(m, "gOSN", P0)
    split = ngm_split(m, {"S1", "B1"}, g.coords, P0)
    assert split.valid
    # gains F as nonnegative matrix, V with nonpositive off-diagonals
    n = len(split.F)
    for i in range(n):
        for j in range(n):
            assert split.F[i][j].sign() >= 0
            if i != j:
                assert split.V[i][j].sign() <= 0


def test_ngm_split_is_the_split_of_the_invasion_report():
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    masks = ("auto", None, (1,), [1])
    splits = [ngm_split(m, {"S1", "B1"}, g.coords, P0, mask=mask) for mask in masks]
    # ngm_split fills the invasion memo; "auto" resolves to the metadata mask (1,)
    assert len(kept(m.at(P0), "invasion")) == 2
    assert splits == [invasion_number(m, {"S1", "B1"}, g, P0, mask=mask).split
                      for mask in masks]
    assert len(kept(m.at(P0), "invasion")) == 2


# -- the next-generation kernel: one elimination of [V | F] --------------------

def _nonnegative(d):
    '''a + b sqrt(d) with a, b >= 0, b = 0 when d = 1.'''
    part = st.fractions(min_value=0, max_value=4, max_denominator=3)
    if d == 1:
        return part.map(exact)
    return st.tuples(part, part).map(lambda t: ExactScalar(t[0], t[1], d))


@st.composite
def ngm_cases(draw):
    '''(V, F): V a strictly diagonally dominant Z-matrix with a positive
    diagonal (a nonsingular M-matrix), a Z-matrix with any diagonal, or any
    matrix; F nonnegative, of rank at most one (a b^T) or dense. Entries
    rational or in Q(sqrt(d)).'''
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((1, 2, 13)))
    nonneg = _nonnegative(d)
    kind = draw(st.sampled_from(("M-matrix", "M-matrix", "Z-matrix", "any")))
    if kind == "any":
        signed = st.tuples(nonneg, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
        V = [[draw(signed) for _ in range(n)] for _ in range(n)]
    else:
        B = [[draw(nonneg) if i != j else exact(0) for j in range(n)] for i in range(n)]
        if kind == "M-matrix":
            diag = [sum(row, exact(0)) + draw(nonneg.filter(bool)) for row in B]
        else:
            diag = [exact(draw(st.fractions(min_value=-3, max_value=3, max_denominator=2)))
                    for _ in range(n)]
        V = [[diag[i] if i == j else -B[i][j] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        a, b = ([draw(nonneg) for _ in range(n)] for _ in range(2))
        F = [[x * y for y in b] for x in a]
    else:
        F = [[draw(nonneg) for _ in range(n)] for _ in range(n)]
    return V, F


@settings(max_examples=200)
@given(case=ngm_cases())
def test_one_elimination_gives_the_minor_fault_and_the_spectral_radius(case):
    V, F = case
    n = len(V)
    k, K = leading_solve(V, F)
    # the pivots are the leading minors: k counts the positive ones before the first that is not
    assert k == next((i for i, x in enumerate(leading_minors(V)) if x.sign() <= 0), n)
    if k < n:
        assert K is None
        return
    assert K.scalars() == mat_mul(inverse(V), F)
    if any(V[i][j].sign() > 0 for i in range(n) for j in range(n) if i != j):
        return   # not a valid split
    rho, vs_one = stability._ngm_radius(K)
    if type(rho) is Deferred:   # made on read, its sign read from its pair
        rho = rho.build(*rho.args)
    alpha = char_abscissa(mat_mul(F, inverse(V)))[0]   # F V^-1 is similar to K
    assert rho == (None if alpha is None else from_pair(*alpha))
    assert vs_one == (None if rho is None else (rho - 1).sign())
    if rho is None:
        return
    r = max(abs(np.linalg.eigvals(np.array([[float(x) for x in row] for row in F])
                                  @ np.linalg.inv(np.array([[float(x) for x in row] for row in V])))))
    assert abs(float(rho) - r) < 1e-6 * max(1.0, r)
    if abs(r - 1) > 1e-9:
        assert (rho - 1).sign() == (1 if r > 1 else -1)


def test_a_second_number_of_rows_is_refused():
    with pytest.raises(AlgebraError):
        leading_solve([[1, 0], [0, 1]], [[1, 2]])


def test_las_verdicts_at_reference_point():
    m = builtin_model("osn_omega_pos")
    g = closed_form_oracle(m, "gOSN", P0)
    rep = las_test(m, g, P0)
    assert rep.verdict == "Unstable"
    assert set(rep.offending()) == {"S1", "B1"}

    dfe = closed_form_oracle(m, "OSND", P0)
    rep = las_test(m, dfe, P0)
    assert rep.verdict == "Unstable"
    assert set(rep.offending()) == {"U"}


def test_las_in_quadratic_extension():
    m = builtin_model("osn_omega_pos")
    hits = [e for e in all_equilibria(m, P0)[frozenset({"S2", "B2"})]
            if e.is_decided and positivity_check(e).exists]
    assert len(hits) == 1 and hits[0].d == 7
    rep = las_test(m, hits[0], P0)
    assert rep.verdict in ("LAS", "Unstable", "Boundary")
    # strain-2 invasion at E1 has a rational threshold ratio in the extension
    inv = invasion_number(m, {"S2", "B2"}, hits[0], P0)
    assert inv.abscissa_sign in ("Positive", "Negative", "Zero")


def test_las_omega0_e1g():
    m = builtin_model("osn_omega0")
    e1g = closed_form_oracle(m, "E1g", P0)
    assert positivity_check(e1g).exists
    assert las_test(m, e1g, P0).verdict == "LAS"


def test_las_report_is_kept_per_point_and_vector(monkeypatch):
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    sizes = []
    real_kernel = stability.char_hurwitz
    monkeypatch.setattr(stability, "char_hurwitz",
                        lambda c, Q, d: sizes.append(len(c) - 1) or real_kernel(c, Q, d))
    rep = las_test(m, g, P0)
    built = len(sizes)
    assert built == len(rep.blocks) > 0
    # the same vector, as coordinates or as the equilibrium, gives the stored report
    assert las_test(m, dict(g.coords), P0) is rep and las_test(m, g, P0) is rep
    assert len(sizes) == built
    assert kept(m.at(P0), "las") == [(m.at(P0).at(g).key,)]
    # the report is frozen, with tuples throughout
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.verdict = "LAS"
    assert isinstance(rep.blocks, tuple) and all(isinstance(b.vars, tuple) for b in rep.blocks)
    # another point computes a new one
    other = las_test(m, closed_form_oracle(m, "gOSN", {**P0, "Lambda": 3}), {**P0, "Lambda": 3})
    assert other is not rep and len(sizes) > built


# x1 and x2 feed each other's loss: at every k = 1 the decided equilibrium
# (-1, -1, 0) has the block {x1, x2} = [[0, 1], [1, 0]], whose characteristic
# polynomial l^2 - 1 has the root +1 though both its Hurwitz determinants are 0
NEGATIVE_COEFFICIENT = """\
model negative_coefficient
variables: x1 x2 x3
parameters: k1 k2 k3 k4
equations:
    x1' = - k1*x1*x2 - k2*x1
    x2' = - k1*x1*x2 - k3*x2
    x3' = - k4*x3
"""


def test_a_negative_characteristic_coefficient_makes_an_equilibrium_unstable():
    m = parse_model_text(NEGATIVE_COEFFICIENT)
    p = {k: Fraction(1) for k in m.parameters}
    e, = [e for eqs in all_equilibria(m, p).values() for e in eqs
          if e.is_decided and e.coords["x1"] == exact(-1)]
    assert e.coords == {"x1": exact(-1), "x2": exact(-1), "x3": exact(0)}
    rep = las_test(m, e, p)
    assert rep.verdict == "Unstable" and rep.offending() == ("x1", "x2")
    # the block verdicts keep hurwitz_test's zero/negative split
    block = rep.blocks[0]
    assert [b.verdict for b in rep.blocks] == ["Boundary", "Hurwitz"]
    assert block.vars == ("x1", "x2") and str(block.char) == "lambda^2 - 1"
    assert hurwitz_test(block.char).verdict == "Boundary"
    J = np.array([[float(x) for x in row] for row in jacobian_at(m, e, p)])
    assert max(np.linalg.eigvals(J).real) == pytest.approx(1)


def test_the_offending_block_proves_the_verdict():
    # [[0, 1], [-1, 0]] (l^2 + 1, roots +-i) is a Boundary block and [[1]] a
    # NotHurwitz one: the report is Unstable, and the block that proves it is
    # the second, whatever the order of the blocks
    for M, names in (([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], ("a", "b", "c")),
                     ([[1, 0, 0], [0, 0, 1], [0, -1, 0]], ("c", "a", "b"))):
        rep = stability.hurwitz_blocks(M, names)
        assert sorted(b.verdict for b in rep.blocks) == ["Boundary", "NotHurwitz"]
        assert rep.verdict == "Unstable" and rep.offending() == ("c",)
    boundary = stability.hurwitz_blocks([[0, 1], [-1, 0]], ("a", "b"))
    assert boundary.verdict == "Boundary" and boundary.offending() == ("a", "b")
    assert stability.hurwitz_blocks([[-1]], ("a",)).offending() == ()


def test_one_berkowitz_pass_per_jacobian_and_vector(monkeypatch):
    '''las_test and the rank-one report at one point and equilibrium, in
    either order, split the Jacobian into char_blocks once between them; a
    second coordinate vector splits its own Jacobian once. The only other
    split is A's, in the rank-one core.'''
    split = []
    real = stability.char_blocks
    monkeypatch.setattr(stability, "char_blocks", lambda x: split.append(x) or real(x))
    for order in ((las_test, rank_one_model_bound), (rank_one_model_bound, las_test)):
        m = fresh_omega_pos()
        for name in ("gOSN", "OSND"):
            e = closed_form_oracle(m, name, P0)
            split.clear()
            for test in order:
                test(m, e, P0)
            J = m.at(P0).at(e).pairs()
            assert [x is J for x in split].count(True) == 1, (order, name)
            assert len(split) == 2 and all(x.rows != J.rows for x in split if x is not J)
        assert len(kept(m.at(P0), "char_blocks")) == 2


def test_dependency_partition():
    m = builtin_model("osn_omega0")
    blocks = {frozenset(b) for b in dependency_partition(m)}
    assert blocks == {frozenset({"U", "W", "x1"}),
                      frozenset({"S1", "B1"}), frozenset({"S2", "B2"})}


def test_screen_certifies_omega0():
    rep = block_structure_screen(builtin_model("osn_omega0"))
    assert rep.hopf_impossible is True
    assert all(b.certified for b in rep.blocks)
    assert all(rep.siphon_block_metzler.values())


def test_screen_is_inconclusive_for_omega_pos():
    rep = block_structure_screen(builtin_model("osn_omega_pos"))
    # the coupled platform block is larger than the certificate size
    assert rep.hopf_impossible is None
    assert rep.relay_interfaces_monotone


def test_screen_of_the_whole_omega_pos_block_returns():
    # with max_block 8 the platform block is branched; the one branch left
    # open keeps all 8 variables coupled and is refused by size, before any
    # characteristic coefficient is computed
    m = parse_model_text(OSN_OMEGA_POS_TEXT)
    rep = block_structure_screen(m, max_block=8)
    (block,) = rep.blocks
    assert len(block.vars) == 8 and not block.certified
    assert rep.hopf_impossible is None and rep.notes == ()
    (open_branch,) = [b for b in block.branches if not b.ok]
    assert open_branch.relation_vars == ("U",)
    assert [(s.vars, s.kind, s.ok, s.char) for s in open_branch.subblocks] == [
        (block.vars, "too-large", False, ())]


@pytest.mark.parametrize("text", [OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT],
                         ids=["osn_omega0", "osn_omega_pos"])
def test_screen_is_kept_per_model_without_shared_state(text, monkeypatch):
    m = parse_model_text(text)
    first = block_structure_screen(m)
    with pytest.raises(AttributeError):
        first.siphon_block_metzler.clear()
    with pytest.raises(TypeError):
        first.siphon_block_metzler["{x}"] = False
    calls = []
    real = stability.dependency_partition
    monkeypatch.setattr(stability, "dependency_partition",
                        lambda model: calls.append(model) or real(model))
    again = block_structure_screen(m)
    assert calls == []  # served from the model
    small = block_structure_screen(m, max_block=2)  # another block size, another report
    assert calls == [m] and small.hopf_impossible is None
    assert again == block_structure_screen(parse_model_text(text))


def test_mixed_block_zero_on_lattice_faces():
    for name in ("osn_omega0", "osn_omega_pos"):
        m = builtin_model(name)
        for face in m.lattice().nodes:
            assert mixed_block_zero(m, face)
        # S1 alone is not a siphon: its row keeps a B1 dependence at S1 = 0
        assert not mixed_block_zero(m, {"S1"})


def test_rank_one_bound_sharpness():
    # A = [[-2, 0], [1, -1]]: static gain from input at row 0 to coordinate 1 is 1/2
    A = mat([[-2, 0], [1, -1]])
    rep = rank_one_bound(A, 0, 1, Fraction(1))
    assert rep.base_hurwitz and rep.base_metzler
    assert rep.gain.to_fraction() == Fraction(1, 2)
    assert rep.bound_holds and rep.guaranteed
    assert rep.identity_checked

    beyond = rank_one_bound(A, 0, 1, Fraction(3))
    assert not beyond.bound_holds
    J = [[exact(-2), exact(3)], [exact(1), exact(-1)]]
    assert hurwitz_test(char_poly(J)).verdict == "NotHurwitz"


def test_rank_one_model_bound_at_gosn():
    m = builtin_model("osn_omega_pos")
    point = {"Lambda": Fraction(2), "betaw": Fraction(1, 2), "beta1": Fraction(1)}
    g = closed_form_oracle(m, "gOSN", point)
    rep = rank_one_model_bound(m, g, point)
    assert rep.base_hurwitz
    assert rep.identity_checked
    assert rep.bound_holds


def quadratic_rank_one_cases():
    '''(point, name) for E1, E2 and EE of osn_omega_pos where their
    coordinates are irrational: at the default point, and at the first
    point of every stratum (the set of these names that exist there with
    irrational coordinates) among points drawn as the acceptance suite
    draws them.'''
    m = builtin_model("osn_omega_pos")
    rng = random.Random(7)
    draws = [None] + [{p: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                       for p in m.parameters} for _ in range(60)]
    strata = {}
    for point in draws:
        names = []
        for name in ("E1", "E2", "EE"):
            try:
                e = closed_form_oracle(m, name, point)
                jacobian_at(m, e.coords, point)
            except CrnRelayError:
                continue
            if any(x.b for x in e.coords.values()):
                names.append(name)
        if names and (point is None or tuple(names) not in strata):
            strata.setdefault(tuple(names), point)
            yield from ((point, name) for name in names)


def to_sympy(x):
    return (sympy.Rational(x.a.numerator, x.a.denominator) +
            sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d))


def sympy_field_matrix(a):
    '''a in sympy's exact kernels over QQ<sqrt(d)>.'''
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in a])
    return DomainMatrix.from_Matrix(m, extension=True).to_field()


def test_rank_one_model_bound_at_quadratic_equilibria():
    m = builtin_model("osn_omega_pos")
    row, col, pname = m.rank_one_edge
    u, v = m.var_index(row), m.var_index(col)
    cases = list(quadratic_rank_one_cases())
    assert {name for _, name in cases} == {"E1", "E2", "EE"}
    assert len(cases) >= 8
    for point, name in cases:
        e = closed_form_oracle(m, name, point)
        rep = rank_one_model_bound(m, e, point)
        A = jacobian_at(m, e.coords, point)
        A[u][v] = A[u][v] - exact(m.point(point)[pname])
        assert any(x.b for r in A for x in r)
        oracle = sympy_field_matrix(A)
        gain = -oracle.inv().to_Matrix()[v, u]
        want = gain if gain >= 0 else -gain
        assert sympy.expand(to_sympy(rep.gain) - want) == 0, (name, point)
        alpha = max(np.linalg.eigvals(np.array([[float(x) for x in r] for r in A])).real)
        assert abs(alpha) > 1e-9
        assert rep.base_hurwitz == (alpha < 0), (name, point)
        assert rep.identity_checked, (name, point)


# -- the rank-one path reads one column of the inverse -------------------------
small = st.fractions(min_value=0, max_value=6, max_denominator=4)


@st.composite
def metzler_matrices(draw):
    '''Random Metzler matrices over Q or Q(sqrt(d)): nonnegative off-diagonal
    entries (an irrational part only with a nonnegative total) and a
    diagonal that may or may not dominate its row.'''
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from((1, 2, 13)))

    def off():
        a, b = draw(small), (draw(small) if d > 1 else 0)
        return ExactScalar(a, b, d) if b else exact(a)

    A = [[off() if i != j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        row = sum((A[i][j] for j in range(n) if j != i), exact(0))
        A[i][i] = -row - exact(draw(st.fractions(min_value=-2, max_value=4,
                                                 max_denominator=3)))
    return A, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=40)
@given(case=metzler_matrices(), kappa=st.fractions(min_value=-3, max_value=3,
                                                   max_denominator=5))
def test_rank_one_gain_is_one_entry_of_the_inverse(case, kappa):
    A, u, v = case
    rep = rank_one_bound(A, u, v, kappa)
    try:
        want = -inverse(A)[v][u]
    except SingularMatrix:
        assert rep.gain is None and "A is singular; no dc gain" in rep.notes
        return
    assert rep.gain == (want if want.sign() >= 0 else -want)
    assert rep.identity_checked


def test_rank_one_singular_base_has_no_gain():
    rep = rank_one_bound(mat([[-1, 1], [1, -1]]), 0, 1, Fraction(1, 2))
    assert rep.gain is None and rep.bound_holds is None
    assert "A is singular; no dc gain" in rep.notes
    assert not rep.guaranteed


def _off_by_one(c: list, k: int) -> list:
    '''The pairs c with the k-th one off by one.'''
    return [(x + 1, y) if i == k else (x, y) for i, (x, y) in enumerate(c)]


def _wrong_blocks(real, which):
    '''char_blocks with c_1 of the last block off by one on each matrix
    that which picks.'''
    def wrong(m):
        blocks = real(m)
        if which(m):
            idx, c = blocks[-1]
            blocks[-1] = (idx, _off_by_one(c, 1))
        return blocks
    return wrong


IDENTITY_FAILED = "determinant identity failed at a coefficient in lambda"


# x and y pass mass both ways, and y makes x at rate w*y: the coupling w of y
# into x's rate, at the origin, is within the bound, A = [[-2, 0], [1, -1]]
COUPLED = """\
model coupled
variables: x y
parameters: a d e w
equations:
    x' = w*y - a*x - d*x
    y' = a*x - e*y
values:
    a = 1
    d = 1
    e = 1
    w = 1/2
metadata:
    rank_one_edge = x y w
"""
ORIGIN = {"x": 0, "y": 0}


def test_a_custom_coupling_reads_the_kept_jacobian_pairs(monkeypatch):
    # the CLI's --u/--v/--kappa: the declared edge given by name is the
    # declared report, and another one reads the same kept pairs
    m = parse_model_text(COUPLED)
    assert rank_one_coupling_bound(m, ORIGIN, "x", "y", Fraction(1, 2)) == \
        rank_one_model_bound(m, ORIGIN)
    split = []
    real = stability.char_blocks
    monkeypatch.setattr(stability, "char_blocks", lambda x: split.append(x) or real(x))
    rep = rank_one_coupling_bound(m, ORIGIN, "y", "x", 1)
    assert len(split) == 1 and split[0] is not m.at().at(ORIGIN).pairs()   # A's own blocks
    assert rep == rank_one_bound(mat([[-2, Fraction(1, 2)], [0, -1]]), 1, 0, 1)
    with pytest.raises(ModelError, match="unknown variable"):
        rank_one_coupling_bound(m, ORIGIN, "x", "z", 1)


@st.composite
def coupled_jacobians(draw):
    '''(J, u, v, kappa): J Metzler or of any sign pattern, in Z or
    Z[sqrt(d)], but for its (u, v) entry, which carries J's only
    denominator when one is drawn; kappa's denominator is drawn apart, so
    that Q_J, A's Q and kappa's Qk stand in every relation.'''
    n, d = draw(st.integers(1, 5)), draw(st.sampled_from((1, 2, 13)))
    metzler = draw(st.booleans())

    def entry(i, j):
        sign = metzler and i != j
        a = draw(st.integers(0 if sign else -4, 4))
        b = draw(st.integers(0 if sign else -2, 2)) if d > 1 else 0
        return ExactScalar(a, b, d) if b else exact(a)

    J = [[entry(i, j) for j in range(n)] for i in range(n)]
    u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    q = draw(st.sampled_from((1, 2, 3)))
    if q > 1:
        J[u][v] = J[u][v] + exact(Fraction(draw(st.integers(1, q - 1)), q))
    kappa = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 5, 7))))
    return J, u, v, kappa


@settings(max_examples=80)
@given(coupled_jacobians())
def test_the_model_path_report_is_the_public_one(case):
    '''The report of A = J - kappa e_u e_v^T with J's own block pairs as the
    left side, as rank_one_coupling_bound makes it, equals rank_one_bound's
    on A, whose left side is A + kappa e_u e_v^T over another denominator.'''
    J, u, v, kappa = case
    Jp = pair_matrix(J)
    A = Jp.plus({(u, v): -kappa})
    model = stability._rank_one(A, u, v, kappa, (Jp.Q, char_blocks(Jp)))
    public = rank_one_bound(A, u, v, kappa)
    assert model.identity_checked and public.identity_checked
    assert model == public and repr(model) == repr(public)


@pytest.mark.parametrize("fault", ["J-block", "A-block", "krylov", "kept-J-block", "A-entry"])
def test_rank_one_identity_check_catches_a_wrong_side(monkeypatch, fault):
    # the left side from J's block pairs, the right from A's and the Krylov
    # entry (B e_u)[v]; one of them off by one. On the model path J's pairs
    # are the Jacobian's, kept where las_test reads them: one of them off by
    # one, or an A that is not J - kappa e_u e_v^T, fails the check too
    A = pair_matrix([[-2, 0], [1, -1]])
    assert rank_one_bound(A, 0, 1, Fraction(1)).identity_checked
    assert rank_one_model_bound(parse_model_text(COUPLED), ORIGIN).guaranteed
    m = parse_model_text(COUPLED)
    J = m.at().at(ORIGIN).pairs()
    if fault == "krylov":
        real = stability.krylov_entries
        monkeypatch.setattr(stability, "krylov_entries",
                            lambda m, u, v: _off_by_one(real(m, u, v), 1))
    elif fault == "A-entry":
        plus = PairMatrix.plus
        monkeypatch.setattr(PairMatrix, "plus",
                            lambda p, cells: plus(p, {e: x - 1 for e, x in cells.items()}))
    else:
        which = {"J-block": lambda x: x is not A, "A-block": lambda x: x is A,
                 "kept-J-block": lambda x: x is J}[fault]
        monkeypatch.setattr(stability, "char_blocks", _wrong_blocks(stability.char_blocks, which))
    rep = (rank_one_model_bound(m, ORIGIN) if fault in ("kept-J-block", "A-entry")
           else rank_one_bound(A, 0, 1, Fraction(1)))
    assert not rep.identity_checked and not rep.guaranteed
    assert IDENTITY_FAILED in rep.notes


def test_rank_one_identity_cannot_see_the_adjugate_at_kappa_zero(monkeypatch):
    # with kappa = 0 the identity reads det(lI - J) = det(lI - A): a wrong
    # Krylov entry changes the gain, not the check
    A = pair_matrix([[-2, 0], [1, -1]])
    right = rank_one_bound(A, 0, 1, 0)
    real = stability.krylov_entries
    monkeypatch.setattr(stability, "krylov_entries", lambda m, u, v: _off_by_one(real(m, u, v), 1))
    rep = rank_one_bound(A, 0, 1, 0)
    assert rep.identity_checked and rep.gain != right.gain


@pytest.mark.parametrize("A", [mat([[-2, 0], [1, -1]]), pair_matrix([[-2, 0], [1, -1]])],
                         ids=["exact", "pairs"])
@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (2, 0), (0, 2), ("0", 1), (1.0, 0),
                                  (True, 1), (0, True), (0, 1.0)])
def test_rank_one_bound_refuses_an_entry_outside_the_matrix(A, u, v):
    with pytest.raises(AlgebraError, match="no entry"):
        rank_one_bound(A, u, v, Fraction(1))


@pytest.mark.parametrize("mask", ["x", ("1",), (1, 2.0), (Fraction(1),), (None,), (0,), (99,), 5,
                                  [[1]], (1, 1)],
                         ids=["string", "string-index", "float", "fraction", "none", "zero",
                              "past-end", "not-a-collection", "unhashable-index", "repeated"])
def test_a_mask_index_that_is_not_a_reaction_is_not_applicable(mask):
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    with pytest.raises(NotApplicable, match="reaction index"):
        invasion_number(m, {"S1", "B1"}, g, P0, mask=mask)
    with pytest.raises(NotApplicable, match="reaction index"):
        ngm_split(m, {"S1", "B1"}, g.coords, P0, mask=mask)


@pytest.mark.parametrize("mask", [[1.0], (True,), (Fraction(1),)], ids=["float", "bool", "fraction"])
def test_a_mask_equal_to_an_int_mask_is_refused_before_and_after_that_mask_is_kept(mask):
    # (1.0,), (True,) and (Fraction(1),) equal (1,) and hash alike, so a
    # memo key holding them would read the (1,) split once that is kept
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    for kept_first in (False, True):
        if kept_first:
            one = ngm_split(m, {"S1", "B1"}, g, P0, mask=(1,))
        with pytest.raises(NotApplicable, match="reaction index"):
            ngm_split(m, {"S1", "B1"}, g, P0, mask=mask)
        with pytest.raises(NotApplicable, match="reaction index"):
            invasion_number(m, {"S1", "B1"}, g, P0, mask=mask)
    assert ngm_split(m, {"S1", "B1"}, g, P0, mask=[1]) is one


@pytest.mark.parametrize("sigma", [set(), frozenset(), []], ids=["set", "frozenset", "list"])
def test_an_empty_invading_set_is_not_applicable(sigma):
    """A transversal block needs a variable: invasion_number (with any
    mask), ngm_split and transversal_block refuse an empty invading set
    rather than report on an empty block."""
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    for call in (lambda: invasion_number(m, sigma, g, P0),
                 lambda: invasion_number(m, sigma, g, P0, mask=None),
                 lambda: invasion_number(m, sigma, g, P0, mask=(1,)),
                 lambda: ngm_split(m, sigma, g.coords, P0),
                 lambda: transversal_block(m, sigma, g, P0)):
        with pytest.raises(NotApplicable, match="invading set is empty"):
            call()


@pytest.mark.parametrize("entry", [
    lambda m, c: stability.jacobian_at(m, c),
    lambda m, c: stability.transversal_block(m, {"S1", "B1"}, c),
    lambda m, c: stability.las_test(m, c),
    lambda m, c: stability.invasion_number(m, {"S1", "B1"}, c),
    lambda m, c: stability.ngm_split(m, {"S1", "B1"}, c),
    lambda m, c: m.at().at(c).pairs(),
], ids=["jacobian_at", "transversal_block", "las_test", "invasion_number", "ngm_split",
        "Instance.at"])
def test_bad_coordinates_raise_crnrelay_errors(entry):
    m = builtin_model("osn_omega0")
    coords = {v: Fraction(0) for v in m.variables}
    with pytest.raises(ModelError, match="S1"):
        entry(m, {v: x for v, x in coords.items() if v != "S1"})
    with pytest.raises(AlgebraError):
        entry(m, dict(coords, S1=0.0))
    with pytest.raises(ModelError, match="list"):
        entry(m, [1, 2])
    # an equilibrium is read through its coordinates
    g = closed_form_oracle(m, "gOSN")
    assert repr(entry(m, g)) == repr(entry(m, g.coords))


# x' = -a*y consumes x's y without holding y in x: no reaction network
# rewrites it, so it has no Gamma, and no Jacobian is evaluated as Gamma D
NOT_A_NETWORK = ("model rot\nvariables: x y\nparameters: a\n"
                 "equations:\n    x' = -a*y\n    y' = a*x\n"
                 "values:\n    a = 1\nmetadata:\n    rank_one_edge = x y a\n")


@pytest.mark.parametrize("entry", [
    lambda m, c: stability.jacobian_at(m, c),
    lambda m, c: stability.transversal_block(m, {"x"}, c),
    lambda m, c: stability.las_test(m, c),
    lambda m, c: stability.invasion_number(m, {"x"}, c),
    lambda m, c: stability.ngm_split(m, {"x"}, c),
    lambda m, c: stability.rank_one_model_bound(m, c),
    lambda m, c: stability.rank_one_coupling_bound(m, c, "x", "y", 1),
    lambda m, c: m.lattice(),
], ids=["jacobian_at", "transversal_block", "las_test", "invasion_number", "ngm_split",
        "rank_one_model_bound", "rank_one_coupling_bound", "lattice"])
def test_a_model_that_is_not_a_reaction_network_is_refused_by_extraction(entry):
    m = parse_model_text(NOT_A_NETWORK)
    with pytest.raises(ExtractionError, match="consumes more"):
        entry(m, {"x": 0, "y": 0})
    # the symbolic Jacobian needs no network
    assert jacobian(m)[0][1] == RatFunc(-m.ring.var("a"))


# -- what leaves the package is ExactScalar rows, equal to RatFunc.eval --------
NAMES = {"osn_omega0": ("DFE", "gOSN", "E1g", "E2g", "EEg", "RFE", "E1", "E2", "EE"),
         "osn_omega_pos": ("OSND", "gOSN", "RFE", "E1", "E2", "EE")}


def exact_rows(a, kind=list):
    return type(a) is kind and all(type(r) is kind and all(type(x) is ExactScalar for x in r)
                                   for r in a)


def tuple_rows(a):
    return tuple(map(tuple, a))


def ratfunc_split(m, point, coords, svars, M, mask):
    '''F and V of the split through RatFunc.assign and RatFunc.eval.'''
    if mask is None:
        F = [[x if x.sign() > 0 else exact(0) for x in row] for row in M]
    else:
        F = [[exact(0)] * len(svars) for _ in svars]
        for j in mask:
            rxn = m.network().reactions[j - 1]
            for k, vk in enumerate(svars):
                for l, vl in enumerate(svars):
                    g = rxn.net().get(vk, 0)
                    F[k][l] = F[k][l] + rxn.rate.assign(point).derivative(vl).eval(coords) * g
    return F, [[f - x for f, x in zip(rf, rm)] for rf, rm in zip(F, M)]


@pytest.mark.parametrize("name", sorted(NAMES))
def test_public_matrices_are_exact_rows_equal_to_ratfunc_eval(name):
    m = builtin_model(name)
    rng = random.Random(43)
    kinds = set()
    for _ in range(8):
        point = m.point({p: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for p in m.parameters})
        for eq in NAMES[name]:
            try:
                e = closed_form_oracle(m, eq, point)
            except CrnRelayError:
                continue
            kinds.add(e.classification)
            J = [[f.assign(point).eval(e.coords) for f in row] for row in m.jacobian()]
            got = jacobian_at(m, e.coords, point)
            assert exact_rows(got) and got == J, eq
            for sigma in m.lattice().minimal:
                if not sigma <= e.zero_set:
                    continue
                svars = m.sort_vars(sigma)
                idx = [m.var_index(v) for v in svars]
                M = [[J[i][j] for j in idx] for i in idx]
                block = transversal_block(m, sigma, e.coords, point)
                assert exact_rows(block) and block == M, (eq, svars)
                inv = invasion_number(m, sigma, e, point)
                assert exact_rows(inv.block, tuple) and inv.block == tuple_rows(M), (eq, svars)
                for mask in (m.ngm_masks.get(frozenset(sigma)), None):
                    split = ngm_split(m, sigma, e.coords, point, mask=mask)
                    F, V = ratfunc_split(m, point, e.coords, svars, M, mask)
                    assert exact_rows(split.F, tuple) and split.F == tuple_rows(F), \
                        (eq, svars, mask)
                    assert exact_rows(split.V, tuple) and split.V == tuple_rows(V), \
                        (eq, svars, mask)
    assert "Rational" in kinds
    assert name == "osn_omega0" or "QuadraticRUR" in kinds
