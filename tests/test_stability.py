import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from crnrelay.equilibria import all_equilibria, face_equilibria, positivity_check
from crnrelay.errors import NotOnFace
from crnrelay.linalg import char_poly, hurwitz_test, mat
from crnrelay.modelfile import parse_model_text
from crnrelay.models import OSN_OMEGA_POS_TEXT, builtin_model, closed_form_oracle
from crnrelay.poly import RatFunc, evaluate
from crnrelay.scalars import exact
from crnrelay.stability import (block_structure_screen, dependency_partition,
                                invasion_number, jacobian, jacobian_at,
                                las_test, mixed_block_zero, ngm_split,
                                rank_one_bound, rank_one_model_bound,
                                transversal_block)

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


def test_invasion_memo_returns_fresh_rows_and_follows_masks():
    m = fresh_omega_pos()
    g = closed_form_oracle(m, "gOSN", P0)
    want = invasion_number(m, {"S1", "B1"}, g, P0)
    got = invasion_number(m, {"S1", "B1"}, g, P0)
    got.block[0][0] = exact(99)
    got.block.append([])
    got.split.F[0].clear()
    got.split.V.clear()
    assert invasion_number(m, {"S1", "B1"}, g, P0) == want
    # "auto" is resolved against the model's routing metadata on every call
    del m.ngm_masks[frozenset({"S1", "B1"})]
    fresh = fresh_omega_pos()
    del fresh.ngm_masks[frozenset({"S1", "B1"})]
    after = invasion_number(m, {"S1", "B1"}, g, P0)
    assert after == invasion_number(fresh, {"S1", "B1"}, g, P0)
    assert "no routing metadata" in " ".join(after.split.notes)
    assert invasion_number(m, {"S1", "B1"}, g, P0, mask=None).split.notes == ()


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
