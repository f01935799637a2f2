import random
from fractions import Fraction

import pytest

from crnrelay.equilibria import (all_equilibria, eliminate_univariate,
                                 face_equilibria, positivity_check)
from crnrelay.errors import DegenerateFace, NotInvariantFace
from crnrelay.modelfile import parse_model_text
from crnrelay.models import (OSN_OMEGA0_TEXT, builtin_model, closed_form_oracle,
                             equilibrium_namer)
from crnrelay.network import hosting_node
from crnrelay.poly import evaluate
from crnrelay.scalars import exact

P0 = {"Lambda": Fraction(2), "betaw": Fraction(1, 2), "beta1": Fraction(3)}

OMEGA0_NAMES = ("DFE", "gOSN", "RFE", "E1g", "E2g", "EEg", "E1", "E2", "EE")


def find_named(m, params, name):
    hits = []
    for lst in all_equilibria(m, params).values():
        hits += [e for e in lst if e.is_decided and e.name == name]
    return hits


def residuals_vanish(m, e, params):
    vals = m.point(params)
    pt = dict(e.coords)
    pt.update({k: exact(v) for k, v in vals.items()})
    return all(evaluate(m.rhs(v), pt).is_zero for v in m.variables)


def test_gosn_and_dfe_exact_at_reference_point():
    m = builtin_model("osn_omega_pos")
    found = face_equilibria(m, {"S1", "B1", "S2", "B2"}, P0)
    by_name = {e.name: e for e in found if e.is_decided}
    g = by_name["gOSN"]
    assert g.coords["U"] == exact(1) and g.coords["x1"] == exact(1)
    assert positivity_check(g).exists
    rfe = by_name["RFE"]
    assert rfe.coords["W"] == exact(Fraction(-2, 3))
    assert positivity_check(rfe).exists is False

    osnd = face_equilibria(m, {"S1", "B1", "S2", "B2", "U"}, P0)
    assert len(osnd) == 1
    assert osnd[0].coords["x1"] == exact(2)


def test_all_coordinates_match_closed_forms_omega0():
    m = builtin_model("osn_omega0")
    # a point where all nine equilibria exist
    params = {"Lambda": Fraction(3), "betaw": Fraction(1),
              "beta1": Fraction(3), "beta2": Fraction(4)}
    for name in OMEGA0_NAMES:
        want = closed_form_oracle(m, name, params)
        hits = [e for e in find_named(m, params, name)
                if all(e.coords[v] == want.coords[v] for v in m.variables)]
        assert hits, f"{name} not reproduced by the face solver"
        assert positivity_check(hits[0]).exists


def test_quadratic_equilibrium_matches_closed_form():
    m = builtin_model("osn_omega_pos")
    want = closed_form_oracle(m, "E1", P0)
    x1 = want.coords["x1"]
    assert (x1.a, x1.b, x1.d) == (Fraction(1, 3), Fraction(1, 3), 7)
    hits = find_named(m, P0, "E1")
    existing = [e for e in hits if positivity_check(e).exists]
    assert len(existing) == 1
    e = existing[0]
    assert e.classification == "QuadraticRUR" and e.d == 7
    for v in m.variables:
        assert e.coords[v] == want.coords[v]


def test_phantom_candidates_are_flagged_not_dropped():
    m = builtin_model("osn_omega_pos")
    hits = find_named(m, P0, "E1")
    # conjugate root gives a second, fully negative candidate
    assert len(hits) == 2
    flags = sorted(bool(positivity_check(e).exists) for e in hits)
    assert flags == [False, True]


def test_required_variables_never_zero():
    m = builtin_model("osn_omega_pos")
    union_all = frozenset().union(*m.lattice().minimal)
    for face, lst in all_equilibria(m, P0).items():
        for e in lst:
            if not e.is_decided:
                continue
            for v in union_all - face:
                assert not e.coords[v].is_zero


def test_hosting_invariant_across_lattice():
    for name in ("osn_omega0", "osn_omega_pos"):
        m = builtin_model(name)
        lat = m.lattice()
        for face, lst in all_equilibria(m, P0).items():
            for e in lst:
                if e.is_decided:
                    assert hosting_node(lat, e.zero_set) == face


def test_residuals_vanish_everywhere():
    rng = random.Random(31)
    for name in ("osn_omega0", "osn_omega_pos"):
        m = builtin_model(name)
        for _ in range(5):
            params = {k: Fraction(rng.randint(1, 6), rng.randint(1, 3))
                      for k in m.parameters}
            for lst in all_equilibria(m, params).values():
                for e in lst:
                    if e.is_decided:
                        assert residuals_vanish(m, e, params)


def test_solver_is_deterministic():
    m = builtin_model("osn_omega0")
    params = {"Lambda": Fraction(3), "betaw": Fraction(1),
              "beta1": Fraction(3), "beta2": Fraction(4)}
    one = all_equilibria(m, params)
    two = all_equilibria(m, params)
    assert list(one) == list(two)
    for face in one:
        a = [(e.name, e.classification, tuple(str(e.coords[v]) for v in m.variables))
             for e in one[face] if e.is_decided]
        b = [(e.name, e.classification, tuple(str(e.coords[v]) for v in m.variables))
             for e in two[face] if e.is_decided]
        assert a == b


def test_eliminate_univariate_reference_value():
    m = builtin_model("osn_omega_pos")
    var, poly = eliminate_univariate(m, {"S2", "B2"}, P0)
    assert var == "x1"
    # primitive integer form, constant first
    assert [c.to_fraction() for c in poly.coeffs] == [-2, -2, 3]


def test_non_invariant_face_rejected():
    m = builtin_model("osn_omega_pos")
    with pytest.raises(NotInvariantFace):
        face_equilibria(m, {"W"}, P0)


def test_interior_face_allowed_for_omega0():
    m = builtin_model("osn_omega0")
    params = {"Lambda": Fraction(3), "betaw": Fraction(1),
              "beta1": Fraction(3), "beta2": Fraction(4)}
    inside = face_equilibria(m, frozenset(), params)
    names = {e.name for e in inside if e.is_decided}
    assert "EE" in names


# two points with different equilibria: all nine exist at PA; below R0 = 1 at
# PB the U-branch equilibria carry negative coordinates
PA = {"Lambda": Fraction(3), "betaw": Fraction(1),
      "beta1": Fraction(3), "beta2": Fraction(4)}
PB = {"Lambda": Fraction(1, 2)}


def fresh_omega0():
    m = parse_model_text(OSN_OMEGA0_TEXT, default_name="osn_omega0")
    m.namer = equilibrium_namer(m)
    return m


def test_per_point_cache_matches_a_fresh_model():
    m = builtin_model("osn_omega0")
    seen = []
    for params in (PA, PB, PA):
        got = all_equilibria(m, params)
        assert got == all_equilibria(fresh_omega0(), params)
        seen.append(got)
    assert seen[0] != seen[1]
    assert seen[2] == seen[0]


def test_changing_model_values_rekeys_the_cache():
    m = fresh_omega0()
    before = all_equilibria(m)
    m.values["Lambda"] = Fraction(1, 2)
    after = all_equilibria(m)
    assert after != before
    assert after == all_equilibria(fresh_omega0(), PB)


def test_returned_lists_do_not_alias_the_cache():
    m = builtin_model("osn_omega0")
    face = frozenset({"S2", "B2"})
    want = list(face_equilibria(m, face, PA))
    assert want
    first = face_equilibria(m, face, PA)
    first.append(first[0])
    assert face_equilibria(m, face, PA) == want
    second = face_equilibria(m, face, PA)
    second.clear()
    assert face_equilibria(m, face, PA) == want
    everything = all_equilibria(m, PA)
    everything[face].clear()
    assert all_equilibria(m, PA)[face] == want


def test_degenerate_face_is_raised_on_every_call():
    m = parse_model_text("""\
model drift
variables: x y
parameters: a
equations:
    x' = a - x
    y' = 0
values:
    a = 1
""")
    for _ in range(2):
        with pytest.raises(DegenerateFace):
            face_equilibria(m, frozenset())
    assert frozenset() not in m.at().faces
