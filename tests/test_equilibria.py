import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import event, given, settings, strategies as st

from crnrelay import equilibria, scalars
from crnrelay.equilibria import (all_equilibria, eliminate_univariate,
                                 face_equilibria, positivity_check)
from crnrelay.errors import CrnRelayError, DegenerateFace, NotInvariantFace
from crnrelay.modelfile import parse_model_text, print_model
from crnrelay.models import (OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT, builtin_model,
                             closed_form_oracle, equilibrium_namer)
from crnrelay.network import FaceEquilibrium, hosting_node
from crnrelay.poly import MultiPoly
from crnrelay.scalars import exact

from conftest import kept, mass_action_files, positive_points

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
    return all(m.rhs(v).eval(pt).is_zero for v in m.variables)


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


@pytest.mark.parametrize("model", ["osn_omega0", "osn_omega_pos"])
def test_each_name_is_given_only_on_the_faces_its_inverse_lists(model):
    m = builtin_model(model)
    namer, faces = equilibrium_namer(m), (*m.lattice().nodes, frozenset())
    variables = m.variables
    zero_sets = [frozenset(v for i, v in enumerate(variables) if k >> i & 1)
                 for k in range(1 << len(variables))]
    given_on = {}
    for face in faces:
        for zs in zero_sets:
            name = namer(face, zs)
            if name is not None:
                assert face in namer.faces(name), (name, face, zs)
                given_on.setdefault(name, set()).add(face)
    # and every face the inverse lists is a face on which the name is given
    assert {n: set(namer.faces(n)) for n in namer.names()} == given_on
    assert namer.faces("Atlantis") == ()


@pytest.mark.parametrize("model", ["osn_omega0", "osn_omega_pos"])
def test_a_builtin_read_back_from_its_printed_text_names_what_the_builtin_names(model):
    m = builtin_model(model)
    copy = parse_model_text(print_model(m))
    assert equilibrium_namer(copy) is equilibrium_namer(m)
    for params in (P0, {"Lambda": Fraction(9, 2), "betaw": Fraction(1, 3)}):
        want = {face: [(e.name, e.coords) for e in found]
                for face, found in all_equilibria(m, params).items()}
        got = {face: [(e.name, e.coords) for e in found]
               for face, found in all_equilibria(copy, params).items()}
        assert got == want
        assert any(name is not None for found in got.values() for name, _ in found)


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
    return parse_model_text(OSN_OMEGA0_TEXT, default_name="osn_omega0")


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


def test_equilibrium_coordinates_are_read_only():
    m = fresh_omega0()
    face = frozenset({"S1", "B1", "S2", "B2"})
    (rfe,) = face_equilibria(m, face)
    assert rfe.coords["x1"] == exact(Fraction(2, 3))
    with pytest.raises(TypeError):
        rfe.coords["x1"] = exact(99)
    assert face_equilibria(m, face) == face_equilibria(fresh_omega0(), face)
    assert face_equilibria(m, face)[0].coords["x1"] == exact(Fraction(2, 3))
    # the coordinates are a copy of the mapping the equilibrium was built with
    given = dict(rfe.coords)
    copy = FaceEquilibrium(face, rfe.zero_set, given, rfe.classification)
    given["x1"] = exact(99)
    assert copy.coords == rfe.coords


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
    assert (frozenset(),) not in kept(m.at(), "face")


# -- compiled plans ------------------------------------------------------------
#
# A model compiles a face's elimination on the second point at which the face
# is solved; at later points it evaluates that plan wherever no recorded
# condition vanishes. A freshly parsed model solved at one point runs the
# elimination of the instantiated system instead, so it is the reference.

TEXTS = {"osn_omega0": OSN_OMEGA0_TEXT, "osn_omega_pos": OSN_OMEGA_POS_TEXT}


def fresh(name):
    return parse_model_text(TEXTS[name], default_name=name)


def face_plan(m, face):
    """The plan m keeps for face, None where compiling it failed; KeyError
    while m has compiled none."""
    return m._cache[("face_plan", face)]


def face_plans(m):
    """Every plan m keeps, by face."""
    return {face: face_plan(m, face) for (face,) in kept(m, "face_plan")}


_compiled = {}


def compiled(name):
    """A model of the builtin whose every face holds a compiled plan."""
    if name not in _compiled:
        m = fresh(name)
        all_equilibria(m)
        all_equilibria(m, {"Lambda": Fraction(3), "beta1": Fraction(5, 2)})
        assert all(isinstance(face_plan(m, f), equilibria._Plan) for f in faces_of(m))
        _compiled[name] = m
    return _compiled[name]


def faces_of(m):
    return list(m.lattice().nodes) + [frozenset()]


def outcome(m, params):
    """Every face's equilibria at params, or the error the solve raised."""
    try:
        return all_equilibria(m, params)
    except CrnRelayError as exc:
        return type(exc).__name__, str(exc)


def closed_forms(m, params):
    """The named equilibria whose closed forms have real coordinates that
    are equilibria (at a tie a closed form need not be one)."""
    names = OMEGA0_NAMES if m.name == "osn_omega0" else ("OSND", "gOSN", "RFE", "E1", "E2", "EE")
    out = []
    for name in names:
        try:
            e = closed_form_oracle(m, name, params)
            if residuals_vanish(m, e, params):
                out.append(e)
        except CrnRelayError:
            pass
    return out


rationals = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@st.composite
def points(draw, names=tuple(TEXTS)):
    name = draw(st.sampled_from(names))
    m = builtin_model(name)
    return name, {p: draw(rationals) for p in m.parameters}


@settings(max_examples=30)
@given(case=points())
def test_compiled_plans_match_the_instantiated_elimination(case):
    name, params = case
    m = compiled(name)
    got = outcome(m, params)
    assert got == outcome(fresh(name), params)
    found = [e.coords for lst in got.values() for e in lst if e.is_decided]
    for want in closed_forms(m, params):
        assert want.coords in found, want.name
    x = m.at(params).params
    used = [f for f in faces_of(m)
            if face_plan(m, f).candidates(x, []) is not None]
    assert len(used) > len(faces_of(m)) // 2


def _ratio_tie(p, j, u):
    # beta_j u = mu_j (1 + alpha_j u): the ratio of strain j equals one at u
    return {f"beta{j}": p[f"mu{j}"] * (1 + p[f"alpha{j}"] * u) / u} if u > 0 else None


def _threshold_ties(p):
    """osn_omega0's threshold table ties at p: R0 = 1, R0 = T, and each
    strain ratio equal to one at the two U levels."""
    t = 1 + p["beta"] / p["betaw"]
    u_hat = p["Lambda"] / p["mun"] - p["mu"] / p["beta"]
    u_til = p["mu"] / p["betaw"]
    ties = [{"Lambda": p["mu"] * p["mun"] / p["beta"]},
            {"Lambda": t * p["mu"] * p["mun"] / p["beta"]}]
    ties += [_ratio_tie(p, j, u) for j in (1, 2) for u in (u_hat, u_til)]
    return [t for t in ties if t is not None]


def _vanishing(m, p, face):
    """Points near p where one recorded condition of the face's plan
    vanishes, each solved for a parameter the condition is linear in."""
    out = []
    for c in face_plan(m, face).conditions:
        for v in c.vars:
            parts = c.coefficients_in(v)
            if max(parts) != 1:
                continue
            rest = {k: x for k, x in p.items() if k != v}
            lead = parts[1].eval(rest).to_fraction()
            if lead:
                const = parts[0].eval(rest).to_fraction() if 0 in parts else Fraction(0)
                out.append({v: -const / lead})
    return out


@settings(max_examples=30)
@given(case=points(), data=st.data())
def test_compiled_plans_match_where_the_generic_case_fails(case, data):
    name, params = case
    m = compiled(name)
    face = data.draw(st.sampled_from(faces_of(m)))
    kinds = ["zero", "condition"] + (["tie"] if name == "osn_omega0" else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "zero":
        change = [{data.draw(st.sampled_from(m.parameters)): Fraction(0)}]
    elif kind == "tie":
        change = _threshold_ties(params)
    else:
        change = _vanishing(m, params, face)
    if not change:
        return
    point = params | data.draw(st.sampled_from(change))
    assert outcome(m, point) == outcome(fresh(name), point)
    if kind == "condition":
        plan = face_plan(m, face)
        assert plan.candidates(m.at(point).params, []) is None


# One model for each kind of recorded condition, each the only condition
# that vanishes at the last point: a pivot coefficient (a - b on the face
# {x}), the leading coefficient of a terminal polynomial (c), and a
# parameter-only equation that rules the interior out (c). There the
# instantiated elimination raises DegenerateFace; the plan alone would not.
CONDITION_CASES = [
    ("""\
model pivot
variables: y x
parameters: a b
equations:
    y' = a*y - b*y + x
    x' = x - x^2
values:
    a = 2
    b = 1
""", frozenset({"x"}), {"a": Fraction(3)}, {"a": Fraction(1)}),
    ("""\
model terminal
variables: z
parameters: c
equations:
    z' = c - c*z^2
values:
    c = 2
""", frozenset(), {"c": Fraction(3)}, {"c": Fraction(0)}),
    ("""\
model ruled_out
variables: x y
parameters: c
equations:
    x' = 1 - x
    y' = c + x*y - y
values:
    c = 2
""", frozenset(), {"c": Fraction(3)}, {"c": Fraction(0)}),
]


@pytest.mark.parametrize("text, face, other, special", CONDITION_CASES)
def test_compiled_plans_fall_back_where_a_condition_vanishes(text, face, other, special):
    m = parse_model_text(text)
    for params in (None, other):
        face_equilibria(m, face, params)
    plan = face_plan(m, face)
    assert plan.candidates(m.at(special).params, []) is None
    with pytest.raises(DegenerateFace):
        face_equilibria(m, face, special)
    with pytest.raises(DegenerateFace):
        face_equilibria(parse_model_text(text), face, special)


NO_PIVOT = """\
model no_pivot
variables: x y
parameters: a b c d e
equations:
    x' = a - b*x^2*y^2
    y' = c - d*x^2*y - e*y^2
"""


def test_a_face_with_no_plan_is_solved_afresh_at_each_point():
    # the interior has no linear pivot, so the plan compiled at the second
    # point is None, and that point and the next are solved as a fresh
    # model solves them
    m = parse_model_text(NO_PIVOT)
    points = [dict(zip("abcde", map(Fraction, vals)))
              for vals in ((1, 1, 2, 1, 1), (4, 1, 3, 1, 1), (1, 4, 5, 2, 1))]
    got = [face_equilibria(m, frozenset(), p) for p in points]
    assert face_plan(m, frozenset()) is None
    for p, eqs in zip(points[1:], got[1:]):
        assert eqs == face_equilibria(parse_model_text(NO_PIVOT), frozenset(), p)
        assert [e.reason for e in eqs] == ["no linear pivot among ['x', 'y']; enumeration incomplete"]


def test_compiled_face_solves_convert_the_point_once_each(monkeypatch):
    """The Instance writes its parameter point once as integer pairs
    (Instance.params), and compiled plans fold their conditions, terminal
    coefficients and back-substitutions through that vector: solving every
    face of osn_omega_pos at a third point writes none of the point's values
    as integer pairs (scalars.to_pairs) again."""
    m = fresh("osn_omega_pos")
    all_equilibria(m)
    all_equilibria(m, {"Lambda": Fraction(3), "beta1": Fraction(5, 2)})
    third = {"Lambda": Fraction(5, 2), "beta1": Fraction(7, 2), "betaw": Fraction(2, 3)}
    inst = m.at(third)  # the Instance's own vector of the point is made here
    values = list(inst.point.values())
    held = []
    to_pairs = scalars.to_pairs

    def counting(xs):
        if any(x is v for x in xs for v in values):
            held.append(len(xs))
        return to_pairs(xs)

    monkeypatch.setattr(scalars, "to_pairs", counting)
    got = all_equilibria(m, third)
    solved = list(held)
    scalars.PairVector(values)  # the hook sees a conversion of the point
    monkeypatch.undo()
    assert solved == [] and held == [len(values)]
    faces = faces_of(m)
    plans = face_plans(m)
    assert all(isinstance(plans[f], equilibria._Plan) for f in faces)
    assert sum(plans[f].candidates(inst.params, []) is not None for f in faces) > len(faces) // 2
    assert got == outcome(fresh("osn_omega_pos"), third)


def terminals(plan):
    """Every terminal of a plan, side branches included."""
    for node in plan:
        if isinstance(node, equilibria._Terminal):
            yield node
        elif isinstance(node, equilibria._Pivot):
            yield from terminals(node.main)
            yield from terminals(node.side or ())
        elif isinstance(node, equilibria._Unconstrained):
            yield from terminals(node.plan)


def sympy_candidates(t, point):
    """A terminal's candidates and notes found by sympy alone, and the gcd
    g of its polynomials with the point's parameter values put in: the
    distinct real roots of g, each a sympy number; or no candidate and the
    terminal's note when a factor of degree above two is left once its
    rational roots are divided out."""
    def value(v):
        return sympy.Rational(point[v]) if v in point else sympy.Symbol(v)

    polys = [sympy.Poly(sum((sympy.Rational(c) * sympy.Mul(*[value(v) ** k
                                                             for v, k in zip(p.vars, e)])
                             for e, c in p.terms.items()), sympy.Integer(0)), sympy.Symbol(t.var))
             for p in t.polys]
    g = reduce(sympy.gcd, polys)
    if g.degree() <= 0:
        return [], [], g
    left = g.degree() - sum(k for f, k in g.factor_list()[1] if f.degree() == 1)
    if left > 2:
        return [], [f"irreducible degree {left} factor in {t.var} left unsolved"], g
    return list(dict.fromkeys(g.real_roots())), [], g


def check_terminal(t, x, point):
    """The terminal's candidates at the parameter vector x of point are
    sympy's, with the same notes, and its coefficients are sympy's gcd made
    primitive with a positive leading coefficient; returns the
    candidates."""
    notes = []
    got = t.evaluate(x, notes)
    want, want_notes, g = sympy_candidates(t, point)
    assert notes == want_notes
    primitive = []
    if not g.is_zero:
        g = g.clear_denoms(convert=True)[1].primitive()[1]
        primitive = [int(c) for c in reversed((g if g.LC() > 0 else -g).all_coeffs())]
    assert t.coefficients(x) == primitive
    assert all(list(c) == [t.var] for c in got) and len(got) == len(want)
    values = [(sympy.Integer(u) + w * sympy.sqrt(d)) / q for c in got for u, w, q, d in c.values()]
    assert all(any(sympy.expand(v - w) == 0 for w in want) for v in values)
    return got


def test_terminals_find_the_candidates_sympy_finds():
    """At sweep points (each parameter p/q, p in 1..9, q in 1..4) every
    terminal of every compiled plan of both builtins, and of every plan
    folded at the point, gives the candidates that sympy's gcd and real
    roots give."""
    rng = random.Random(28)
    shapes = set()
    for name in TEXTS:
        m = compiled(name)
        for _ in range(25):
            point = {p: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for p in m.parameters}
            inst = m.at(point)
            plans = [(plan.nodes, inst.params) for plan in face_plans(m).values()]
            for face in faces_of(m):
                try:
                    plans.append((equilibria._point_plan(inst, face), equilibria._NO_PARAMS))
                except DegenerateFace:
                    pass
            for plan, x in plans:
                for t in terminals(plan):
                    got = check_terminal(t, x, point)
                    shapes.add((len(t.polys), t.splits[0].sdeg, len(got),
                                any(q[1] for c in got for q in c.values())))
    # the builtins' terminals are single quadratics: here some have no real
    # root, some two rational and some two irrational roots
    assert ({(1, 2, 0, False), (1, 2, 2, False), (1, 2, 2, True)} <= shapes
            <= {(1, 2, 0, False), (1, 2, 1, False), (1, 2, 2, False), (1, 2, 2, True)})


def test_terminals_of_random_mass_action_models_match_sympy():
    """The terminal shapes no builtin reaches, several polynomials or a
    folded degree of three or more, on random mass-action models: at a
    third random point every terminal of every compiled plan, and of every
    plan folded at the point, gives sympy's candidates and notes. The
    examples are fixed (the tier1 profile), and 200 of them meet each
    shape; the counts go to Hypothesis's statistics as events."""
    shapes = Counter()

    @settings(max_examples=200)
    @given(source=mass_action_files(), data=st.data())
    def check(source, data):
        m = parse_model_text(source)
        for _ in range(2):   # the second point compiles the plans
            outcome(m, data.draw(positive_points(m.parameters)))
        point = data.draw(positive_points(m.parameters))
        inst = m.at(point)
        plans = [(plan.nodes, inst.params) for plan in face_plans(m).values() if plan]
        for face in faces_of(m):
            try:
                plans.append((equilibria._point_plan(inst, face), equilibria._NO_PARAMS))
            except CrnRelayError:
                pass
        for plan, x in plans:
            for t in terminals(plan):
                check_terminal(t, x, point)
                shape = ("several polynomials" if len(t.polys) > 1 else
                         "degree >= 3" if len(t.coefficients(x)) > 3 else "one of degree <= 2")
                event(shape)
                shapes[shape] += 1

    check()
    assert shapes["several polynomials"] and shapes["degree >= 3"], shapes


def test_each_face_system_is_built_once_per_model(monkeypatch):
    """Both face-solve paths read the one system the model keeps per face
    (built by _face_system, one _FaceSystem each, holding the unknowns and
    no right-hand sides): the first point folds the right-hand sides it
    names, the second compiles them, and eliminate_univariate at a third
    point reads it again."""
    built = []
    system = equilibria._FaceSystem
    monkeypatch.setattr(equilibria, "_FaceSystem",
                        lambda unknowns, *rest: built.append(unknowns) or system(unknowns, *rest))
    m = fresh("osn_omega_pos")
    all_equilibria(m)
    all_equilibria(m, {"Lambda": Fraction(3), "beta1": Fraction(5, 2)})
    assert all(isinstance(p, equilibria._Plan) for p in face_plans(m).values())
    assert eliminate_univariate(m, {"S2", "B2"}, {"Lambda": Fraction(5, 2)})[0] == "x1"
    assert sorted(built) == sorted(tuple(v for v in m.variables if v not in f)
                                   for f in faces_of(m))


# x' = 1/(a*x + b) - x is undefined everywhere at a = b = 0; the face solve
# refuses it there whether the model has compiled its plans or not.
UNDEFINED_AT_ZERO = """\
model undefined_at_zero
variables: x y
parameters: a b
equations:
    x' = 1/(a*x + b) - x
    y' = y - y^2
values:
    a = 1
    b = 1
"""


def test_a_denominator_that_folds_to_zero_is_refused():
    zero = {"a": Fraction(0), "b": Fraction(0)}
    m = parse_model_text(UNDEFINED_AT_ZERO)
    with pytest.raises(DegenerateFace, match="rhs of x undefined on the face"):
        face_equilibria(m, frozenset(), zero)
    m = parse_model_text(UNDEFINED_AT_ZERO)
    face_equilibria(m, frozenset())
    face_equilibria(m, frozenset(), {"a": Fraction(2)})
    assert isinstance(face_plan(m, frozenset()), equilibria._Plan)
    with pytest.raises(DegenerateFace, match="rhs of x undefined on the face"):
        face_equilibria(m, frozenset(), zero)


# At a = 0 the numerator of x' is -x*(x + y), its denominator times -x. Kept,
# the factor x + y would leave the line y = -x, where x' is undefined, as a
# continuum of solutions and the face solve would raise DegenerateFace.
COMMON_AT_ZERO = """\
model common_at_zero
variables: x y
parameters: a
equations:
    x' = a/(x + y) - x
    y' = x*y + y^2
values:
    a = 1
"""


def test_a_factor_the_point_makes_common_is_cancelled():
    zero = {"a": Fraction(0)}
    assert face_equilibria(parse_model_text(COMMON_AT_ZERO), frozenset(), zero) == []
    m = parse_model_text(COMMON_AT_ZERO)
    for params in (None, {"a": Fraction(2)}, zero):
        assert face_equilibria(m, frozenset(), params) == []


def test_one_point_compiles_nothing(monkeypatch):
    calls = []
    compile_face = equilibria._compile
    monkeypatch.setattr(equilibria, "_compile",
                        lambda m, face: calls.append(face) or compile_face(m, face))
    m = fresh_omega0()
    for params in (PA, PA, m.point(PA)):   # the model's first point, however asked
        all_equilibria(m, params)
        face_equilibria(m, frozenset(), params)
    assert calls == [] and face_plans(m) == {}
    all_equilibria(m, PB)
    every_face = sorted(faces_of(m), key=sorted)
    assert sorted(calls, key=sorted) == every_face
    for params in (PA, {"Lambda": Fraction(5, 2)}, PB, {"beta1": Fraction(7, 3)}):
        all_equilibria(m, params)
    assert sorted(calls, key=sorted) == every_face   # each face compiles at most once
    # a face whose compile fails keeps None and is not compiled again
    calls.clear()
    m = parse_model_text(NO_PIVOT)
    for vals in ((1, 1, 2, 1, 1), (4, 1, 3, 1, 1), (1, 4, 5, 2, 1), (2, 1, 1, 1, 3)):
        face_equilibria(m, frozenset(), dict(zip("abcde", map(Fraction, vals))))
    assert calls == [frozenset()] and face_plan(m, frozenset()) is None


def _full_score_pivot(solver, eqs, unknowns):
    """(ei, v) of the pivot the full-score search picks: the coefficient c1
    of every (equation, unknown) pair of degree one is computed and scored,
    keep variable last, constant c1 first, then by the number of monomials
    of c1 in the unknowns, then by position."""
    best = None
    for ei, eq in enumerate(eqs):
        for vi, v in enumerate(unknowns):
            if eq.degree_in(v) != 1:
                continue
            c1 = eq.coefficients_in(v)[1]
            idx = [i for i, w in enumerate(c1.vars) if w not in solver.params]
            monomials = len({tuple(e[i] for i in idx) for e in c1.terms})
            score = (v == solver.keep, bool(idx), monomials, vi, ei)
            if best is None or score < best[0]:
                best = (score, ei, v)
    return None if best is None else best[1:]


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_find_pivot_matches_the_full_score_search(name, monkeypatch):
    find = equilibria._FaceSolver._find_pivot
    picked = []

    def checked(solver, eqs, unknowns):
        got = find(solver, eqs, unknowns)
        assert (got and got[:2]) == _full_score_pivot(solver, eqs, unknowns)
        if got is not None:
            ei, v, c1, c0 = got
            assert eqs[ei] == c1 * MultiPoly.var(v) + c0
            picked.append(bool(solver.params))
        return got

    monkeypatch.setattr(equilibria._FaceSolver, "_find_pivot", checked)
    m = fresh(name)
    for face in faces_of(m):
        equilibria._compile(m, face)                  # parameters symbolic
        equilibria._point_plan(m.at(P0), face)        # parameters at P0
    assert picked.count(True) > 20 and picked.count(False) > 20


# -- compiled plans against plans folded at the point -------------------------

@settings(max_examples=30)
@given(source=st.one_of(st.sampled_from(sorted(TEXTS)), mass_action_files()), data=st.data())
def test_a_warm_model_solves_every_face_as_a_fresh_one(source, data):
    """A warm model reads every face from its compiled plan, evaluated at
    the point; a freshly parsed model folds the point into each face's
    system instead. Both give the same equilibria or the same error at
    random points and at points where a condition of some face's plan
    vanishes."""
    if source in TEXTS:
        m, text = compiled(source), TEXTS[source]
    else:
        m, text = parse_model_text(source), source
        for _ in range(2):   # the second point compiles the plans
            outcome(m, data.draw(positive_points(m.parameters)))
    point = data.draw(positive_points(m.parameters))
    if data.draw(st.booleans()):
        plans = face_plans(m)
        change = [c for f in faces_of(m) if isinstance(plans.get(f), equilibria._Plan)
                  for c in _vanishing(m, point, f)]
        if change:
            point = point | data.draw(st.sampled_from(change))
    assert outcome(m, point) == outcome(parse_model_text(text), point)
