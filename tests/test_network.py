import gc
import weakref
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings

from conftest import mass_action_files
from crnrelay import network
from crnrelay.equilibria import all_equilibria, eliminate_univariate, face_equilibria
from crnrelay.errors import AlgebraTypeError, ModelError, NotInvariantFace
from crnrelay.models import (OSN_OMEGA_POS_TEXT, builtin_model, closed_form_oracle,
                             equilibrium_namer)
from crnrelay.modelfile import parse_model_text, print_model
from crnrelay.network import (extract_network, hosting_node, is_siphon,
                              minimal_siphons, siphon_lattice,
                              verify_face_invariance)
from crnrelay.relay import relay_graph, relay_test_cover, relay_test_cover_strict
from crnrelay.stability import (block_structure_screen, certify_positive, invasion_number,
                                jacobian, jacobian_at, las_test, mixed_block_zero, ngm_split,
                                rank_one_coupling_bound, rank_one_model_bound,
                                transversal_block)


def brute_force_minimal_siphons(net, variables):
    '''Reference enumeration: scan the whole powerset, keep inclusion-minimal
    nonempty siphons. Exponential, only for small nets.'''
    sips = []
    items = sorted(variables)
    for r in range(1, len(items) + 1):
        for sub in combinations(items, r):
            s = frozenset(sub)
            if is_siphon(net, s):
                sips.append(s)
    return {s for s in sips if not any(t < s for t in sips)}


def test_builtin_extraction_shape():
    m = builtin_model("osn_omega_pos")
    net = extract_network(m)
    assert len(m.variables) == 8
    assert m.variables == ("S1", "B1", "S2", "B2", "U", "R", "W", "x1")
    assert len(net.reactions) == 13
    assert net.verify_decomposition(m)

    m0 = builtin_model("osn_omega0")
    assert m0.variables == ("S1", "B1", "S2", "B2", "U", "W", "x1")
    assert extract_network(m0).verify_decomposition(m0)


def test_minimal_siphons_builtin():
    net = extract_network(builtin_model("osn_omega_pos"))
    got = set(minimal_siphons(net))
    assert got == {frozenset({"U"}), frozenset({"S1", "B1"}),
                   frozenset({"S2", "B2"})}

    net0 = extract_network(builtin_model("osn_omega0"))
    got0 = set(minimal_siphons(net0))
    assert got0 == {frozenset({"U"}), frozenset({"W"}),
                    frozenset({"S1", "B1"}), frozenset({"S2", "B2"})}


def test_minimal_siphons_match_brute_force():
    for name in ("osn_omega0", "osn_omega_pos"):
        m = builtin_model(name)
        net = extract_network(m)
        assert set(minimal_siphons(net)) == brute_force_minimal_siphons(net, m.variables)


def _is_siphon_by_definition(net, s) -> bool:
    return all(any(v in s for v, c in r.reactants if c > 0)
               for r in net.reactions if any(v in s for v, c in r.products if c > 0))


@settings(max_examples=150)
@given(text=mass_action_files())
def test_the_siphon_lattice_of_a_random_file_meets_its_definition(text):
    m = parse_model_text(text)
    net = extract_network(m)
    subsets = [frozenset(c) for r in range(len(m.variables) + 1)
               for c in combinations(m.variables, r)]
    assert all(is_siphon(net, s) == _is_siphon_by_definition(net, s) for s in subsets)
    minimal = minimal_siphons(net)
    assert len(set(minimal)) == len(minimal)
    assert set(minimal) == brute_force_minimal_siphons(net, m.variables)
    lat = siphon_lattice(net)
    assert lat.minimal == minimal
    unions = {frozenset().union(*c) for r in range(1, len(minimal) + 1)
              for c in combinations(minimal, r)}
    assert len(lat.nodes) == len(unions) and set(lat.nodes) == unions
    nodes = set(lat.nodes)
    covers = {(lo, up) for lo in nodes for up in nodes
              if lo < up and not any(lo < t < up for t in nodes)}
    covers |= {(frozenset(), s) for s in minimal}
    assert len(lat.covers) == len(covers) and set(lat.covers) == covers


def test_minimal_siphons_handmade():
    src = """
    model tiny
    variables: a b c
    parameters: k
    equations:
        a' = -k*a*b
        b' = k*a*b - b
        c' = b - c
    values:
        k = 1
    """
    m = parse_model_text(src)
    net = extract_network(m)
    assert set(minimal_siphons(net)) == brute_force_minimal_siphons(net, m.variables)


def test_lattice_closure_and_covers():
    for name in ("osn_omega0", "osn_omega_pos"):
        net = extract_network(builtin_model(name))
        lat = siphon_lattice(net)
        nodes = set(lat.nodes)
        # closed under union
        for a in nodes:
            for b in nodes:
                assert a | b in nodes
        # covers are immediate: no node strictly between
        for lo, up in lat.covers:
            assert lo < up
            assert not any(lo < mid < up for mid in nodes)
        # every minimal siphon covers the empty set
        for s in lat.minimal:
            assert (frozenset(), s) in lat.covers


def test_lattice_counts():
    lat0 = siphon_lattice(extract_network(builtin_model("osn_omega0")))
    # four independent minimal siphons: the lattice is the full union closure
    assert len(lat0.nodes) == 15
    latp = siphon_lattice(extract_network(builtin_model("osn_omega_pos")))
    assert len(latp.nodes) == 7


def test_labels_in_model_order():
    m = builtin_model("osn_omega_pos")
    lat = m.lattice()
    assert lat.label(frozenset({"B1", "S1"})) == "{S1,B1}"
    assert lat.label(frozenset({"U", "B2", "S2"})) == "{S2,B2,U}"


def test_face_invariance_matches_siphon_property():
    for name in ("osn_omega0", "osn_omega_pos"):
        m = builtin_model(name)
        net = extract_network(m)
        singles = [frozenset({v}) for v in m.variables]
        for face in chain(singles, m.lattice().nodes):
            assert verify_face_invariance(m, face).ok == is_siphon(net, face)


def test_require_invariant_face_raises():
    m = builtin_model("osn_omega_pos")
    from crnrelay.network import require_invariant_face
    with pytest.raises(NotInvariantFace):
        require_invariant_face(m, {"x1"})
    with pytest.raises(ModelError):
        require_invariant_face(m, {"nope"})
    assert require_invariant_face(m, {"U"}) == frozenset({"U"})


def test_hosting_node_projects_out_ambient_variables():
    m = builtin_model("osn_omega_pos")
    lat = m.lattice()
    # W and R are outside every omega>0 minimal siphon, x1 always is
    assert hosting_node(lat, {"S1", "B1", "S2", "B2", "W", "R"}) == \
        frozenset({"S1", "B1", "S2", "B2"})
    assert hosting_node(lat, {"U", "x1"}) == frozenset({"U"})
    assert hosting_node(lat, set()) == frozenset()
    # the projection itself does not validate nodehood
    assert hosting_node(lat, {"S1", "x1"}) == frozenset({"S1"})


def test_face_invariance_is_checked_once_per_model(monkeypatch):
    point = {"Lambda": 2, "betaw": Fraction(1, 2), "beta1": 3}
    calls = []
    real = network.verify_face_invariance
    monkeypatch.setattr(network, "verify_face_invariance",
                        lambda m, face: calls.append(face) or real(m, face))
    m = parse_model_text(OSN_OMEGA_POS_TEXT)
    for _ in range(2):
        with pytest.raises(NotInvariantFace):
            network.require_invariant_face(m, {"W"})
    assert calls == [frozenset({"W"})]
    face = {"S2", "B2"}
    first = face_equilibria(m, face, point)
    assert face_equilibria(m, face, point) == first
    assert len(calls) == 2
    fresh = parse_model_text(OSN_OMEGA_POS_TEXT)
    assert face_equilibria(fresh, face, point) == first
    assert network.require_invariant_face(m, face) == frozenset(face)


@pytest.mark.parametrize("value", [0.1, 2.0, None, "abc", "1/0", [1], {"x": 1}, "1e1000000",
                                   "1" * 100001, "1/" + "3" * 100001, "2" * 100000 + "x",
                                   "4" * 100000 + "e5", "1/" + "5" * 100000 + "x", "1/2.5.5",
                                   "0." + "9" * 99999 + "/" + "1" * 100000,
                                   "8" * 100000 + "/0." + "0" * 99998 + "1"],
                         ids=lambda v: v[:12] if isinstance(v, str) else repr(v))
def test_parameter_values_must_be_exact_rationals(value):
    m = builtin_model("osn_omega0")
    with pytest.raises(ModelError, match="Lambda"):
        relay_graph(m, {"Lambda": value})
    with pytest.raises(ModelError, match="Lambda"):
        m.point({"Lambda": value})


def test_a_refused_string_is_shown_cut_short():
    """Model.point names the parameter and the reason and shows a refused
    string cut short with its length, an unknown name cut short too: each
    message is under 300 characters, however long the string."""
    m = builtin_model("osn_omega0")
    for value, reason in (("9" * 100001, "a number of more than 100000 digits"),
                          ("1/" + "5" * 100000 + "x", "not a decimal")):
        with pytest.raises(ModelError) as info:
            m.point({"Lambda": value})
        msg = str(info.value)
        assert msg.startswith("value of 'Lambda' must be an exact rational, got '")
        assert len(msg) < 300 and reason in msg and f" of {len(value)} characters" in msg
    with pytest.raises(ModelError) as info:
        m.point({"x" * 100000: 1})
    assert str(info.value).startswith("unknown parameter 'xxx") and len(str(info.value)) < 300


def test_exact_parameter_values_are_accepted():
    m = builtin_model("osn_omega0")
    tenth = relay_graph(m, {"Lambda": Fraction(1, 10)})
    assert relay_graph(m, {"Lambda": "0.1"}).to_dot() == tenth.to_dot()
    assert m.point({"Lambda": "0.1"})["Lambda"] == Fraction(1, 10)
    assert m.point({"Lambda": " 1/3 "})["Lambda"] == Fraction(1, 3)
    assert m.point({"Lambda": 3})["Lambda"] == 3
    assert all(type(v) is Fraction for v in m.point({"Lambda": 3}).values())
    # a string reads exactly up to 100000 digits, past the interpreter's 4300
    assert m.point({"Lambda": "7" * 5000})["Lambda"] == (10 ** 5000 - 1) // 9 * 7
    assert m.point({"Lambda": "-1/" + "9" * 100000})["Lambda"] == Fraction(-1, 10 ** 100000 - 1)


def test_a_fraction_is_kept_as_it_is_and_anything_else_made_one():
    m = builtin_model("osn_omega0")
    f = Fraction(7, 3)
    assert m.point({"Lambda": f})["Lambda"] is f

    class Half(Fraction):
        pass

    for given in (Half(1, 2), True, "1/2"):
        value = m.point({"Lambda": given})["Lambda"]
        assert type(value) is Fraction and value == Fraction(given)


def test_an_instance_refuses_use_once_its_model_is_freed():
    names = builtin_model("osn_omega0").variables
    inst = parse_model_text(print_model(builtin_model("osn_omega0"))).at()
    with pytest.raises(ModelError, match="freed"):
        inst.model
    with pytest.raises(ModelError, match="freed"):
        inst.at({v: Fraction(0) for v in names})


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    # The Instance refers to its model weakly; a strong reference would make
    # a cycle (model -> cache -> Instance -> model) that only gc frees.
    gc.disable()
    try:
        m = parse_model_text(print_model(builtin_model("osn_omega0")))
        inst = m.at()
        inst.at({v: Fraction(1) for v in m.variables}).jacobian()
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


# Each exported entry point called with something that is not the Model,
# ReactionNetwork or SiphonLattice it takes; the other arguments are valid.
NOT_A_MODEL = {
    "all_equilibria": lambda bad: all_equilibria(bad),
    "block_structure_screen": lambda bad: block_structure_screen(bad),
    "closed_form_oracle": lambda bad: closed_form_oracle(bad, "DFE"),
    "equilibrium_namer": lambda bad: equilibrium_namer(bad),
    "eliminate_univariate": lambda bad: eliminate_univariate(bad, frozenset()),
    "extract_network": lambda bad: extract_network(bad),
    "face_equilibria": lambda bad: face_equilibria(bad, frozenset()),
    "invasion_number": lambda bad: invasion_number(bad, {"U"}, {}),
    "jacobian": lambda bad: jacobian(bad),
    "jacobian_at": lambda bad: jacobian_at(bad, {}),
    "las_test": lambda bad: las_test(bad, {}),
    "mixed_block_zero": lambda bad: mixed_block_zero(bad, {"U"}),
    "ngm_split": lambda bad: ngm_split(bad, {"U"}, {}),
    "rank_one_coupling_bound": lambda bad: rank_one_coupling_bound(bad, {}, "U", "W", 1),
    "rank_one_model_bound": lambda bad: rank_one_model_bound(bad, {}),
    "relay_graph": lambda bad: relay_graph(bad),
    "relay_test_cover": lambda bad: relay_test_cover(bad, {"U"}, frozenset()),
    "relay_test_cover_strict": lambda bad: relay_test_cover_strict(bad, {"U"}, frozenset()),
    "transversal_block": lambda bad: transversal_block(bad, {"U"}, {}),
    "verify_face_invariance": lambda bad: verify_face_invariance(bad, {"U"}),
    "minimal_siphons": lambda bad: minimal_siphons(bad),
    "siphon_lattice": lambda bad: siphon_lattice(bad),
    "is_siphon": lambda bad: is_siphon(bad, {"U"}),
    "hosting_node": lambda bad: hosting_node(bad, {"U"}),
}


@pytest.mark.parametrize("bad", [None, 5, "x"], ids=repr)
@pytest.mark.parametrize("name", sorted(NOT_A_MODEL) + ["certify_positive"])
def test_an_entry_point_refuses_what_is_not_its_model_with_a_crnrelay_error(name, bad):
    if name == "certify_positive":
        with pytest.raises(AlgebraTypeError, match="MultiPoly"):
            certify_positive(bad, {"a"})
        return
    with pytest.raises(ModelError, match="expected a"):
        NOT_A_MODEL[name](bad)
