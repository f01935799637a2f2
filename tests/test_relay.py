import gc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from crnrelay.errors import AlgebraError, BadCover, ModelError, UnknownModel
from crnrelay.modelfile import parse_model_file, parse_model_text, print_model
from crnrelay import stability
from crnrelay.models import OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT, builtin_model
from crnrelay.equilibria import face_equilibria, face_residents, positivity_check
from crnrelay.network import hosting_node, is_siphon, verify_face_invariance
from crnrelay.relay import (_rational_abscissa, relay_graph, relay_test_cover,
                            relay_test_cover_strict)
from crnrelay.scalars import Deferred, ExactScalar, exact
from crnrelay.stability import (block_structure_screen, hurwitz_blocks, invasion_number,
                                mixed_block_zero, transversal_block)

P0 = {"Lambda": Fraction(2), "betaw": Fraction(1, 2), "beta1": Fraction(3)}

O3 = {"Lambda": Fraction(3), "betaw": Fraction(1),
      "beta1": Fraction(3), "beta2": Fraction(4)}


def _e2(m):
    '''The resident E2 of the face {S1,B1} at the model's own values.'''
    return next(e for e in face_equilibria(m, {"S1", "B1"}) if e.name == "E2")


def test_bad_cover_rejected():
    m = builtin_model("osn_omega_pos")
    with pytest.raises(BadCover):
        relay_test_cover(m, {"S1", "B1", "S2", "B2", "U"}, {"S1", "B1"}, P0)
    with pytest.raises(BadCover):
        relay_test_cover(m, {"S1", "B1"}, {"S1", "B1", "S2", "B2"}, P0)


@pytest.mark.parametrize("call, error", [
    (lambda m: relay_test_cover(m, {"U"}, {"zz"}), BadCover),
    (lambda m: relay_graph(m).node({"zz"}), ModelError),
    (lambda m: hosting_node(m.lattice(), 5), ModelError),
    (lambda m: hosting_node(m.lattice(), "U"), ModelError),
    (lambda m: face_equilibria(m, 5), ModelError),
    (lambda m: is_siphon(m.network(), 5), ModelError),
    (lambda m: is_siphon(m.network(), "S1"), ModelError),
    (lambda m: relay_test_cover(m, 5, set()), ModelError),
    (lambda m: relay_test_cover(m, {"U"}, "U"), ModelError),
    (lambda m: relay_graph(m).node(5), ModelError),
    (lambda m: m.lattice().label(5), ModelError),
    (lambda m: verify_face_invariance(m, 5), ModelError),
    (lambda m: mixed_block_zero(m, "W"), ModelError),
    (lambda m: invasion_number(m, 5, _e2(m)), ModelError),
    (lambda m: invasion_number(m, "S1", _e2(m)), ModelError),
    (lambda m: invasion_number(m, "W", _e2(m)), ModelError),
    (lambda m: transversal_block(m, 5, _e2(m)), ModelError),
    (lambda m: transversal_block(m, "S1", _e2(m)), ModelError),
    (lambda m: m.point([("beta", 1)]), ModelError),
    (lambda m: face_equilibria(m, {"W"}, [1]), ModelError),
    (lambda m: relay_graph(m, [1]), ModelError),
    (lambda m: block_structure_screen(m, max_block=None), ModelError),
    (lambda m: block_structure_screen(m, max_block=0), ModelError),
    (lambda m: block_structure_screen(m, max_block="3"), ModelError),
    (lambda m: block_structure_screen(m, max_block=True), ModelError),
    (lambda m: m.rhs("zz"), ModelError),
    (lambda m: m.sort_vars(5), ModelError),
    (lambda m: builtin_model(["x"]), UnknownModel),
    (lambda m: parse_model_text(5), ModelError),
    (lambda m: print_model(5), ModelError),
    (lambda m: parse_model_file(None), ModelError),
    (lambda m: positivity_check(None), ModelError),
    (lambda m: relay_test_cover(m, {1}, set()), ModelError),
    (lambda m: relay_test_cover_strict(m, {1}, set()), ModelError),
    (lambda m: m.lattice().label({1}), ModelError),
    (lambda m: hurwitz_blocks([[-1]], None), AlgebraError),
    (lambda m: hurwitz_blocks([[-1]], 5), AlgebraError),
    (lambda m: _e2(m).describe(None), ModelError),
], ids=["cover-with-unknown-variable", "graph-node-not-a-face", "zero-set-not-a-collection",
        "zero-set-a-str", "face-equilibria-face-not-a-collection", "siphon-not-a-collection",
        "siphon-a-str", "cover-not-a-collection", "cover-a-str", "graph-node-not-a-collection",
        "label-not-a-collection", "invariance-face-not-a-collection", "stability-face-a-str",
        "invading-face-not-a-collection", "invading-face-a-str", "invading-face-a-one-letter-str",
        "block-face-not-a-collection", "block-face-a-str", "point-overrides-a-list",
        "face-equilibria-overrides-a-list", "graph-overrides-a-list", "screen-block-size-none",
        "screen-block-size-zero", "screen-block-size-a-str", "screen-block-size-true",
        "rhs-of-an-unknown-variable", "sort-vars-of-an-int", "builtin-name-a-list",
        "model-text-an-int", "print-an-int", "model-file-none", "positivity-of-none",
        "cover-of-an-int", "strict-cover-of-an-int", "label-of-an-int", "hurwitz-names-none",
        "hurwitz-names-an-int", "describe-none"])
def test_relay_and_lattice_refuse_with_crnrelay_errors(call, error):
    with pytest.raises(error):
        call(builtin_model("osn_omega0"))


def test_refined_verdicts_at_reference_point():
    m = builtin_model("osn_omega_pos")
    up = {"S1", "B1", "S2", "B2"}

    holds = relay_test_cover(m, up, {"S2", "B2"}, P0)
    assert holds.verdict == "RelayHolds"
    (res,) = [r for r in holds.residents if r.resident.name == "gOSN"]
    assert res.abscissa == "Positive"
    assert res.stable_successor is not None
    assert res.stable_successor.name == "E1"

    none = relay_test_cover(m, up, {"S1", "B1"}, P0)
    assert none.verdict == "NoInvasion"

    dfe_step = relay_test_cover(m, {"S1", "B1", "S2", "B2", "U"}, up, P0)
    assert dfe_step.verdict == "SuccessorExistsUnstable"


def test_uninhabited_face_is_reported():
    m = builtin_model("osn_omega_pos")
    # the strain-1-only face hosts no equilibrium at P0 parameters
    rep = relay_test_cover(m, {"S1", "B1"}, frozenset(), P0)
    assert rep.residents == ()
    assert any("no " in n or "uninhabited" in n for n in rep.notes)


def test_strict_mode_frozen_scenarios():
    m = builtin_model("osn_omega0")
    up = {"S1", "B1", "S2", "B2", "W"}

    one = relay_test_cover_strict(m, up, {"S2", "B2", "W"}, P0)
    assert one.verdict == "Undecided"
    assert any("not rational" in t for t in one.trace)

    two = relay_test_cover_strict(m, up, {"S1", "B1", "W"}, P0)
    assert two.verdict == "Undecided"

    three = relay_test_cover_strict(m, {"S1", "B1", "S2", "B2", "U", "W"}, up, P0)
    assert three.verdict == "NoRelay"
    assert any("abscissa 1" in t for t in three.trace)
    assert any("Hurwitz" in t for t in three.trace)


def test_strict_abscissa_of_an_irrational_block_with_a_rational_polynomial():
    # [[0, sqrt(2)], [2 sqrt(2), 0]] has lambda^2 - 4: its abscissa 2 is rational
    s2 = ExactScalar(Fraction(0), Fraction(1), 2)
    assert _rational_abscissa([[0, s2], [2 * s2, 0]]) == exact(2)
    # [[0, sqrt(2)], [sqrt(2), 0]] has lambda^2 - 2: roots -+ sqrt(2)
    assert _rational_abscissa([[0, s2], [s2, 0]]) is None
    # lambda^2 + sqrt(2) lambda: an irrational coefficient
    assert _rational_abscissa([[0, 0], [1, -s2]]) is None


def test_strict_mode_accepts_rational_relay():
    m = builtin_model("osn_omega0")
    # gOSN -> E1g with a rational strain-1 abscissa: M1 eigenvalues are
    # -1 +- sqrt(beta1/2) here, so beta1 = 9/2 gives abscissa 1/2
    params = {"Lambda": Fraction(2), "betaw": Fraction(1, 2),
              "beta1": Fraction(9, 2)}
    rep = relay_test_cover_strict(m, {"S1", "B1", "S2", "B2", "W"},
                                  {"S2", "B2", "W"}, params)
    assert rep.verdict == "RelayHolds"
    assert any("abscissa 1/2" in t for t in rep.trace)


def test_graph_reference_point():
    m = builtin_model("osn_omega_pos")
    g = relay_graph(m, P0)
    labels = {n.label for n in g.nodes if n.inhabited}
    assert {"OSND", "gOSN", "E1"} <= labels
    edges = {(g.node(e.source).label, g.node(e.target).label, e.kind)
             for e in g.edges}
    assert ("OSND", "gOSN", "full") in edges
    assert ("gOSN", "E1", "full") in edges


def test_graph_omega0_all_inhabited():
    m = builtin_model("osn_omega0")
    g = relay_graph(m, O3)
    by_kind = {}
    for e in g.edges:
        key = (g.node(e.source).label, g.node(e.target).label)
        by_kind[key] = e.kind
    assert by_kind[("gOSN", "RFE")] == "multiple"
    assert by_kind[("E1g", "E1")] == "cross-branch"
    assert by_kind[("E2g", "E2")] == "cross-branch"
    assert by_kind[("EEg", "EE")] == "cross-branch"
    assert by_kind[("E1", "EE")] == "full"
    assert by_kind[("E2", "EE")] == "full"
    assert len(g.edges) == 13


MODELS = Path(__file__).parent / "models"


def test_an_edge_names_every_invaded_resident():
    # x = 1 and x = 2 on y = 0, both invaded by y; each along this cover alone
    m = parse_model_file(str(MODELS / "two_invaders.model"))
    (edge,) = relay_graph(m).edges
    assert (edge.source, edge.target, edge.invading, edge.residents, edge.kind) == (
        {"y"}, set(), ("y",), ("{y}", "{y}"), "full")
    report = relay_test_cover(m, {"y"}, set())
    assert [(r.resident.coords["x"].to_fraction(), r.abscissa) for r in report.residents] == [
        (1, "Positive"), (2, "Positive")]


def test_residents_invaded_along_two_covers_make_multiple_edges():
    m = parse_model_file(str(MODELS / "two_invaders_two_covers.model"))
    edges = {(e.source, e.target): (e.invading, e.residents, e.kind) for e in relay_graph(m).edges}
    assert edges == {
        (frozenset("yz"), frozenset("y")): (("z",), ("{y,z}", "{y,z}"), "multiple"),
        (frozenset("yz"), frozenset("z")): (("y",), ("{y,z}", "{y,z}"), "multiple"),
        (frozenset("z"), frozenset()): (("z",), ("{z}",), "full"),
    }


def test_graph_dot_output():
    m = builtin_model("osn_omega_pos")
    dot = relay_graph(m, P0).to_dot()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert "style=solid" in dot
    # uninhabited faces are drawn gray
    assert 'color="gray"' in dot


def test_graph_is_deterministic():
    m = builtin_model("osn_omega0")
    assert relay_graph(m, O3).to_dot() == relay_graph(m, O3).to_dot()


def test_relay_graph_per_point_cache_matches_a_fresh_model():
    m = builtin_model("osn_omega0")
    below = {"Lambda": Fraction(1, 2)}
    graphs = []
    for params in (O3, below, O3):
        fresh = parse_model_text(OSN_OMEGA0_TEXT, default_name="osn_omega0")
        got = relay_graph(m, params)
        assert got == relay_graph(fresh, params)
        graphs.append(got)
    assert graphs[0] != graphs[1]
    assert graphs[2] == graphs[0]


def test_relay_graph_follows_model_values():
    m = parse_model_text(OSN_OMEGA0_TEXT, default_name="osn_omega0")
    before = relay_graph(m)
    m.values["Lambda"] = Fraction(1, 2)
    after = relay_graph(m)
    assert after != before
    fresh = parse_model_text(OSN_OMEGA0_TEXT, default_name="osn_omega0")
    assert after == relay_graph(fresh, {"Lambda": Fraction(1, 2)})


@pytest.mark.parametrize("text", [OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT],
                         ids=["osn_omega0", "osn_omega_pos"])
def test_relay_verdicts_make_no_next_generation_split(text, monkeypatch):
    """relay_graph and relay_test_cover on every cover read each invasion's
    abscissa only: no split is solved (leading_solve), and one report is
    built per cover and inhabited resident, shared by both. Reading one
    resident's notes builds exactly one split."""
    m = parse_model_text(text)
    solves, built = [], Counter()
    solve, build = stability.leading_solve, stability._invasion_number

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    def counted_build(m, svars, at, mask, resolved):
        built[svars, at.key] += 1
        return build(m, svars, at, mask, resolved)

    monkeypatch.setattr(stability, "leading_solve", counted_solve)
    monkeypatch.setattr(stability, "_invasion_number", counted_build)
    covers = m.lattice().covers
    relay_graph(m)
    reports = [relay_test_cover(m, up, low) for low, up in covers]
    assert solves == []
    assert sum(built.values()) == sum(len(face_residents(m, up)[1]) for _, up in covers) > 0
    assert set(built.values()) == {1}
    rep, r = next((rep, r) for rep in reports for r in rep.residents if r.abscissa != "Unknown")
    notes = r.notes
    assert len(solves) == 1
    inv = invasion_number(m, rep.invading, r.resident)
    assert len(solves) == 1 and notes[:len(inv.notes)] == inv.notes


def test_kept_reports_do_not_keep_their_point_alive():
    """A RelayReport or an InvasionReport kept after the model moves to
    another point holds nothing of its Instance, whose fields it reads the
    same afterwards."""
    m = parse_model_text(OSN_OMEGA_POS_TEXT)
    reports = [relay_test_cover(m, up, low, P0) for low, up in m.lattice().covers]
    residents = [(rep, r) for rep in reports for r in rep.residents if r.abscissa != "Unknown"]
    invasions = [invasion_number(m, rep.invading, r.resident, P0) for rep, r in residents]
    assert invasions
    point = weakref.ref(m.at(P0))
    relay_graph(m, O3)
    gc.collect()
    assert point() is None
    fresh = parse_model_text(OSN_OMEGA_POS_TEXT)
    assert reports == [relay_test_cover(fresh, rep.sigma, rep.sigma_prime, P0) for rep in reports]
    assert invasions == [invasion_number(fresh, rep.invading, r.resident, P0)
                         for rep, r in residents]


@pytest.mark.parametrize("name", ["osn_omega0", "osn_omega_pos"])
def test_face_equilibria_and_relay_reports_hash_like_equal_ones(name):
    '''Every face equilibrium of a builtin hashes, makes no coordinate in
    doing so, and hashes like the equal one of a fresh model; so does each
    relay report that holds residents.'''
    m, fresh = builtin_model(name), builtin_model(name)
    faces = (*m.lattice().nodes, frozenset())
    found = [e for face in faces for e in face_equilibria(m, face)]
    for e in found:
        hash(e)
        assert type(e.__dict__["coords"]) is Deferred
    again = [e for face in faces for e in face_equilibria(fresh, face)]
    assert found and found == again and list(map(hash, found)) == list(map(hash, again))
    held = [(up, low) for low, up in m.lattice().covers if relay_test_cover(m, up, low).residents]
    assert held
    for up, low in held:
        rep = relay_test_cover(m, up, low)
        assert hash(rep) == hash(relay_test_cover(fresh, up, low))
        assert {hash(r) for r in rep.residents}
