"""Properties of small random mass-action models at positive parameter points.

A face whose equilibria form a continuum (DegenerateFace) is a documented
refusal, so such an example is skipped; any other exception fails the test.
"""

from hypothesis import given, reject, settings, strategies as st

from conftest import mass_action_files, positive_points
from crnrelay.equilibria import all_equilibria
from crnrelay.errors import DegenerateFace
from crnrelay.modelfile import parse_model_text
from crnrelay.models import builtin_model
from crnrelay.network import is_siphon, verify_face_invariance
from crnrelay.relay import relay_graph, relay_test_cover, relay_test_cover_strict


def _unless_degenerate(call):
    '''call(), or a rejected example when some face is degenerate.'''
    try:
        return call()
    except DegenerateFace:
        reject()


@settings(max_examples=100)
@given(mass_action_files())
def test_a_singleton_is_a_siphon_exactly_when_its_face_is_invariant(text):
    m = parse_model_text(text)
    for v in m.variables:
        assert is_siphon(m.network(), {v}) == verify_face_invariance(m, {v}).ok


@settings(max_examples=100)
@given(mass_action_files(), st.data())
def test_every_decided_equilibrium_has_a_zero_residual(text, data):
    m = parse_model_text(text)
    p = data.draw(positive_points(m.parameters))
    faces = _unless_degenerate(lambda: all_equilibria(m, p))
    for eqs in faces.values():
        for e in eqs:
            if e.is_decided:
                assert m.at(p).at(e).is_equilibrium()


def _edges_are_the_invaded_covers(m, p):
    '''relay_graph has an edge up -> low exactly when relay_test_cover finds
    a resident of up invaded along the cover, with the same resident names
    in the same order.'''
    graph = _unless_degenerate(lambda: relay_graph(m, p))
    edges = {(e.source, e.target): e.residents for e in graph.edges}
    lat = m.lattice()
    for low, up in lat.covers:
        report = relay_test_cover(m, up, low, p)
        invaded = tuple(r.resident.name or lat.label(up) for r in report.residents
                        if r.abscissa == "Positive")
        assert edges.get((up, low), ()) == invaded


@settings(max_examples=100)
@given(mass_action_files(), st.data())
def test_graph_edges_are_the_invaded_covers_of_random_models(text, data):
    m = parse_model_text(text)
    _edges_are_the_invaded_covers(m, data.draw(positive_points(m.parameters)))


@settings(max_examples=30)
@given(st.sampled_from(["osn_omega0", "osn_omega_pos"]), st.data())
def test_graph_edges_are_the_invaded_covers_of_the_builtins(name, data):
    m = builtin_model(name)
    _edges_are_the_invaded_covers(m, data.draw(positive_points(m.parameters)))


@settings(max_examples=30)
@given(st.sampled_from(["osn_omega0", "osn_omega_pos"]), st.data())
def test_the_strict_relay_test_claims_no_more_than_the_refined_one(name, data):
    '''A resident whose invasion abscissa the strict test traces as <= 0
    repels its invaders in the refined test, and a strict RelayHolds is a
    refined RelayHolds.'''
    m = builtin_model(name)
    p = data.draw(positive_points(m.parameters))
    for low, up in m.lattice().covers:
        strict = relay_test_cover_strict(m, up, low, p)
        refined = relay_test_cover(m, up, low, p)
        verdicts = {r.resident.name: r.verdict for r in refined.residents}
        assert len(verdicts) == len(refined.residents)   # the builtins name each resident
        for line in strict.trace:
            if line.endswith("<= 0"):
                assert verdicts[line.split(":")[0]] == "NoInvasion"
        if strict.verdict == "RelayHolds":
            assert refined.verdict == "RelayHolds"
