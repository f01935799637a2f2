"""Properties of small random mass-action models at positive parameter points.

A face whose equilibria form a continuum (DegenerateFace) is a documented
refusal, so such an example is skipped; any other exception fails the test.
"""

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from conftest import mass_action_files, positive_points
from crnrelay.equilibria import all_equilibria
from crnrelay.errors import DegenerateFace
from crnrelay.modelfile import parse_model_text
from crnrelay.models import builtin_model
from crnrelay.network import is_siphon, verify_face_invariance
from crnrelay.relay import relay_graph, relay_test_cover, relay_test_cover_strict
from crnrelay.stability import invasion_number, jacobian_at, las_test


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


def _floats(rows):
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


@settings(max_examples=300)
@given(mass_action_files(), st.data())
def test_random_model_verdicts_agree_with_numpy_eigenvalues(text, data):
    '''Wherever numpy's value stands more than 1e-9 from the boundary:
    las_test at each decided equilibrium reads "LAS" exactly when the
    largest real part of its Jacobian's eigenvalues is negative; along each
    cover, each decided
    resident's invasion abscissa sign has that of its block's (and reads
    "Zero" within 1e-9 of zero, unless it is "Unknown"), and a valid
    split's rho_vs_one is the side of 1 that the spectral radius of F V^-1
    lies on.'''
    m = parse_model_text(text)
    p = data.draw(positive_points(m.parameters))
    faces = _unless_degenerate(lambda: all_equilibria(m, p))
    for e in (e for eqs in faces.values() for e in eqs if e.is_decided):
        alpha = max(np.linalg.eigvals(_floats(jacobian_at(m, e, p))).real)
        if abs(alpha) > 1e-9:   # "Boundary" may stand for an unstable one (see hurwitz_test)
            assert (las_test(m, e, p).verdict == "LAS") == (alpha < 0)
    for low, up in m.lattice().covers:
        report = relay_test_cover(m, up, low, p)
        for r in report.residents:
            if not r.resident.is_decided:
                continue
            inv = invasion_number(m, report.invading, r.resident, p)
            alpha = max(np.linalg.eigvals(_floats(inv.block)).real)
            if inv.abscissa_sign != "Unknown":
                want = "Zero" if abs(alpha) <= 1e-9 else "Negative" if alpha < 0 else "Positive"
                assert inv.abscissa_sign == want
            if inv.rho_vs_one is not None:
                F, V = _floats(inv.split.F), _floats(inv.split.V)
                rho = max(abs(np.linalg.eigvals(F @ np.linalg.inv(V))))
                if abs(rho - 1) > 1e-9:
                    assert inv.rho_vs_one == (1 if rho > 1 else -1)


@settings(max_examples=100)
@given(mass_action_files(), st.data())
def test_a_block_with_a_negative_coefficient_is_unstable(text, data):
    '''Where a block of las_test's report at a decided equilibrium has a
    negative characteristic coefficient, the report reads "Unstable" and
    the largest real part of numpy's eigenvalues of the Jacobian is above
    1e-9, whatever the block's own Hurwitz verdict.'''
    m = parse_model_text(text)
    p = data.draw(positive_points(m.parameters))
    faces = _unless_degenerate(lambda: all_equilibria(m, p))
    for e in (e for eqs in faces.values() for e in eqs if e.is_decided):
        rep = las_test(m, e, p)
        if any(x.sign() < 0 for b in rep.blocks for x in b.char.coeffs):
            assert rep.verdict == "Unstable"
            assert max(np.linalg.eigvals(_floats(jacobian_at(m, e, p))).real) > 1e-9


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
