"""Report fields made on first read against their eager values.

A face equilibrium's coords, a stability block's char and hurwitz, a
Metzler verdict's witness, a positivity verdict's violations, the
next-generation split of an invasion report with the threshold ratio rho
read from it, and the rho and notes of a relay resident are given to their
reports as scalars.Deferred and made by scalars.OnRead when first read. Each is checked here against the value an eager build gives: the
ExactScalars of the candidate's quads, char_poly and hurwitz_test of the
block, the minors the Metzler test reads. A report compares equal to, and
prints like, the report built with those values, read or not.
"""

import copy
import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, reject, settings, strategies as st

from conftest import mass_action_files, positive_points
from crnrelay.equilibria import (ExistenceVerdict, all_equilibria, assemble_equilibrium,
                                 positivity_check)
from crnrelay.errors import CrnRelayError, DegenerateFace, NotApplicable
from crnrelay.linalg import (SignReport, _char_pairs, char_abscissa, char_hurwitz, char_poly,
                             det, hurwitz_test, inverse, leading_minors, mat, mat_mul,
                             metzler_sign, pair_matrix, submatrix)
from crnrelay.modelfile import parse_model_text
from crnrelay.models import (OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT, builtin_model,
                             closed_form_oracle, equilibrium_namer)
from crnrelay.network import FaceEquilibrium
from crnrelay.scalars import Deferred, ExactScalar, OnRead, PairVector, exact, from_pair
from crnrelay.relay import ResidentReport, relay_test_cover
from crnrelay.stability import (BlockVerdict, InvasionReport, StabilityReport, hurwitz_blocks,
                                invasion_number, jacobian_at, las_test)

BUILTINS = {"osn_omega0": OSN_OMEGA0_TEXT, "osn_omega_pos": OSN_OMEGA_POS_TEXT}


def _unread(report, name: str) -> bool:
    return type(report.__dict__[name]) is Deferred


def _solve_recording_quads(m, p):
    '''all_equilibria of m at p, and the quads of every full candidate
    vector the face solver verified, by the key of its PairVector.'''
    quads = {}
    real = PairVector.of_quads

    def of_quads(cls, qs):
        x = real(qs)
        if len(qs) == len(m.variables):
            quads[x.key] = list(qs)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PairVector, "of_quads", classmethod(of_quads))
        try:
            faces = all_equilibria(m, p)
        except DegenerateFace:
            reject()
    return faces, quads


def _check_equilibria(m, p):
    faces, quads = _solve_recording_quads(m, p)
    for found in faces.values():
        decided = [e for e in found if e.is_decided]
        for e in decided:
            assert _unread(e, "coords")
            twin = copy.copy(e)
            verdict = positivity_check(e)
            assert _unread(e, "coords")   # the verdict reads signs only
            eager = {v: from_pair(*q) for v, q in zip(m.variables, quads[e.vector[1].key])}
            built = FaceEquilibrium(e.face, e.zero_set, eager, e.classification, e.d, e.name,
                                    e.reason)
            assert e == built and repr(twin) == repr(built)
            assert dict(e.coords) == eager and dict(twin.coords) == eager
            assert e.signs() == {v: c.sign() for v, c in eager.items()}
            bad = tuple((v, c) for v, c in eager.items() if v not in e.zero_set and c.sign() < 0)
            assert verdict == ExistenceVerdict(not bad, bad)
            assert repr(positivity_check(twin)) == repr(ExistenceVerdict(not bad, bad))
        # ordered as by ExactScalar.sort_key of the coordinates
        assert decided == sorted(decided, key=lambda e: tuple(e.coords[v].sort_key()
                                                              for v in m.variables))
    return [e for found in faces.values() for e in found if e.is_decided]


def _check_blocks(m, p, equilibria):
    for e in equilibria:
        rep = las_test(m, e, p)
        J = jacobian_at(m, e, p)
        twin = copy.copy(rep)
        blocks = []
        for b in rep.blocks:
            assert _unread(b, "char") and _unread(b, "hurwitz")
            idx = [m.var_index(v) for v in b.vars]
            p_eager = char_poly(submatrix(J, idx, idx))
            blocks.append(BlockVerdict(b.vars, b.verdict, p_eager, hurwitz_test(p_eager)))
        built = StabilityReport(rep.verdict, tuple(blocks))
        assert repr(twin) == repr(built) and rep == built
        assert all(b.hurwitz.verdict == b.verdict for b in rep.blocks)


@settings(max_examples=12)
@given(st.sampled_from(sorted(BUILTINS)), st.data())
def test_builtin_fields_equal_their_eager_values(name, data):
    m = parse_model_text(BUILTINS[name], default_name=name)
    p = data.draw(positive_points(m.parameters))
    _check_blocks(m, p, _check_equilibria(m, p))


@settings(max_examples=200)
@given(mass_action_files(), st.data())
def test_random_model_fields_equal_their_eager_values(text, data):
    m = parse_model_text(text)
    p = data.draw(positive_points(m.parameters))
    _check_blocks(m, p, _check_equilibria(m, p))


SPLIT_FIELDS = ("split", "rho", "rho_vs_one", "consistent", "notes")


def _check_rho(m, p):
    '''relay_test_cover on every cover at p: the next-generation split of
    each invasion report, with its threshold ratio rho, rho_vs_one,
    consistent and notes, and the rho and notes of each resident's report,
    are made on read, the report's by one build on the first read of any;
    rho equals the spectral radius of F V^-1 that linalg.char_abscissa reads
    from its characteristic polynomial, and rho_vs_one is the sign of rho -
    1.'''
    lat = m.lattice()
    for low, up in lat.covers:
        try:
            rep = relay_test_cover(m, up, low, p)
        except DegenerateFace:
            continue
        for r in rep.residents:
            if not r.resident.is_decided:
                continue   # an undecided resident has no invasion report
            inv = invasion_number(m, rep.invading, r.resident, p)   # the stored report
            assert _unread(r, "rho") and _unread(r, "notes")
            assert all(_unread(inv, f) for f in SPLIT_FIELDS)
            split = inv.split
            assert not any(_unread(inv, f) for f in SPLIT_FIELDS)
            if not split.valid:
                assert inv.rho is None and inv.rho_vs_one is None
                continue
            F, V = mat(split.F), mat(split.V)
            alpha = char_abscissa(mat_mul(F, inverse(V)))[0]
            eager = None if alpha is None else from_pair(*alpha)
            assert inv.rho == eager and r.rho == eager
            assert inv.rho_vs_one == (None if eager is None else (eager - 1).sign())


@settings(max_examples=12)
@given(st.sampled_from(sorted(BUILTINS)), st.data())
def test_builtin_threshold_ratios_are_made_on_read(name, data):
    m = parse_model_text(BUILTINS[name], default_name=name)
    _check_rho(m, data.draw(positive_points(m.parameters)))


@settings(max_examples=150)
@given(mass_action_files(), st.data())
def test_random_model_threshold_ratios_are_made_on_read(text, data):
    m = parse_model_text(text)
    _check_rho(m, data.draw(positive_points(m.parameters)))


def _invasion_reports(m, p):
    '''The relay tests on every cover at p that return, each with every
    invasion report behind it, read nothing.'''
    out = []
    for low, up in m.lattice().covers:
        try:
            rep = relay_test_cover(m, up, low, p)
        except CrnRelayError:
            continue   # refused at the call: nothing was deferred
        out.append((rep, tuple(invasion_number(m, rep.invading, r.resident, p)
                               for r in rep.residents if r.resident.is_decided)))
    return tuple(out)


def _forced(x):
    '''x with every field of every report in it read, as nested tuples
    (a report's own == reads its fields in turn).'''
    if dataclasses.is_dataclass(x):
        return tuple(_forced(getattr(x, f.name)) for f in dataclasses.fields(x))
    return tuple(map(_forced, x)) if isinstance(x, tuple) else x


@settings(max_examples=200)
@given(mass_action_files(), st.data())
def test_deferred_invasion_fields_read_as_at_the_call(text, data):
    '''Each invasion report of the relay tests, and each resident report:
    reading the deferred fields never raises once the call returned, reads
    the same after the model moved to another point as the same reports of
    a second model read at once, and gives a report == to one built from
    the values read (an invasion report hashed like it too); the split
    never contradicts the abscissa sign.'''
    p, q = (data.draw(positive_points(parse_model_text(text).parameters)) for _ in range(2))
    at_once = _invasion_reports(parse_model_text(text), p)
    _forced(at_once)
    m = parse_model_text(text)
    found = _invasion_reports(m, p)
    m.at(q)   # the model moves on before a field is read
    _forced(found)
    assert found == at_once
    for rep, invasions in found:
        for r in rep.residents:
            built = ResidentReport(*(getattr(r, f.name) for f in dataclasses.fields(r)))
            assert built == r and repr(built) == repr(r)
        for inv in invasions:
            built = InvasionReport(*(getattr(inv, f.name) for f in dataclasses.fields(inv)))
            assert built == inv and hash(built) == hash(inv)
            assert inv.consistent is not False, inv.notes


# ---------------------------------------------------------------------------
# random blocks over Q and over Q(sqrt(d))
# ---------------------------------------------------------------------------

def _eager_metzler(M) -> tuple[str, dict]:
    '''metzler_sign's verdict and witness as the parent made them: every
    minor of A = -M an ExactScalar, its sign read from it.'''
    a = [[-x for x in row] for row in M]
    n = len(a)
    leading = tuple(leading_minors(a))
    if all(x.sign() > 0 for x in leading):
        return "Negative", {"leading_minors": leading}
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            value = det(submatrix(a, idx, idx))
            if value.sign() < 0:
                return "Positive", {"leading_minors": leading, "negative_minor_index": idx,
                                    "negative_minor": value}
    return "Zero", {"leading_minors": leading}


def _sym(x: ExactScalar):
    return sympy.Rational(x.a.numerator, x.a.denominator) + sympy.Rational(
        x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)


def _sympy_hurwitz(p) -> list:
    '''The leading minors of p's Hurwitz matrix (leading coefficient made
    positive), each by sympy.'''
    a = [_sym(c) for c in p.coeffs]
    if p.coeffs[-1].sign() < 0:
        a = [-c for c in a]
    n = len(a) - 1
    H = sympy.Matrix(n, n, lambda i, j: a[n - 2 * i - 1 + j] if 0 <= n - 2 * i - 1 + j <= n
                     else 0)
    return [sympy.expand(H[:k, :k].det(method="berkowitz")) for k in range(1, n + 1)]


@st.composite
def blocks(draw):
    '''A square matrix of size 1-4 over Q, or over one Q(sqrt(d)), with
    entries p/q, p in -3..3 (a zero among them in half the entries) and q
    in 1..3.'''
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([1, 1, 2, 3, 5]))
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    entry = st.one_of(st.just(Fraction(0)), value)
    if d == 1:
        return mat([[draw(entry) for _ in range(n)] for _ in range(n)])
    return [[ExactScalar(draw(entry), draw(entry), d) for _ in range(n)] for _ in range(n)]


BOUNDARY = [
    [[0]],                                        # lambda
    [[0, 1], [-1, 0]],                            # lambda^2 + 1
    [[-1, 0, 0], [0, 0, 2], [0, -2, 0]],          # (lambda + 1)(lambda^2 + 4)
    [[0, 1, 0], [0, 0, 1], [-1, -1, 0]],          # lambda^3 + lambda + 1: D1 = 0, then negative
]


def _check_block(M):
    P = pair_matrix(M)
    verdict, char, rep = char_hurwitz(_char_pairs(P), P.Q, P.d)
    p = char_poly(M)
    assert char.build(*char.args) == p
    want = hurwitz_test(p)
    assert rep.build(*rep.args) == want and verdict == want.verdict
    assert [_sym(x) for x in want.determinants] == _sympy_hurwitz(p)
    names = [f"v{i}" for i in range(len(M))]
    report = hurwitz_blocks(M, names)
    twin = copy.copy(report)
    built = []
    for b in report.blocks:
        idx = [names.index(v) for v in b.vars]
        q = char_poly(submatrix(M, idx, idx))
        built.append(BlockVerdict(b.vars, b.verdict, q, hurwitz_test(q)))
    built = StabilityReport(report.verdict, tuple(built))
    assert repr(twin) == repr(built) and report == built
    return verdict


@settings(max_examples=150)
@given(blocks())
@example(mat(BOUNDARY[1]))
@example([[ExactScalar(Fraction(0)), ExactScalar(Fraction(0), Fraction(1), 2)],
          [ExactScalar(Fraction(0), Fraction(-1), 2), ExactScalar(Fraction(0))]])
def test_random_block_fields_equal_their_eager_values(M):
    _check_block(M)
    metzler = [[x if i == j or x.sign() >= 0 else -x for j, x in enumerate(row)]
               for i, row in enumerate(M)]
    rep = metzler_sign(metzler)
    assert _unread(rep, "witness")
    twin = copy.copy(rep)
    verdict, witness = _eager_metzler(metzler)
    assert repr(twin) == repr(SignReport(verdict, witness))
    assert rep == SignReport(verdict, witness) and rep.witness == witness


@pytest.mark.parametrize("rows", BOUNDARY, ids=range(len(BOUNDARY)))
def test_blocks_with_a_zero_hurwitz_determinant(rows):
    M = mat(rows)
    want = hurwitz_test(char_poly(M))
    assert any(x.is_zero for x in want.determinants)
    assert _check_block(M) == want.verdict
    assert want.verdict == ("NotHurwitz" if rows is BOUNDARY[3] else "Boundary")


def test_a_report_given_its_values_keeps_them():
    values = {"x": exact(1), "y": exact(0)}
    e = FaceEquilibrium(frozenset({"y"}), frozenset({"y"}), values, "Rational")
    assert not _unread(e, "coords") and dict(e.coords) == values
    assert e.signs() == {"x": 1, "y": 0}
    assert positivity_check(e) == ExistenceVerdict(True, ())


@dataclasses.dataclass(frozen=True)
class _Three:
    a: int = OnRead()
    b: int = OnRead()
    c: int = OnRead()


def test_a_deferred_with_fields_is_built_once_for_all_of_them():
    """A Deferred that names fields is built on the first read of any of
    them and fills each one that holds it; a field given its value keeps
    it, and the report reads as one built with the values."""
    calls = []

    def build(x):
        calls.append(x)
        return x, x + 1, x + 2

    shared = Deferred(build, 10, fields=("a", "b", "c"))
    three = _Three(shared, 7, shared)
    assert calls == [] and _unread(three, "a") and _unread(three, "c")
    assert three.c == 12 and calls == [10]
    assert not _unread(three, "a") and three.a == 10 and three.b == 7
    assert three == _Three(10, 7, 12) and hash(three) == hash(_Three(10, 7, 12))
    assert calls == [10]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_closed_form_equilibria_keep_their_vector(name):
    '''A closed-form equilibrium, as assemble_equilibrium builds one from a
    coordinate map, keeps its vector in model order and makes coords from
    it on read: the map's values, in model order.'''
    m = builtin_model(name)
    for label in equilibrium_namer(m).names():
        try:
            want = dict(closed_form_oracle(m, label).coords)
        except NotApplicable:
            continue
        given = {v: c.to_fraction() if c.is_rational else c for v, c in reversed(want.items())}
        e = assemble_equilibrium(m, given, name=label)
        assert e.vector[0] == m.variables and _unread(e, "coords")
        assert e.signs() == {v: want[v].sign() for v in m.variables}
        assert _unread(e, "coords")   # signs read the vector
        assert list(e.coords.items()) == [(v, want[v]) for v in m.variables]
