"""Right-hand sides evaluated from the per-model split and the per-point
fold (Instance.fold), and the Jacobian built as Gamma D from the model's
table of rate derivatives (Instance.at(coords).pairs), against assigning
the parameters into the rational functions (RatFunc.assign, then
RatFunc.eval) and against sympy."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import kept, mass_action_files, positive_points
from crnrelay.equilibria import face_equilibria
from crnrelay.errors import CrnRelayError, DenominatorZero, MixedExtensions
from crnrelay.linalg import submatrix
from crnrelay.modelfile import parse_model_text
from crnrelay import network
from crnrelay.network import Instance
from crnrelay.poly import Folded
from crnrelay.relay import relay_graph, relay_test_cover
from crnrelay.models import OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT, builtin_model, closed_form_oracle
from crnrelay.scalars import ExactScalar, PairVector, exact, from_pair

MODELS = ("osn_omega0", "osn_omega_pos")

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)
positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


def entries(m):
    '''Every right-hand side's key with its per-point definition.'''
    return [(("rhs", v), lambda p, v=v: m.rhs(v).assign(p)) for v in m.variables]


def new_value(inst, key, coords):
    '''The right-hand side of key read through Instance.fold at coords.'''
    f = inst.fold(key)
    x = PairVector([coords[v] for v in inst.model.variables])
    return exact(0) if f is None else from_pair(*f.at(x))


def outcome(fn):
    try:
        return fn()
    except (DenominatorZero, MixedExtensions) as exc:
        return type(exc)


def old_verdict(residuals):
    '''What the candidate check gave on per-point rational functions: the
    first residual that is not zero decides, and MixedExtensions escaped.'''
    for r in residuals:
        if r is MixedExtensions:
            return MixedExtensions
        if r is DenominatorZero or not r.is_zero:
            return False
    return True


def to_sympy(f, syms):
    def poly(p):
        return sum((sympy.Rational(c.numerator, c.denominator) *
                    sympy.Mul(*[syms[v] ** k for v, k in zip(p.vars, e)])
                    for e, c in p.terms.items()), sympy.Integer(0))
    return poly(f.num) / poly(f.den)


def sympy_value(x):
    x = exact(x)
    return (sympy.Rational(x.a.numerator, x.a.denominator) +
            sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d))


_SYMPY: dict = {}


def sympy_entries(m):
    '''key -> (numerator, denominator) of the entry as sympy expressions in
    the variables and parameters, with no common factor.'''
    if m.name not in _SYMPY:
        syms = {s: sympy.Symbol(s) for s in m.variables + m.parameters}
        rhs = {v: to_sympy(m.rhs(v), syms) for v in m.variables}
        exprs = {("rhs", v): rhs[v] for v in m.variables}
        for i, v in enumerate(m.variables):
            for j, w in enumerate(m.variables):
                exprs["jac", i, j] = sympy.diff(rhs[v], syms[w])
        for k, r in enumerate(m.network().reactions):
            rate = to_sympy(r.rate, syms)
            for v in m.variables:
                exprs["drate", k, v] = sympy.diff(rate, syms[v])
        out = {key: sympy.fraction(sympy.cancel(e)) for key, e in exprs.items()}
        _SYMPY[m.name] = (syms, out)
    return _SYMPY[m.name]


def sympy_agrees(expr, subs, got) -> bool:
    num, den = (sympy.expand(e.xreplace(subs)) for e in expr)
    return den != 0 and sympy.expand(sympy_value(got) * den - num) == 0


def check_whole_jacobian(m, point, coords, exprs=None, subs=None) -> set:
    '''The Jacobian at coords (Instance.at(coords).jacobian) against
    m.jacobian()[i][j].assign(point).eval(coords), entry by entry, and,
    given exprs and subs, against sympy's derivatives of the right-hand
    sides. When every entry has a value and the values share one radicand,
    the rows are equal; otherwise the Jacobian raises one of the errors
    the entries raise, or MixedExtensions when their values hold two
    radicands. Returns those errors.'''
    n = len(m.variables)
    want = [[outcome(lambda: m.jacobian()[i][j].assign(point).eval(coords)) for j in range(n)]
            for i in range(n)]
    values = [x for row in want for x in row]
    errors = {x for x in values if isinstance(x, type)}
    if len({x.d for x in values if not isinstance(x, type) and x.b}) > 1:
        errors.add(MixedExtensions)
    got = outcome(m.at(point).at(coords).jacobian)
    if errors:
        assert got in errors
    else:
        assert got == want
        if exprs is not None:
            assert all(sympy_agrees(exprs["jac", i, j], subs, got[i][j])
                       for i in range(n) for j in range(n))
    return errors


def check_each_reaction(m, point, coords, exprs=None, subs=None) -> set:
    '''Gamma D over each reaction k alone (pairs(reactions={k})) against
    the net change of each variable times the derivatives of k's rate,
    each assigned at point and evaluated at coords, and, given exprs and
    subs, against sympy's derivatives of the rate. The errors are those of
    check_whole_jacobian, over the derivatives of k's rate. Returns them.'''
    n, found = len(m.variables), set()
    for k, r in enumerate(m.network().reactions):
        drates = [outcome(lambda: r.rate.assign(point).derivative(w).eval(coords))
                  for w in m.variables]
        net = {m.var_index(v): g for v, g in r.net().items()}
        errors = {x for x in drates if isinstance(x, type)} if net else set()
        if len({x.d for x in drates if not isinstance(x, type) and x.b}) > 1 and net:
            errors.add(MixedExtensions)
        got = outcome(lambda: m.at(point).at(coords).pairs(reactions={k}).scalars())
        if errors:
            assert got in errors, k
        else:
            assert got == [[drates[j] * exact(net[i]) if i in net else exact(0)
                            for j in range(n)] for i in range(n)], k
            if exprs is not None:
                assert all(sympy_agrees(exprs["drate", k, w], subs, drates[j])
                           for j, w in enumerate(m.variables)), k
        found |= errors
    return found


@st.composite
def points(draw, m):
    return {p: draw(positive) for p in m.parameters}


@st.composite
def coordinates(draw, m, radicands=(1,)):
    '''Each coordinate a + b sqrt(d), d drawn from radicands (1: rational).'''
    out = {}
    for v in m.variables:
        d = draw(st.sampled_from(radicands))
        b = draw(fractions) if d > 1 else 0
        out[v] = ExactScalar(draw(fractions), Fraction(b), d) if b else exact(draw(fractions))
    return out


@pytest.mark.parametrize("radicand", [1, 13])
@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=10)
@given(data=st.data())
def test_entries_match_assign_and_sympy(name, radicand, data):
    m = builtin_model(name)
    point = data.draw(points(m))
    coords = data.draw(coordinates(m, (1, radicand)))
    inst = m.at(point)
    syms, exprs = sympy_entries(m)
    subs = {syms[k]: sympy_value(x) for k, x in list(point.items()) + list(coords.items())}
    for key, old in entries(m):
        want = outcome(lambda: old(point).eval(coords))
        got = outcome(lambda: new_value(inst, key, coords))
        assert got == want, key
        if isinstance(got, ExactScalar):
            assert got.b == 0 or got.d == radicand
            assert sympy_agrees(exprs[key], subs, got), key
    check_whole_jacobian(m, point, coords, exprs, subs)
    check_each_reaction(m, point, coords, exprs, subs)


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=20)
@given(data=st.data())
def test_vanishing_denominators_and_two_radicands_raise_alike(name, data):
    m = builtin_model(name)
    point = data.draw(points(m))
    inst = m.at(point)
    # B1*eps1 + alpha1*U + 1 = 0: S1's denominator vanishes
    coords = data.draw(coordinates(m, (1, 13)))
    coords["U"] = -(1 + exact(point["eps1"]) * coords["B1"]) / exact(point["alpha1"])
    mixed = data.draw(coordinates(m, (2, 13)))
    mixed["B1"] = ExactScalar(mixed["B1"].a, Fraction(1), 2)
    mixed["U"] = ExactScalar(mixed["U"].a, Fraction(-1, 3), 13)
    raised = set()
    for c in (coords, mixed):
        for key, old in entries(m):
            want = outcome(lambda: old(point).eval(c))
            assert outcome(lambda: new_value(inst, key, c)) == want, key
            if isinstance(want, type):
                raised.add(want)
        residuals = [outcome(lambda: old(point).eval(c))
                     for key, old in entries(m) if key[0] == "rhs"]
        assert outcome(inst.at(c).is_equilibrium) == old_verdict(residuals)
        raised |= check_whole_jacobian(m, point, c) | check_each_reaction(m, point, c)
    assert raised == {DenominatorZero, MixedExtensions}
    with pytest.raises(DenominatorZero):
        inst.at(coords).jacobian()


@pytest.mark.parametrize("name", MODELS)
def test_closed_form_equilibria_are_equilibria(name):
    m = builtin_model(name)
    point = {p: Fraction(k % 7 + 1, k % 3 + 1) for k, p in enumerate(m.parameters)}
    seen = 0
    for eq in ("gOSN", "RFE", "E1", "E2", "EE", "OSND", "DFE"):
        try:
            e = closed_form_oracle(m, eq, point)
        except CrnRelayError:
            continue
        ev = m.at(point).at(e.coords)
        assert ev.is_equilibrium(), eq
        seen += 1
        moved = dict(e.coords, x1=e.coords["x1"] + 1)
        assert not m.at(point).at(moved).is_equilibrium()
    assert seen >= 3


# ---------------------------------------------------------------------------
# blocks evaluated alone, and the coordinate vector an equilibrium keeps
# ---------------------------------------------------------------------------

def _block_matches_the_kept_jacobian(m, point, coords, idx):
    '''pairs(idx) on a fresh model, before its Jacobian at coords is kept,
    against the same rows and columns of the kept Jacobian, entry by entry.'''
    ev = m.at(point).at(coords)
    assert (ev.key,) not in kept(m.at(point), "jacobian")
    block = ev.pairs(idx)
    assert (ev.key,) not in kept(m.at(point), "jacobian")   # a block alone is not kept
    whole = submatrix(ev.pairs(), idx, idx)
    assert len(block) == len(idx)
    assert all(block.entry(k, l) == whole.entry(k, l) ==
               m.jacobian()[i][j].assign(point).eval(coords)
               for k, i in enumerate(idx) for l, j in enumerate(idx))
    assert ev.pairs(idx).scalars() == whole.scalars()


@pytest.mark.parametrize("text", [OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT], ids=MODELS)
@settings(max_examples=10)
@given(data=st.data())
def test_a_block_evaluated_alone_is_the_block_of_the_whole_jacobian(text, data):
    m = parse_model_text(text)
    coords = data.draw(coordinates(m, (1, 13)))
    # positive U, B1 and B2 keep every denominator positive
    coords.update({v: (x if x.sign() > 0 else -x) + 1
                   for v, x in coords.items() if v in ("U", "B1", "B2")})
    idx = data.draw(st.lists(st.integers(0, len(m.variables) - 1), unique=True, min_size=1))
    _block_matches_the_kept_jacobian(m, data.draw(points(m)), coords, idx)


@settings(max_examples=25)
@given(data=st.data(), text=mass_action_files())
def test_a_block_of_a_mass_action_file_evaluated_alone_is_the_block_of_the_whole(data, text):
    m = parse_model_text(text)
    coords = data.draw(coordinates(m, (1, 2)))
    idx = data.draw(st.lists(st.integers(0, len(m.variables) - 1), unique=True, min_size=1))
    _block_matches_the_kept_jacobian(m, data.draw(points(m)), coords, idx)


def test_an_equilibrium_keeps_its_vector_for_its_variables_only():
    a = parse_model_text(OSN_OMEGA0_TEXT)
    point = {p: Fraction(k % 5 + 1, k % 3 + 1) for k, p in enumerate(a.parameters)}
    e = next(e for face in a.lattice().nodes for e in face_equilibria(a, face, point)
             if e.is_decided and any(not c.is_zero for c in e.coords.values()))
    variables, x = e.vector
    assert variables == a.variables
    assert a.at(point).at(e)._coords is x
    assert a.at(point).at(e).key == a.at(point).at(dict(e.coords)).key
    # the same model with its variables in another order reads the coordinates afresh
    line = "variables: " + " ".join(a.variables)
    b = parse_model_text(OSN_OMEGA0_TEXT.replace(line, "variables: " + " ".join(a.variables[::-1])))
    assert b.variables == a.variables[::-1]
    ev = b.at(point).at(e)
    assert ev._coords is not x
    assert ev.key == b.at(point).at(dict(e.coords)).key != a.at(point).at(e).key
    assert ev.jacobian() == b.at(point).at(dict(e.coords)).jacobian()


def test_two_radicands_are_refused_only_in_the_entries_asked_for():
    m = parse_model_text(OSN_OMEGA0_TEXT)
    coords = {v: exact(1) for v in m.variables}
    coords["B1"] = ExactScalar(Fraction(1), Fraction(1), 2)
    coords["W"] = ExactScalar(Fraction(1), Fraction(1), 13)
    ev = m.at().at(coords)
    x1 = m.var_index("x1")
    assert ev.pairs([x1]).scalars() == [[-exact(m.values["mu"]) - exact(m.values["beta"])]]
    with pytest.raises(MixedExtensions):
        ev.pairs()
    with pytest.raises(MixedExtensions):
        ev.pairs([m.var_index(v) for v in ("S1", "U", "W")])


# -- verification: one pass over every right-hand side -----------------------

def per_rhs_verdict(inst, coords):
    '''The candidate check one right-hand side at a time, each by Folded.at:
    the first that does not vanish, or whose denominator does, decides;
    DenominatorZero from a right-hand side undefined at the point and
    MixedExtensions escape.'''
    x = PairVector([coords[v] for v in inst.model.variables])
    for v in inst.model.variables:
        f = inst.fold(("rhs", v))
        if f is None:
            continue
        try:
            if f.at(x)[:2] != (0, 0):
                return False
        except DenominatorZero:
            return False
    return True


# x' has a denominator that vanishes on x + y = 2; u' a numerator and a
# denominator in two variables, so u = 1 + sqrt(2), w = sqrt(3) holds two
# radicands in one quotient; w' is undefined at every state when b = 0.
VERIFY = """\
model verify
variables: x y u w
parameters: a b
equations:
    x' = a*x*(y - 1)/(x + y - 2)
    y' = a - y
    u' = (u - 1)/(w + 1)
    w' = (w - 2)/(b*w + b)
values:
    a = 1
    b = 1
"""

SQRT2, SQRT3 = ExactScalar(Fraction(0), Fraction(1), 2), ExactScalar(Fraction(0), Fraction(1), 3)
near_zero = st.sampled_from([exact(0), exact(1), exact(2), exact(Fraction(-1, 3)),
                             exact(1) + SQRT2, SQRT2, SQRT3, exact(2) - SQRT3])


@settings(max_examples=200)
@given(values=st.lists(near_zero, min_size=4, max_size=4), b=st.sampled_from([0, 1]))
def test_one_verification_pass_agrees_with_each_right_hand_side(values, b):
    m = parse_model_text(VERIFY)
    inst = m.at({"b": b})
    coords = dict(zip(m.variables, values))
    want = outcome(lambda: per_rhs_verdict(inst, coords))
    assert outcome(inst.at(coords).is_equilibrium) == want


@pytest.mark.parametrize("coords, b, want", [
    ({"x": 0, "y": 1, "u": 1, "w": 2}, 1, True),
    ({"x": 1, "y": 1, "u": 1, "w": 2}, 1, False),   # x's denominator vanishes
    ({"x": 0, "y": 3, "u": 1, "w": 2}, 1, False),   # y's numerator does not
    ({"x": 0, "y": 1, "u": exact(1) + SQRT2, "w": SQRT3}, 1, MixedExtensions),
    ({"x": 0, "y": 1, "u": exact(1) + SQRT2, "w": 0}, 1, False),
    ({"x": 0, "y": 1, "u": 1, "w": 2}, 0, DenominatorZero),   # w' undefined at b = 0
    ({"x": 0, "y": 2, "u": 1, "w": 2}, 0, False),   # decided before w'
])
def test_one_verification_pass_known_cases(coords, b, want):
    m = parse_model_text(VERIFY)
    inst = m.at({"b": b})
    coords = {v: exact(c) for v, c in coords.items()}
    assert outcome(inst.at(coords).is_equilibrium) == want == outcome(
        lambda: per_rhs_verdict(inst, coords))


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=15)
@given(data=st.data())
def test_verification_of_builtins_agrees_with_each_right_hand_side(name, data):
    m = builtin_model(name)
    point = data.draw(points(m))
    inst = m.at(point)
    vectors = [data.draw(coordinates(m, radicands)) for radicands in ((1,), (1, 13), (2, 13))]
    # S1's denominator vanishes; and every equilibrium of two faces
    vectors[0]["U"] = -(1 + exact(point["eps1"]) * vectors[0]["B1"]) / exact(point["alpha1"])
    for face in m.lattice().nodes[:2]:
        vectors += [dict(e.coords) for e in face_equilibria(m, face, point) if e.is_decided]
    for coords in vectors:
        assert outcome(inst.at(coords).is_equilibrium) == outcome(
            lambda: per_rhs_verdict(inst, coords))


# -- rate derivatives: one table per model, folded per point, summed per vector

@pytest.mark.parametrize("text", [OSN_OMEGA0_TEXT, OSN_OMEGA_POS_TEXT])
def test_each_rate_derivative_is_evaluated_once_per_vector(monkeypatch, text):
    """Over one sweep op (relay_graph and relay_test_cover of every cover)
    at each of a few sweep points, the rate table is folded once per point
    and summed once per coordinate vector: the Jacobian, its transversal
    blocks and the next-generation F at a resident share one table; and
    Instance.fold folds right-hand sides only."""
    held, folds, sums, keys = [], Counter(), Counter(), set()
    fold_rates, sum_rates, fold = network._fold_rates, network._sum_rates, Instance.fold

    def counting_fold(inst):
        held.append(inst)   # so that no other Instance takes its id
        folds[id(inst)] += 1
        return fold_rates(inst)

    def counting_sum(inst, x):
        sums[id(inst), x.key] += 1
        return sum_rates(inst, x)

    def recording(self, key):
        keys.add(key[0])
        return fold(self, key)

    monkeypatch.setattr(network, "_fold_rates", counting_fold)
    monkeypatch.setattr(network, "_sum_rates", counting_sum)
    monkeypatch.setattr(Instance, "fold", recording)
    m = parse_model_text(text)
    rng = random.Random(3)
    for _ in range(4):
        point = {p: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for p in m.parameters}
        relay_graph(m, point)
        for low, up in m.lattice().covers:
            relay_test_cover(m, up, low, point)
    assert len(folds) == 4 and set(folds.values()) == {1}
    assert sums and set(sums.values()) == {1}
    assert keys == {"rhs"}


def symbolic(m, point, coords, idx, reactions=None):
    '''Gamma D over reactions (None: the Jacobian) on the rows and columns
    idx at coords, from the symbolic forms alone: the entries of
    m.jacobian(), or the net changes times the derivatives of the rates of
    reactions, each assigned at point (RatFunc.assign) and evaluated at
    coords (RatFunc.eval).'''
    if reactions is None:
        return [[m.jacobian()[i][j].assign(point).eval(coords) for j in idx] for i in idx]
    rs, names = m.network().reactions, m.variables
    return [[sum((rs[k].rate.assign(point).derivative(names[j]).eval(coords)
                  * exact(rs[k].net().get(names[i], 0)) for k in reactions), exact(0))
             for j in idx] for i in idx]


def check_table(m, point, coords, data):
    '''The Jacobian, a drawn block and F over a drawn set of reactions on
    that block, at coords, against their symbolic evaluation.'''
    n = len(m.variables)
    idx = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    n_reactions = len(m.network().reactions)
    mask = data.draw(st.lists(st.booleans(), min_size=n_reactions, max_size=n_reactions))
    reactions = {k for k, chosen in enumerate(mask) if chosen}
    ev = m.at(point).at(coords)
    assert ev.pairs(idx).scalars() == symbolic(m, point, coords, idx)   # evaluated alone
    assert ev.jacobian() == symbolic(m, point, coords, range(n))
    assert ev.pairs(idx).scalars() == symbolic(m, point, coords, idx)   # from the kept one
    assert ev.pairs(idx, reactions).scalars() == symbolic(m, point, coords, idx, reactions)


@settings(max_examples=40)
@given(data=st.data(), text=mass_action_files())
def test_the_rate_table_of_a_mass_action_file_matches_the_symbolic_jacobian(data, text):
    m = parse_model_text(text)
    point = data.draw(positive_points(m.parameters))
    coords = data.draw(coordinates(m, (1, 2)))
    check_table(m, point, coords, data)


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=10)
@given(data=st.data())
def test_the_rate_table_of_a_builtin_matches_the_symbolic_jacobian_at_its_equilibria(name, data):
    """At each closed-form equilibrium of a positive point, QuadraticRUR
    ones included: the coordinates are those of closed_form_oracle, read
    as a mapping and as the equilibrium's vector."""
    m = parse_model_text(OSN_OMEGA0_TEXT if name == "osn_omega0" else OSN_OMEGA_POS_TEXT)
    point = data.draw(positive_points(m.parameters))
    seen = set()
    for eq in ("gOSN", "RFE", "E1", "E2", "EE", "OSND", "DFE"):
        try:
            e = closed_form_oracle(m, eq, point)
        except CrnRelayError:
            continue
        seen.add(e.classification)
        check_table(m, point, dict(e.coords), data)
    assert "Rational" in seen


def test_the_rate_table_of_a_builtin_covers_a_quadratic_equilibrium():
    m = builtin_model("osn_omega_pos")
    point = dict(zip(m.parameters, map(Fraction, (3, 5, 2, 2, 4, 8, "7/4", "1/4", "5/2", "2/3",
                                                  1, 1, "7/2", 7, "9/2", 2))))
    e = closed_form_oracle(m, "EE", point)
    assert e.classification == "QuadraticRUR"
    n = len(m.variables)
    assert m.at(point).at(e).jacobian() == symbolic(m, point, dict(e.coords), range(n))


# x' has a rate undefined where y = 1, its derivative in y also holding x;
# z' has one undefined at every state when b = 0.
UNDEFINED = """\
model undefined
variables: x y z
parameters: a b
equations:
    x' = a*x/(y - 1) - x
    y' = 1 - y
    z' = z/(b*x + b) - z
values:
    a = 1
    b = 1
"""


@pytest.mark.parametrize("b, coords, block, want", [
    # undefined at the point: only a block that asks for z's column
    (0, (1, 2, 1), [0], None), (0, (1, 2, 1), [0, 1], None),
    (0, (1, 2, 1), [2], DenominatorZero), (0, (1, 2, 1), [0, 2], DenominatorZero),
    (0, (1, 2, 1), None, DenominatorZero),
    # undefined at the vector: only a block that asks for x's rate
    (1, (1, 1, 1), [1], None), (1, (1, 1, 1), [2], None), (1, (1, 1, 1), [1, 2], None),
    (1, (1, 1, 1), [0], DenominatorZero), (1, (1, 1, 1), None, DenominatorZero),
    # x = sqrt(2), y = 2 + sqrt(3): only the (x, y) cell holds two radicands
    (1, (SQRT2, exact(2) + SQRT3, 1), [0], None), (1, (SQRT2, exact(2) + SQRT3, 1), [1], None),
    (1, (SQRT2, exact(2) + SQRT3, 1), [0, 1], MixedExtensions),
    (1, (SQRT2, exact(2) + SQRT3, 1), None, MixedExtensions),
    # both: the first cell asked for decides, in row order
    (0, (SQRT2, exact(2) + SQRT3, 1), None, MixedExtensions),
    (0, (SQRT2, exact(2) + SQRT3, 1), [2, 0, 1], DenominatorZero),
])
def test_a_derivative_is_refused_only_when_it_is_asked_for(b, coords, block, want):
    m = parse_model_text(UNDEFINED)
    point = {"a": 1, "b": b}
    coords = dict(zip(m.variables, map(exact, coords)))
    ev = m.at(point).at(coords)
    got = outcome(lambda: ev.pairs(block))
    if want is None:
        idx = block or range(3)
        assert got.scalars() == symbolic(m, point, coords, idx)
    else:
        assert got is want
    # the reactions of y' and z' alone never ask for x's rate
    rates = {k for k, r in enumerate(m.network().reactions) if "x" not in dict(r.reactants)
             or r.rate.den.is_constant}
    F = outcome(lambda: ev.pairs([1], rates))
    assert not isinstance(F, type)
