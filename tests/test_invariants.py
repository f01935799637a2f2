"""Exactness and module-boundary guards.

The package computes with rationals and one adjoined square root only, and
depends on nothing outside the standard library. Every module under
src/crnrelay/ is parsed, not imported, and searched for float literals,
calls to float(...), uses of math outside its integer functions (as
math.<name> or through from math import) and imports of third-party
packages. The one permitted float() and math.sqrt are in
ExactScalar.__float__, which exists for output.

No module imports a leading-underscore name from another crnrelay module,
nor reads or writes a leading-underscore attribute or method that only
another crnrelay module defines: a helper that two modules need is public
in one of them, so each concept keeps one implementation behind one name.

Parameters are instantiated and polynomials evaluated in one way,
poly.Split and poly.Folded: no module but poly.py calls a method named eval
or assign (MultiPoly.eval, RatFunc.eval and the assign substitutions stay
for tests to check that way against).

Coordinates are read in one place, Instance.at, which takes a mapping or a
FaceEquilibrium: no module asks hasattr(..., "coords") to tell them apart.

A square root is taken in one quadratic formula: square_free_split is called
only by scalars.quadratic_roots, which every root of a quadratic comes from,
by sqrt_fraction and by the check that a radicand is square-free. Real roots
are split in one place: quadratic_roots is called only by
linalg.integer_roots, the one root splitter, and by linalg.quad_solve;
integer_roots only by the face solver's terminals and by
linalg.char_abscissa, the one reading of characteristic roots; and
char_abscissa only by the three decisions that read them, the abscissa of
a non-Metzler block, the spectral radius of a next-generation split, and
the strict relay test's rational abscissa. No decision builds a
characteristic polynomial: no module but linalg calls char_poly or
hurwitz_test.

A univariate polynomial is made primitive, and reduced by a gcd, in one
place, poly.primitive_gcd, on dense integer coefficients: its callers are
the face terminals (_Terminal.coefficients), the univariate cancellation of
a RatFunc (poly._light_cancel), linalg.char_abscissa and linalg.quad_solve,
and no module but poly.py defines a function whose name contains gcd.

The next-generation split M = F - V is built in one function: NgmSplit(...)
is called in exactly one function under src/crnrelay/, and ngm_split reads
the split of the invasion report. Equilibrium names are derived, not
assigned: no module reads or writes an attribute named namer (a model's
names come from models.equilibrium_namer).

Polynomials are built through their ring: MultiPoly(...), the public
constructor that takes exponent tuples over any names, is called only in
poly.py. Every other module builds a model's polynomials in the model's
ring (Ring.var, Ring.term, Ring.from_monomials and arithmetic), so that + and *
never move terms from one ring into another.

Memoised results are immutable and handed out as stored: the invasion and
screen reports, the symbolic Jacobian and the face equilibria hold tuples
and read-only mappings, so a memo hit copies nothing. No module imports
replace from dataclasses or calls dataclasses.replace, the copy a mutable
report would need.

What is computed once is kept by one rule: a model keeps the facts of its
symbolic form, a parameter point (Instance) those of the point, each through
Kept.kept(key, build, *args) in its one table _cache. Only network.py, where
the rule lives, reads or writes an attribute named _cache. No module has a
global statement, and no module binds a mutable container (a list, dict or
set display or comprehension, or a call of dict, list, set, bytearray,
defaultdict, OrderedDict, Counter or deque) at module level, except the two
tables in MUTABLE_ALLOWED: the one Ring of each tuple of names that
polynomial arithmetic compares by identity (poly._RINGS), and the
subcommand table that callers wrap in place (cli._COMMANDS).

A Jacobian or any other matrix is split into strongly connected blocks
by one function, linalg.strong_blocks: no other function under
src/crnrelay/ is named like such a splitter (scc, strong, tarjan,
kosaraju) or says in its docstring that it gives strongly connected
components, and its callers are linalg's characteristic pairs per block
(char_blocks, for the stability tests and the rank-one report) and the
screen's dependency blocks.

The rank-one report runs no elimination: rank_one_bound and its core
_rank_one call none of det, adjugate_column, _bareiss or _solve_pairs, and
read the determinant identity and dc gain from Berkowitz's pairs. Those
pairs come from linalg._char_pairs, called only by char_poly, char_blocks
and char_abscissa. char_blocks is called, or handed on to be called, on a
fixed set of matrices (CHAR_BLOCKS_USES): a Jacobian at a point and
coordinate vector is split once, kept by _jacobian_blocks for las_test and
the rank-one reports there, and the rank-one core splits only A.

Each linear-algebra result has one route: the Bareiss elimination
(linalg._bareiss) is called only by the determinant (_det_pair), the
leading minors (_leading_pairs), the pivot count that decides whether a
Z-matrix is a nonsingular M-matrix (_positive_pivots, for metzler_sign and
leading_solve) and inverse, and its back substitution (_solve_pairs) only
by the one right-hand solve (_solution) that inverse and leading_solve
share (ELIMINATION_CALLERS).

Rate derivatives are taken, folded and summed by one table, built once
per model: a rate's derivative is taken only in network._rate_table, the
table is folded at a point only by network._fold_rates and summed at a
coordinate vector only by network._sum_rates, each reached only from the
functions RATE_TABLE_USES names, and derivatives are taken elsewhere only
for the symbolic Jacobian, the oscillation screen and the quotient rule.
No module names a ("drate", ...) key, and every key Instance.fold is
given as a tuple display is a right-hand side's ("rhs", var).

A report field is made on first read by one descriptor, scalars.OnRead: no
other class under src/crnrelay/ defines __get__ (by def, assignment or
setattr), so every field made on read keeps one rule for when it is made
and how ==, hash and repr read it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crnrelay"
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_ALLOWED = {("scalars.py", "ExactScalar.__float__")}
MATH_ALLOWED = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod"}


def _scoped_nodes(tree):
    '''Yield (qualified enclosing def/class name, node) for every node.'''
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            stack.append((inner, child))


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for scope, node in _scoped_nodes(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"
              and (path.name, scope) not in FLOAT_ALLOWED):
            found.append(f"{where}: float(...) call in {scope or 'module scope'}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED
              and not (node.attr == "sqrt" and (path.name, scope) in FLOAT_ALLOWED)):
            found.append(f"{where}: math.{node.attr} in {scope or 'module scope'}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "crnrelay":
                    found.append(f"{where}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = (node.module or "").split(".")[0]
            if top not in sys.stdlib_module_names and top != "crnrelay":
                found.append(f"{where}: from {node.module} import ...")
            elif node.module == "math":
                found.extend(f"{where}: from math import {alias.name}"
                             for alias in node.names if alias.name not in MATH_ALLOWED)
    return found


def test_package_modules_found():
    assert PACKAGE / "scalars.py" in MODULES
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    assert _violations(path) == []


def test_guard_catches_each_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy\n"
        "from sympy import Rational\n"
        "from . import poly\n"
        "import math\n"
        "from math import gcd, floor\n"
        "x = 0.5\n"
        "def f(y):\n"
        "    return float(y)\n"
        "def g(n):\n"
        "    return math.log(n) + math.isqrt(n) + math.prod([n, gcd(n, 2)])\n"
        "class ExactScalar:\n"
        "    def __float__(self):\n"
        "        return float(1) + math.sqrt(2)\n",
        encoding="utf-8")
    found = _violations(bad)
    assert any("import numpy" in f for f in found)
    assert any("from sympy" in f for f in found)
    assert any("float literal 0.5" in f for f in found)
    assert any("float(...) call in f" in f for f in found)
    assert any("from math import floor" in f for f in found)
    assert any("math.log in g" in f for f in found)
    # the output-only exemptions are tied to scalars.py
    assert any("float(...) call in ExactScalar.__float__" in f for f in found)
    assert any("math.sqrt in ExactScalar.__float__" in f for f in found)
    assert len(found) == 8


def _private_imports(path: Path) -> list[str]:
    '''Imports of leading-underscore names from crnrelay modules.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "crnrelay":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: from "
                             f"{'.' * node.level}{module} import {alias.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert _private_imports(path) == []


def test_private_import_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "from fractions import _gcd\n"
        "from .equilibria import FaceEquilibrium, _deflate\n"
        "from . import _scc\n"
        "from crnrelay.scalars import _factorize\n"
        "def f():\n"
        "    from .stability import _perron_root\n",
        encoding="utf-8")
    found = _private_imports(bad)
    assert [f.split(": ", 1)[1] for f in found] == [
        "from .equilibria import _deflate",
        "from . import _scc",
        "from crnrelay.scalars import _factorize",
        "from .stability import _perron_root",
    ]


def _private_definitions(path: Path) -> set[str]:
    '''The leading-underscore names a module defines as attributes: its
    functions, classes and methods, the names bound at module or class
    level, the names in __slots__, and the attributes it assigns on self.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    bodies = [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return {n for n in names if isinstance(n, str) and n.startswith("_") and not n.endswith("__")}


def _foreign_private_uses(paths) -> list[str]:
    '''Reads and writes of a leading-underscore attribute (x._name, not a
    dunder) that the module does not define and another of paths does.'''
    defined = {path: _private_definitions(path) for path in paths}
    found = []
    for path in paths:
        others = set().union(*(d for p, d in defined.items() if p != path)) - defined[path]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses = sorted((node.lineno, node.col_offset, node.attr) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in others)
        found += [f"{path.name}:{line}: .{attr}" for line, _, attr in uses]
    return found


def test_no_module_uses_a_private_attribute_of_another():
    assert _foreign_private_uses(MODULES) == []


def test_private_attribute_guard_catches_each_form(tmp_path):
    owner, reader = tmp_path / "owner.py", tmp_path / "reader.py"
    owner.write_text(
        "_TABLE = {}\n"
        "def _helper():\n"
        "    return 1\n"
        "class Point:\n"
        "    __slots__ = ('_x', 'y')\n"
        "    _kind: str = 'point'\n"
        "    def __init__(self):\n"
        "        self._x, self.y = 0, 0\n"
        "        self._table = {}\n"
        "    def _fold(self, key):\n"
        "        return self._table.get(key)\n",
        encoding="utf-8")
    reader.write_text(
        "from . import owner\n"
        "def _shared():\n"
        "    return 0\n"
        "def f(p, parser):\n"
        "    a = p._fold(1) + p._x + p._table + p._kind + owner._helper() + owner._TABLE\n"
        "    p._x = a\n"
        "    return p.y, p.__dict__, parser._actions, p._own, owner._shared, a\n"
        "class Own:\n"
        "    def _own(self):\n"
        "        return self._own\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text("def _shared():\n    return 1\n", encoding="utf-8")
    paths = [owner, reader, tmp_path / "other.py"]
    assert [f.split(": ", 1)[1] for f in _foreign_private_uses(paths)] == [
        "._fold", "._x", "._table", "._kind", "._helper", "._TABLE", "._x"]


def _evaluator_calls(path: Path) -> list[str]:
    '''Calls of a method named eval or assign.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: .{node.func.attr}(...)" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("eval", "assign")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_module_evaluates_only_through_split_and_fold(path):
    assert _evaluator_calls(path) == []


def test_evaluator_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(p, r, point, node):\n"
        "    a = p.eval(point)\n"
        "    b = r.num.assign(point).eval({})\n"
        "    c = node.evaluate(point) + eval('1')\n"
        "    return p.assign\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _evaluator_calls(bad)] == [
        ".eval(...)", ".eval(...)", ".assign(...)"]


def _coords_probes(path: Path) -> list[str]:
    '''Calls hasattr(x, "coords").'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: hasattr(..., 'coords')" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "hasattr" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "coords"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_coordinates_only_through_instance_at(path):
    assert _coords_probes(path) == []


def test_coords_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(e):\n"
        "    coords = e.coords if hasattr(e, 'coords') else e\n"
        "    return hasattr(e, \"coords\") or hasattr(e, 'name') or getattr(e, 'coords')\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _coords_probes(bad)] == [
        "hasattr(..., 'coords')", "hasattr(..., 'coords')"]


def _split_builders(paths) -> list[str]:
    '''The functions that call NgmSplit(...), as "module.py:function".'''
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in _scoped_nodes(tree):
            if isinstance(node, ast.Call) and "NgmSplit" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(f"{path.name}:{scope or 'module scope'}")
    return sorted(found)


def test_one_function_builds_the_next_generation_split():
    assert len(_split_builders(MODULES)) == 1, _split_builders(MODULES)


def test_split_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import stability\n"
        "from .stability import NgmSplit\n"
        "def split(F, V):\n"
        "    return NgmSplit((), F, V, True)\n"
        "class Other:\n"
        "    def split(self, F, V):\n"
        "        a = stability.NgmSplit((), F, V, False)\n"
        "        return NgmSplit((), F, V, True) if a else NgmSplit\n",
        encoding="utf-8")
    assert _split_builders([bad]) == ["bad.py:Other.split", "bad.py:split"]


SQUARE_FREE_ALLOWED = {"scalars.py:sqrt_fraction", "scalars.py:_square_free",
                       "scalars.py:quadratic_roots"}


def _callers(paths, name: str) -> list[str]:
    '''The functions that call the function name, by its name, as an
    attribute, under a name it is imported as, or through getattr, as
    "module.py:function".'''
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {name} | {
            alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == name and alias.asname}
        for scope, node in _scoped_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (getattr(f, "id", None) in names or getattr(f, "attr", None) == name
                    or (getattr(f, "id", None) == "getattr" and len(node.args) >= 2
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == name)):
                found.add(f"{path.name}:{scope or 'module scope'}")
    return sorted(found)


def test_one_quadratic_formula_takes_square_roots():
    assert set(_callers(MODULES, "square_free_split")) == SQUARE_FREE_ALLOWED


def test_square_root_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import scalars\n"
        "from .scalars import square_free_split, square_free_split as split\n"
        "def roots(disc):\n"
        "    return square_free_split(disc)\n"
        "class Other:\n"
        "    def roots(self, disc):\n"
        "        return scalars.square_free_split(disc), split(disc)\n"
        "    def more(self, disc):\n"
        "        return getattr(scalars, 'square_free_split')(disc)\n"
        "def passes(disc):\n"
        "    return square_free_split, scalars.factorize(disc)\n"
        "s, d = split(8)\n",
        encoding="utf-8")
    assert _callers([bad], "square_free_split") == ["bad.py:Other.more", "bad.py:Other.roots",
                                                    "bad.py:module scope", "bad.py:roots"]


QUADRATIC_ALLOWED = {"linalg.py:integer_roots", "linalg.py:quad_solve"}
SPLITTER_CALLERS = {"equilibria.py:_Terminal.evaluate", "linalg.py:char_abscissa"}
ABSCISSA_CALLERS = {"stability.py:_abscissa_by_roots", "stability.py:_ngm_radius",
                    "relay.py:_rational_abscissa"}


def _root_finders(paths) -> list[str]:
    '''The calls that find roots past the one splitter, as "module.py:
    function: name": each caller of quadratic_roots but those in
    QUADRATIC_ALLOWED, of integer_roots but those in SPLITTER_CALLERS, and
    of char_abscissa but those in ABSCISSA_CALLERS.'''
    return [f"{c}: {name}"
            for name, allowed in (("quadratic_roots", QUADRATIC_ALLOWED),
                                  ("integer_roots", SPLITTER_CALLERS),
                                  ("char_abscissa", ABSCISSA_CALLERS))
            for c in _callers(paths, name) if c not in allowed]


def test_one_root_splitter_finds_every_root():
    assert set(_callers(MODULES, "quadratic_roots")) == QUADRATIC_ALLOWED
    assert set(_callers(MODULES, "integer_roots")) == SPLITTER_CALLERS
    assert set(_callers(MODULES, "char_abscissa")) == ABSCISSA_CALLERS
    assert _root_finders(MODULES) == []


def test_root_splitter_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg, scalars\n"
        "from .linalg import char_abscissa as roots_of\n"
        "from .scalars import quadratic_roots\n"
        "def terminal(c):\n"
        "    return quadratic_roots(*c), roots_of(c)\n"
        "class Other:\n"
        "    def abscissa(self, m):\n"
        "        return linalg.char_abscissa(m), scalars.quadratic_roots(1, 2, 3)\n"
        "    def more(self, f):\n"
        "        return getattr(linalg, 'integer_roots')(f)\n"
        "def passes(f):\n"
        "    return linalg.integer_roots, char_abscissa_of(f), quadratic_roots\n",
        encoding="utf-8")
    linalg = tmp_path / "linalg.py"
    linalg.write_text(
        "from .scalars import quadratic_roots\n"
        "def integer_roots(f):\n"
        "    return quadratic_roots(*f)\n"
        "def char_abscissa(m):\n"
        "    return integer_roots(m)\n"
        "def real_roots(p):\n"
        "    return integer_roots(p), char_abscissa(p)\n"
        "def second_formula(c):\n"
        "    return quadratic_roots(*c)\n",
        encoding="utf-8")
    assert _root_finders([bad, linalg]) == [
        "bad.py:Other.abscissa: quadratic_roots", "bad.py:terminal: quadratic_roots",
        "linalg.py:second_formula: quadratic_roots", "bad.py:Other.more: integer_roots",
        "linalg.py:real_roots: integer_roots", "bad.py:Other.abscissa: char_abscissa",
        "bad.py:terminal: char_abscissa", "linalg.py:real_roots: char_abscissa"]


GCD_CALLERS = {"equilibria.py:_Terminal.coefficients", "poly.py:_light_cancel",
               "linalg.py:char_abscissa", "linalg.py:quad_solve"}


def _gcd_functions(paths) -> list[str]:
    '''The functions, methods and nested functions outside poly.py whose
    name contains gcd, in any case, as "module.py:function".'''
    found = set()
    for path in paths:
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(f"{path.name}:{scope}" for scope, node in _scoped_nodes(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and "gcd" in node.name.lower())
    return sorted(found)


def test_one_univariate_gcd_makes_polynomials_primitive():
    assert set(_callers(MODULES, "primitive_gcd")) == GCD_CALLERS
    assert _gcd_functions(MODULES) == []


def test_gcd_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import math\n"
        "from . import poly\n"
        "from .poly import primitive_gcd as reduced\n"
        "def dense_gcd(a, b):\n"
        "    return reduced(a, b)\n"
        "class Other:\n"
        "    def gcd(self, f):\n"
        "        return poly.primitive_gcd(f)\n"
        "    def more(self, f):\n"
        "        return getattr(poly, 'primitive_gcd')(f)\n"
        "def outer():\n"
        "    def _GCD(f):\n"
        "        return f\n"
        "    return _GCD\n"
        "async def gcd_of(f):\n"
        "    return f\n"
        "def passes(f):\n"
        "    return poly.primitive_gcd, math.gcd(*f), primitive_gcd_of(f)\n",
        encoding="utf-8")
    poly = tmp_path / "poly.py"
    poly.write_text(
        "def primitive_gcd(*fs):\n"
        "    return []\n"
        "def _light_cancel(n, d):\n"
        "    return primitive_gcd(n, d)\n",
        encoding="utf-8")
    assert _gcd_functions([bad, poly]) == ["bad.py:Other.gcd", "bad.py:dense_gcd",
                                           "bad.py:gcd_of", "bad.py:outer._GCD"]
    assert _callers([bad, poly], "primitive_gcd") == [
        "bad.py:Other.gcd", "bad.py:Other.more", "bad.py:dense_gcd", "poly.py:_light_cancel"]


def _polynomial_builders(paths) -> list[str]:
    '''The calls of char_poly or hurwitz_test outside linalg.py, as
    "module.py:function: name".'''
    return [f"{c}: {name}" for name in ("char_poly", "hurwitz_test")
            for c in _callers(paths, name) if not c.startswith("linalg.py:")]


def test_no_decision_builds_a_characteristic_polynomial():
    assert _polynomial_builders(MODULES) == []


def test_polynomial_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg\n"
        "from .linalg import char_poly, hurwitz_test as classify\n"
        "def verdict(m):\n"
        "    return classify(char_poly(m))\n"
        "class Other:\n"
        "    def verdict(self, m):\n"
        "        return linalg.hurwitz_test(linalg.char_poly(m))\n"
        "    def more(self, m):\n"
        "        return getattr(linalg, 'char_poly')(m)\n"
        "def passes(m):\n"
        "    return linalg.char_hurwitz(m), char_poly, hurwitz_test_of(m)\n",
        encoding="utf-8")
    linalg = tmp_path / "linalg.py"
    linalg.write_text(
        "def char_poly(m):\n"
        "    return m\n"
        "def char_hurwitz(m):\n"
        "    return hurwitz_test(char_poly(m))\n",
        encoding="utf-8")
    assert _polynomial_builders([bad, linalg]) == [
        "bad.py:Other.more: char_poly", "bad.py:Other.verdict: char_poly",
        "bad.py:verdict: char_poly", "bad.py:Other.verdict: hurwitz_test",
        "bad.py:verdict: hurwitz_test"]


SCC_NAME = re.compile(r"scc|strong|tarjan|kosaraju", re.IGNORECASE)
SCC_CALLERS = {"linalg.py:char_blocks", "stability.py:dependency_partition",
               "stability.py:_screen_block"}


def _scc_functions(paths) -> list[str]:
    '''The functions, methods and nested functions that split a graph into
    strongly connected components, as "module.py:function": each whose name
    reads like such a splitter (SCC_NAME) or whose docstring says it gives
    strongly connected components.'''
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in _scoped_nodes(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = (ast.get_docstring(node) or "").lower()
            if SCC_NAME.search(node.name) or "strongly connected component" in " ".join(doc.split()):
                found.add(f"{path.name}:{scope}")
    return sorted(found)


def test_one_function_splits_into_strongly_connected_blocks():
    assert _scc_functions(MODULES) == ["linalg.py:strong_blocks"]
    assert set(_callers(MODULES, "strong_blocks")) == SCC_CALLERS


def test_scc_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .linalg import strong_blocks\n"
        "def _scc(support):\n"
        "    return []\n"
        "class Graph:\n"
        "    def tarjan(self):\n"
        "        return []\n"
        "def blocks(m):\n"
        "    '''The strongly connected\n"
        "    components of m.'''\n"
        "def outer():\n"
        "    def kosaraju(g):\n"
        "        return g\n"
        "    return kosaraju\n"
        "async def strongly_connected(g):\n"
        "    return g\n"
        "def split(m):\n"
        "    '''Split m into strongly connected blocks.'''\n"
        "    return strong_blocks(m)\n",
        encoding="utf-8")
    linalg = tmp_path / "linalg.py"
    linalg.write_text(
        "def strong_blocks(support):\n"
        "    '''The strongly connected components of support.'''\n"
        "    return []\n",
        encoding="utf-8")
    assert _scc_functions([bad, linalg]) == [
        "bad.py:Graph.tarjan", "bad.py:_scc", "bad.py:blocks", "bad.py:outer.kosaraju",
        "bad.py:strongly_connected", "linalg.py:strong_blocks"]
    assert _callers([bad], "strong_blocks") == ["bad.py:split"]


ELIMINATIONS = ("det", "adjugate_column", "_bareiss", "_solve_pairs")
CHAR_PAIRS_CALLERS = {"linalg.py:char_poly", "linalg.py:char_blocks", "linalg.py:char_abscissa"}


def _rank_one_eliminations(paths) -> list[str]:
    '''The calls of an elimination (ELIMINATIONS) in rank_one_bound or its
    core _rank_one or in a function nested in either, as
    "module.py:function: name".'''
    return [f"{c}: {name}" for name in ELIMINATIONS for c in _callers(paths, name)
            if c.split(":", 1)[1].split(".")[0] in ("rank_one_bound", "_rank_one")]


def test_the_rank_one_bound_runs_no_elimination():
    assert _rank_one_eliminations(MODULES) == []
    assert set(_callers(MODULES, "_char_pairs")) == CHAR_PAIRS_CALLERS


def test_rank_one_elimination_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg\n"
        "from .linalg import _bareiss, det as determinant\n"
        "def rank_one_bound(A, u, v, kappa):\n"
        "    def shifted(lam):\n"
        "        return linalg.adjugate_column(A, u)\n"
        "    solve = getattr(linalg, '_solve_pairs')\n"
        "    return determinant(A), _bareiss(A, 1), shifted(1), solve(A, 0, (1, 0), 1)\n"
        "def _rank_one(A, u, v, kappa, left):\n"
        "    return linalg.det(A)\n"
        "def _check(A):\n"
        "    return linalg.det(A), getattr(linalg, '_solve_pairs')(A, 0, (1, 0), 1)\n"
        "class Report:\n"
        "    def rank_one_bound(self, A):\n"
        "        return getattr(linalg, '_solve_pairs')(A, 0, (1, 0), 1)\n"
        "def passes(A):\n"
        "    return linalg.char_blocks(A), linalg.det, determinant_of(A)\n",
        encoding="utf-8")
    assert _rank_one_eliminations([bad]) == [
        "bad.py:_rank_one: det",
        "bad.py:rank_one_bound: det", "bad.py:rank_one_bound.shifted: adjugate_column",
        "bad.py:rank_one_bound: _bareiss", "bad.py:rank_one_bound: _solve_pairs"]
    linalg = tmp_path / "linalg.py"
    linalg.write_text(
        "def _char_pairs(p):\n"
        "    return []\n"
        "def char_blocks(m):\n"
        "    return [([0], _char_pairs(m))]\n"
        "class Kernel:\n"
        "    def pairs(self, m):\n"
        "        return _char_pairs(m)\n",
        encoding="utf-8")
    assert _callers([bad, linalg], "_char_pairs") == ["linalg.py:Kernel.pairs",
                                                      "linalg.py:char_blocks"]


# who may eliminate: the determinant, the leading minors, the pivot count
# of the M-matrix test and the inverse; and who may back-substitute: the one
# right-hand solve that inverse and leading_solve share
ELIMINATION_CALLERS = {
    "_bareiss": ["linalg.py:_det_pair", "linalg.py:_leading_pairs", "linalg.py:_positive_pivots",
                 "linalg.py:inverse"],
    "_solve_pairs": ["linalg.py:_solution"]}


def _elimination_callers(paths) -> dict[str, list[str]]:
    '''The callers of the Bareiss elimination and of its back substitution,
    each as "module.py:function".'''
    return {name: _callers(paths, name) for name in ELIMINATION_CALLERS}


def test_each_linear_algebra_result_has_one_route():
    assert _elimination_callers(MODULES) == ELIMINATION_CALLERS


def test_elimination_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg\n"
        "from .linalg import _bareiss as eliminate, _solve_pairs\n"
        "def det(rows):\n"
        "    return eliminate(rows, 1)\n"
        "class Solver:\n"
        "    def solve(self, m):\n"
        "        def back(c):\n"
        "            return _solve_pairs(m, c, (1, 0), 1)\n"
        "        return linalg._bareiss(m, 1, False), back(1)\n"
        "def inverse(m):\n"
        "    return getattr(linalg, '_solve_pairs')(m, 0, (1, 0), 1)\n"
        "def passes(m):\n"
        "    return linalg._bareiss, _solve_pairs, linalg.det(m)\n",
        encoding="utf-8")
    assert _elimination_callers([bad]) == {
        "_bareiss": ["bad.py:Solver.solve", "bad.py:det"],
        "_solve_pairs": ["bad.py:Solver.solve.back", "bad.py:inverse"]}


CHAR_BLOCKS_USES = {"stability.py:hurwitz_blocks(J)", "stability.py:_jacobian_blocks(J)",
                    "stability.py:_rank_one(A)", "stability.py:rank_one_bound(J)"}


def _char_blocks_uses(paths) -> list[str]:
    '''The calls of char_blocks (by its name, as an attribute, under a name
    it is imported as, or through getattr) and the calls that hand it on
    as an argument, as "module.py:function(matrix)": matrix is the source
    of the argument it is called on, or of the one after it when handed
    on.'''
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {"char_blocks"} | {
            alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "char_blocks" and alias.asname}

        def named(f):
            return (getattr(f, "id", None) in names or getattr(f, "attr", None) == "char_blocks"
                    or (isinstance(f, ast.Call) and getattr(f.func, "id", None) == "getattr"
                        and len(f.args) >= 2 and isinstance(f.args[1], ast.Constant)
                        and f.args[1].value == "char_blocks"))

        for scope, node in _scoped_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            args = node.args
            if named(node.func):
                found.add(f"{path.name}:{scope}({ast.unparse(args[0]) if args else ''})")
            found.update(f"{path.name}:{scope}({ast.unparse(args[k + 1])})"
                         for k, a in enumerate(args[:-1]) if named(a))
    return sorted(found)


def test_a_jacobian_is_split_once_per_point_and_vector():
    '''char_blocks splits a matrix for hurwitz_blocks, a kept Jacobian for
    _jacobian_blocks (las_test and rank_one_coupling_bound read it), A in
    the rank-one core and J = A + kappa e_u e_v^T in the public
    rank_one_bound, and nothing else: the core and the model path run no
    split of J of their own, and no function in the package calls the
    public rank_one_bound, which splits its own J.'''
    assert set(_char_blocks_uses(MODULES)) == CHAR_BLOCKS_USES
    assert _callers(MODULES, "rank_one_bound") == []


def test_char_blocks_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg\n"
        "from .linalg import char_blocks, char_blocks as split\n"
        "def _rank_one(A, u, v, kappa, left):\n"
        "    return char_blocks(A), linalg.char_blocks(A.plus({(u, v): kappa}))\n"
        "def rank_one_model_bound(m, e):\n"
        "    J = jacobian(m, e)\n"
        "    return m.kept(('blocks', e), split, J), getattr(linalg, 'char_blocks')(m)\n"
        "class Report:\n"
        "    def left(self, J):\n"
        "        def inner():\n"
        "            return m.kept('blocks', linalg.char_blocks, J.rows)\n"
        "        return inner()\n"
        "def passes(m):\n"
        "    return linalg.char_poly(m), char_blocks, getattr(linalg, 'char_blocks')\n",
        encoding="utf-8")
    assert _char_blocks_uses([bad]) == [
        "bad.py:Report.left.inner(J.rows)", "bad.py:_rank_one(A)",
        "bad.py:_rank_one(A.plus({(u, v): kappa}))", "bad.py:rank_one_model_bound(J)",
        "bad.py:rank_one_model_bound(m)"]


def _namer_uses(path: Path) -> list[str]:
    '''Reads and writes of an attribute named namer, also through
    getattr, setattr or hasattr.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "namer":
            found.append((node.lineno, node.col_offset, ".namer"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "namer"):
            found.append((node.lineno, node.col_offset, f"{node.func.id}(..., 'namer')"))
    return [f"{path.name}:{line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_derives_equilibrium_names(path):
    assert _namer_uses(path) == []


def test_namer_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(m, namer):\n"
        "    m.namer = namer\n"
        "    name = m.namer(1, 2) if hasattr(m, 'namer') else None\n"
        "    setattr(m, \"namer\", getattr(m, 'namer'))\n"
        "    return namer(1, 2), m.name\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _namer_uses(bad)] == [
        ".namer", ".namer", "hasattr(..., 'namer')", "setattr(..., 'namer')",
        "getattr(..., 'namer')"]


def _replace_uses(path: Path) -> list[str]:
    '''Imports of replace from dataclasses, and calls of replace on the
    dataclasses module under any name it is imported as.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "dataclasses"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.extend((node.lineno, "from dataclasses import replace")
                         for alias in node.names if alias.name == "replace")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "replace" and isinstance(node.func.value, ast.Name)
              and node.func.value.id in modules):
            found.append((node.lineno, "dataclasses.replace(...)"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_hands_out_memoised_reports_as_stored(path):
    assert _replace_uses(path) == []


def test_replace_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import dataclasses\n"
        "import dataclasses as dc\n"
        "from dataclasses import dataclass, replace\n"
        "from dataclasses import replace as copy_with\n"
        "def f(rep, text):\n"
        "    a = dataclasses.replace(rep, notes=())\n"
        "    b = dc.replace(rep, block=[])\n"
        "    return text.replace(',', ' '), a, b\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _replace_uses(bad)] == [
        "from dataclasses import replace", "from dataclasses import replace",
        "dataclasses.replace(...)", "dataclasses.replace(...)"]


def _poly_constructions(path: Path) -> list[str]:
    '''Calls of MultiPoly(...), also under a name it is imported as or
    through a module.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"MultiPoly"} | {alias.asname for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) for alias in node.names
                             if alias.name == "MultiPoly" and alias.asname}
    return [f"{path.name}:{node.lineno}: MultiPoly(...)" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in names
                 or getattr(node.func, "attr", None) == "MultiPoly")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_module_builds_polynomials_through_their_ring(path):
    assert _poly_constructions(path) == []


def test_poly_constructor_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import poly\n"
        "from .poly import MultiPoly, MultiPoly as MP\n"
        "import crnrelay.poly\n"
        "def f(ring, x):\n"
        "    a = MultiPoly(('x',), {(1,): 1})\n"
        "    b = poly.MultiPoly(('x',), {})\n"
        "    c = MP((), {(): 2}) + crnrelay.poly.MultiPoly(('y',), {(1,): 1})\n"
        "    return a, b, c, MultiPoly.const(1), MultiPoly.var('x'), ring.var(x), MultiPoly\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _poly_constructions(bad)] == ["MultiPoly(...)"] * 4


MUTABLE_ALLOWED = {("poly.py", "_RINGS"), ("cli.py", "_COMMANDS")}
MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                 "deque"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_state(path: Path) -> list[str]:
    '''global statements anywhere, and mutable containers bound at module
    level (also inside a module-level if, try or with) outside
    MUTABLE_ALLOWED.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, f"global {', '.join(node.names)}") for node in ast.walk(tree)
             if isinstance(node, ast.Global)]
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            body += [*node.body, *getattr(node, "orelse", ()), *getattr(node, "finalbody", ()),
                     *(h for handler in getattr(node, "handlers", ()) for h in handler.body)]
            continue
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop(0)
            if (isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, ast.Tuple)
                    and len(target.elts) == len(value.elts)):
                pairs += zip(target.elts, value.elts)   # a, b = [], 1
                continue
            func = getattr(value, "func", None)
            if isinstance(value, MUTABLE_DISPLAYS) or (
                    isinstance(value, ast.Call) and (getattr(func, "id", None) in MUTABLE_CALLS
                                                     or getattr(func, "attr", None) in MUTABLE_CALLS)):
                found += [(node.lineno, f"{name.id} is a mutable container")
                          for name in ast.walk(target) if isinstance(name, ast.Name)
                          and (path.name, name.id) not in MUTABLE_ALLOWED]
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_state_of_its_own(path):
    assert _module_state(path) == []


def test_module_state_guard_catches_each_form(tmp_path):
    bad = tmp_path / "models.py"
    bad.write_text(
        "import collections\n"
        "from types import MappingProxyType\n"
        "_cache = {}\n"
        "_memo = {}\n"
        "_seen: set = set()\n"
        "_order = [1, 2]\n"
        "_squares = {k: k * k for k in range(3)}\n"
        "_counts = collections.Counter()\n"
        "_names = MappingProxyType({'a': 1})\n"
        "_kinds = ('a', 'b')\n"
        "a, b = [], 1\n"
        "if True:\n"
        "    _late = dict(a=1)\n"
        "class Points:\n"
        "    known = {}\n"
        "def remember(x):\n"
        "    global _last\n"
        "    _last = [x]\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _module_state(bad)] == [
        "_cache is a mutable container", "_memo is a mutable container", "_seen is a mutable container",
        "_order is a mutable container", "_squares is a mutable container",
        "_counts is a mutable container", "a is a mutable container",
        "_late is a mutable container", "global _last"]


def _table_uses(path: Path) -> list[str]:
    '''Reads and writes of an attribute named _cache, also through
    getattr, setattr or hasattr.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            found.append((node.lineno, node.col_offset, "._cache"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "_cache"):
            found.append((node.lineno, node.col_offset, f"{node.func.id}(..., '_cache')"))
    return [f"{path.name}:{line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "network.py"],
                         ids=lambda p: p.name)
def test_module_keeps_through_the_one_rule(path):
    assert _table_uses(path) == []


def test_table_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(m, inst, face):\n"
        "    plans = m._cache.setdefault('face_plans', {})\n"
        "    inst._cache[('face', face)] = plans\n"
        "    t = getattr(inst, '_cache') if hasattr(m, \"_cache\") else None\n"
        "    setattr(m, '_cache', {})\n"
        "    return m.kept('namer', dict), t, inst.cache, '_cache'\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _table_uses(bad)] == [
        "._cache", "._cache", "getattr(..., '_cache')", "hasattr(..., '_cache')",
        "setattr(..., '_cache')"]


DESCRIPTOR_ALLOWED = {("scalars.py", "OnRead")}


def _descriptor_classes(path: Path) -> list[str]:
    '''Classes that define __get__ (by def, async def, assignment or
    annotated assignment in the class body, nested classes too) and
    setattr(..., "__get__", ...) calls, outside DESCRIPTOR_ALLOWED.'''
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for scope, node in _scoped_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "__get__"):
            found.append((node.lineno, "setattr(..., '__get__')"))
        if not isinstance(node, ast.ClassDef) or (path.name, scope) in DESCRIPTOR_ALLOWED:
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if "__get__" in names:
                found.append((stmt.lineno, f"{scope} defines __get__"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_descriptor_makes_fields_on_read(path):
    assert _descriptor_classes(path) == []


def test_descriptor_guard_catches_each_form(tmp_path):
    bad = tmp_path / "scalars.py"
    bad.write_text(
        "class OnRead:\n"
        "    def __get__(self, obj, owner=None):\n"
        "        return obj\n"
        "class _Rows:\n"
        "    def __get__(self, obj, owner=None):\n"
        "        return obj\n"
        "class Later:\n"
        "    async def __get__(self, obj, owner=None):\n"
        "        return obj\n"
        "class Alias:\n"
        "    __get__ = OnRead.__get__\n"
        "class Typed:\n"
        "    __get__: object = None\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def __get__(self, obj, owner=None):\n"
        "            return obj\n"
        "def make():\n"
        "    class Local:\n"
        "        __set__ = __get__ = None\n"
        "    setattr(Local, '__get__', lambda *a: None)\n"
        "    return Local\n"
        "class Plain:\n"
        "    def get(self):\n"
        "        return self.__get__\n",
        encoding="utf-8")
    assert [f.split(": ", 1)[1] for f in _descriptor_classes(bad)] == [
        "_Rows defines __get__", "Later defines __get__", "Alias defines __get__",
        "Typed defines __get__", "Outer.Inner defines __get__", "make.Local defines __get__",
        "setattr(..., '__get__')"]


# who may reach the rate table's three stages (by a call or by handing the
# function on, as to Kept.kept), and who may take a derivative
RATE_TABLE_USES = {
    "_rate_table": ["network.py:Evaluation._product", "network.py:_fold_rates"],
    "_fold_rates": ["network.py:_sum_rates"],
    "_sum_rates": ["network.py:Evaluation._product"],
    "derivative": ["network.py:_jacobian", "network.py:_rate_table", "poly.py:RatFunc.derivative",
                   "stability.py:_branch_jacobian"]}


def _rate_table_uses(paths) -> dict[str, list[str]]:
    '''For each name of RATE_TABLE_USES, the functions that refer to it
    (by its name, as an attribute, under a name it is imported as, or
    through getattr), as "module.py:function";
    and under "keys", each ("drate", ...) or ("drates", ...) key named and
    each tuple display given to a call of fold whose first item is not
    "rhs", as "module.py:function: key".'''
    found = {name: set() for name in RATE_TABLE_USES} | {"keys": set()}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
        for scope, node in _scoped_nodes(tree):
            where = f"{path.name}:{scope or 'module scope'}"
            name = (aliases.get(node.id, node.id) if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.args[1].value if (isinstance(node, ast.Call)
                                           and getattr(node.func, "id", None) == "getattr"
                                           and len(node.args) >= 2
                                           and isinstance(node.args[1], ast.Constant))
                    else None)
            if name in RATE_TABLE_USES:
                found[name].add(where)
            if isinstance(node, ast.Constant) and node.value in ("drate", "drates"):
                found["keys"].add(f"{where}: {node.value!r}")
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "fold"
                    and node.args and isinstance(node.args[0], ast.Tuple)):
                first = node.args[0].elts[0] if node.args[0].elts else None
                if not (isinstance(first, ast.Constant) and first.value == "rhs"):
                    found["keys"].add(f"{where}: {ast.unparse(node.args[0])}")
    return {name: sorted(scopes) for name, scopes in found.items()}


def test_rate_derivatives_are_folded_and_summed_only_by_the_table():
    assert _rate_table_uses(MODULES) == RATE_TABLE_USES | {"keys": []}


def test_rate_table_guard_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import network\n"
        "from .network import _sum_rates as summed\n"
        "def jacobian(inst, x, k, v):\n"
        "    return summed(inst, x), inst.fold(('drate', k, v)), inst.fold(('rhs', v))\n"
        "class Block:\n"
        "    def entries(self, inst, key):\n"
        "        def fold():\n"
        "            return inst.kept('rates', network._fold_rates, inst)\n"
        "        return fold(), inst.kept(('drates', key), dict), inst.fold((key, 0))\n"
        "def rates(m, r, v):\n"
        "    return getattr(network, '_rate_table')(m), r.rate.derivative(v)\n",
        encoding="utf-8")
    assert _rate_table_uses([bad]) == {
        "_rate_table": ["bad.py:rates"], "_fold_rates": ["bad.py:Block.entries.fold"],
        "_sum_rates": ["bad.py:jacobian"], "derivative": ["bad.py:rates"],
        "keys": ["bad.py:Block.entries: 'drates'", "bad.py:Block.entries: (key, 0)",
                 "bad.py:jacobian: 'drate'", "bad.py:jacobian: ('drate', k, v)"]}
