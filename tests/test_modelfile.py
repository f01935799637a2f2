import re
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import mass_action_files
from crnrelay.errors import ModelParseError
from crnrelay.modelfile import parse_model_file, parse_model_text, print_model
from crnrelay.models import builtin_model
from crnrelay.poly import RatFunc

# the section names, in their order in a file
SECTIONS = ("model", "variables", "parameters", "equations", "values", "metadata")

GOOD = """\
model demo
variables: x y
parameters: a b
equations:
    x' = a*x*y/(x + 1) - b*x
    y' = b*x - y
values:
    a = 3/2
    b = 0.25
metadata:
    keep = x
"""


def test_parse_basic():
    m = parse_model_text(GOOD)
    assert m.name == "demo"
    assert m.variables == ("x", "y")
    assert m.parameters == ("a", "b")
    assert m.values["a"] == Fraction(3, 2)
    assert m.values["b"] == Fraction(1, 4)
    assert m.keep_variable == "x"
    pt = {"x": Fraction(2), "y": Fraction(1), "a": Fraction(3, 2), "b": Fraction(1, 4)}
    assert m.rhs("x").eval(pt).to_fraction() == Fraction(3, 2) * 2 / 3 - Fraction(1, 2)


def models_equal(a, b) -> bool:
    if (a.name, a.variables, a.parameters, a.values) != (b.name, b.variables, b.parameters, b.values):
        return False
    for v in a.variables:
        if not (a.rhs(v) - b.rhs(v)).is_zero:
            return False
    return True


def test_print_parse_roundtrip():
    m1 = parse_model_text(GOOD)
    text = print_model(m1)
    m2 = parse_model_text(text)
    assert models_equal(m1, m2)
    # the printed form is its own normal form
    assert print_model(m2) == text


def test_builtin_roundtrip():
    for name in ("osn_omega0", "osn_omega_pos"):
        m1 = builtin_model(name)
        m2 = parse_model_text(print_model(m1), default_name=m1.name)
        assert models_equal(m1, m2)
        assert print_model(m2) == print_model(m1)


def test_decimal_literals_are_exact():
    m = parse_model_text("""\
model d
variables: x
parameters: a
equations:
    x' = a - 0.1*x
values:
    a = 1.75
""")
    assert m.values["a"] == Fraction(7, 4)
    got = m.rhs("x").eval({"x": Fraction(10), "a": Fraction(7, 4)})
    assert got.to_fraction() == Fraction(3, 4)


@pytest.mark.parametrize("src,fragment", [
    ("model m\nvariables: x\nequations:\n    x' = y\n", "y"),
    ("model m\nvariables: x\nparameters: x\n", "x"),
    ("model m\nvariables: x\nequations:\n    x' = 1/0\n", "zero"),
    ("model m\nvariables: x\nequations:\n    x' = (1\n", "')'"),
    ("model m\nvariables: x y\nequations:\n    x' = 1\n", "y"),
])
def test_parse_errors_carry_position(src, fragment):
    with pytest.raises(ModelParseError) as err:
        parse_model_text(src)
    msg = str(err.value)
    assert msg.startswith("line ")
    assert fragment in msg


def test_unknown_section_rejected():
    with pytest.raises(ModelParseError):
        parse_model_text("model m\nspecies: x\n")


def test_duplicate_equation_rejected():
    src = ("model m\nvariables: x\nequations:\n"
           "    x' = 1\n    x' = 2\n")
    with pytest.raises(ModelParseError):
        parse_model_text(src)


def test_comments_and_blank_lines():
    src = """\
# top comment
model c
variables: x  # trailing
parameters: a

equations:
    # a comment line
    x' = a - x
values:
    a = 2
"""
    m = parse_model_text(src)
    assert m.values["a"] == 2


@pytest.mark.parametrize("name", ["osn_omega0", "osn_omega_pos"])
def test_builtins_and_renamed_copies_reprint_byte_for_byte(name):
    m = builtin_model(name)
    text = print_model(m)
    names = re.compile(r"\b(" + "|".join(m.variables + m.parameters) + r")\b")
    renamed = text.replace(f"model {name}\n", "model renamed\n")
    prefixed = names.sub(r"q_\1", renamed)   # a common prefix keeps the names' order
    for t in (text, renamed, prefixed):
        assert print_model(parse_model_text(t)) == t
    # swapping case reorders the names, and so the terms: the printed form is
    # then a normal form of its own
    swapped = print_model(parse_model_text(names.sub(lambda x: x[1].swapcase(), renamed)))
    assert swapped != names.sub(lambda x: x[1].swapcase(), renamed)
    assert print_model(parse_model_text(swapped)) == swapped
    # comments, tabs and blank lines are not part of the model
    noisy = "# a comment\n\n" + "".join(
        "\t" + line.replace(" ", " \t") + "\t# a note\n\n" if line else "\n"
        for line in text.splitlines())
    assert print_model(parse_model_text(noisy)) == text


_HEAD = "model m\nvariables: x y\nparameters: a\n"
_EQS = _HEAD + "equations:\n    x' = a\n    y' = x\n"

# one case per place the parser raises, each pinned to its message and position
PARSE_ERRORS = [
    ("unexpected-character", _HEAD + "equations:\n    x' = a $ x\n",
     "unexpected character '$'", 5, 12),
    ("expected-token", "model m\nvariables x\n", "expected ':', found 'x'", 2, 11),
    ("expected-sign", _HEAD + "equations:\n    x' = a x\n    y' = x\n",
     "expected '+' or '-', found 'x'", 5, 12),
    ("division-by-zero", _HEAD + "equations:\n    x' = a/(x - x)\n    y' = x\n",
     "division by zero", 5, 11),
    ("exponent", _HEAD + "equations:\n    x' = x^1.5\n    y' = x\n",
     "exponent must be a nonnegative integer", 5, 12),
    ("undeclared-name", _HEAD + "equations:\n    x' = b*x\n    y' = x\n",
     "undeclared name 'b'", 5, 10),
    ("expected-value", _HEAD + "equations:\n    x' = a*\n    y' = x\n",
     "expected a value, found 'eol'", 5, 12),
    ("zero-denominator", _EQS + "values:\n    a = 1/0\n", "zero denominator", 8, 11),
    ("declared-twice", "model m\nvariables: x y\nparameters: a x\n", "'x' declared twice", 3, 15),
    ("equations-first", "model m\nequations:\n    x' = 1\n", "equations before variables", 2, 1),
    ("equation-for-parameter", _HEAD + "equations:\n    a' = x\n",
     "equation for non-variable 'a'", 5, 5),
    ("second-equation", _HEAD + "equations:\n    x' = a\n    x' = y\n",
     "second equation for 'x'", 6, 5),
    ("value-for-variable", _EQS + "values:\n    x = 2\n", "value for non-parameter 'x'", 8, 5),
    # an entry that may come once, read a second time, at its name
    ("second-value", _EQS + "values:\n    a = 2\n    a = 12345\n", "second value for 'a'", 9, 5),
    ("second-keep", _EQS + "metadata:\n    keep = x\n    keep = y\n", "second keep entry", 9, 5),
    ("second-rank-one-edge",
     _EQS + "metadata:\n    rank_one_edge = x y a\n    rank_one_edge = y x a\n",
     "second rank_one_edge entry", 9, 5),
    ("second-mask", _EQS + "metadata:\n    ngm_mask {x,y} = 1\n    ngm_mask {y,x} = 2\n",
     "second ngm_mask for {x,y}", 9, 5),
    ("mask-member", _EQS + "metadata:\n    ngm_mask {x,a} = 1\n",
     "mask names non-variable 'a'", 8, 17),
    ("mask-index", _EQS + "metadata:\n    ngm_mask {x,y} = 1,0\n",
     "mask indices are 1-based integers", 8, 24),
    ("mask-repeated-index", _EQS + "metadata:\n    ngm_mask {x,y} = 1,1\n",
     "mask index 1 named twice", 8, 24),
    ("edge-variable", _EQS + "metadata:\n    rank_one_edge = x a a\n",
     "rank_one_edge needs a variable, got 'a'", 8, 23),
    ("edge-parameter", _EQS + "metadata:\n    rank_one_edge = x y y\n",
     "rank_one_edge needs a parameter, got 'y'", 8, 25),
    ("keep", _EQS + "metadata:\n    keep = a\n", "keep names non-variable 'a'", 8, 12),
    ("unknown-metadata", _EQS + "metadata:\n    colour = x\n", "unknown metadata entry 'colour'", 8, 5),
    ("unknown-section", _HEAD + "species: x\n", "unexpected section 'species'", 4, 1),
    ("missing-equation", _HEAD + "equations:\n    x' = a\n\n", "no equation for: y", 7, 1),
    # refused at once at the exponent, before any multiplication
    ("degree-limit", _HEAD + "equations:\n    x' = a*(x + 1)^40000\n    y' = x\n",
     "a power of total degree past 32767", 5, 20),
    # a product past the limit, at the factor that takes it there: a
    # parenthesised factor counts where it stands, and no key carries
    ("product-degree-limit", _HEAD + "equations:\n    x' = x^20000*x^20000\n    y' = x\n",
     "a product of total degree past 32767", 5, 20),
    ("product-degree-limit-past-a-sum",
     _HEAD + "equations:\n    x' = a*(x + y)^3*x^32765*a\n    y' = x\n",
     "a product of total degree past 32767", 5, 24),
    ("non-decimal-digit", _HEAD + "equations:\n    x' = a*\u00b2\n    y' = x\n",
     "unexpected character '\u00b2'", 5, 12),
    # refused at the 301st parenthesis, whatever the depth of the caller's stack
    ("nested-330", _HEAD + "equations:\n    x' = " + "(" * 330 + "x" + ")" * 330 + "\n    y' = x\n",
     "expression nested too deeply", 5, 310),
    ("nested-5000", _HEAD + "equations:\n    x' = " + "(" * 5000 + "x" + ")" * 5000 + "\n",
     "expression nested too deeply", 5, 310),
    # a word spelled like a token kind is a name all the same
    ("eol-word", "model m eol x\n", "expected 'eol', found 'eol'", 1, 9),
    ("number-word", _EQS + "values:\n    a = number\n", "expected 'number', found 'number'", 8, 9),
    ("number-word-as-denominator", _EQS + "values:\n    a = 1/number\n",
     "expected 'number', found 'number'", 8, 11),
    ("number-word-as-mask-index", _EQS + "metadata:\n    ngm_mask {x} = number\n",
     "expected 'number', found 'number'", 8, 20),
    # more than 100000 digits, at the token that makes them: a number token,
    # the exponent of a number's power (refused before the power is taken
    # once its size shows in the bit lengths) or the factor of a product
    ("long-number", _HEAD + "equations:\n    x' = a*" + "1" * 100001 + "\n    y' = x\n",
     "a number of more than 100000 digits", 5, 12),
    ("long-decimal", _EQS + "values:\n    a = 2." + "5" * 100000 + "\n",
     "a number of more than 100000 digits", 8, 9),
    # a value is bounded as --set bounds it, at its parameter's name: each
    # number here has 100000 digits, their quotient's denominator about 200000
    ("long-value", _EQS + "values:\n    a = 0." + "1" * 99999 + "/" + "3" * 100000 + "\n",
     "a value of more than 100000 digits", 8, 5),
    ("long-power", _HEAD + "equations:\n    x' = 10^100000*a\n    y' = x\n",
     "a power of more than 100000 digits", 5, 13),
    ("long-power-below", _HEAD + "equations:\n    x' = a/(1/10)^100000\n    y' = x\n",
     "a power of more than 100000 digits", 5, 19),
    ("huge-power", _HEAD + "equations:\n    x' = 3^1000000000*a\n    y' = x\n",
     "a power of more than 100000 digits", 5, 12),
    ("long-product", _HEAD + "equations:\n    x' = 10^60000*a*(2*10^59999)\n    y' = x\n",
     "a product of more than 100000 digits", 5, 32),
    ("long-quotient", _HEAD + "equations:\n    x' = a/10^60000/10^60000\n    y' = x\n",
     "a product of more than 100000 digits", 5, 24),
    # a parenthesised sum counts its digits in the 1-norm of its integer
    # coefficients (MultiPoly.norm): a power is refused before it is taken,
    # a product or a sum once it is made, at the token that makes it
    ("long-power-of-a-sum", _HEAD + "equations:\n    x' = (10^60000*x)^2*a\n    y' = x\n",
     "a power of more than 100000 digits", 5, 23),
    ("long-power-of-a-binomial", _HEAD + "equations:\n    x' = (10^60000*x + 1)^2*a\n    y' = x\n",
     "a power of more than 100000 digits", 5, 27),
    ("long-power-below-of-a-sum", _HEAD + "equations:\n    x' = a/(1 + x/10^60000)^2\n    y' = x\n",
     "a power of more than 100000 digits", 5, 29),
    ("long-product-of-sums",
     _HEAD + "equations:\n    x' = (10^60000*x)*(10^60000*x)*a\n    y' = x\n",
     "a product of more than 100000 digits", 5, 34),
    ("long-product-of-a-number-and-a-sum",
     _HEAD + "equations:\n    x' = 10^60000*(10^60000*x)*a\n    y' = x\n",
     "a product of more than 100000 digits", 5, 30),
    ("long-quotient-by-sums",
     _HEAD + "equations:\n    x' = a/(10^60000*y + 1)/(10^60000*y + 1)\n    y' = x\n",
     "a product of more than 100000 digits", 5, 44),
    ("long-sum", _HEAD + "equations:\n    x' = (1/(10^60000*y + 1) + 1/(10^60000*y + 2))*a\n"
     "    y' = x\n", "a sum of more than 100000 digits", 5, 50),
    # and so is an equation's whole right-hand side, at its last token
    ("long-top-level-sum", _HEAD + "equations:\n    x' = a/(10^60000*y + 1) + a/(10^60000*y + 2)\n"
     "    y' = x\n", "a sum of more than 100000 digits", 5, 48),
    # a common denominator past the degree limit is refused there too
    ("sum-degree-limit", _HEAD + "equations:\n    x' = a/(x^20000 + 1) + a/(y^20000 + 1)\n"
     "    y' = x\n", "a product of total degree past 32767", 5, 42),
    # a head before one already read, or read a second time, at its keyword
    ("section-repeated", _EQS + "values:\n    a = 1\nvalues:\n", "section 'values' out of order", 9, 1),
    ("section-earlier", _EQS + "metadata:\n    keep = x\n  values:\n",
     "section 'values' out of order", 9, 3),
    ("parameters-after-equations", _EQS + "parameters: b\n", "section 'parameters' out of order", 7, 1),
    ("model-after-variables", "variables: x\nmodel m\n", "section 'model' out of order", 2, 1),
    # a section name before = is no head, and outside a body section no line
    ("name-outside-a-body", _HEAD + "metadata = 1\n", "unexpected section 'metadata'", 4, 1),
    ("name-in-the-wrong-body", _EQS + "metadata = 1\n", "equation for non-variable 'metadata'", 7, 1),
]


@pytest.mark.parametrize("src,message,line,col", [c[1:] for c in PARSE_ERRORS],
                         ids=[c[0] for c in PARSE_ERRORS])
def test_each_parse_error_keeps_its_message_and_position(src, message, line, col):
    with pytest.raises(ModelParseError) as err:
        parse_model_text(src)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line {line}, col {col}: {message}", line, col)


def test_numbers_of_100000_digits_are_read_and_reprinted():
    """The digit bound is on the numbers themselves: a token, a number's
    power and a term's number part of 100000 digits each read, exactly.
    An equation's sum is bounded too, so two of them summed are refused."""
    nines = "9" * 100000
    text = ("model m\nvariables: x y z\nparameters: a\n"
            f"equations:\n    x' = {nines}*a\n    y' = a/10^50000/10^49999 - x\n"
            f"    z' = x/(1/10)^99999 - y\nvalues:\n    a = 1/{nines[:-1]}.9\n")
    m = parse_model_text(text)
    assert m.rhs_terms["x"][0] == RatFunc.var("a") * (10 ** 100000 - 1)
    assert m.rhs_terms["z"][0] == RatFunc.var("x") * 10 ** 99999
    assert m.rhs_terms["y"][0] == RatFunc.var("a") / 10 ** 99999
    assert m.values["a"] == Fraction(10, 10 ** 100000 - 1)
    assert print_model(parse_model_text(print_model(m))) == print_model(m)
    with pytest.raises(ModelParseError, match="a sum of more than 100000 digits"):
        parse_model_text(_HEAD + f"equations:\n    x' = {nines}*a - x/(1/10)^99999\n    y' = x\n")


def test_sums_of_100000_digits_are_multiplied_and_raised_exactly():
    """A parenthesised sum, its product by a number and a power of it
    whose coefficients' 1-norm has 100000 digits read, exactly."""
    text = ("model m\nvariables: x y z\nparameters: a\n"
            "equations:\n    x' = (10^49999*x + 1)^2*a\n"
            "    y' = 10^50000*(10^49999*y + 10^49999)*a - x\n    z' = -x/(1 + 10^99999*y)\n")
    m = parse_model_text(text)
    x, y, a = (RatFunc.var(v) for v in "xya")
    assert m.rhs_terms["x"] == ((10 ** 49999 * x + 1) * (10 ** 49999 * x + 1) * a,)
    assert m.rhs_terms["y"] == ((y + 1) * a * 10 ** 99999, -x)
    assert m.rhs_terms["z"] == (-x / (1 + 10 ** 99999 * y),)
    assert print_model(parse_model_text(print_model(m))) == print_model(m)


def test_masks_of_distinct_nodes_are_kept_apart():
    m = parse_model_text(_EQS + "metadata:\n    ngm_mask {x} = 1\n    ngm_mask {x,y} = 2,1\n")
    assert m.ngm_masks == {frozenset("x"): (1,), frozenset("xy"): (1, 2)}


@pytest.mark.parametrize("stem,name", [("my-model", "my_model"), ("2 rates.v1", "_2_rates_v1"),
                                       ("_x", "_x"), ("Modèle", "Mod_le")])
def test_a_file_without_a_model_line_reprints_a_name_that_reads_back(tmp_path, stem, name):
    path = tmp_path / f"{stem}.model"
    path.write_text(GOOD.replace("model demo\n", ""), encoding="utf-8")
    m = parse_model_file(str(path))
    assert m.name == name
    again = parse_model_text(print_model(m))
    assert models_equal(m, again)
    assert print_model(again) == print_model(m)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_file_reads_the_same_whatever_its_line_ends(tmp_path, newline):
    path = tmp_path / "demo.model"
    path.write_bytes(GOOD.replace("\n", newline).encode("utf-8"))
    m = parse_model_file(path)
    assert models_equal(m, parse_model_text(GOOD))


def test_section_names_name_variables_and_parameters():
    # a line is a head only when its second token is neither ' nor =
    text = ("model values\nvariables: model values\nparameters: metadata equations a\n"
            "equations:\n    model' = metadata - equations*model*values\n"
            "    values' = a*model*values - values\nvalues:\n    metadata = 2\n"
            "    equations = 1/2\n    a = 3\nmetadata:\n    keep = values\n")
    m = parse_model_text(text)
    assert (m.name, m.variables, m.parameters) == (
        "values", ("model", "values"), ("metadata", "equations", "a"))
    assert m.values == {"metadata": 2, "equations": Fraction(1, 2), "a": 3}
    assert m.keep_variable == "values"
    assert str(m.rhs("values")) == "a*model*values - values"
    assert print_model(parse_model_text(print_model(m))) == print_model(m)


def _nested(depth: int) -> str:
    return _HEAD + "equations:\n    x' = " + "(" * depth + "a" + ")" * depth + "\n    y' = x\n"


def test_three_hundred_nested_parentheses_parse():
    assert str(parse_model_text(_nested(300)).rhs("x")) == "a"


def test_a_caller_deep_in_its_own_stack_gets_the_nesting_parse_error():
    # 300 levels fit the parser's own limit but not the room the caller left
    def deep(k):
        return deep(k - 1) if k else parse_model_text(_nested(300))

    with pytest.raises(ModelParseError, match="expression nested too deeply"):
        deep(sys.getrecursionlimit() - 300)


# ---------------------------------------------------------------------------
# the sign rule, against sympy, which reads the same text with ^ as **
# ---------------------------------------------------------------------------

_X, _Y, _A = sympy.symbols("x y a")


def _rhs(expr: str):
    m = parse_model_text("model s\nvariables: x y\nparameters: a\nequations:\n"
                         f"    x' = {expr}\n    y' = 0\n")
    return m.rhs("x")


def _to_sympy(f):
    def poly(p):
        return sum((sympy.Rational(c.numerator, c.denominator) *
                    sympy.Mul(*[sympy.Symbol(v) ** k for v, k in zip(p.vars, e)])
                    for e, c in p.terms.items()), sympy.Integer(0))
    return poly(f.num) / poly(f.den)


@pytest.mark.parametrize("expr,value", [
    ("a*-x^2", -_A * _X**2),
    ("a - -x^2", _A + _X**2),
    ("a/-x^2", -_A / _X**2),
    ("a*-2^2", -4 * _A),
    ("-2^2", sympy.Integer(-4)),
    ("--x", _X),
    ("a*(-x + y)^2", _A * (_Y - _X)**2),
])
def test_a_unary_sign_binds_looser_than_a_power_and_tighter_than_a_product(expr, value):
    assert sympy.cancel(_to_sympy(_rhs(expr)) - value) == 0


def _expressions():
    '''Factors, each unary signs before a name, a small integer or a
    parenthesised expression with an optional power up to 3, joined by
    binary + - * /.'''
    def chain(base):
        factor = st.tuples(st.sampled_from(["", "-", "+", "--", "+-"]), base,
                           st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join)
        rest = st.lists(st.tuples(st.sampled_from([" + ", " - ", "*", "/"]), factor), max_size=3)
        return st.tuples(factor, rest).map(lambda t: t[0] + "".join(o + f for o, f in t[1]))
    atoms = st.sampled_from(["x", "y", "a", "0", "1", "2", "3", "4"])
    return st.recursive(chain(atoms), lambda inner: chain(st.one_of(atoms, inner.map("({})".format))),
                        max_leaves=8)


@given(_expressions())
def test_expressions_read_as_sympy_reads_them(expr):
    theirs = sympy.sympify(expr.replace("^", "**"), locals={"x": _X, "y": _Y, "a": _A})
    try:
        ours = _rhs(expr)
    except ModelParseError as exc:
        # only a divisor that vanishes identically is refused; Python's own
        # reading of the text divides by zero at any point then
        assert "division by zero" in str(exc)
        with pytest.raises(ZeroDivisionError):
            eval(expr.replace("^", "**"), {"x": Fraction(13, 7), "y": Fraction(-5, 11),
                                           "a": Fraction(3, 2)})
        return
    assert sympy.cancel(_to_sympy(ours) - theirs) == 0


# ---------------------------------------------------------------------------
# small mass-action files
# ---------------------------------------------------------------------------

@given(mass_action_files(names=SECTIONS))
def test_mass_action_files_decompose_and_reprint_as_their_normal_form(text):
    m = parse_model_text(text)
    assert m.network().verify_decomposition(m)
    printed = print_model(m)
    again = parse_model_text(printed)
    assert models_equal(m, again)
    assert print_model(again) == printed


@given(data=st.data())
def test_monomial_denominators_print_and_read_back_as_the_same_right_hand_sides(data):
    """A file of mass_action_files with summands c * m / (f_1 ... f_k)
    added, m a monomial and each f a species or a parameter or its square:
    printing and reading back keeps every right-hand side, and the printed
    text is its own normal form. A one-term denominator with two factors
    needs its parentheses: x/y*z reads as x*z/y."""
    text = data.draw(mass_action_files())
    header = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    factors = st.sampled_from(header["variables"].split() + header["parameters"].split())
    power = st.builds(lambda f, e: f if e == 1 else f"{f}^{e}", factors, st.integers(1, 2))
    lines = []
    for line in text.splitlines():
        if "' = " in line and data.draw(st.booleans()):
            mag = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3))
            num = "*".join([str(mag), *data.draw(st.lists(power, max_size=2))])
            den = "*".join(data.draw(st.lists(power, min_size=1, max_size=3)))
            line += f" {data.draw(st.sampled_from('+-'))} {num}/({den})"
        lines.append(line)
    m = parse_model_text("\n".join(lines) + "\n")
    printed = print_model(m)
    again = parse_model_text(printed)
    assert models_equal(m, again)
    assert print_model(again) == printed


# -- one rational grammar: values: entries, --set, --kappa and Model.point ---

_DIGITS = "0123456789"
_DECIMALS = st.builds(str.__add__, st.text(_DIGITS, min_size=1, max_size=5),
                      st.sampled_from(["", "."]) | st.text(_DIGITS, max_size=4).map(".".__add__))


@given(sign=st.sampled_from(["", "+", "-"]), num=_DECIMALS, den=st.none() | _DECIMALS,
       blank=st.sampled_from(["", " "]))
def test_a_values_entry_reads_a_rational_as_every_other_reader_does(sign, num, den, blank):
    """A value written as an optional sign, a decimal and optionally '/'
    and a decimal reads to the same Fraction, or is refused alike, in a
    model file's values (blanks between its tokens are free there), by
    scalars.read_rational (which --set and --kappa read by) and by
    Model.point."""
    from crnrelay.errors import ModelError
    from crnrelay.scalars import read_rational
    text = sign + num + ("" if den is None else "/" + den)

    def outcome(read):
        try:
            return read()
        except (ValueError, ModelError):
            return ValueError

    written = blank.join(filter(None, (sign, num, den and "/", den)))
    got = outcome(lambda: parse_model_text(_EQS + f"values:\n    a = {written}\n").values["a"])
    assert got == outcome(lambda: read_rational(text))
    assert got == outcome(lambda: parse_model_text(_EQS).point({"a": text})["a"])
    if got is not ValueError:   # Fraction reads no trailing '.'
        want = Fraction(sign + num.rstrip("."))
        assert got == (want if den is None else want / Fraction(den.rstrip(".")))


def test_a_parsed_model_sums_each_right_hand_side_once(monkeypatch):
    """The parser sums each equation's summands to bound them, and the
    model keeps those sums as its right-hand sides: no sum is taken again."""
    calls = []
    add = RatFunc.__add__

    def counting(self, other):
        calls.append(1)
        return add(self, other)

    m = parse_model_text(GOOD)
    monkeypatch.setattr(RatFunc, "__add__", counting)
    rhs = {v: m.rhs(v) for v in m.variables}
    assert calls == []
    monkeypatch.undo()
    assert rhs == {v: sum(m.rhs_terms[v][1:], m.rhs_terms[v][0]) for v in m.variables}
    assert rhs["x"] == RatFunc.var("a") * RatFunc.var("x") * RatFunc.var("y") / (
        RatFunc.var("x") + RatFunc.const(1)) - RatFunc.var("b") * RatFunc.var("x")
