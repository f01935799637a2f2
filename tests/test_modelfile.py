import re
from fractions import Fraction

import pytest

from crnrelay.errors import ModelParseError
from crnrelay.modelfile import parse_model_text, print_model
from crnrelay.models import builtin_model

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
