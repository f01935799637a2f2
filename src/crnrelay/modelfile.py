"""Plain-text model format: parser and printer.

A model file has up to six sections, in this order (equations need the
declarations, so the order is enforced):

    model NAME
    variables: x y z
    parameters: a b
    equations:
        x' = a*x*y/(x + 1) - b*x
        ...
    values:
        a = 3/2
    metadata:
        ngm_mask {x} = 2
        rank_one_edge = x y a
        keep = z

The file is read one line at a time. A line is a section head when its
first word is one of the six section names and its second token is neither
' nor =; any other line belongs to the section above it, as one equation,
value or metadata entry. So the section names can name variables and
parameters too (values' = ... is an equation, metadata = 2 a value), and a
head that comes before one already read, or a second time, is the parse
error "section 'values' out of order".

Expressions use + - * / ^ and parentheses over declared names and exact
numeric literals (decimal digits with at most one '.', kept exact; fractions
via /). From loosest to tightest: binary + and -, * and /, unary + and -,
and ^ with a nonnegative integer exponent, so a*-x^2 is -a*x^2. A power or
product past poly's degree limit, and parentheses nested more than 300
deep, are parse errors. '#' starts a comment. The parser keeps the
top-level summands of each equation separate because network extraction is
defined on them; print_model writes those summands back out, so a parsed
model reprints to the same bytes (the format is its own normal form).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from .errors import AlgebraError, ModelError, ModelParseError
from .network import Model
from .poly import MultiPoly, RatFunc, Ring, ring_of


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# One token after optional blanks: a comment runs to the end of the line; a
# name starts with a letter or '_' (checked in tokenize, as \w holds other
# numerals) and goes on with letters, digits and '_'; a number is decimal
# digits with at most one '.'; anything else is an error.
_TOKEN = re.compile(r"[ \t\r]*(?:(?P<comment>#)|(?P<name>[^\W\d]\w*)|(?P<number>\d+(?:\.\d*)?)"
                    r"|(?P<symbol>[=+\-*/(){},:^'])|(?P<other>[^ \t\r]))")


class Token(NamedTuple):
    kind: str           # "name" | "number" | symbol itself | "eol"
    text: str
    line: int
    col: int


def tokenize(raw: str, lineno: int) -> list[Token]:
    '''The tokens of one line up to its comment, then an "eol" token.'''
    tokens: list[Token] = []
    for m in _TOKEN.finditer(raw):
        kind = m.lastgroup
        if kind == "comment":
            break
        word, col = m[kind], m.start(kind) + 1
        if kind == "other" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise ModelParseError(f"unexpected character {word[0]!r}", lineno, col)
        tokens.append(Token(word if kind == "symbol" else kind, word, lineno, col))
    tokens.append(Token("eol", "", lineno, len(raw) + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Cursor:
    '''Reads the tokens of one line; it stays on the closing "eol".'''

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eol":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ModelParseError(f"expected {kind!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def at_line_end(self) -> bool:
        return self.peek().kind == "eol"


def _declared(t: Token, pool, what: str) -> str:
    '''The name t when it is in pool, else the parse error "what 't'" at t.'''
    if t.text not in pool:
        raise ModelParseError(f"{what} {t.text!r}", t.line, t.col)
    return t.text


def _comma_list(cur: _Cursor, kind: str) -> list[Token]:
    '''One or more tokens of kind separated by commas.'''
    items = [cur.expect(kind)]
    while cur.peek().kind == ",":
        cur.next()
        items.append(cur.expect(kind))
    return items


_ONE = MultiPoly.const(1)
_MAX_NESTING = 300   # parentheses; each level takes three frames of the parser


class _ExprParser:
    '''Recursive descent over one line of tokens. From loosest to tightest:
    binary + and -, then * and /, then unary + and -, then ^; so -x^2 is
    -(x^2) wherever it stands, a*-x^2 included. parse_summands keeps the
    top-level additive structure that extract_network consumes. Every
    polynomial is built in ring, the ring of the declared names.'''

    def __init__(self, cur: _Cursor, ring: Ring):
        self.cur = cur
        self.ring = ring
        self.depth = 0   # parentheses open

    def parse_summands(self) -> list[RatFunc]:
        try:
            out = self._summands()
        except AlgebraError as exc:   # a total degree past the limit
            self._refuse(str(exc))
        except RecursionError:        # a caller's stack left too little room
            self._refuse("expression nested too deeply")
        t = self.cur.peek()
        if not self.cur.at_line_end():
            raise ModelParseError(f"expected '+' or '-', found {t.text!r}", t.line, t.col)
        return out

    def _refuse(self, message: str) -> NoReturn:
        t = self.cur.tokens[self.cur.i - 1]   # at the token just read
        raise ModelParseError(message, t.line, t.col) from None

    def _summands(self) -> list[RatFunc]:
        '''Terms joined by a binary + or -, each term carrying its sign.'''
        out = [self._term(1)]
        while self.cur.peek().kind in ("+", "-"):
            out.append(self._term(-1 if self.cur.next().kind == "-" else 1))
        return out

    def _term(self, sign: int) -> RatFunc:
        '''A product of factors, built as one numerator and one denominator
        and made a RatFunc once.'''
        num, den = self._factor()
        while self.cur.peek().kind in ("*", "/"):
            t = self.cur.next()
            n, d = self._factor()
            if t.kind == "/":
                if n.is_zero:
                    raise ModelParseError("division by zero", t.line, t.col)
                n, d = d, n
            num, den = num * n, den * d
        return RatFunc(num.scaled(sign), den)

    def _factor(self) -> tuple[MultiPoly, MultiPoly]:
        '''(numerator, denominator) of any number of unary signs before a
        number, a name or a parenthesised expression, and its optional
        integer power.'''
        negate = False
        while self.cur.peek().kind in ("+", "-"):
            negate ^= self.cur.next().kind == "-"
        t = self.cur.next()
        if t.kind == "number":
            num, den = MultiPoly.const(Fraction(t.text)), _ONE
        elif t.kind == "name":
            num, den = self.ring.var(_declared(t, self.ring.index, "undeclared name")), _ONE
        elif t.kind == "(":
            if self.depth == _MAX_NESTING:
                self._refuse("expression nested too deeply")
            self.depth += 1
            total = reduce(add, self._summands())
            self.depth -= 1
            self.cur.expect(")")
            num, den = total.num, total.den
        else:
            raise ModelParseError(f"expected a value, found {t.text or t.kind!r}", t.line, t.col)
        if self.cur.peek().kind == "^":
            self.cur.next()
            e = self.cur.next()
            if e.kind != "number" or "." in e.text:
                raise ModelParseError("exponent must be a nonnegative integer", e.line, e.col)
            num, den = num ** int(e.text), den ** int(e.text)
        return (-num if negate else num), den


def _parse_rational(cur: _Cursor) -> Fraction:
    sign = 1
    t = cur.peek()
    if t.kind in "+-":
        cur.next()
        sign = -1 if t.kind == "-" else 1
    num = cur.expect("number")
    value = Fraction(num.text)
    if cur.peek().kind == "/":
        cur.next()
        den = cur.expect("number")
        if Fraction(den.text) == 0:
            raise ModelParseError("zero denominator", den.line, den.col)
        value = value / Fraction(den.text)
    return sign * value


_SECTIONS = ("model", "variables", "parameters", "equations", "values", "metadata")
_RANK = MappingProxyType({head: rank for rank, head in enumerate(_SECTIONS)})


def parse_model_text(text: str, default_name: str = "model") -> Model:
    if not isinstance(text, str):
        raise ModelError(f"a model text is a str, not {type(text).__name__}")
    name = default_name
    variables: list[str] = []
    parameters: list[str] = []
    equations: dict[str, tuple[RatFunc, ...]] = {}
    values: dict[str, Fraction] = {}
    ngm_masks: dict[frozenset, tuple[int, ...]] = {}
    rank_one_edge = keep_variable = ring = None

    def equation(cur: _Cursor):
        vt = cur.expect("name")
        v = _declared(vt, variables, "equation for non-variable")
        if v in equations:
            raise ModelParseError(f"second equation for {v!r}", vt.line, vt.col)
        cur.expect("'")
        cur.expect("=")
        equations[v] = tuple(_ExprParser(cur, ring).parse_summands())

    def value(cur: _Cursor):
        pt = cur.expect("name")
        p = _declared(pt, parameters, "value for non-parameter")
        if p in values:
            raise ModelParseError(f"second value for {p!r}", pt.line, pt.col)
        cur.expect("=")
        values[p] = _parse_rational(cur)

    def once(entry: Token, value):
        '''The parse error at entry when its value has been read already.'''
        if value is not None:
            raise ModelParseError(f"second {entry.text} entry", entry.line, entry.col)

    def metadata(cur: _Cursor):
        nonlocal rank_one_edge, keep_variable
        mt = cur.expect("name")
        if mt.text == "ngm_mask":
            cur.expect("{")
            members = _comma_list(cur, "name")
            cur.expect("}")
            node = frozenset(_declared(t, variables, "mask names non-variable") for t in members)
            if node in ngm_masks:
                members = ",".join(sorted(node, key=variables.index))
                raise ModelParseError(f"second ngm_mask for {{{members}}}", mt.line, mt.col)
            cur.expect("=")
            indices = []
            for t in _comma_list(cur, "number"):
                if "." in t.text or int(t.text) < 1:
                    raise ModelParseError("mask indices are 1-based integers", t.line, t.col)
                if int(t.text) in indices:
                    raise ModelParseError(f"mask index {int(t.text)} named twice", t.line, t.col)
                indices.append(int(t.text))
            ngm_masks[node] = tuple(sorted(indices))
        elif mt.text == "rank_one_edge":
            once(mt, rank_one_edge)
            cur.expect("=")
            row, col, scale = (cur.expect("name") for _ in range(3))
            rank_one_edge = (_declared(row, variables, "rank_one_edge needs a variable, got"),
                             _declared(col, variables, "rank_one_edge needs a variable, got"),
                             _declared(scale, parameters, "rank_one_edge needs a parameter, got"))
        elif mt.text == "keep":
            once(mt, keep_variable)
            cur.expect("=")
            keep_variable = _declared(cur.expect("name"), variables, "keep names non-variable")
        else:
            raise ModelParseError(f"unknown metadata entry {mt.text!r}", mt.line, mt.col)

    def outside(cur: _Cursor):
        t = cur.expect("name")
        raise ModelParseError(f"unexpected section {t.text!r}", t.line, t.col)

    bodies = {"equations": equation, "values": value, "metadata": metadata}
    section = None
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = tokenize(raw, lineno)
        kw, cur = tokens[0], _Cursor(tokens)
        if kw.kind == "eol":
            continue
        if kw.text not in _RANK or tokens[1].kind in ("'", "="):
            bodies.get(section, outside)(cur)
        elif _RANK[kw.text] <= _RANK.get(section, -1):
            raise ModelParseError(f"section {kw.text!r} out of order", kw.line, kw.col)
        else:
            section = cur.next().text
            if section == "model":
                name = cur.expect("name").text
            else:
                cur.expect(":")
            if section in ("variables", "parameters"):
                target = variables if section == "variables" else parameters
                while not cur.at_line_end():
                    t = cur.expect("name")
                    if t.text in variables or t.text in parameters:
                        raise ModelParseError(f"{t.text!r} declared twice", t.line, t.col)
                    target.append(t.text)
            elif section == "equations":
                cur.expect("eol")
                if not variables:
                    raise ModelParseError("equations before variables", kw.line, kw.col)
                ring = ring_of(variables + parameters)
        cur.expect("eol")

    missing = [v for v in variables if v not in equations]
    if missing:
        raise ModelParseError(f"no equation for: {', '.join(missing)}", len(lines) + 1, 1)
    return Model(
        name=name,
        variables=tuple(variables),
        parameters=tuple(parameters),
        rhs_terms=equations,
        values=values,
        ngm_masks=ngm_masks,
        rank_one_edge=rank_one_edge,
        keep_variable=keep_variable,
    )


def parse_model_file(path: str) -> Model:
    '''The model in the UTF-8 file at path (a str or an os.PathLike),
    named by the file's stem unless a model line names it. ModelError for
    any other path; ModelParseError, with the position of the first bad
    byte, for a file that is not UTF-8.'''
    if not isinstance(path, (str, os.PathLike)):
        raise ModelError(f"a model file path is a str or a path, not {type(path).__name__}")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise ModelParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                              before.count("\n") + 1, len(before) - before.rfind("\n")) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")   # as a text-mode read gives it
    return parse_model_text(text, default_name=_name_token(os.path.splitext(os.path.basename(path))[0]))


def _name_token(stem: str) -> str:
    '''stem as a name that print_model writes and the parser reads back:
    each character outside [A-Za-z0-9_] becomes _, and _ leads a stem that
    starts with a digit or is empty.'''
    name = re.sub(r"[^A-Za-z0-9_]", "_", stem)
    return name if name[:1].isalpha() or name[:1] == "_" else "_" + name


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _summand_str(rf: RatFunc, first: bool) -> str:
    '''One summand as str(rf) writes it, a sum over 1 in parentheses so
    that it reads back as one summand; after the first, its sign becomes a
    binary + or -, which only a one-monomial numerator can carry.'''
    text = f"({rf})" if rf.num.size > 1 and rf.den.is_constant else str(rf)
    if first:
        return text
    return f"- {text[1:]}" if text[0] == "-" else f"+ {text}"


def print_model(m: Model) -> str:
    if not isinstance(m, Model):
        raise ModelError(f"print_model takes a Model, not {type(m).__name__}")
    lines = [f"model {m.name}", "variables: " + " ".join(m.variables),
             "parameters: " + " ".join(m.parameters), "", "equations:"]
    for v in m.variables:
        parts = (_summand_str(t, i == 0) for i, t in enumerate(m.rhs_terms[v]))
        lines.append(f"    {v}' = " + " ".join(parts))
    if m.values:
        lines += ["", "values:"]
        lines += (f"    {p} = {m.values[p]}" for p in m.parameters if p in m.values)
    if m.ngm_masks or m.rank_one_edge or m.keep_variable:
        lines += ["", "metadata:"]
        for node in sorted(m.ngm_masks, key=lambda s: (len(s), tuple(sorted(m.var_index(v) for v in s)))):
            members = ",".join(m.sort_vars(node))
            idx = ",".join(str(i) for i in m.ngm_masks[node])
            lines.append(f"    ngm_mask {{{members}}} = {idx}")
        if m.rank_one_edge:
            lines.append("    rank_one_edge = " + " ".join(m.rank_one_edge))
        if m.keep_variable:
            lines.append(f"    keep = {m.keep_variable}")
    return "\n".join(lines) + "\n"
