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

Expressions use + - * / ^ and parentheses over declared names and exact
numeric literals (integers, fractions via /, and decimal strings, all kept
exact). One equation per line. '#' starts a comment. The parser keeps the
top-level summands of each equation separate because network extraction is
defined on them; print_model writes those summands back out, so a parsed
model reprints to the same bytes (the format is its own normal form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelParseError
from .network import Model
from .poly import MultiPoly, RatFunc, Ring, ring_of


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_SYMBOLS = set("=+-*/(){},:^'")


@dataclass(frozen=True)
class Token:
    kind: str           # "name" | "number" | symbol itself | "eol" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (raw[j].isalnum() or raw[j] == "_"):
                    j += 1
                tokens.append(Token("name", raw[i:j], lineno, col))
                i = j
            elif ch.isdigit():
                j = i + 1
                seen_dot = False
                while j < n and (raw[j].isdigit() or (raw[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or raw[j] == "."
                    j += 1
                tokens.append(Token("number", raw[i:j], lineno, col))
                i = j
            elif ch in _SYMBOLS:
                tokens.append(Token(ch, ch, lineno, col))
                i += 1
            else:
                raise ModelParseError(f"unexpected character {ch!r}", lineno, col)
        tokens.append(Token("eol", "", lineno, len(raw) + 1))
    tokens.append(Token("eof", "", len(text.splitlines()) + 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ModelParseError(f"expected {kind!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def skip_eols(self):
        while self.peek().kind == "eol":
            self.next()

    def at_line_end(self) -> bool:
        return self.peek().kind in ("eol", "eof")


class _ExprParser:
    '''Recursive descent over one line of tokens; *_summands keeps the
    top-level additive structure that extract_network consumes. Every
    polynomial is built in ring, the ring of the declared names.'''

    def __init__(self, cur: _Cursor, ring: Ring):
        self.cur = cur
        self.ring = ring

    def parse_summands(self) -> list[RatFunc]:
        out = [self._term(self._sign())]
        while not self.cur.at_line_end():
            t = self.cur.peek()
            if t.kind not in "+-":
                raise ModelParseError(f"expected '+' or '-', found {t.text!r}", t.line, t.col)
            out.append(self._term(self._sign()))
        return out

    def _sign(self) -> int:
        '''Consume an optional '+' or '-'; -1 for a minus, else 1.'''
        t = self.cur.peek()
        if t.kind not in "+-":
            return 1
        self.cur.next()
        return -1 if t.kind == "-" else 1

    def _term(self, sign: int) -> RatFunc:
        '''A product of powers, built as one numerator and one denominator
        and made a RatFunc once.'''
        num, den = self._power()
        while self.cur.peek().kind in ("*", "/"):
            t = self.cur.next()
            n, d = self._power()
            if t.kind == "*":
                num, den = num * n, den * d
            elif n.is_zero:
                raise ModelParseError("division by zero", t.line, t.col)
            else:
                num, den = num * d, den * n
        return RatFunc(num.scaled(sign), den)

    def _power(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self._atom()
        if self.cur.peek().kind != "^":
            return num, den
        self.cur.next()
        e = self.cur.peek()
        if e.kind != "number" or "." in e.text:
            raise ModelParseError("exponent must be a nonnegative integer", e.line, e.col)
        self.cur.next()
        k = int(e.text)
        return num ** k, den ** k

    def _atom(self) -> tuple[MultiPoly, MultiPoly]:
        '''(numerator, denominator) of one signed number, name or
        parenthesised expression.'''
        t = self.cur.peek()
        if t.kind in "+-":
            self.cur.next()
            num, den = self._atom()
            return (-num if t.kind == "-" else num), den
        if t.kind == "number":
            self.cur.next()
            return MultiPoly.const(Fraction(t.text)), MultiPoly.const(1)
        if t.kind == "name":
            if t.text not in self.ring.index:
                raise ModelParseError(f"undeclared name {t.text!r}", t.line, t.col)
            self.cur.next()
            return self.ring.var(t.text), MultiPoly.const(1)
        if t.kind == "(":
            self.cur.next()
            total = self._term(self._sign())
            while self.cur.peek().kind in "+-":
                total = total + self._term(self._sign())
            self.cur.expect(")")
            return total.num, total.den
        raise ModelParseError(f"expected a value, found {t.text or t.kind!r}", t.line, t.col)


def _parse_name_list(cur: _Cursor) -> list[Token]:
    names = []
    while not cur.at_line_end():
        names.append(cur.expect("name"))
    return names


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


def parse_model_text(text: str, default_name: str = "model") -> Model:
    cur = _Cursor(tokenize(text))
    name = default_name
    variables: list[str] = []
    parameters: list[str] = []
    equations: dict[str, tuple[RatFunc, ...]] = {}
    values: dict[str, Fraction] = {}
    ngm_masks: dict[frozenset, tuple[int, ...]] = {}
    rank_one_edge = None
    keep_variable = None

    def declared() -> set[str]:
        return set(variables) | set(parameters)

    cur.skip_eols()
    while cur.peek().kind != "eof":
        head = cur.expect("name")
        if head.text == "model":
            name = cur.expect("name").text
            cur.expect("eol")
        elif head.text in ("variables", "parameters"):
            cur.expect(":")
            target = variables if head.text == "variables" else parameters
            for t in _parse_name_list(cur):
                if t.text in declared():
                    raise ModelParseError(f"{t.text!r} declared twice", t.line, t.col)
                target.append(t.text)
            cur.expect("eol")
        elif head.text == "equations":
            cur.expect(":")
            cur.expect("eol")
            if not variables:
                raise ModelParseError("equations before variables", head.line, head.col)
            cur.skip_eols()
            while cur.peek().kind == "name" and cur.peek().text not in ("values", "metadata"):
                vt = cur.expect("name")
                if vt.text not in variables:
                    raise ModelParseError(f"equation for non-variable {vt.text!r}", vt.line, vt.col)
                if vt.text in equations:
                    raise ModelParseError(f"second equation for {vt.text!r}", vt.line, vt.col)
                cur.expect("'")
                cur.expect("=")
                ring = ring_of(variables + parameters)
                equations[vt.text] = tuple(_ExprParser(cur, ring).parse_summands())
                cur.expect("eol")
                cur.skip_eols()
        elif head.text == "values":
            cur.expect(":")
            cur.expect("eol")
            cur.skip_eols()
            while cur.peek().kind == "name" and cur.peek().text not in ("metadata", "equations"):
                pt = cur.expect("name")
                if pt.text not in parameters:
                    raise ModelParseError(f"value for non-parameter {pt.text!r}", pt.line, pt.col)
                cur.expect("=")
                values[pt.text] = _parse_rational(cur)
                cur.expect("eol")
                cur.skip_eols()
        elif head.text == "metadata":
            cur.expect(":")
            cur.expect("eol")
            cur.skip_eols()
            while cur.peek().kind == "name":
                mt = cur.expect("name")
                if mt.text == "ngm_mask":
                    cur.expect("{")
                    members = [cur.expect("name")]
                    while cur.peek().kind == ",":
                        cur.next()
                        members.append(cur.expect("name"))
                    cur.expect("}")
                    for t in members:
                        if t.text not in variables:
                            raise ModelParseError(f"mask names non-variable {t.text!r}", t.line, t.col)
                    cur.expect("=")
                    idx = [cur.expect("number")]
                    while cur.peek().kind == ",":
                        cur.next()
                        idx.append(cur.expect("number"))
                    indices = []
                    for t in idx:
                        if "." in t.text or int(t.text) < 1:
                            raise ModelParseError("mask indices are 1-based integers", t.line, t.col)
                        indices.append(int(t.text))
                    ngm_masks[frozenset(t.text for t in members)] = tuple(sorted(indices))
                elif mt.text == "rank_one_edge":
                    cur.expect("=")
                    row = cur.expect("name")
                    colv = cur.expect("name")
                    scale = cur.expect("name")
                    for t, pool, what in ((row, variables, "variable"), (colv, variables, "variable"),
                                          (scale, parameters, "parameter")):
                        if t.text not in pool:
                            raise ModelParseError(f"rank_one_edge needs a {what}, got {t.text!r}",
                                                  t.line, t.col)
                    rank_one_edge = (row.text, colv.text, scale.text)
                elif mt.text == "keep":
                    cur.expect("=")
                    kv = cur.expect("name")
                    if kv.text not in variables:
                        raise ModelParseError(f"keep names non-variable {kv.text!r}", kv.line, kv.col)
                    keep_variable = kv.text
                else:
                    raise ModelParseError(f"unknown metadata entry {mt.text!r}", mt.line, mt.col)
                cur.expect("eol")
                cur.skip_eols()
        else:
            raise ModelParseError(f"unexpected section {head.text!r}", head.line, head.col)
        cur.skip_eols()

    missing = [v for v in variables if v not in equations]
    if missing:
        raise ModelParseError(f"no equation for: {', '.join(missing)}", cur.peek().line, 1)
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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_model_text(text, default_name=stem)


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _summand_str(rf: RatFunc) -> tuple[str, str]:
    '''Render one summand as (sign, body) with the sign folded out when the
    numerator is a single monomial.'''
    num, den = rf.num, rf.den
    sign = "+"
    if num.size == 1 and min(num.terms.values()) < 0:
        sign = "-"
        num = -num
    body_num = str(num)
    if num.size > 1:
        body_num = f"({body_num})"
    if den.is_constant and den.constant_value() == 1:
        return sign, body_num
    body_den = str(den)
    if den.size > 1:
        body_den = f"({body_den})"
    return sign, f"{body_num}/{body_den}"


def print_model(m: Model) -> str:
    lines = [f"model {m.name}"]
    lines.append("variables: " + " ".join(m.variables))
    lines.append("parameters: " + " ".join(m.parameters))
    lines.append("")
    lines.append("equations:")
    for v in m.variables:
        parts = []
        for i, t in enumerate(m.rhs_terms[v]):
            sign, body = _summand_str(t)
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{'+' if sign == '+' else '-'} {body}")
        lines.append(f"    {v}' = " + " ".join(parts))
    if m.values:
        lines.append("")
        lines.append("values:")
        for p in m.parameters:
            if p in m.values:
                lines.append(f"    {p} = {m.values[p]}")
    if m.ngm_masks or m.rank_one_edge or m.keep_variable:
        lines.append("")
        lines.append("metadata:")
        for node in sorted(m.ngm_masks, key=lambda s: (len(s), tuple(sorted(m.var_index(v) for v in s)))):
            members = ",".join(m.sort_vars(node))
            idx = ",".join(str(i) for i in m.ngm_masks[node])
            lines.append(f"    ngm_mask {{{members}}} = {idx}")
        if m.rank_one_edge:
            lines.append("    rank_one_edge = " + " ".join(m.rank_one_edge))
        if m.keep_variable:
            lines.append(f"    keep = {m.keep_variable}")
    return "\n".join(lines) + "\n"
