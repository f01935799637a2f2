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
numeric literals (at most 100000 decimal digits with at most one '.', kept
exact; fractions via /). From loosest to tightest: binary + and -, * and /, unary + and -,
and ^ with a nonnegative integer exponent, so a*-x^2 is -a*x^2. A power or
product past poly's degree limit, a power of a number or a term's number
part of more than 100000 digits (numerator or denominator), a parenthesised
sum, a product or a power of one, or an equation's whole right-hand side,
whose norm (MultiPoly.norm) has more, a value whose numerator or
denominator has more (refused at its parameter's name, as --set refuses
it), and parentheses nested more than 300 deep, are parse errors. '#'
starts a comment. The parser keeps the top-level summands of each
equation separate because network extraction is defined on them;
print_model writes those summands back out, so a parsed model reprints to
the same bytes (the format is its own normal form).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import NoReturn

from .errors import AlgebraError, ModelError, ModelParseError
from .network import Model
from .poly import MultiPoly, RatFunc, Ring, check_degree, ring_of
from .scalars import (MAX_DIGITS, int_text, rational_text, read_decimal, read_int,
                      read_rational, too_long)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# One token after optional blanks: a name starts with a letter or '_' (a
# character of \w that is neither, such as a superscript, is refused) and
# goes on with letters, digits and '_'; a number is decimal digits with at
# most one '.'; a symbol; a line end; a comment, from '#' to the line end;
# or any other single character, which is refused.
_TOKEN = re.compile(r"[ \t\r]*([^\W\d]\w*|\d+(?:\.\d*)?|[=+\-*/(){},:^'\n]|#[^\n]*|[^ \t\r])")
_SYMBOLS = frozenset("=+-*/(){},:^'")


def _kind(t: str) -> str:
    '''The kind of token t: the symbol itself, "eol" (the empty token
    that ends every line), "number" or "name".'''
    if t in _SYMBOLS:
        return t
    if not t:
        return "eol"
    return "number" if t[0].isdecimal() else "name"


def _lines(text: str):
    '''A cursor for each line of text, as str.splitlines reads them,
    numbered from 1. The whole text is tokenized at once, and each line's
    cursor gets its tokens, checked (_Cursor.refuse_tokens) before the line
    is read.'''
    lines = text.splitlines()
    tokens = _TOKEN.findall("\n".join(lines))
    tokens.append("\n")
    start = 0
    for lineno, raw in enumerate(lines, start=1):
        end = tokens.index("\n", start)
        cur = _Cursor(tokens[start:end], raw, lineno)
        start = end + 1
        cur.refuse_tokens()
        yield cur


class _Cursor:
    '''The tokens of one line up to its comment, as strs, then "" for its
    end; the cursor stays on that last one. A token's column is found only
    for an error.'''

    def __init__(self, tokens: list[str], raw: str, lineno: int):
        if tokens and tokens[-1][0] == "#":
            tokens[-1] = ""
        else:
            tokens.append("")
        self.tokens, self.raw, self.line, self.i = tokens, raw, lineno, 0

    def refuse_tokens(self) -> None:
        '''The parse error at the first token that is neither a symbol, a
        name nor a number ("unexpected character"), or is a number of more
        than MAX_DIGITS digits, if there is one.'''
        for i, t in enumerate(self.tokens[:-1]):
            if t in _SYMBOLS or t[0].isalpha() or t[0] == "_":
                continue
            if not t[0].isdecimal():
                self.fail(f"unexpected character {t[0]!r}", i)
            if len(t) > MAX_DIGITS and len(t) - ("." in t) > MAX_DIGITS:
                self.fail(f"a number of more than {MAX_DIGITS} digits", i)

    def _columns(self) -> list[int]:
        '''The column of each token, the end of the line last.'''
        return [m.start(1) + 1 for m in _TOKEN.finditer(self.raw)
                if m[1][0] != "#"] + [len(self.raw) + 1]

    def fail(self, message: str, at: int) -> NoReturn:
        '''The parse error message at token at.'''
        raise ModelParseError(message, self.line, self._columns()[at]) from None

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        t = self.tokens[self.i]
        if t:
            self.i += 1
        return t

    def expect(self, kind: str) -> str:
        t = self.tokens[self.i]
        if _kind(t) != kind:
            self.fail(f"expected {kind!r}, found {t or 'eol'!r}", self.i)
        if t:
            self.i += 1
        return t

    def declared(self, pool, what: str) -> str:
        '''The next token, a name in pool, else the parse error "what 't'".'''
        t = self.expect("name")
        if t not in pool:
            self.fail(f"{what} {t!r}", self.i - 1)
        return t

    def comma_list(self, kind: str) -> list[tuple[int, str]]:
        '''One or more tokens of kind separated by commas, each with its
        index.'''
        items = [(self.i, self.expect(kind))]
        while self.tokens[self.i] == ",":
            self.i += 1
            items.append((self.i, self.expect(kind)))
        return items


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_MAX_NESTING = 300   # parentheses; each level takes three frames of the parser


class _ExprParser:
    '''Recursive descent over one line of tokens. From loosest to tightest:
    binary + and -, then * and /, then unary + and -, then ^; so -x^2 is
    -(x^2) wherever it stands, a*-x^2 included. parse_summands keeps the
    top-level additive structure that extract_network consumes.

    A term is built on the ring's packed monomials (poly.Ring): a product of
    names and numbers is a coefficient times the monomial x^nk over x^dk, so
    a name adds its unit key and a power multiplies one; only the sums in
    parentheses are polynomials, multiplied in as they are read. Each power
    and product is checked against the degree limit where it is read
    (poly.check_degree) and against MAX_DIGITS (too_long), and the term
    is made a RatFunc once.'''

    def __init__(self, cur: _Cursor, ring: Ring):
        self.cur, self.tokens = cur, cur.tokens
        self.ring = ring
        self.depth = 0   # parentheses open

    def parse_summands(self) -> tuple[tuple[RatFunc, ...], RatFunc]:
        '''The summands of the rest of the line and their sum, which is
        bounded as a parenthesised sum is.'''
        try:
            out = self._summands()
            t = self.cur.peek()
            if t:
                self.cur.fail(f"expected '+' or '-', found {t!r}", self.cur.i)
            total = reduce(add, out)
            self._bound(total)
        except AlgebraError as exc:   # a total degree past the limit
            self.cur.fail(str(exc), self.cur.i - 1)   # at the token just read
        except RecursionError:        # a caller's stack left too little room
            self.cur.fail("expression nested too deeply", self.cur.i - 1)
        return tuple(out), total

    def _bound(self, total: RatFunc) -> None:
        '''Refuse a sum at the token just read when the norm of its
        numerator or denominator has more than MAX_DIGITS digits.'''
        if too_long(*total.num.norm()) or too_long(*total.den.norm()):
            self.cur.fail(f"a sum of more than {MAX_DIGITS} digits", self.cur.i - 1)

    def _summands(self) -> list[RatFunc]:
        '''Terms joined by a binary + or -, each term carrying its sign.'''
        cur, tokens = self.cur, self.tokens
        out = [self._term(1)]
        while tokens[cur.i] in ("+", "-"):
            cur.i += 1
            out.append(self._term(-1 if tokens[cur.i - 1] == "-" else 1))
        return out

    def _term(self, sign: int) -> RatFunc:
        '''A product of factors: c x^nk / x^dk times num / den, the products
        of the polynomials of its parenthesised factors (None for 1), of
        total degree pdeg and qdeg. Once a factor is multiplied in, c times
        the norm of num, and the norm of den, must be within MAX_DIGITS. A
        zero factor makes c zero, and a zero product is checked no further,
        as poly's product checks none.'''
        cur, tokens, shift = self.cur, self.tokens, self.ring.deg_shift
        c, nk, dk, num, den, pdeg, qdeg = sign, 0, 0, None, None, 0, 0
        divide = False
        while True:
            fc, fk, fn, fd = self._factor()
            if divide:   # the factor's numerator goes below, its denominator above
                if not fc:
                    cur.fail("division by zero", op_at)
                fc, fk, fn, dc, dkey, fd = 1, 0, fd, fc, fk, fn
            else:
                dc, dkey = 1, 0
            if c and fc:
                check_degree((nk + fk >> shift) + pdeg + (0 if fn is None else fn.degree),
                             "product")
            if dkey or fd is not None:
                check_degree((dk + dkey >> shift) + qdeg + (0 if fd is None else fd.degree),
                             "product")
            c, nk, dk = c * fc if dc == 1 else Fraction(c * fc, dc), nk + fk, dk + dkey
            if fn is not None and c:
                num, pdeg = fn if num is None else num * fn, pdeg + fn.degree
            if fd is not None:
                den, qdeg = fd if den is None else den * fd, qdeg + fd.degree
            n, q = (1, 1) if num is None or not c else num.norm()
            if too_long(c.numerator * n, c.denominator * q) or (
                    fd is not None and too_long(*den.norm())):
                cur.fail(f"a product of more than {MAX_DIGITS} digits", cur.i - 1)
            t = tokens[cur.i]
            if t != "*" and t != "/":
                break
            op_at, divide = cur.i, t == "/"
            cur.i += 1
        if not c:
            return RatFunc.const(0)
        top = self.ring.term(nk, c) if nk else MultiPoly.const(c)
        bottom = self.ring.term(dk, 1) if dk else None
        if num is not None:
            top = top * num
        if den is not None:
            bottom = den if bottom is None else bottom * den
        return RatFunc(top, bottom)

    def _factor(self) -> tuple:
        '''Any number of unary signs before a number, a name or a
        parenthesised expression, and its optional integer power, as (c, k,
        num, den), the value c x^k num / den: num and den are the nonconstant
        numerator and denominator of a parenthesised expression, each None
        when it is constant (its value is in c).'''
        cur, tokens, ring = self.cur, self.tokens, self.ring
        negate = False
        while tokens[cur.i] in ("+", "-"):
            negate ^= tokens[cur.i] == "-"
            cur.i += 1
        t = cur.next()
        c, k, num, den = 1, 0, None, None
        if t in ring.index:
            k = ring.unit[ring.index[t]]
        elif t[:1].isdecimal():
            c = read_decimal(t)
        elif t == "(":
            if self.depth == _MAX_NESTING:
                cur.fail("expression nested too deeply", cur.i - 1)
            self.depth += 1
            total = reduce(add, self._summands())
            self.depth -= 1
            cur.expect(")")
            self._bound(total)
            if total.num.is_constant:
                c = total.num.constant_value()
            else:
                num = total.num
            if not total.den.is_constant:   # else it is 1
                den = total.den
        elif _kind(t) == "name":
            cur.fail(f"undeclared name {t!r}", cur.i - 1)
        else:
            cur.fail(f"expected a value, found {t or 'eol'!r}", cur.i - (t != ""))
        if tokens[cur.i] == "^":
            cur.i += 1
            e = cur.next()
            if not e[:1].isdecimal() or "." in e:
                cur.fail("exponent must be a nonnegative integer", cur.i - (e != ""))
            e = read_int(e)
            polys = [p for p in (num, den) if p is not None]
            for p in polys:
                check_degree(p.degree * e, "power")
            check_degree((k >> ring.deg_shift) * e, "power")
            # The power of c, or of a polynomial of norm (n, q), is at most
            # n^e over q^e. The longer of all these parts, of b bits, is at
            # least 2^(b - 1), so past 4 MAX_DIGITS bits its power is too long
            # before it is computed.
            norms = [(c.numerator, c.denominator), *(p.norm() for p in polys)]
            b = max(x.bit_length() for pair in norms for x in pair)
            if (b - 1) * e > 4 * MAX_DIGITS or any(too_long(n ** e, q ** e) for n, q in norms):
                cur.fail(f"a power of more than {MAX_DIGITS} digits", cur.i - 1)
            c, k = c ** e, k * e
            num, den = (None if p is None else p ** e for p in (num, den))
        return (-c if negate else c), k, num, den


def _parse_rational(cur: _Cursor) -> Fraction:
    '''The value of the rest of a values entry, an optional sign and a
    number, optionally '/' and a number, read by scalars.read_rational from
    its tokens: the parse error at a token that does not fit, at a zero
    denominator, or at the entry's name for a value of more than
    MAX_DIGITS digits.'''
    start = cur.i
    if cur.peek() in ("+", "-"):
        cur.next()
    cur.expect("number")
    if cur.peek() == "/":
        cur.next()
        if not cur.expect("number").strip("0."):
            cur.fail("zero denominator", cur.i - 1)
    try:
        return read_rational("".join(cur.tokens[start:cur.i]))
    except ValueError as exc:   # a value of more than MAX_DIGITS digits
        cur.fail(str(exc), 0)


_SECTIONS = ("model", "variables", "parameters", "equations", "values", "metadata")
_RANK = MappingProxyType({head: rank for rank, head in enumerate(_SECTIONS)})


def parse_model_text(text: str, default_name: str = "model") -> Model:
    if not isinstance(text, str):
        raise ModelError(f"a model text is a str, not {type(text).__name__}")
    name = default_name
    variables: list[str] = []
    parameters: list[str] = []
    equations: dict[str, tuple[RatFunc, ...]] = {}
    sums: dict[str, RatFunc] = {}   # each equation's sum, kept by the model as its rhs
    values: dict[str, Fraction] = {}
    ngm_masks: dict[frozenset, tuple[int, ...]] = {}
    rank_one_edge = keep_variable = ring = None

    def equation(cur: _Cursor):
        v = cur.declared(variables, "equation for non-variable")
        if v in equations:
            cur.fail(f"second equation for {v!r}", cur.i - 1)
        cur.expect("'")
        cur.expect("=")
        equations[v], sums[v] = _ExprParser(cur, ring).parse_summands()

    def value(cur: _Cursor):
        p = cur.declared(parameters, "value for non-parameter")
        if p in values:
            cur.fail(f"second value for {p!r}", cur.i - 1)
        cur.expect("=")
        values[p] = _parse_rational(cur)

    def once(cur: _Cursor, entry: str, value):
        '''The parse error at the entry's name, the line's first token,
        when its value has been read already.'''
        if value is not None:
            cur.fail(f"second {entry} entry", 0)

    def metadata(cur: _Cursor):
        nonlocal rank_one_edge, keep_variable
        entry = cur.expect("name")
        if entry == "ngm_mask":
            cur.expect("{")
            members = cur.comma_list("name")
            cur.expect("}")
            for at, t in members:
                if t not in variables:
                    cur.fail(f"mask names non-variable {t!r}", at)
            node = frozenset(t for _, t in members)
            if node in ngm_masks:
                members = ",".join(sorted(node, key=variables.index))
                cur.fail(f"second ngm_mask for {{{members}}}", 0)
            cur.expect("=")
            indices = []
            for at, t in cur.comma_list("number"):
                index = 0 if "." in t else read_int(t)
                if index < 1:
                    cur.fail("mask indices are 1-based integers", at)
                if index in indices:
                    cur.fail(f"mask index {int_text(index)} named twice", at)
                indices.append(index)
            ngm_masks[node] = tuple(sorted(indices))
        elif entry == "rank_one_edge":
            once(cur, entry, rank_one_edge)
            cur.expect("=")
            names = [(cur.i, cur.expect("name")) for _ in range(3)]
            for (at, t), (pool, what) in zip(names, ((variables, "a variable"),
                                                     (variables, "a variable"),
                                                     (parameters, "a parameter"))):
                if t not in pool:
                    cur.fail(f"rank_one_edge needs {what}, got {t!r}", at)
            rank_one_edge = tuple(t for _, t in names)
        elif entry == "keep":
            once(cur, entry, keep_variable)
            cur.expect("=")
            keep_variable = cur.declared(variables, "keep names non-variable")
        else:
            cur.fail(f"unknown metadata entry {entry!r}", 0)

    def outside(cur: _Cursor):
        t = cur.expect("name")
        cur.fail(f"unexpected section {t!r}", 0)

    bodies = {"equations": equation, "values": value, "metadata": metadata}
    section = None
    lineno = 0
    for cur in _lines(text):
        lineno, kw = cur.line, cur.tokens[0]
        if not kw:
            continue
        if kw not in _RANK or cur.tokens[1] in ("'", "="):
            bodies.get(section, outside)(cur)
        elif _RANK[kw] <= _RANK.get(section, -1):
            cur.fail(f"section {kw!r} out of order", 0)
        else:
            section = cur.next()
            if section == "model":
                name = cur.expect("name")
            else:
                cur.expect(":")
            if section in ("variables", "parameters"):
                target = variables if section == "variables" else parameters
                while cur.peek():
                    t = cur.expect("name")
                    if t in variables or t in parameters:
                        cur.fail(f"{t!r} declared twice", cur.i - 1)
                    target.append(t)
            elif section == "equations":
                cur.expect("eol")
                if not variables:
                    cur.fail("equations before variables", 0)
                ring = ring_of(variables + parameters)
        cur.expect("eol")

    missing = [v for v in variables if v not in equations]
    if missing:
        raise ModelParseError(f"no equation for: {', '.join(missing)}", lineno + 1, 1)
    return Model(
        name=name,
        variables=tuple(variables),
        parameters=tuple(parameters),
        rhs_terms=equations,
        values=values,
        ngm_masks=ngm_masks,
        rank_one_edge=rank_one_edge,
        keep_variable=keep_variable,
        rhs_sums=sums,
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
        lines += (f"    {p} = {rational_text(m.values[p])}" for p in m.parameters if p in m.values)
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
