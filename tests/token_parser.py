"""The token parser that pgr.dsl used before its scanner, kept verbatim
as the oracle for the differential parser test (test_dsl.py): it
tokenizes the whole text into Token objects, then walks the tokens.

Its parse_to_element and parse_basis_label are the reference for every
element and every error (class, message, offset, expected) that the
scanner in pgr.dsl must reproduce.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from pgr.errors import DomainError, KeyRangeError, ParseError
from pgr.groupring import GroupRing, GroupRingElement
from pgr.groups import AdiagGroup

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[()*,+-])"
)


def _decimal(digits: str, offset: int) -> int:
    """The value of an ASCII digit string; ParseError at offset when it is
    longer than the interpreter converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits",
            offset,
        ) from None


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "punct" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, ctx: GroupRing, text: str):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, char: str) -> Token:
        tok = self.take()
        if tok.kind != "punct" or tok.text != char:
            raise ParseError(
                f"unexpected {tok.text or 'end of input'!r}", tok.offset, (char,)
            )
        return tok

    def parse_int(self, what: str) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "punct" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        tok = self.take()
        if tok.kind != "int":
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.offset,
                ("integer",),
            )
        return sign * _decimal(tok.text, tok.offset)

    def parse_basis(self):
        tok = self.take()
        group = self.ctx.group
        if tok.kind != "ident" or not tok.text.startswith("g"):
            raise ParseError(
                f"expected a basis element, found {tok.text or 'end of input'!r}",
                tok.offset,
                ("g(<m>,<n>)", "g<index>"),
            )
        if tok.text == "g":
            # exponent-pair form, only meaningful for the antidiagonal family
            if not isinstance(group, AdiagGroup):
                raise ParseError(
                    f"{group.name} keys use the g<index> form", tok.offset,
                    ("g<index>",),
                )
            self.expect_punct("(")
            m = self.parse_int("first exponent")
            self.expect_punct(",")
            n = self.parse_int("second exponent")
            self.expect_punct(")")
            if not group.contains((m, n)):
                raise KeyRangeError(
                    f"g({m},{n}) outside Z_{group.k} x Z_{group.k}", tok.offset
                )
            return (m, n)
        if re.fullmatch(r"g[0-9]+", tok.text):
            index = _decimal(tok.text[1:], tok.offset)
            try:
                return group.key(index - 1)
            except DomainError as exc:
                raise KeyRangeError(
                    f"legacy index {index} outside 1..{group.size()}", tok.offset
                ) from exc
        raise ParseError(
            f"malformed basis {tok.text!r}", tok.offset, ("g(<m>,<n>)", "g<index>")
        )

    def parse_term(self) -> tuple:
        """One term as a (group key, coefficient) pair."""
        coefficient = self.parse_int("a coefficient")
        symbol = self.ctx.ring.symbol
        if symbol:
            sym = self.take()
            if sym.kind != "ident" or sym.text != symbol:
                raise ParseError(
                    f"expected ring symbol {symbol!r}, found "
                    f"{sym.text or 'end of input'!r}",
                    sym.offset,
                    (symbol,),
                )
        self.expect_punct("*")
        return self.parse_basis(), coefficient

    def parse_element(self) -> GroupRingElement:
        first = self.peek()
        if (
            first.kind == "int"
            and first.text == "0"
            and self.tokens[self.pos + 1].kind == "eof"
        ):
            return self.ctx.zero()
        pairs = [self.parse_term()]
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "punct" and tok.text == "+":
                self.take()
                pairs.append(self.parse_term())
                continue
            raise ParseError(
                f"unexpected {tok.text!r}", tok.offset, ("+", "end of input")
            )
        return self.ctx.element(pairs)


def parse_to_element(ctx: GroupRing, text: str) -> GroupRingElement:
    """Parse an element expression against the active context's grammar
    and build the element."""
    return _Parser(ctx, text).parse_element()


def parse_basis_label(ctx: GroupRing, text: str):
    """Parse a single basis label such as g(1,1) or g5."""
    parser = _Parser(ctx, text)
    key = parser.parse_basis()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r}", tok.offset, ("end of input",))
    return key
