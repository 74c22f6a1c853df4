"""Expression language and configuration for the CLI.

Grammar (whitespace between tokens is free):

    element := term ("+" term)* | "0"
    term    := signed-int ring-symbol "*" basis
    basis   := "g(" int "," int ")" | "g" int        (legacy single index)

Integers are ASCII digit strings no longer than the interpreter converts
(sys.get_int_max_str_digits); a longer one is a ParseError.  The ring
symbol is fixed by the active context: "" for the plain integer ring
(q = 1), "j" for q = 2, "j<q>" otherwise.  The legacy index form g<i>
is the key at position i - 1 (group.key), so i = k*n + m + 1 for the
antidiagonal family and the published worked elements can be typed
verbatim.

parse_to_element reads each term straight into a (group key,
coefficient) pair and hands the pairs to GroupRing.element, which
normalizes coefficients and gathers repeated keys; the lone literal 0 is
the context's zero.  No syntax tree sits between the text and the
element.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass

from .errors import ConfigError, DomainError, KeyRangeError, ParseError
from .groupring import GroupRing, GroupRingElement, make_group_ring
from .groups import AdiagGroup, DerivedCyclicGroup
from .rings import JRootRing

ENV_CONFIG = "PGR_CONFIG"

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


# configuration ---------------------------------------------------------------

DEFAULT_CONFIG = {
    "ring": {"kind": "jroot", "q": 2},
    "group": {"kind": "adiag_cyclic", "k": 3},
    "powers": {"ell_m": 1, "ell_n": 1, "ell_g": 1},
}


def _require(mapping: dict, key: str, types, where: str):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def _layered(*layers) -> dict:
    """Merge configuration layers, later over earlier, after checking each:
    a layer is an object whose keys are known sections and whose sections
    are objects.  A group section that names its kind replaces the group
    before it; any other section updates the one before it key by key."""
    merged: dict = {}
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = layer.keys() - DEFAULT_CONFIG.keys()
        if unknown:
            raise ConfigError(
                f"unknown configuration section(s): {sorted(unknown)}"
            )
        for section, values in layer.items():
            if not isinstance(values, dict):
                raise ConfigError(f"'{section}' must be an object")
            if section == "group" and "kind" in values:
                merged[section] = dict(values)
            else:
                merged[section] = {**merged.get(section, {}), **values}
    return merged


def build_context(config: dict) -> GroupRing:
    """Instantiate a context from a configuration mapping; a missing
    section takes its default whole."""
    config = _layered(config)
    ring_cfg = config.get("ring", DEFAULT_CONFIG["ring"])
    kind = _require(ring_cfg, "kind", str, "ring")
    if kind != "jroot":
        raise ConfigError(f"unknown ring kind {kind!r}")
    q = _require(ring_cfg, "q", int, "ring")
    modulus = ring_cfg.get("modulus")
    if modulus is not None and (not isinstance(modulus, int) or isinstance(modulus, bool)):
        raise ConfigError(f"ring.modulus has the wrong type: {modulus!r}")
    try:
        ring = JRootRing(q, modulus)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    group_cfg = config.get("group", DEFAULT_CONFIG["group"])
    gkind = _require(group_cfg, "kind", str, "group")
    try:
        if gkind == "adiag_cyclic":
            group = AdiagGroup(_require(group_cfg, "k", int, "group"))
        elif gkind == "derived":
            base = _require(group_cfg, "base", str, "group")
            m = re.fullmatch(r"cyclic:([0-9]+)", base)
            if m is None:
                raise ConfigError(
                    f"group.base must look like cyclic:<order>, got {base!r}"
                )
            try:
                order = int(m.group(1))
            except ValueError as exc:  # past sys.get_int_max_str_digits
                raise ConfigError(f"group.base: {exc}") from None
            group = DerivedCyclicGroup(
                order, _require(group_cfg, "arity", int, "group")
            )
        else:
            raise ConfigError(f"unknown group kind {gkind!r}")
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    powers = config.get("powers", {})
    ells = {}
    for name in ("ell_m", "ell_n", "ell_g"):
        value = powers.get(name, 1)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"powers.{name} has the wrong type: {value!r}")
        ells[name] = value
    return make_group_ring(ring, group, **ells)


def load_config(path: str | None = None, overrides: dict | None = None) -> GroupRing:
    """Read a JSON configuration file (explicit path, else $PGR_CONFIG, else
    built-in defaults), apply flag overrides on top and build the context."""
    config: dict = {}
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, or an over-long int
            raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    layers = (DEFAULT_CONFIG, config, {} if overrides is None else overrides)
    return build_context(_layered(*layers))
