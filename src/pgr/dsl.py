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

parse_to_element scans the text with no token list and no syntax tree:
one match of a compiled term pattern (one per ring symbol) reads a whole
term, with the "+" or the end after it, straight into a (group key,
coefficient) pair, and the pairs go to GroupRing.element, which
normalizes coefficients and gathers repeated keys; the lone literal 0 is
the context's zero.  parse_basis_label matches the same basis piece.

Only text that does not scan is looked at token by token: a diagnosis
walks the failed term's pieces and raises a ParseError (or its subclass
KeyRangeError) with a message, an offset and the expected tokens.  Its
precedence: a character no token can hold (outside ASCII letters and
digits, whitespace and "()*,+-") is reported first, wherever it is;
otherwise the first failure from the left, where an integer past the
digit limit or a key outside the group is reported where it is read,
before any later syntax error.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from typing import NoReturn

from .errors import ConfigError, DomainError, KeyRangeError, ParseError
from .groupring import GroupRing, GroupRingElement, make_group_ring
from .groups import AdiagGroup, DerivedCyclicGroup
from .rings import JRootRing

ENV_CONFIG = "PGR_CONFIG"

# One optionally signed ASCII integer, then a basis label, g<index> or
# g(<m>,<n>).  No piece needs a guard against a longer identifier: what
# may follow a symbol or an index is whitespace, "*", "+" or the end.
_SIGNED = r"\s*([+-]?)\s*([0-9]+)"
_BASIS = rf"\s*g(?:([0-9]+)|\s*\({_SIGNED}\s*,{_SIGNED}\s*\))"
_LABEL_RE = re.compile(rf"{_BASIS}\s*\Z")
_ZERO_RE = re.compile(r"\s*0\s*")
# the token after any whitespace, for the diagnosis; no kind at the end
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[()*,+-]))?"
)
_FOREIGN_RE = re.compile(r"[^\s0-9A-Za-z()*,+-]")
_BASIS_FORMS = ("g(<m>,<n>)", "g<index>")


@functools.cache
def _term_re(symbol: str) -> re.Pattern:
    """One term and what follows it: a "+" (group 8) or the end."""
    return re.compile(
        rf"{_SIGNED}\s*{re.escape(symbol)}\s*\*{_BASIS}\s*(?:(\+)|\Z)"
    )


def _key(group, index, msign, m, nsign, n):
    """The key a scanned basis label names.  ValueError (an integer past
    the digit limit) or DomainError (no such key) sends the text to the
    diagnosis, which raises the error."""
    if index is not None:
        return group.key(int(index) - 1)
    key = (-int(m) if msign == "-" else int(m), -int(n) if nsign == "-" else int(n))
    if isinstance(group, AdiagGroup) and group.contains(key):
        return key
    raise DomainError(f"no key {key} in {group.name}")


def _terms(ctx: GroupRing, text: str) -> list:
    """The (group key, coefficient) pairs of text, one match per term."""
    term = _term_re(ctx.ring.symbol)
    group = ctx.group
    pairs = []
    pos = 0
    while True:
        match = term.match(text, pos)
        if match is None:
            _diagnose_term(ctx, text, pos)
        sign, digits, index, msign, m, nsign, n, more = match.groups()
        try:
            key = _key(group, index, msign, m, nsign, n)
            coefficient = int(digits)
        except (ValueError, DomainError):
            _diagnose_term(ctx, text, pos)
        pairs.append((key, -coefficient if sign == "-" else coefficient))
        if more is None:
            return pairs
        pos = match.end()


def parse_to_element(ctx: GroupRing, text: str) -> GroupRingElement:
    """Parse an element expression against the active context's grammar
    and build the element."""
    if _ZERO_RE.fullmatch(text):
        return ctx.zero()
    return ctx.element(_terms(ctx, text))


def parse_basis_label(ctx: GroupRing, text: str):
    """Parse a single basis label such as g(1,1) or g5."""
    match = _LABEL_RE.match(text)
    if match is not None:
        try:
            return _key(ctx.group, *match.groups())
        except (ValueError, DomainError):
            pass
    _check_characters(text)
    _, end = _walk_basis(ctx.group, text, 0)
    _, tok, offset, _ = _token(text, end)
    raise ParseError(f"unexpected {tok!r}", offset, ("end of input",))


# diagnosis: the error for text that did not scan, found by walking the
# failed term's pieces one token at a time -----------------------------------


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


def _check_characters(text: str) -> None:
    """A character no token can hold is reported first, wherever it is."""
    foreign = _FOREIGN_RE.search(text)
    if foreign is not None:
        pos = foreign.start()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)


def _token(text: str, pos: int) -> tuple:
    """(kind, text, offset, end) of the token after pos: kind is "int",
    "ident" or "punct", or None, with text "", at the end of the input."""
    match = _TOKEN_RE.match(text, pos)
    kind = match.lastgroup
    if kind is None:
        return None, "", match.end(), match.end()
    return kind, match.group(kind), match.start(kind), match.end()


def _expect(text: str, pos: int, char: str) -> int:
    _, tok, offset, end = _token(text, pos)
    if tok != char:
        raise ParseError(f"unexpected {tok or 'end of input'!r}", offset, (char,))
    return end


def _walk_int(text: str, pos: int, what: str) -> tuple[int, int]:
    """An optionally signed integer at pos: (value, end)."""
    kind, tok, offset, end = _token(text, pos)
    sign = 1
    if tok in ("+", "-"):
        sign = -1 if tok == "-" else 1
        kind, tok, offset, end = _token(text, end)
    if kind != "int":
        raise ParseError(
            f"expected {what}, found {tok or 'end of input'!r}", offset, ("integer",)
        )
    return sign * _decimal(tok, offset), end


def _walk_basis(group, text: str, pos: int) -> tuple:
    """A basis label at pos: (key, end)."""
    kind, tok, offset, end = _token(text, pos)
    if kind != "ident" or not tok.startswith("g"):
        raise ParseError(
            f"expected a basis element, found {tok or 'end of input'!r}",
            offset,
            _BASIS_FORMS,
        )
    if tok == "g":
        # exponent-pair form, only meaningful for the antidiagonal family
        if not isinstance(group, AdiagGroup):
            raise ParseError(
                f"{group.name} keys use the g<index> form", offset, ("g<index>",)
            )
        end = _expect(text, end, "(")
        m, end = _walk_int(text, end, "first exponent")
        end = _expect(text, end, ",")
        n, end = _walk_int(text, end, "second exponent")
        end = _expect(text, end, ")")
        if not group.contains((m, n)):
            raise KeyRangeError(
                f"g({m},{n}) outside Z_{group.k} x Z_{group.k}", offset
            )
        return (m, n), end
    if re.fullmatch(r"g[0-9]+", tok):
        index = _decimal(tok[1:], offset)
        try:
            return group.key(index - 1), end
        except DomainError as exc:
            raise KeyRangeError(
                f"legacy index {index} outside 1..{group.size()}", offset
            ) from exc
    raise ParseError(f"malformed basis {tok!r}", offset, _BASIS_FORMS)


def _diagnose_term(ctx: GroupRing, text: str, pos: int) -> NoReturn:
    """Raise the error for the term at pos, which did not scan: walk its
    pieces (signed coefficient, ring symbol, "*", basis, then "+" or the
    end) and report the first that fails."""
    _check_characters(text)
    _, end = _walk_int(text, pos, "a coefficient")
    symbol = ctx.ring.symbol
    if symbol:
        _, tok, offset, end = _token(text, end)
        if tok != symbol:
            raise ParseError(
                f"expected ring symbol {symbol!r}, found {tok or 'end of input'!r}",
                offset,
                (symbol,),
            )
    end = _expect(text, end, "*")
    _, end = _walk_basis(ctx.group, text, end)
    _, tok, offset, _ = _token(text, end)
    raise ParseError(f"unexpected {tok!r}", offset, ("+", "end of input"))


# configuration ---------------------------------------------------------------

# (section, kind) -> every key that section takes, with the value it has
# when left out; any other key is a ConfigError
SECTIONS = {
    ("ring", "jroot"): {"kind": "jroot", "q": 2, "modulus": None},
    ("group", "adiag_cyclic"): {"kind": "adiag_cyclic", "k": 3},
    ("group", "derived"): {"kind": "derived", "base": "cyclic:3", "arity": 3},
    ("powers", None): {"ell_m": 1, "ell_n": 1, "ell_g": 1},
}
# the kinds a configuration starts from; SECTIONS fills in their keys
DEFAULT_CONFIG = {"ring": {"kind": "jroot"}, "group": {"kind": "adiag_cyclic"},
                  "powers": {}}


def _require(mapping: dict, key: str, types, where: str):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def _section(config: dict, section: str) -> dict:
    """A section (its default when missing) with every key its kind takes:
    the kind must be known, every key given must apply to it, and a key
    left out takes its SECTIONS value."""
    values = config.get(section, DEFAULT_CONFIG[section])
    kind = None if section == "powers" else _require(values, "kind", str, section)
    keys = SECTIONS.get((section, kind))
    if keys is None:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    for key in values:
        if key not in keys:
            what = section if kind is None else f"{section} kind {kind!r}"
            raise ConfigError(
                f"{section}.{key} does not apply to {what}; its keys are "
                f"{', '.join(keys)}"
            )
    return {**keys, **values}


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
    section takes its default whole, a key left out its SECTIONS value, and
    a key that does not apply to its section's kind is a ConfigError."""
    config = _layered(config)
    ring_cfg = _section(config, "ring")
    q = _require(ring_cfg, "q", int, "ring")
    modulus = _require(ring_cfg, "modulus", (int, type(None)), "ring")
    try:
        ring = JRootRing(q, modulus)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    group_cfg = _section(config, "group")
    try:
        if group_cfg["kind"] == "adiag_cyclic":
            group = AdiagGroup(_require(group_cfg, "k", int, "group"))
        else:
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
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    powers = _section(config, "powers")
    ells = {name: _require(powers, name, int, "powers") for name in powers}
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
