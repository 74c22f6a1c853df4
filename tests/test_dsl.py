from __future__ import annotations

import json
import random
import re

import pytest
import token_parser
from hypothesis import given, settings
from hypothesis import strategies as st

from pgr import (
    AdiagGroup,
    ConfigError,
    PgrError,
    DerivedCyclicGroup,
    JRootRing,
    KeyRangeError,
    ParseError,
    QuantizationMismatch,
    make_group_ring,
)
from pgr.dsl import (
    build_context,
    load_config,
    parse_basis_label,
    parse_to_element,
)


class TestParsing:
    def test_monomial_pair_form(self, ctx1):
        assert parse_to_element(ctx1, "5j*g(1,1)") == ctx1.element({(1, 1): 5})

    def test_monomial_legacy_form(self, ctx1):
        assert parse_to_element(ctx1, "5j*g5") == ctx1.element({(1, 1): 5})

    def test_two_terms_with_negative(self, ctx1, worked_elements):
        _, r2, _ = worked_elements
        assert parse_to_element(ctx1, "2j*g(0,2) + -7j*g(1,2)") == r2
        assert parse_to_element(ctx1, "2j*g7 + -7j*g8") == r2

    def test_zero_literal(self, ctx1):
        assert parse_to_element(ctx1, "0") == ctx1.zero()

    def test_whitespace_insensitive(self, ctx1):
        assert parse_to_element(
            ctx1, "  5 j * g ( 1 , 1 )  "
        ) == ctx1.element({(1, 1): 5})

    def test_duplicate_basis_gathered(self, ctx1):
        assert parse_to_element(ctx1, "1j*g5 + 2j*g5") == ctx1.element({(1, 1): 3})

    def test_plain_integer_ring(self):
        ctx = make_group_ring(JRootRing(1), DerivedCyclicGroup(3, 2))
        x = parse_to_element(ctx, "3*g1 + -1*g2")
        assert x == ctx.element({0: 3, 1: -1})

    def test_fourth_root_symbol(self):
        ctx = make_group_ring(JRootRing(4), AdiagGroup(3), ell_g=2)
        assert parse_to_element(ctx, "2j4*g5") == ctx.element({(1, 1): 2})

    def test_modular_coefficients(self):
        ctx = make_group_ring(JRootRing(2, 5), AdiagGroup(3))
        assert parse_to_element(ctx, "7j*g5") == ctx.element({(1, 1): 2})


class TestParseErrors:
    def test_wrong_symbol(self, ctx1):
        with pytest.raises(ParseError) as err:
            parse_to_element(ctx1, "5x*g5")
        assert err.value.offset == 1
        assert "j" in err.value.expected

    def test_missing_star(self, ctx1):
        with pytest.raises(ParseError):
            parse_to_element(ctx1, "5j g5")

    def test_trailing_junk(self, ctx1):
        with pytest.raises(ParseError):
            parse_to_element(ctx1, "5j*g5 3")

    def test_empty_input(self, ctx1):
        with pytest.raises(ParseError):
            parse_to_element(ctx1, "")

    def test_pair_out_of_range(self, ctx1):
        with pytest.raises(KeyRangeError):
            parse_to_element(ctx1, "5j*g(3,0)")
        with pytest.raises(KeyRangeError):
            parse_to_element(ctx1, "5j*g(0,-1)")

    def test_legacy_index_out_of_range(self, ctx1):
        with pytest.raises(KeyRangeError):
            parse_to_element(ctx1, "5j*g10")

    def test_pair_form_rejected_for_derived_groups(self):
        ctx = make_group_ring(JRootRing(2), DerivedCyclicGroup(3, 3))
        with pytest.raises(ParseError):
            parse_to_element(ctx, "5j*g(0,0)")
        assert parse_to_element(ctx, "5j*g1") == ctx.element({0: 5})

    def test_key_range_is_a_parse_error(self, ctx1):
        assert issubclass(KeyRangeError, ParseError)


class TestPrinting:
    def test_recorded_total(self, ctx1):
        x = ctx1.element({(2, 0): -105, (1, 1): 40, (2, 1): -70, (2, 2): 135})
        assert ctx1.render(x) == (
            "-105j*g(2,0) + 40j*g(1,1) + -70j*g(2,1) + 135j*g(2,2)"
        )

    def test_zero(self, ctx1):
        assert ctx1.render(ctx1.zero()) == "0"

    def test_terms_sorted_by_key_index(self, ctx1):
        x = ctx1.element({(1, 2): -140, (2, 2): 275, (2, 0): -105})
        assert ctx1.render(x) == (
            "-105j*g(2,0) + -140j*g(1,2) + 275j*g(2,2)"
        )


class TestRoundTrip:
    def test_seeded_random_elements(self, ctx1):
        rng = random.Random(2024)
        keys = ctx1.group.elements()
        for _ in range(200):
            support = rng.sample(keys, rng.randint(0, 5))
            x = ctx1.element({g: rng.randint(-500, 500) for g in support})
            assert parse_to_element(ctx1, ctx1.render(x)) == x

    def test_print_parse_print_is_print(self, ctx1, worked_elements):
        for x in worked_elements:
            text = ctx1.render(x)
            again = ctx1.render(parse_to_element(ctx1, text))
            assert again == text

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(-10**6, 10**6)
            ),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, entries):
        ctx = make_group_ring(JRootRing(2), AdiagGroup(3))
        x = ctx.element([((m, n), c) for m, n, c in entries])
        assert parse_to_element(ctx, ctx.render(x)) == x

    def test_cli_session_operands(self, monkeypatch, workloads):
        # every element operand of the benchmark's cli-session lines,
        # seeds 1-3, in the context its REPL session runs in
        monkeypatch.delenv("PGR_CONFIG", raising=False)
        contexts = {
            name: load_config(None, overrides)
            for name, overrides in workloads.CLI_OVERRIDES.items()
        }
        texts = []
        for seed in (1, 2, 3):
            for op in workloads.cycle("cli-session", seed, 0):
                if op["verb"] not in ("eval", "mul", "add", "aug", "quer"):
                    continue
                ctx = contexts[op["ctx"]]
                operands = op["arg"].split("; ")
                assert len(operands) == len(op["data"])
                for text, data in zip(operands, op["data"]):
                    x = parse_to_element(ctx, text)
                    assert x == ctx.element(data)
                    rendered = ctx.render(x)
                    assert parse_to_element(ctx, rendered) == x
                    assert ctx.render(parse_to_element(ctx, rendered)) == rendered
                    texts.append(text)
        assert any(re.search(r"g\(\d+,\d+\)", t) for t in texts)
        assert any(re.search(r"g\d+", t) for t in texts)


class TestBasisLabels:
    def test_pair_and_legacy(self, ctx1):
        assert parse_basis_label(ctx1, "g(1,2)") == (1, 2)
        assert parse_basis_label(ctx1, "g8") == (1, 2)

    def test_trailing_junk(self, ctx1):
        with pytest.raises(ParseError):
            parse_basis_label(ctx1, "g8 x")



# differential: the scanner against the token parser it replaced ------------

DIFF_CONTEXTS = [
    make_group_ring(JRootRing(1), DerivedCyclicGroup(3, 2)),
    make_group_ring(JRootRing(2), AdiagGroup(3)),
    make_group_ring(JRootRing(4), AdiagGroup(3), ell_g=2),
    make_group_ring(JRootRing(2, 5), AdiagGroup(3)),
    make_group_ring(JRootRing(2), AdiagGroup(12)),
    make_group_ring(JRootRing(2), DerivedCyclicGroup(4, 3)),
]
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
SIGN = st.sampled_from(["", "", "", "+", "-"])
# the grammar's characters, plus an identifier letter, a non-ASCII digit
# and a tab
ALPHABET = st.sampled_from(list("0123456789()*,+- gjx٣\t"))
EDGE_TEXTS = [
    "", " ", "0", " 0\t", "00", "0 0", "-0", "+0", "0+", "0j*g1", "\n0\n",
    "+", "1", "1j", "1j*", "1j*g", "1j*g(", "1j*g(1", "1j*g(1,", "1j*g(1,1",
    "1j*g1 +", "1j*g1 ++2j*g2", "1j*g1+-2j*g2", "1j*g1 2", "1j*g1)",
    "1j*g5x", "1j*g5 x", "1jg5", "1j4*g5", "1j*g 5", "1j*g (1,1)", "1j*g1(",
    "1٣j*g1", "1j*g٣", "1j*g(٣,1)", "٣", "1j*g1 ٣", "x", "1x*g1", "1*g1",
    "1j*j", "1j*gg", "1j*G1", "- -1j*g1", "--1j*g1", "1j*g(+1,-0)",
    "1j*g(1,1)(", "1j*g(1 1)", "1j*g(1,,1)", "1j*g0", "1j*g00",
    "1j*g1\n+\n2j*g2", "1\tj\t*\tg\t(\t1\t,\t1\t)", "1j*g(1,1) + 1j*g(3,0) x",
    "1j*g(3,0) + 1j*g1 ٣", "1j*g1\u00a0+\u20032j*g(0,\x1c1)", "1j*g1\u00a0x",
]


@st.composite
def numerals(draw, values):
    """A numeral for one of values, sometimes with leading zeros."""
    return "0" * draw(st.sampled_from([0, 0, 0, 1, 2])) + str(draw(values))


@st.composite
def labels(draw, group):
    """A basis label, nearly always naming a key of group."""
    ws = lambda: draw(SPACE)  # noqa: E731
    size = group.size()
    pair = isinstance(group, AdiagGroup) and draw(st.booleans())
    inside = draw(st.integers(0, 9)) > 0
    if not pair and draw(st.integers(0, 19)):
        index = st.integers(1, size) if inside else st.sampled_from([0, size + 1])
        return f"g{draw(numerals(index))}"
    k = getattr(group, "k", 2)
    exponent = st.integers(0, k - 1) if inside else st.integers(k, k + 2)
    return (
        f"g{ws()}({ws()}{draw(SIGN)}{ws()}{draw(numerals(exponent))}{ws()},"
        f"{ws()}{draw(SIGN)}{ws()}{draw(numerals(exponent))}{ws()})"
    )


@st.composite
def element_texts(draw, ctx):
    """The text of an element of ctx, in either label form, with random
    whitespace, signs and leading zeros, or the lone 0."""
    ws = lambda: draw(SPACE)  # noqa: E731
    if draw(st.integers(0, 9)) == 0:
        return f"{ws()}0{ws()}"
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        terms.append(
            f"{ws()}{draw(SIGN)}{ws()}{draw(numerals(st.integers(0, 999)))}"
            f"{ws()}{ctx.ring.symbol}{ws()}*{ws()}{draw(labels(ctx.group))}{ws()}"
        )
    return "+".join(terms)


@st.composite
def mutated(draw, ctx):
    """An element's text with a few characters cut or put in at one place."""
    text = draw(element_texts(ctx))
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    return text[:at] + draw(st.text(ALPHABET, min_size=1, max_size=2)) + text[at + cut:]


def outcome(parse, ctx, text):
    """The element parse builds, or the error it raises as (type, str,
    offset, expected)."""
    try:
        return parse(ctx, text)
    except PgrError as exc:
        return (
            type(exc), str(exc), getattr(exc, "offset", None),
            getattr(exc, "expected", None),
        )


def assert_same(ctx, text):
    assert outcome(parse_to_element, ctx, text) == outcome(
        token_parser.parse_to_element, ctx, text
    ), text


def assert_same_label(ctx, text):
    assert outcome(parse_basis_label, ctx, text) == outcome(
        token_parser.parse_basis_label, ctx, text
    ), text


class TestDifferential:
    """Every input gives the token parser's element, or its exact error:
    the same class, message, offset and expected tuple."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_valid_elements(self, data):
        ctx = data.draw(st.sampled_from(DIFF_CONTEXTS))
        assert_same(ctx, data.draw(element_texts(ctx)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_elements(self, data):
        ctx = data.draw(st.sampled_from(DIFF_CONTEXTS))
        assert_same(ctx, data.draw(mutated(ctx)))

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(DIFF_CONTEXTS), st.text(ALPHABET, max_size=24))
    def test_arbitrary_strings(self, ctx, text):
        assert_same(ctx, text)

    @pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=lambda c: c.name)
    def test_edge_texts(self, ctx):
        for text in EDGE_TEXTS:
            assert_same(ctx, text)
            assert_same(ctx, text.replace("j", ctx.ring.symbol))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), SPACE, st.text(ALPHABET, max_size=2))
    def test_basis_labels(self, data, ws, tail):
        ctx = data.draw(st.sampled_from(DIFF_CONTEXTS))
        label = data.draw(
            st.one_of(labels(ctx.group), st.text(ALPHABET, max_size=12))
        )
        for text in (label, f"{ws}{label}{ws}", label + tail):
            assert_same_label(ctx, text)

    @pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("digits", [4300, 4301])
    def test_digit_limit(self, ctx, digits):
        big = "7" * digits
        j = ctx.ring.symbol
        for text in (
            f"{big}{j}*g1", f"-{big}{j}*g1 + 1{j}*g2", f"1{j}*g{big}",
            f"1{j}*g({big},0)", f"1{j}*g(0, -{big})", f"1{j}*g1 + 1{j}*g{big}x",
            f"{big}{j}*g1 ٣", f"1{j}*g{big} + ", f"{big}x*g1",
        ):
            assert_same(ctx, text)
        for text in (f"g{big}", f"g({big},1)", f"g(1,{big}) x", f"g{big}٣"):
            assert_same_label(ctx, text)

    @pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=lambda c: c.name)
    def test_long_expression(self, ctx):
        j = ctx.ring.symbol
        text = " + ".join(f"{i}{j}*g{i % 3 + 1}" for i in range(2000))
        assert_same(ctx, text)
        assert_same(ctx, text + " +")

EXAMPLE1 = {
    "ring": {"kind": "jroot", "q": 2},
    "group": {"kind": "adiag_cyclic", "k": 3},
    "powers": {"ell_m": 1, "ell_n": 1, "ell_g": 1},
}

EXAMPLE2 = {
    "ring": {"kind": "jroot", "q": 4},
    "group": {"kind": "adiag_cyclic", "k": 3},
    "powers": {"ell_m": 1, "ell_n": 1, "ell_g": 2},
}


class TestConfig:
    def test_example1_context(self):
        ctx = build_context(EXAMPLE1)
        assert (ctx.profile.gr_add_arity, ctx.profile.gr_mul_arity) == (2, 3)
        assert ctx.ring.name == "jZ"

    def test_example2_context(self):
        ctx = build_context(EXAMPLE2)
        assert (ctx.profile.gr_add_arity, ctx.profile.gr_mul_arity) == (2, 5)

    def test_quantization_mismatch(self):
        bad = json.loads(json.dumps(EXAMPLE1))
        bad["powers"]["ell_g"] = 3
        with pytest.raises(QuantizationMismatch):
            build_context(bad)

    def test_modulus(self):
        cfg = json.loads(json.dumps(EXAMPLE1))
        cfg["ring"]["modulus"] = 5
        assert build_context(cfg).ring.name == "jZ mod 5"

    def test_derived_group(self):
        cfg = {
            "ring": {"kind": "jroot", "q": 2},
            "group": {"kind": "derived", "base": "cyclic:3", "arity": 3},
        }
        ctx = build_context(cfg)
        assert ctx.group.name == "derived[3](C3)"

    @pytest.mark.parametrize(
        "cfg",
        [
            {"ring": {"kind": "polynomial"}},
            {"ring": {"q": 2}},
            {"ring": {"kind": "jroot", "q": "two"}},
            {"group": {"kind": "derived", "base": "dihedral:3", "arity": 3}},
            {"group": {"kind": "nope", "k": 3}},
            {"powers": {"ell_m": "one"}},
            {"rings": {}},
        ],
    )
    def test_schema_violations(self, cfg):
        with pytest.raises(ConfigError):
            build_context(cfg)

    @pytest.mark.parametrize(
        ("cfg", "key"),
        [
            (
                {"group": {"kind": "derived", "base": "cyclic:4", "arity": 3, "k": 9}},
                "group.k",
            ),
            ({"ring": {"kind": "jroot", "q": 2, "extra": 1}}, "ring.extra"),
            ({"group": {"kind": "adiag_cyclic", "k": 3, "arity": 3}}, "group.arity"),
            ({"group": {"kind": "adiag_cyclic", "base": "cyclic:7"}}, "group.base"),
            ({"powers": {"ell_n": 1, "ell_x": 2}}, "powers.ell_x"),
        ],
    )
    def test_key_that_does_not_apply(self, cfg, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} does not apply"):
            build_context(cfg)

    @pytest.mark.parametrize(
        "overrides",
        [{"group": {"arity": 4}}, {"group": {"base": "cyclic:7"}}],
    )
    def test_override_that_does_not_apply_to_the_default_group(self, overrides):
        with pytest.raises(ConfigError, match="does not apply to group kind 'adiag_cyclic'"):
            load_config(None, overrides)

    def test_override_that_does_not_apply_to_the_file_group(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"group": {"kind": "derived"}}))
        with pytest.raises(ConfigError, match="^group.k does not apply"):
            load_config(str(path), {"group": {"k": 5}})

    @pytest.mark.parametrize(
        ("group", "name"),
        [
            ({"kind": "derived"}, "jZ[derived[3](C3)]"),
            ({"kind": "derived", "base": "cyclic:2"}, "jZ[derived[3](C2)]"),
            ({"kind": "derived", "base": "cyclic:5"}, "jZ[derived[3](C5)]"),
            ({"kind": "adiag_cyclic"}, "jZ[adiag(C3)]"),
        ],
    )
    def test_group_takes_its_kind_defaults(self, tmp_path, group, name):
        assert build_context({"group": group}).name == name
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"group": group}))
        assert load_config(str(path)).name == name

    def test_file_loading_with_flag_overrides(self, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(EXAMPLE1))
        ctx = load_config(str(path), {"ring": {"modulus": 5}})
        assert ctx.ring.name == "jZ mod 5"

    def test_env_var_default_path(self, tmp_path, monkeypatch):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(EXAMPLE2))
        monkeypatch.setenv("PGR_CONFIG", str(path))
        ctx = load_config()
        assert ctx.profile.gr_mul_arity == 5

    def test_defaults_without_any_input(self, monkeypatch):
        monkeypatch.delenv("PGR_CONFIG", raising=False)
        ctx = load_config()
        assert ctx.name == "jZ[adiag(C3)]"

    def test_unreadable_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("text", ["[]", "null", "0", '""', "false", "[1]"])
    def test_file_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_empty_object_file_is_the_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert load_config(str(path)).name == "jZ[adiag(C3)]"

    @pytest.mark.parametrize(
        "overrides",
        [{"rings": {"q": 3}}, {"ring": 5}, {"powers": None}, ["ring"]],
    )
    def test_bad_overrides(self, overrides):
        with pytest.raises(ConfigError):
            load_config(None, overrides)

    def test_overrides_merge_over_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"group": {"kind": "derived", "base": "cyclic:3", "arity": 3}}
        ))
        ctx = load_config(str(path), {"group": {"base": "cyclic:4"}})
        assert ctx.name == "jZ[derived[3](C4)]"
        ctx = load_config(str(path), {"group": {"kind": "adiag_cyclic", "k": 2}})
        assert ctx.name == "jZ[adiag(C2)]"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))
