from __future__ import annotations

import io
import json
import sys
import time

import pytest

from pgr import KeyRangeError, ParseError, cli
from pgr.cli import main

WORKED_ARGS = [
    "mul",
    "5j*g5 ; 2j*g7 + -7j*g8 ; -4j*g2 + 7j*g3 + -3j*g6",
]
WORKED_OUTPUT = (
    "-105j*g(2,0) + 40j*g(1,1) + -70j*g(2,1) + -140j*g(1,2) + 275j*g(2,2)"
)


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCommands:
    def test_worked_product(self, capsys):
        status, out, _ = run(capsys, WORKED_ARGS)
        assert status == 0
        assert out == WORKED_OUTPUT + "\n"

    def test_eval_normalizes(self, capsys):
        status, out, _ = run(capsys, ["eval", "0j*g1 + 5j*g5"])
        assert status == 0
        assert out == "5j*g(1,1)\n"

    def test_eval_zero_literal(self, capsys):
        status, out, _ = run(capsys, ["eval", "0"])
        assert status == 0
        assert out == "0\n"

    def test_leading_negative_needs_separator(self, capsys):
        status, out, _ = run(capsys, ["eval", "--", "-105j*g3 + 40j*g5"])
        assert status == 0
        assert out == "-105j*g(2,0) + 40j*g(1,1)\n"

    def test_five_ary_mul(self, capsys):
        status, out, _ = run(
            capsys,
            ["mul", "1j*g5 ; 1j*g5 ; 1j*g5 ; 1j*g5 ; 1j*g5",
             "--ell-n", "2", "--ell-g", "2"],
        )
        assert status == 0
        assert out == "1j*g(2,2)\n"  # (j*g5)^<2>: j**5 = j and g5**5 = g9

    def test_higher_power_add_takes_three_operands(self, capsys):
        status, out, _ = run(
            capsys, ["add", "1j*g1 ; 1j*g1 ; 1j*g1", "--ell-m", "2"]
        )
        assert status == 0
        assert out == "3j*g(0,0)\n"
        status, _, _ = run(capsys, ["add", "1j*g1 ; 1j*g1", "--ell-m", "2"])
        assert status == 2

    def test_add(self, capsys):
        status, out, _ = run(capsys, ["add", "2j*g7 + -7j*g8 ; -2j*g7"])
        assert status == 0
        assert out == "-7j*g(1,2)\n"

    def test_aug(self, capsys):
        status, out, _ = run(capsys, ["aug", "2j*g(0,2) + -7j*g(1,2)"])
        assert status == 0
        assert out == "-5j\n"

    def test_quer_found(self, capsys):
        status, out, _ = run(capsys, ["quer", "1j*g5"])
        assert status == 0
        assert out == "-1j*g(2,2)\n"

    def test_quer_not_found(self, capsys):
        status, out, _ = run(capsys, ["quer", "2j*g5"])
        assert status == 0
        assert out == "NotFound\n"

    def test_quer_system_over_budget_is_2(self, capsys):
        # 3 * 625**2 = 1171875 system cells on adiag(C25), over 10**6
        status, out, err = run(
            capsys, ["quer", "--k", "25", "1j*g(0,0) + 1j*g(1,1)"]
        )
        assert (status, out) == (2, "")
        assert "1171875 cells" in err

    def test_quer_monomial_closed_form_has_no_budget(self, capsys):
        status, out, _ = run(capsys, ["quer", "--k", "25", "1j*g(0,0)"])
        assert (status, out) == (0, "-1j*g(0,0)\n")

    def test_eval_on_a_large_group_lists_no_keys(self, capsys):
        status, out, _ = run(capsys, ["eval", "--k", "100000", "1j*g(5,7)"])
        assert (status, out) == (0, "1j*g(5,7)\n")
        status, out, _ = run(capsys, ["eval", "--k", "100000", "1j*g700006"])
        assert (status, out) == (0, "1j*g(5,7)\n")

    def test_identities(self, capsys):
        status, out, _ = run(capsys, ["identities"])
        assert status == 0
        assert out == "g(0,0)\ng(2,1)\ng(1,2)\n"

    def test_identities_of_a_large_group(self, capsys):
        start = time.perf_counter()
        status, out, _ = run(capsys, ["identities", "--k", "1000"])
        assert time.perf_counter() - start < 5
        assert status == 0
        labels = out.splitlines()
        assert len(labels) == 1000
        assert labels[:2] == ["g(0,0)", "g(999,1)"]

    def test_arity(self, capsys):
        status, out, _ = run(capsys, ["arity", "--q", "4", "--ell-g", "2"])
        assert status == 0
        assert "gr_mul_arity=5" in out

    def test_table_with_generators(self, capsys):
        status, out, _ = run(capsys, ["table", "g5", "g1"])
        assert status == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert lines[0] == "g(1,1) g(1,1) g(1,1) -> g(0,0)"

    def test_table_takes_both_label_spellings(self, capsys):
        pair = run(capsys, ["table", "g(1,1)", "g(0,0)"])
        assert pair[0] == 0
        assert pair == run(capsys, ["table", "g5", "g1"])
        # spaces inside a label, quoted as one argument or split by a shell
        assert pair == run(capsys, ["table", "g(1, 1) g(0, 0)"])
        assert pair == run(capsys, ["table", "g(1,", "1)", "g( 0 ,0 )"])

    def test_table_pair_labels(self, capsys):
        status, out, _ = run(capsys, ["table", "g(0,1) g(2, 2)"])
        assert status == 0
        assert out == (
            "g(0,1) g(0,1) g(0,1) -> g(1,2)\n"
            "g(0,1) g(0,1) g(2,2) -> g(0,0)\n"
            "g(0,1) g(2,2) g(0,1) -> g(2,1)\n"
            "g(0,1) g(2,2) g(2,2) -> g(1,2)\n"
            "g(2,2) g(0,1) g(0,1) -> g(0,0)\n"
            "g(2,2) g(0,1) g(2,2) -> g(2,1)\n"
            "g(2,2) g(2,2) g(0,1) -> g(1,2)\n"
            "g(2,2) g(2,2) g(2,2) -> g(0,0)\n"
        )

    def test_table_mixed_labels_with_inner_spaces(self, capsys):
        status, out, _ = run(capsys, ["table", "g( 1 ,0 ) g5"])
        assert status == 0
        assert out == (
            "g(1,0) g(1,0) g(1,0) -> g(2,1)\n"
            "g(1,0) g(1,0) g(1,1) -> g(2,2)\n"
            "g(1,0) g(1,1) g(1,0) -> g(0,1)\n"
            "g(1,0) g(1,1) g(1,1) -> g(0,2)\n"
            "g(1,1) g(1,0) g(1,0) -> g(2,2)\n"
            "g(1,1) g(1,0) g(1,1) -> g(2,0)\n"
            "g(1,1) g(1,1) g(1,0) -> g(0,2)\n"
            "g(1,1) g(1,1) g(1,1) -> g(0,0)\n"
        )

    def test_table_label_errors(self, capsys):
        ctx = cli.load_config(None, {})
        with pytest.raises(KeyRangeError) as err:
            cli.run_command(ctx, "table", "g(3,0)")
        assert (str(err.value), err.value.offset) == (
            "g(3,0) outside Z_3 x Z_3 at offset 0", 0
        )
        with pytest.raises(ParseError) as err:
            cli.run_command(ctx, "table", "g(0,1)g5")
        assert type(err.value) is ParseError
        assert (err.value.offset, err.value.expected) == (6, ("end of input",))
        assert run(capsys, ["table", "g(0,1)g5"])[0] == 1

    def test_table_full_for_small_group(self, capsys):
        status, out, _ = run(
            capsys, ["table", "--group", "derived", "--base", "cyclic:2",
                     "--arity", "3", "--q", "2"]
        )
        assert status == 0
        assert len(out.strip().split("\n")) == 8

    def test_table_too_large_without_generators(self, capsys):
        status, _, err = run(capsys, ["table", "--k", "5"])
        assert status == 2
        assert "generator list" in err

    def test_table_rows_over_budget_without_generators(self, capsys):
        # 2 elements pass the 16-element rule, but 2**25 rows do not fit
        status, out, err = run(
            capsys, ["table", "--group", "derived", "--base", "cyclic:2",
                     "--arity", "25", "--q", "24"]
        )
        assert (status, out) == (2, "")
        assert "33554432 rows" in err

    def test_table_rows_over_budget_with_generators(self, capsys):
        status, out, err = run(
            capsys, ["table", "--group", "derived", "--base", "cyclic:4",
                     "--arity", "10", "--q", "9", "g1 g2 g3 g4"]
        )
        assert (status, out) == (2, "")
        assert f"{4**10} rows" in err


class TestExitCodes:
    def test_parse_error_is_1(self, capsys):
        status, _, err = run(capsys, ["eval", "5x*g5"])
        assert status == 1
        assert "parse error" in err

    def test_arity_error_is_2(self, capsys):
        status, _, err = run(capsys, ["mul", "5j*g(1,1) ; 1j*g(0,0)"])
        assert status == 2
        assert "takes 3 elements" in err

    def test_key_range_is_1(self, capsys):
        status, _, _ = run(capsys, ["eval", "5j*g(3,0)"])
        assert status == 1

    def test_quantization_mismatch_is_2(self, capsys):
        status, _, err = run(capsys, ["arity", "--ell-g", "3"])
        assert status == 2
        assert "ell_g" in err

    def test_verification_failure_is_3(self, capsys):
        status, out, _ = run(
            capsys,
            ["verify", "nonderived", "--group", "derived", "--base",
             "cyclic:3", "--arity", "3"],
        )
        assert status == 3
        assert "status=fails" in out

    def test_verification_success_is_0(self, capsys):
        status, out, _ = run(capsys, ["verify", "nonderived"])
        assert status == 0
        assert "status=holds" in out

    @pytest.mark.parametrize(
        "extra", [["--base", "cyclic:1"], ["--base", "cyclic:2", "--mod", "3"]],
        ids=["C1", "C2-mod-3"],
    )
    def test_verify_all_on_groups_smaller_than_the_sampled_support(
        self, capsys, extra
    ):
        status, out, err = run(capsys, ["verify", "all", "--group", "derived", *extra])
        assert status == 3
        failed = [line for line in out.splitlines() if "status=fails" in line]
        assert len(failed) == 1 and "axiom=nonderived-closure" in failed[0]
        assert "Traceback" not in err

    def test_nonderived_over_budget_is_2_within_seconds(self, capsys):
        start = time.perf_counter()
        status, out, err = run(capsys, ["verify", "nonderived", "--k", "100"])
        assert status == 2
        assert "100000000" in err and out == ""
        assert time.perf_counter() - start < 10  # 10**8 pairs took minutes

    def test_verify_all_over_budget_is_the_nonderived_error(self, capsys):
        _, _, single = run(capsys, ["verify", "nonderived", "--k", "100"])
        assert run(capsys, ["verify", "all", "--k", "100"]) == (2, "", single)

    def test_unknown_verify_target_is_2(self, capsys):
        status, _, _ = run(capsys, ["verify", "everything"])
        assert status == 2

    def test_internal_error_is_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("integer division by zero")

        monkeypatch.setattr(cli, "run_command", broken)
        status, out, err = run(capsys, ["eval", "1j*g1"])
        assert status == 4
        assert out == ""
        assert err == "internal error: ZeroDivisionError: integer division by zero\n"

    def test_internal_error_in_the_repl_is_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("g9")

        monkeypatch.setattr(cli, "run_command", broken)
        monkeypatch.setattr("sys.stdin", io.StringIO("eval 1j*g1\n"))
        status, _, err = run(capsys, ["repl"])
        assert status == 4
        assert err == "internal error: KeyError: 'g9'\n"


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
needs_limit = pytest.mark.skipif(
    not LIMIT, reason="this interpreter converts integers of any length"
)


class TestIntegerLimits:
    @needs_limit
    def test_long_coefficient_is_a_parse_error(self, capsys):
        status, out, err = run(capsys, ["eval", "7" * (LIMIT + 700) + "j*g1"])
        assert (status, out) == (1, "")
        assert err == (
            f"parse error: integer literal of {LIMIT + 700} digits is over "
            f"the limit of {LIMIT} digits at offset 0\n"
        )

    @needs_limit
    @pytest.mark.parametrize(
        "text", ["1j*g(0,{})", "1j*g({},0)", "1j*g{}"], ids=["n", "m", "index"]
    )
    def test_long_key_literal_is_a_parse_error(self, capsys, text):
        digits = "7" * (LIMIT + 1)
        status, _, err = run(capsys, ["eval", text.format(digits)])
        assert status == 1
        offset = text.index("{") - (0 if "(" in text else 1)
        assert err.endswith(f"digits at offset {offset}\n")

    def test_digits_are_ascii(self, capsys):
        status, out, err = run(capsys, ["eval", "\u0663j*g1"])  # ARABIC-INDIC 3
        assert (status, out) == (1, "")
        assert err == "parse error: unexpected character '\u0663' at offset 0\n"
        status, _, _ = run(capsys, ["eval", "1j*g\u0663"])
        assert status == 1

    @needs_limit
    def test_long_product_is_a_domain_error(self, capsys):
        # (10**d - 1)**3 has 3d digits
        d = LIMIT // 3 + 100
        nines = "9" * d
        status, out, err = run(capsys, ["mul", ";".join([f"{nines}j*g1"] * 3)])
        assert (status, out) == (2, "")
        assert err == (
            f"error: a coefficient of {3 * d} digits is over the limit of "
            f"{LIMIT} digits for integer output\n"
        )

    @needs_limit
    @pytest.mark.parametrize("verb", ["aug", "eval"])
    def test_long_total_is_a_domain_error(self, capsys, verb):
        # 2 * (10**LIMIT - 1) has LIMIT + 1 digits; each literal has LIMIT
        nines = "9" * LIMIT
        status, out, err = run(
            capsys, [verb, f"{nines}j*g1 + {nines}j*g1", "--json"]
        )
        assert (status, out) == (2, "")
        assert f"a coefficient of {LIMIT + 1} digits" in err

    def test_group_order_digits_are_ascii(self, capsys):
        status, _, err = run(
            capsys, ["arity", "--group", "derived", "--base", "cyclic:\u0663"]
        )
        assert status == 2
        assert "group.base must look like cyclic:<order>" in err

    @needs_limit
    def test_long_group_order_is_a_config_error(self, capsys, tmp_path):
        digits = "1" * (LIMIT + 1)
        status, _, err = run(
            capsys, ["arity", "--group", "derived", "--base", f"cyclic:{digits}"]
        )
        assert status == 2
        assert err.startswith("error: group.base: ")
        path = tmp_path / "ctx.json"
        path.write_text(f'{{"ring": {{"q": {digits}}}}}')
        status, _, err = run(capsys, ["arity", "--config", str(path)])
        assert status == 2
        assert "is not valid JSON" in err

    @needs_limit
    def test_literal_at_the_limit_still_parses(self, capsys):
        status, out, _ = run(capsys, ["eval", "9" * LIMIT + "j*g1"])
        assert (status, out) == (0, "9" * LIMIT + "j*g(0,0)\n")


class TestJsonOutput:
    def test_eval(self, capsys):
        status, out, _ = run(capsys, ["eval", "5j*g5", "--json"])
        assert status == 0
        assert json.loads(out) == {"result": "5j*g(1,1)"}

    def test_aug(self, capsys):
        _, out, _ = run(capsys, ["aug", "5j*g5", "--json"])
        assert json.loads(out) == {"result": "5j", "coefficient": 5}

    def test_quer(self, capsys):
        _, out, _ = run(capsys, ["quer", "2j*g5", "--json"])
        assert json.loads(out) == {"found": False, "result": None}

    def test_verify(self, capsys):
        _, out, _ = run(capsys, ["verify", "quer", "--json"])
        payload = json.loads(out)
        assert payload["reports"][0]["axiom"] == "quer-law"
        assert payload["reports"][0]["status"] == "holds"

    def test_arity(self, capsys):
        _, out, _ = run(capsys, ["arity", "--json"])
        payload = json.loads(out)
        assert payload["m_r"] == 2 and payload["gr_mul_arity"] == 3


class TestFlagsThatDoNotApply:
    @pytest.mark.parametrize(
        ("flags", "key"),
        [
            (["--arity", "4"], "group.arity"),
            (["--base", "cyclic:7"], "group.base"),
            (["--group", "adiag", "--base", "cyclic:7", "--arity", "5"], "group.base"),
            (["--group", "derived", "--k", "5"], "group.k"),
        ],
    )
    def test_flag_is_a_config_error(self, capsys, flags, key):
        status, out, err = run(capsys, ["arity", *flags])
        assert (status, out) == (2, "")
        assert err.startswith(f"error: {key} does not apply to group kind")

    @pytest.mark.parametrize(
        ("config", "key"),
        [
            (
                {"group": {"kind": "derived", "base": "cyclic:4", "arity": 3, "k": 9}},
                "group.k",
            ),
            ({"ring": {"kind": "jroot", "q": 2, "extra": 1}}, "ring.extra"),
        ],
    )
    def test_config_key_is_a_config_error(self, capsys, tmp_path, config, key):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(config))
        status, out, err = run(capsys, ["arity", "--config", str(path)])
        assert (status, out) == (2, "")
        assert err.startswith(f"error: {key} does not apply")

    @pytest.mark.parametrize(
        ("flags", "name"),
        [
            (["--group", "derived"], "jZ[derived[3](C3)]"),
            (["--group", "derived", "--arity", "5", "--ell-n", "2"],
             "jZ[derived[5](C3)]"),
            (["--group", "derived", "--base", "cyclic:5"], "jZ[derived[3](C5)]"),
            (["--group", "adiag"], "jZ[adiag(C3)]"),
            (["--group", "adiag", "--k", "4"], "jZ[adiag(C4)]"),
        ],
    )
    def test_group_flag_takes_its_kind_defaults(self, capsys, flags, name):
        status, out, _ = run(capsys, ["arity", *flags])
        assert status == 0
        assert out.startswith(f"{name}: ")


class TestCommandTable:
    def test_parser_and_repl_take_the_table_verbs(self, capsys, monkeypatch):
        subparsers = cli._build_parser()._subparsers._group_actions[0]
        assert list(subparsers.choices) == [*cli.COMMANDS, "repl"]
        monkeypatch.setattr("sys.stdin", io.StringIO("repl\n"))
        assert main(["repl"]) == 0
        assert capsys.readouterr().out == (
            "unknown command 'repl'; verbs: eval, mul, add, aug, quer, "
            "identities, table, verify, arity\n"
        )

    def test_run_command_rejects_an_unknown_verb(self):
        with pytest.raises(cli.DomainError, match="unknown command 'repl'"):
            cli.run_command(cli.load_config(None, {}), "repl", "")


class TestConfigFlow:
    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(
            json.dumps(
                {
                    "ring": {"kind": "jroot", "q": 2, "modulus": 5},
                    "group": {"kind": "adiag_cyclic", "k": 3},
                }
            )
        )
        status, out, _ = run(capsys, ["eval", "7j*g5", "--config", str(path)])
        assert status == 0
        assert out == "2j*g(1,1)\n"

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"ring": {"kind": "jroot", "q": 2}}))
        status, out, _ = run(
            capsys, ["arity", "--config", str(path), "--q", "4", "--ell-g", "2"]
        )
        assert status == 0
        assert "n_r=5" in out

    def test_bad_config_is_2(self, capsys, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text("{\"ring\": {\"kind\": \"unknown\"}}")
        status, _, err = run(capsys, ["arity", "--config", str(path)])
        assert status == 2
        assert "error" in err

    def test_config_file_that_is_not_utf8_is_2(self, capsys, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_bytes(b'{"ring": {"q": 2}} \xff')
        status, _, err = run(capsys, ["arity", "--config", str(path)])
        assert status == 2
        assert err.startswith(f"error: configuration {str(path)!r} is not valid JSON")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        first = run(capsys, WORKED_ARGS)
        second = run(capsys, WORKED_ARGS)
        assert first == second

    def test_verify_reports_stable_for_seed(self, capsys):
        args = ["verify", "gr-distrib", "--seed", "11"]
        assert run(capsys, args) == run(capsys, args)


class TestRepl:
    def run_repl(self, capsys, monkeypatch, script):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        status = main(["repl"])
        return status, capsys.readouterr().out

    def test_session(self, capsys, monkeypatch):
        status, out = self.run_repl(
            capsys,
            monkeypatch,
            "eval 5j*g5\n"
            "aug 2j*g7 + -7j*g8\n"
            ":ctx\n"
            ":seed 7\n"
            ":quit\n",
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "5j*g(1,1)"
        assert lines[1] == "-5j"
        assert "gr_mul_arity=3" in lines[2]
        assert lines[3] == "seed=7"

    def test_errors_do_not_kill_the_session(self, capsys, monkeypatch):
        status, out = self.run_repl(
            capsys,
            monkeypatch,
            "eval 5x*g5\n"
            "mul 1j*g1 ; 1j*g1\n"
            "bogus command\n"
            "eval 5j*g5\n",
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert "error" in lines[0]
        assert "error" in lines[1]
        assert "unknown command" in lines[2]
        assert lines[3] == "5j*g(1,1)"

    def test_eof_ends_session(self, capsys, monkeypatch):
        status, _ = self.run_repl(capsys, monkeypatch, "")
        assert status == 0
