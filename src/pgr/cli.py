"""Command-line interface and REPL.

Every verb but ``repl`` is one entry of COMMANDS: the number of argument
words it takes and a handler that returns (text, JSON payload, exit
status).  run_command looks the verb up and renders the text or the
payload; argparse and the REPL take their verbs from the same table.

Exit codes: 0 success, 1 parse error, 2 arity/domain/config error, 3 a
verification report came back failing, 4 an internal error (any other
exception, reported as one ``internal error: <Type>: <message>`` line on
stderr).  ``quer`` on an element with no querelement prints NotFound and
exits 0: over the j-root rings the answer comes from an exact linear
solve, so NotFound means proved absent, and it is a computed answer, not
an error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from itertools import product

from . import verify
from .dsl import load_config, parse_basis_label, parse_to_element
from .errors import BudgetExceeded, DomainError, ParseError, PgrError
from .groupring import ENUMERATE_BUDGET, GroupRing

VERIFY_AXIOMS = (*verify.TARGETS, "all")

# flag -> (configuration section, key); "--group adiag" names adiag_cyclic
_FLAG_KEYS = {
    "ring": ("ring", "kind"), "q": ("ring", "q"), "mod": ("ring", "modulus"),
    "group": ("group", "kind"), "k": ("group", "k"), "base": ("group", "base"),
    "arity": ("group", "arity"),
    "ell_m": ("powers", "ell_m"), "ell_n": ("powers", "ell_n"),
    "ell_g": ("powers", "ell_g"),
}


def _context_overrides(args) -> dict:
    overrides: dict = {}
    for flag, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            overrides.setdefault(section, {})[key] = value
    if args.group == "adiag":
        overrides["group"]["kind"] = "adiag_cyclic"
    return overrides


def _split_operands(ctx: GroupRing, text: str):
    parts = [p.strip() for p in text.split(";")]
    if any(not p for p in parts):
        raise ParseError("empty operand between ';' separators", 0, ("element",))
    return [parse_to_element(ctx, p) for p in parts]


def _result(out: str) -> tuple:
    return out, {"result": out}, 0


def _eval(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """element expression"""
    return _result(ctx.render(parse_to_element(ctx, argument)))


def _mul(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """element expressions, one per operand, separated by ';'"""
    return _result(ctx.render(ctx.mul(_split_operands(ctx, argument))))


def _add(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """element expressions, one per operand, separated by ';'"""
    return _result(ctx.render(ctx.add(_split_operands(ctx, argument))))


def _aug(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """element expression"""
    value = ctx.augmentation(parse_to_element(ctx, argument))
    out = ctx.ring.format_scalar(value)
    return out, {"result": out, "coefficient": value}, 0


def _quer(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """element expression"""
    q = ctx.quer(parse_to_element(ctx, argument))
    if q is None:
        return "NotFound", {"found": False, "result": None}, 0
    out = ctx.render(q)
    return out, {"found": True, "result": out}, 0


def _identities(ctx: GroupRing, argument: str, seed: int) -> tuple:
    labels = [ctx.group.label(e) for e in ctx.group.identities()]
    return "\n".join(labels) or "(none)", {"identities": labels}, 0


def _table(ctx: GroupRing, argument: str, seed: int) -> tuple:
    """generator labels (default: every element of a group of at most 16)"""
    group = ctx.group
    text = argument.strip()
    # whitespace inside a label such as g(0, 1) does not separate labels
    names = re.split(r"\s+(?![^()]*\))", text) if text else []
    if names:
        gens = [parse_basis_label(ctx, n) for n in names]
    else:
        if group.size() > 16:
            raise DomainError(
                f"{group.name} has {group.size()} elements; a full product "
                "table is only printed for 16 or fewer — pass a generator list"
            )
        gens = group.elements()
    count = len(gens) ** group.arity
    if count > ENUMERATE_BUDGET:
        raise BudgetExceeded(
            f"a product table of {count} rows is over the budget of "
            f"{ENUMERATE_BUDGET}"
        )
    rows = [
        [group.label(g) for g in (*word, group.mul(word))]
        for word in product(gens, repeat=group.arity)
    ]
    lines = "\n".join(" ".join(row[:-1]) + " -> " + row[-1] for row in rows)
    return lines, {"rows": rows}, 0


def _verify(ctx: GroupRing, argument: str, seed: int) -> tuple:
    reports = verify.target_reports(ctx, argument.strip() or "all", seed)
    text = "\n".join(r.to_text() for r in reports)
    failed = any(not r.holds for r in reports)
    return text, {"reports": [r.to_dict() for r in reports]}, 3 if failed else 0


_verify.__doc__ = f"axiom: one of {', '.join(VERIFY_AXIOMS)}"


def _arity(ctx: GroupRing, argument: str, seed: int) -> tuple:
    fields = asdict(ctx.profile)
    text = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"{ctx.name}: {text}", dict(sorted(fields.items())), 0


# verb -> (argument words argparse takes: "+", "*" or None, handler); a
# handler's docstring is its argument's help.  Handlers look up
# parse_to_element and parse_basis_label in this module's globals when they
# run, so patching those names here reaches every verb.
COMMANDS = {
    "eval": ("+", _eval),
    "mul": ("+", _mul),
    "add": ("+", _add),
    "aug": ("+", _aug),
    "quer": ("+", _quer),
    "identities": (None, _identities),
    "table": ("*", _table),
    "verify": ("*", _verify),
    "arity": (None, _arity),
}


def run_command(
    ctx: GroupRing, verb: str, argument: str, *, seed: int = 0,
    as_json: bool = False,
) -> tuple[str, int]:
    """Dispatch one command against the active context.

    Returns (output text, exit status): the handler's text, or its JSON
    payload when as_json.  json.dumps keeps a payload's key order, so each
    handler builds its payload in the order its JSON shows: sorted for
    verify and arity."""
    entry = COMMANDS.get(verb)
    if entry is None:
        raise DomainError(f"unknown command {verb!r}")
    text, payload, status = entry[1](ctx, argument, seed)
    return (json.dumps(payload) if as_json else text), status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgr",
        description="Exact calculator for polyadic group rings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON configuration file")
    common.add_argument("--ring", choices=["jroot"], help="ring family")
    common.add_argument("--q", type=int, help="root order (j**q = -1)")
    common.add_argument("--mod", type=int, help="optional coefficient modulus")
    common.add_argument("--group", choices=["adiag", "derived"], help="group family")
    common.add_argument("--k", type=int, help="cyclic order for adiag groups")
    common.add_argument("--base", help="derived-group base, e.g. cyclic:3")
    common.add_argument("--arity", type=int, help="derived-group arity")
    common.add_argument("--ell-m", dest="ell_m", type=int, help="addition power")
    common.add_argument("--ell-n", dest="ell_n", type=int,
                        help="ring multiplication power")
    common.add_argument("--ell-g", dest="ell_g", type=int,
                        help="group multiplication power")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled verification")
    common.add_argument("--json", action="store_true", help="JSON output")

    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (nargs, handler) in COMMANDS.items():
        p = sub.add_parser(verb, parents=[common])
        if nargs:
            p.add_argument("expression", nargs=nargs, help=handler.__doc__)
    sub.add_parser("repl", parents=[common])
    return parser


def _repl(ctx: GroupRing, seed: int, as_json: bool,
          stdin=None, stdout=None) -> int:
    """Interactive loop; parse errors never abort the session."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    interactive = stdin.isatty()

    def emit(text: str) -> None:
        print(text, file=stdout)

    while True:
        if interactive:
            stdout.write("pgr> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        if line == ":ctx":
            emit(run_command(ctx, "arity", "", seed=seed, as_json=as_json)[0])
            continue
        if line.startswith(":seed"):
            try:
                seed = int(line.split(maxsplit=1)[1])
                emit(f"seed={seed}")
            except (IndexError, ValueError):
                emit("usage: :seed <integer>")
            continue
        verb, _, rest = line.partition(" ")
        if verb not in COMMANDS:
            emit(f"unknown command {verb!r}; verbs: {', '.join(COMMANDS)}")
            continue
        try:
            out, _status = run_command(
                ctx, verb, rest.strip(), seed=seed, as_json=as_json
            )
            emit(out)
        except PgrError as exc:
            emit(f"error: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = load_config(args.config, _context_overrides(args))
        if args.verb == "repl":
            return _repl(ctx, args.seed, args.json)
        argument = " ".join(getattr(args, "expression", []) or [])
        out, status = run_command(
            ctx, args.verb, argument, seed=args.seed, as_json=args.json
        )
        print(out)
        return status
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PgrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a library fault, not a user error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
