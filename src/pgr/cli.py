"""Command-line interface and REPL.

Exit codes: 0 success, 1 parse error, 2 arity/domain error, 3 a
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

VERBS = (
    "eval", "mul", "add", "aug", "quer", "identities", "table", "verify",
    "arity", "repl",
)

VERIFY_AXIOMS = (*verify.TARGETS, "all")


def _context_overrides(args) -> dict:
    overrides: dict = {"ring": {}, "group": {}, "powers": {}}
    if args.ring is not None:
        overrides["ring"]["kind"] = args.ring
    if args.q is not None:
        overrides["ring"]["q"] = args.q
    if args.mod is not None:
        overrides["ring"]["modulus"] = args.mod
    if args.group is not None:
        if args.group == "adiag":
            overrides["group"] = {"kind": "adiag_cyclic", "k": args.k or 3}
        elif args.group == "derived":
            overrides["group"] = {
                "kind": "derived",
                "base": args.base or "cyclic:3",
                "arity": args.arity or 3,
            }
    else:
        if args.k is not None:
            overrides["group"]["k"] = args.k
        if args.base is not None:
            overrides["group"]["base"] = args.base
        if args.arity is not None:
            overrides["group"]["arity"] = args.arity
    if args.ell_m is not None:
        overrides["powers"]["ell_m"] = args.ell_m
    if args.ell_n is not None:
        overrides["powers"]["ell_n"] = args.ell_n
    if args.ell_g is not None:
        overrides["powers"]["ell_g"] = args.ell_g
    return {k: v for k, v in overrides.items() if v}


def _split_operands(ctx: GroupRing, text: str):
    parts = [p.strip() for p in text.split(";")]
    if any(not p for p in parts):
        raise ParseError("empty operand between ';' separators", 0, ("element",))
    return [parse_to_element(ctx, p) for p in parts]


def run_command(
    ctx: GroupRing, verb: str, argument: str, *, seed: int = 0,
    as_json: bool = False,
) -> tuple[str, int]:
    """Dispatch one command against the active context.

    Returns (output text, exit status)."""
    if verb == "eval":
        x = parse_to_element(ctx, argument)
        out = ctx.render(x)
        return (json.dumps({"result": out}) if as_json else out), 0
    if verb in ("mul", "add"):
        operands = _split_operands(ctx, argument)
        x = ctx.mul(operands) if verb == "mul" else ctx.add(operands)
        out = ctx.render(x)
        return (json.dumps({"result": out}) if as_json else out), 0
    if verb == "aug":
        x = parse_to_element(ctx, argument)
        value = ctx.augmentation(x)
        out = ctx.ring.format_scalar(value)
        if as_json:
            return json.dumps({"result": out, "coefficient": value}), 0
        return out, 0
    if verb == "quer":
        x = parse_to_element(ctx, argument)
        q = ctx.quer(x)
        if as_json:
            return (
                json.dumps(
                    {
                        "found": q is not None,
                        "result": None if q is None else ctx.render(q),
                    }
                ),
                0,
            )
        return ("NotFound" if q is None else ctx.render(q)), 0
    if verb == "identities":
        labels = [ctx.group.label(e) for e in ctx.group.identities()]
        if as_json:
            return json.dumps({"identities": labels}), 0
        return "\n".join(labels) if labels else "(none)", 0
    if verb == "table":
        return _table(ctx, argument, as_json)
    if verb == "verify":
        reports = verify.target_reports(ctx, argument.strip() or "all", seed)
        failed = any(not r.holds for r in reports)
        if as_json:
            out = json.dumps({"reports": [r.to_dict() for r in reports]},
                             sort_keys=True)
        else:
            out = "\n".join(r.to_text() for r in reports)
        return out, 3 if failed else 0
    if verb == "arity":
        profile = ctx.profile
        if as_json:
            return json.dumps(asdict(profile), sort_keys=True), 0
        fields = " ".join(f"{k}={v}" for k, v in asdict(profile).items())
        return f"{ctx.name}: {fields}", 0
    raise DomainError(f"unknown command {verb!r}")


def _table(ctx: GroupRing, argument: str, as_json: bool) -> tuple[str, int]:
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
    rows = []
    for word in product(gens, repeat=group.arity):
        rows.append((*word, group.mul(word)))
    if as_json:
        return (
            json.dumps(
                {"rows": [[group.label(g) for g in row] for row in rows]}
            ),
            0,
        )
    lines = [
        " ".join(group.label(g) for g in row[:-1]) + " -> " + group.label(row[-1])
        for row in rows
    ]
    return "\n".join(lines), 0


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
    for verb, needs_arg in (
        ("eval", True), ("mul", True), ("add", True), ("aug", True),
        ("quer", True), ("identities", False), ("table", False),
        ("verify", False), ("arity", False), ("repl", False),
    ):
        p = sub.add_parser(verb, parents=[common])
        if needs_arg:
            p.add_argument("expression", nargs="+",
                           help="element expression(s); ';' separates operands")
        elif verb == "table":
            p.add_argument("expression", nargs="*", help="generator labels")
        elif verb == "verify":
            p.add_argument("expression", nargs="*",
                           help=f"axiom: one of {', '.join(VERIFY_AXIOMS)}")
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
        if verb not in VERBS or verb == "repl":
            emit(f"unknown command {verb!r}; verbs: {', '.join(VERBS[:-1])}")
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
