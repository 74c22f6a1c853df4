"""Recompute the CLI digest and compare it with the recorded one.

Runs `cli.run_command(ctx, verb, argument, seed=s, as_json=j)` for every
verb but `repl`, on the four contexts of `benchmarks/workloads.py`'s
`CLI_OVERRIDES` (built with `dsl.load_config`), over fixed seeded
arguments: elements that spell their keys both as g<i> and as g(m,n),
some with inner spaces, operand lists of the context's arities, table
label lists, verify targets, and a few texts that fail.  Text and JSON
output; an argument that raises a PgrError records the error's type and
message in place of the output.  Hashes
`repr((ctx.name, verb, argument, s, j, output, status))` in that order
with sha256.  A change to dispatch or rendering that leaves every answer
alone leaves the digest alone.

Usage: PYTHONPATH=src python tests/cli_digest.py   (a few seconds)
Exits 0 when the digest matches, 1 when it does not.  Not a pytest module.
"""

from __future__ import annotations

import hashlib
import random
import sys

from pgr import PgrError, cli, dsl

EXPECTED = "ecf889c5185da85a11b24dacd22dcd9a51fce80717bb8418b1dbf642f61fbfea"
# benchmarks/workloads.py CLI_OVERRIDES, by value
OVERRIDES = {
    "C3": {},
    "C3mod5": {"ring": {"modulus": 5}},
    "D3C3": {"group": {"kind": "derived", "base": "cyclic:3", "arity": 3}},
    "C3ell2": {"powers": {"ell_n": 2, "ell_g": 2}},
}
ELEMENTS = 12
FAILING = {
    "eval": ("5x*g5", "1j*g99", "1j*g(0,7)", ""),
    "mul": ("1j*g1", "1j*g1 ; ; 1j*g2"),
    "add": ("1j*g1 ; 1j*g2 ; 1j*g3 ; 1j*g4",),
    "aug": ("1j*",),
    "quer": ("1j*g1 +",),
    "table": ("g99", "g1 junk"),
    "verify": ("everything",),
}


def label(group, rng: random.Random, g) -> str:
    """g's label as g<i>, or for an adiag key sometimes as g(m,n), with
    or without inner spaces."""
    form = rng.randrange(3) if isinstance(g, tuple) else 0
    if form == 0:
        return f"g{group.position(g) + 1}"
    return f"g({g[0]},{g[1]})" if form == 1 else f"g( {g[0]}, {g[1]} )"


def element(ctx, rng: random.Random) -> str:
    keys = ctx.group.elements()
    terms = [
        f"{rng.choice([c for c in range(-9, 10) if c])}{ctx.ring.symbol}*"
        + label(ctx.group, rng, rng.choice(keys))
        for _ in range(rng.randint(1, 4))
    ]
    return " + ".join(terms)


def arguments(ctx, name: str) -> list:
    """(verb, argument, seed) triples for the context called name."""
    rng = random.Random(name)
    keys = ctx.group.elements()
    elements = [element(ctx, rng) for _ in range(ELEMENTS)] + ["0", " 0 "]
    out = [("eval", x, 0) for x in elements]
    out += [("aug", x, 0) for x in elements]
    out += [("quer", x, 0) for x in elements]
    out += [
        ("quer", f"1{ctx.ring.symbol}*{label(ctx.group, rng, g)}", 0)
        for g in keys
    ]
    for verb, arity in (("mul", ctx.profile.gr_mul_arity),
                        ("add", ctx.profile.gr_add_arity)):
        for _ in range(ELEMENTS):
            operands = [rng.choice(elements) for _ in range(arity)]
            out.append((verb, " ; ".join(operands), 0))
    for size in (0, 1, 2, 3):
        picked = [label(ctx.group, rng, g) for g in rng.sample(keys, size)]
        out.append(("table", rng.choice((" ", "  ")).join(picked), 0))
    out += [("identities", "", 0), ("arity", "", 0)]
    out += [("verify", "", 0), ("verify", "gr-assoc", 7), ("verify", "comm", 11)]
    out += [(verb, text, 0) for verb, texts in FAILING.items() for text in texts]
    return out


def digest() -> str:
    h = hashlib.sha256()
    for name, overrides in OVERRIDES.items():
        ctx = dsl.load_config(None, overrides)
        for verb, argument, seed in arguments(ctx, name):
            for as_json in (False, True):
                try:
                    out, status = cli.run_command(
                        ctx, verb, argument, seed=seed, as_json=as_json
                    )
                except PgrError as exc:
                    out, status = f"{type(exc).__name__}: {exc}", None
                record = (ctx.name, verb, argument, seed, as_json, out, status)
                h.update(repr(record).encode())
    return h.hexdigest()


def main() -> int:
    got = digest()
    print(got)
    if got != EXPECTED:
        print(f"cli digest changed; expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
