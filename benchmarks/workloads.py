"""Seeded input generator for the four benchmark workloads.

Everything here is plain data: context specs, and per cycle a list of op
specs whose elements are lists of (group key, coefficient) pairs.  No pgr
import happens here, so the same inputs can be re-made from a seed by the
worker (which feeds them to the library) and by the checker (which feeds
them to the reference model in oracle.py).

A run repeats whole cycles.  Each cycle holds a fixed number of ops of each
class, so the mix, and with it the cost of a cycle, is the same for every
seed; the seed only changes the elements, coefficients, labels and the
verification seeds.

Run ``python3 benchmarks/workloads.py <workload> <seed>`` to print the first
cycle's ops.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from oracle import Model

HERE = Path(__file__).resolve().parent

# context id -> spec: q of the j-root ring, optional modulus, group, powers
# (ell_m, ell_n, ell_g).
CONTEXTS = {
    "C3": {"q": 2, "mod": None, "group": ("adiag", 3)},
    "C5": {"q": 2, "mod": None, "group": ("adiag", 5)},
    "C8": {"q": 2, "mod": None, "group": ("adiag", 8)},
    "C5mod101": {"q": 2, "mod": 101, "group": ("adiag", 5)},
    "D4C8q3": {"q": 3, "mod": None, "group": ("derived", 8, 4)},
    "C3ell2": {"q": 2, "mod": None, "group": ("adiag", 3), "ell": (1, 2, 2)},
    "C3mod5": {"q": 2, "mod": 5, "group": ("adiag", 3)},
    "D3C3": {"q": 2, "mod": None, "group": ("derived", 3, 3)},
    "D3C4": {"q": 2, "mod": None, "group": ("derived", 4, 3)},
    "C2": {"q": 2, "mod": None, "group": ("adiag", 2)},
    "C2mod3": {"q": 2, "mod": 3, "group": ("adiag", 2)},
    "C2mod5": {"q": 2, "mod": 5, "group": ("adiag", 2)},
    "D3C3mod3": {"q": 2, "mod": 3, "group": ("derived", 3, 3)},
    "D3C3mod5": {"q": 2, "mod": 5, "group": ("derived", 3, 3)},
}

# cli-session contexts come from dsl.load_config with these flag overrides.
CLI_OVERRIDES = {
    "C3": {},
    "C3mod5": {"ring": {"modulus": 5}},
    "D3C3": {"group": {"kind": "derived", "base": "cyclic:3", "arity": 3}},
    "C3ell2": {"powers": {"ell_n": 2, "ell_g": 2}},
}

# dense-mul: ops per cycle by context.  The weights roughly even out the
# time each context takes per cycle, except C8, whose single product is the
# dense k=8 case the expansion layers are slowest on.
DENSE_MIX = {"C3": 16, "D4C8q3": 16, "C5mod101": 8, "C5": 4, "C3ell2": 2, "C8": 1}

VERIFY_CONTEXTS = ("C3", "C3mod5", "C3ell2", "D3C4")
VERIFY_LAWS = (
    "assoc", "ring-assoc", "distrib", "comm", "zero", "identity", "quer",
    "nonderived", "gr-assoc", "gr-distrib", "gr-zero", "aug-hom",
)
# every law holds except that the derived group is derived
VERIFY_FAILS = {("D3C4", "nonderived")}

# quer-search: multi-term inputs are drawn from a recorded universe
# (quer_reference.json) so that a not-found answer can be compared with the
# seed commit's answer; monomials with a unit coefficient always have one.
QUER_SMALL = ("C2", "C2mod3", "C2mod5", "D3C3", "D3C3mod3", "D3C3mod5")
QUER_SLOW = "C3"
QUER_MONOMIAL = QUER_SMALL + (QUER_SLOW,)
QUER_IDENTITIES = ("C2mod3", "C2mod5", "D3C3mod3", "D3C3mod5")
# Per cycle: most ops are unit monomials (the closed-form path), and each
# stratum of a small context (term count x recorded found / not found)
# gets the same number of draws, so the cost of a cycle hardly depends on
# the seed.
QUER_PER_CYCLE = {"monomial": 14, "stratum": 2, "slow": 1, "identities": 1}

WORKLOADS = ("dense-mul", "quer-search", "verify-laws", "cli-session")


MODELS = {name: Model(spec) for name, spec in CONTEXTS.items()}


def _coef(rng: random.Random) -> int:
    return rng.choice([c for c in range(-9, 10) if c])


def _element(rng: random.Random, ctx: str, size: int, repeat=False) -> list:
    keys = MODELS[ctx].keys()
    picked = rng.choices(keys, k=size) if repeat else rng.sample(keys, size)
    return [(g, _coef(rng)) for g in picked]


def _units(ctx: str) -> list:
    # scalars with a ring querelement: +-1 over Z (q = 2), every nonzero
    # residue modulo a prime
    mod = MODELS[ctx].mod
    return list(range(1, mod)) if mod else [-1, 1]


def load_quer_reference() -> dict:
    """Context id -> list of (element, seed commit's answer or None)."""
    raw = json.loads((HERE / "quer_reference.json").read_text())
    return {
        ctx: [(pairs(x), None if q is None else pairs(q)) for x, q in rows]
        for ctx, rows in raw["answers"].items()
    }


def pairs(rows) -> list:
    return [(tuple(g) if isinstance(g, list) else g, c) for g, c in rows]


def quer_strata(rows: list) -> list:
    """The recorded elements of one context grouped by (term count, found)."""
    groups: dict = {}
    for x, q in rows:
        groups.setdefault((len(x), q is not None), []).append(x)
    return [groups[k] for k in sorted(groups)]


def contexts_for(workload: str) -> list:
    if workload == "dense-mul":
        return list(DENSE_MIX)
    if workload == "quer-search":
        return list(QUER_MONOMIAL)
    if workload == "verify-laws":
        return list(VERIFY_CONTEXTS)
    if workload == "cli-session":
        return list(CLI_OVERRIDES)
    raise ValueError(f"unknown workload {workload!r}")


def cycle(workload: str, seed: int, index: int, quer_reference=None) -> list:
    """The ops of one cycle, as plain dicts."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "dense-mul":
        ops = []
        for ctx, count in DENSE_MIX.items():
            model = MODELS[ctx]
            for _ in range(count):
                ops.append({"ctx": ctx, "operands": [
                    _element(rng, ctx, len(model.keys()))
                    for _ in range(model.gr_mul_arity)
                ]})
        rng.shuffle(ops)
        return ops
    if workload == "quer-search":
        ref = quer_reference or load_quer_reference()
        ops = []
        for ctx in QUER_MONOMIAL:
            for _ in range(QUER_PER_CYCLE["monomial"]):
                g = rng.choice(MODELS[ctx].keys())
                ops.append({"ctx": ctx, "kind": "quer",
                            "x": [(g, rng.choice(_units(ctx)))]})
        for ctx in QUER_SMALL:
            for stratum in quer_strata(ref[ctx]):
                for _ in range(QUER_PER_CYCLE["stratum"]):
                    ops.append({"ctx": ctx, "kind": "quer",
                                "x": rng.choice(stratum)})
        for _ in range(QUER_PER_CYCLE["slow"]):
            ops.append({"ctx": QUER_SLOW, "kind": "quer",
                        "x": rng.choice(ref[QUER_SLOW])[0]})
        for ctx in QUER_IDENTITIES:
            for _ in range(QUER_PER_CYCLE["identities"]):
                ops.append({"ctx": ctx, "kind": "identities"})
        rng.shuffle(ops)
        return ops
    if workload == "verify-laws":
        law_seed = rng.randrange(2**31)
        return [
            {"ctx": ctx, "law": law, "seed": law_seed}
            for ctx in VERIFY_CONTEXTS
            for law in VERIFY_LAWS
        ]
    if workload == "cli-session":
        ops = []
        for ctx in CLI_OVERRIDES:
            ops.extend(_cli_ops(rng, ctx))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _text(model: Model, pairs: list, rng: random.Random) -> str:
    """An element as typed, each label in either of the two forms."""
    return " + ".join(
        f"{c}{model.symbol}*"
        f"{model.index_label(g) if rng.random() < 0.5 else model.label(g)}"
        for g, c in pairs
    )


def _cli_ops(rng: random.Random, ctx: str) -> list:
    """One context's share of a REPL session: 13 lines over eight verbs."""
    model = MODELS[ctx]
    plan = [("eval", 1, 6)] * 3 + [("mul", model.gr_mul_arity, 4)] * 2
    plan += [("add", 2, 6)] * 2 + [("aug", 1, 6)] * 2
    # the power-2 context has no monomial fast path, so it evaluates instead
    plan += [("eval", 1, 6) if model.ell_n > 1 else ("quer", 1, 1)]
    plan += [("table", 0, 0), ("arity", 0, 0), ("identities", 0, 0)]
    ops = []
    for verb, count, max_terms in plan:
        op = {"ctx": ctx, "verb": verb, "json": rng.random() < 0.25}
        if verb == "quer":
            g = rng.choice(model.keys())
            data = [[(g, rng.choice(_units(ctx)))]]
        elif verb == "table":
            data = rng.sample(model.keys(), 2)
        else:
            data = [
                _element(rng, ctx, rng.randint(1, max_terms), repeat=True)
                for _ in range(count)
            ]
        op["data"] = data
        if verb == "table":
            # g<i> only: table splits its argument at commas, so the
            # documented generator list cannot hold g(m,n) labels
            op["arg"] = " ".join(model.index_label(g) for g in data)
        else:
            op["arg"] = "; ".join(_text(model, x, rng) for x in data)
        ops.append(op)
    return ops


if __name__ == "__main__":
    for op in cycle(sys.argv[1], int(sys.argv[2]), 0):
        print(op)
