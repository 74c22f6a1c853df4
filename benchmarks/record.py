"""Record the reference answers the quer-search gate compares with.

Run once, at the commit whose answers become the reference:

    python3 benchmarks/record.py

It enumerates the multi-term quer inputs of every quer-search context,
asks the library for each querelement and writes the answers to
benchmarks/quer_reference.json.  Before that it cross-checks the reference
model (oracle.py) against the library's ``mul`` and against ``mul_terms``
gathered by hand, on seeded dense inputs of every context the benchmark
uses.  It takes several minutes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from oracle import Model  # noqa: E402
from workloads import CONTEXTS, MODELS, QUER_SLOW, QUER_SMALL  # noqa: E402
from worker import build_context  # noqa: E402


def closure(model: Model, keys) -> set:
    current = set(keys)
    while True:
        grown = current | {
            model.group_word(w) for w in product(current, repeat=model.n_g)
        }
        if grown == current:
            return current
        current = grown


def universe(ctx: str) -> list:
    """2- and 3-term elements with coefficients in the nonzero residues
    (mod N) or in [-3, 3] (over Z); for the slow context, 2-term elements
    with coefficients +-2 whose support generates the whole group."""
    model = MODELS[ctx]
    keys = model.keys()
    if ctx == QUER_SLOW:
        return [
            list(zip(ks, cs))
            for ks in combinations(keys, 2)
            if len(closure(model, ks)) == len(keys)
            for cs in product((-2, 2), repeat=2)
        ]
    coefs = range(1, model.mod) if model.mod else [-3, -2, -1, 1, 2, 3]
    return [
        list(zip(ks, cs))
        for size in (2, 3)
        for ks in combinations(keys, size)
        for cs in product(coefs, repeat=size)
    ]


def cross_check() -> dict:
    rng = random.Random("record")
    out = {}
    for name, spec in CONTEXTS.items():
        ctx, model = build_context(spec), MODELS[name]
        size = min(len(model.keys()), 5)
        for _ in range(3):
            data = [
                [(g, rng.choice([c for c in range(-9, 10) if c]))
                 for g in rng.sample(model.keys(), size)]
                for _ in range(model.gr_mul_arity)
            ]
            xs = [ctx.element(x) for x in data]
            got = ctx.mul(xs).terms
            gathered: dict = {}
            for c, g in ctx.mul_terms(xs):
                gathered.setdefault(g, []).append(c)
            by_terms = ctx.element(
                [(g, c) for g, cs in gathered.items() for c in cs]
            ).terms
            want = model.mul([model.canonical(x) for x in data])
            if not got == by_terms == want:
                raise SystemExit(f"{name}: mul, mul_terms and the model disagree")
        out[name] = "mul == gathered mul_terms == model on 3 inputs"
    return out


def main() -> None:
    checked = cross_check()
    answers, seconds = {}, {}
    for name in (*QUER_SMALL, QUER_SLOW):
        ctx = build_context(CONTEXTS[name])
        rows = []
        t0 = time.perf_counter()
        for x in universe(name):
            q = ctx.quer(ctx.element(x))
            rows.append([x, None if q is None else list(q.terms)])
        seconds[name] = round(time.perf_counter() - t0, 1)
        answers[name] = rows
        print(name, len(rows), sum(q is not None for _, q in rows), seconds[name],
              file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
        cwd=HERE,
    ).stdout.strip()
    doc = {
        "commit": commit,
        "cross_check": checked,
        "record_seconds": seconds,
        "answers": answers,
    }
    (HERE / "quer_reference.json").write_text(
        json.dumps(doc, separators=(",", ":")) + "\n"
    )


if __name__ == "__main__":
    main()
