"""Recompute the `pgr verify` digest and compare it with the recorded one.

Runs `cli.run_command(ctx, "verify", target, seed=s, as_json=j)` for every
verify target (the 12 laws and "all") on six contexts, seeds 0, 11 and
12345, text and JSON output, and hashes
`repr((ctx.name, target, s, j, output, status))` in that order with sha256.
A change to the product or the law runner that leaves every verify answer
alone leaves the digest alone.

Usage: PYTHONPATH=src python tests/verify_digest.py   (about 27 s)
Exits 0 when the digest matches, 1 when it does not.  Not a pytest module.
"""

from __future__ import annotations

import hashlib
import sys

from pgr import AdiagGroup, DerivedCyclicGroup, JRootRing, cli, make_group_ring

EXPECTED = "41ada2b0da695735110a7d8cd01aa7fbebf381ca5052f7f1230f2d641657e01c"
SEEDS = (0, 11, 12345)


def contexts() -> list:
    return [
        make_group_ring(JRootRing(2), AdiagGroup(3)),
        make_group_ring(JRootRing(2, 5), AdiagGroup(3)),
        make_group_ring(JRootRing(2), AdiagGroup(3), ell_n=2, ell_g=2),
        make_group_ring(JRootRing(2), DerivedCyclicGroup(4, 3)),
        make_group_ring(JRootRing(3), DerivedCyclicGroup(5, 4)),
        make_group_ring(JRootRing(1, 7), DerivedCyclicGroup(3, 2)),
    ]


def digest() -> str:
    h = hashlib.sha256()
    for ctx in contexts():
        for target in cli.VERIFY_AXIOMS:
            for seed in SEEDS:
                for as_json in (False, True):
                    out, status = cli.run_command(
                        ctx, "verify", target, seed=seed, as_json=as_json
                    )
                    record = (ctx.name, target, seed, as_json, out, status)
                    h.update(repr(record).encode())
    return h.hexdigest()


def main() -> int:
    got = digest()
    print(got)
    if got != EXPECTED:
        print(f"verify digest changed; expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
