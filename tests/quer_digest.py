"""Recompute the `pgr quer` digest and compare it with the recorded one.

Runs `cli.run_command(ctx, "quer", text, as_json=j)` on six contexts, for
every unit monomial (closed-form path) and for 60 seeded multi-term
elements of 2 to 4 terms (linear-solve path; coefficients +-1 over Z,
any nonzero residue mod N), text and JSON output, and hashes
`repr((ctx.name, text, j, output, status))` in that order with sha256.  A change to how the querelement system is built or solved that
leaves every answer alone leaves the digest alone.

Usage: PYTHONPATH=src python tests/quer_digest.py   (a few seconds)
Exits 0 when the digest matches, 1 when it does not.  Not a pytest module.
"""

from __future__ import annotations

import hashlib
import random
import sys

from pgr import AdiagGroup, DerivedCyclicGroup, JRootRing, cli, make_group_ring

EXPECTED = "7daebdc8ca3c9efc60c1f1709fea6d27bad97ee763e1ae87c9323623bdc3a9d0"
MULTI_TERM = 60


def contexts() -> list:
    return [
        make_group_ring(JRootRing(2), AdiagGroup(3)),
        make_group_ring(JRootRing(2, 5), AdiagGroup(3)),
        make_group_ring(JRootRing(2, 6), AdiagGroup(2)),
        make_group_ring(JRootRing(2), AdiagGroup(2), ell_n=2, ell_g=2),
        make_group_ring(JRootRing(2), DerivedCyclicGroup(4, 3)),
        make_group_ring(JRootRing(3), DerivedCyclicGroup(5, 4)),
    ]


def inputs(ctx) -> list:
    """Element texts: the unit monomials, then the seeded multi-term ones."""
    keys = ctx.group.elements()
    mod = ctx.ring.coordinate_modulus
    units = [c for c in range(1, mod) if ctx.ring.quer(c) is not None] if mod else [-1, 1]
    out = [ctx.element({g: c}) for g in keys for c in units]
    rng = random.Random(ctx.name)
    coeffs = range(1, mod) if mod else (-1, 1)
    for _ in range(MULTI_TERM):
        size = rng.randint(2, min(4, len(keys)))
        out.append(
            ctx.element({g: rng.choice(coeffs) for g in rng.sample(keys, size)})
        )
    return [ctx.render(x) for x in out if not x.is_zero()]


def digest() -> str:
    h = hashlib.sha256()
    for ctx in contexts():
        for text in inputs(ctx):
            for as_json in (False, True):
                out, status = cli.run_command(ctx, "quer", text, as_json=as_json)
                h.update(repr((ctx.name, text, as_json, out, status)).encode())
    return h.hexdigest()


def main() -> int:
    got = digest()
    print(got)
    if got != EXPECTED:
        print(f"quer digest changed; expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
