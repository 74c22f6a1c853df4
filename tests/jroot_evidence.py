"""Nonderivedness evidence for the j-root rings: the would-be binary
product of two carrier scalars, j_q * a times j_q * b, and the test of
whether it lies in the carrier j_q * Z again.  Used by the closure checks
in test_rings.py and test_verify.py; nothing in pgr needs it.
"""

from __future__ import annotations


def binary_product(ring, a: int, b: int):
    """Ambient product of just two scalars: j_q**2 * (a*b), which for
    q >= 2 is no longer a j_q-multiple unless the coefficient dies."""
    return ("jsq", ring.normalize(a * b) if ring.modulus else a * b)


def binary_product_in_carrier(ring, p) -> bool:
    if ring.q == 1:
        return True  # plain integers are closed under binary products
    return p[1] == 0
