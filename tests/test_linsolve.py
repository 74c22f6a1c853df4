from __future__ import annotations

import random
from itertools import product

import pytest

from pgr.linsolve import solve


def satisfies(a, b, y, modulus):
    return all(
        (sum(r * v for r, v in zip(row, y)) - c) % modulus == 0
        if modulus else sum(r * v for r, v in zip(row, y)) == c
        for row, c in zip(a, b)
    )


@pytest.mark.parametrize("modulus", [2, 4, 6, 8, 9, 12])
def test_mod_n_agrees_with_exhaustive_search(modulus):
    rng = random.Random(modulus)
    for _ in range(60):
        width = rng.randint(1, 3)
        a = [[rng.randrange(modulus) for _ in range(width)]
             for _ in range(rng.randint(1, 4))]
        b = [rng.randrange(modulus) for _ in a]
        y = solve(a, b, modulus)
        if y is None:
            assert not any(
                satisfies(a, b, v, modulus)
                for v in product(range(modulus), repeat=width)
            )
        else:
            assert all(0 <= v < modulus for v in y)
            assert satisfies(a, b, y, modulus)


@pytest.mark.parametrize(
    "a, b, found",
    [
        ([[2, 3]], [1], True),  # free variable zero gives 1/2: lattice step
        ([[2, 4]], [1], False),  # consistent over Q, no integer solution
        ([[2, 0], [0, 3]], [1, 3], False),  # unique rational, not integral
        ([[1, 1], [2, 2]], [1, 3], False),  # inconsistent over Q
        ([[6, 10, 15], [0, 0, 0]], [1, 0], True),
        ([[4, 6, 0], [0, 6, 9]], [2, 3], True),
        ([[4, 6, 0], [0, 6, 9]], [2, 4], False),
    ],
)
def test_integer_systems(a, b, found):
    y = solve(a, b, 0)
    assert (y is not None) == found
    if found:
        assert satisfies(a, b, y, 0)


def test_integer_solution_found_whenever_one_exists():
    rng = random.Random(2)
    for _ in range(200):
        width = rng.randint(1, 4)
        a = [[rng.randrange(-6, 7) for _ in range(width)]
             for _ in range(rng.randint(1, 4))]
        y0 = [rng.randrange(-3, 4) for _ in range(width)]
        b = [sum(r * v for r, v in zip(row, y0)) for row in a]
        y = solve(a, b, 0)
        assert y is not None and satisfies(a, b, y, 0)


def test_free_variables_are_zero_when_possible():
    assert solve([[1, 0, 0], [0, 0, 1]], [5, 7], 0) == [5, 0, 7]
    assert solve([[1, 2], [3, 6]], [1, 3], 4) == [1, 0]
