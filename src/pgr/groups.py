"""Finite n-ary groups.

Two families are provided: the nonderived antidiagonal family over a
cyclic group (ternary products of antidiagonal 2x2 matrices, represented
exactly by their generator-exponent pairs) and groups whose n-ary product
is derived by iterating an ordinary cyclic group.

Element keys are plain values (an (m, n) exponent pair, or an integer
exponent) and are totally ordered through ``sort_key``, which for the
antidiagonal family follows the legacy single-index labelling
i = k*n + m + 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from .arity import is_integer, polyadic_power
from .errors import ArityMismatch, DomainError


class NaryGroup:
    """Common behaviour for a finite group with one n-ary product.

    Subclasses set ``arity`` and ``name`` and implement ``elements``,
    ``mul``, ``contains``, ``sort_key`` and ``label``.  The identity,
    neutral-polyad and querelement searches below are exhaustive and rely
    only on ``mul``.
    """

    arity: int
    name: str

    def elements(self) -> list:
        raise NotImplementedError

    def mul(self, word: Sequence):
        raise NotImplementedError

    def contains(self, g) -> bool:
        raise NotImplementedError

    def sort_key(self, g):
        raise NotImplementedError

    def label(self, g) -> str:
        raise NotImplementedError

    def size(self) -> int:
        return len(self.elements())

    def _check_arity(self, word: Sequence) -> None:
        if len(word) != self.arity:
            raise ArityMismatch(
                f"{self.name} product takes {self.arity} elements, got {len(word)}"
            )

    def quer(self, g):
        """Querelement of g: the element q with mul(q, g, ..., g) = g,
        required to hold with q in every one of the arity positions.

        Generic exhaustive search; families with a closed form override it.
        Returns None when no element qualifies (possible for a bare finite
        magma, never for an actual n-ary group).
        """
        if not self.contains(g):
            raise DomainError(f"{g!r} is not an element of {self.name}")
        rest = (g,) * (self.arity - 1)
        for cand in self.elements():
            if all(
                self.mul((*rest[:p], cand, *rest[p:])) == g
                for p in range(self.arity)
            ):
                return cand
        return None

    def identities(self) -> list:
        """All e whose constant polyad is neutral: mul(x, e, ..., e) = x and
        mul(e, ..., e, x) = x for every x.

        Neutrality is demanded with the e-run kept in one block (probe
        first or last); interior probe positions transpose the exponents in
        the noncommutative antidiagonal family and would reject every
        candidate there.
        """
        out = []
        for e in self.elements():
            pad = (e,) * (self.arity - 1)
            if all(
                self.mul((x, *pad)) == x and self.mul((*pad, x)) == x
                for x in self.elements()
            ):
                out.append(e)
        return out

    def neutral_polyads(self) -> list[tuple]:
        """All (arity-1)-tuples t with mul(x, *t) = x and mul(*t, x) = x
        for every x; identities correspond to the constant tuples."""
        out = []
        for t in product(self.elements(), repeat=self.arity - 1):
            if all(
                self.mul((x, *t)) == x and self.mul((*t, x)) == x
                for x in self.elements()
            ):
                out.append(t)
        return out

    def idempotent(self, g, ell: int) -> bool:
        """True when the polyadic power g^<ell> returns g itself."""
        return polyadic_power(self.mul, self.arity, g, ell) == g

    # would-be binary product, for nonderivedness evidence ----------------

    def binary_product(self, x, y):
        raise NotImplementedError

    def binary_product_in_carrier(self, p) -> bool:
        raise NotImplementedError


class AdiagGroup(NaryGroup):
    """Ternary group of antidiagonal 2x2 matrices over the cyclic group C_k.

    An element is the exponent pair (m, n) standing for the matrix with
    a^m in the upper-right and a^n in the lower-left corner.  The triple
    matrix product lands back on an antidiagonal matrix and reads

        g(m1,n1) g(m2,n2) g(m3,n3) = g(m1+n2+m3, n1+m2+n3)   (mod k),

    while any binary product is diagonal, i.e. leaves the carrier: the
    ternary product is not derived from a lower-arity one.
    """

    arity = 3

    def __init__(self, k: int):
        if not is_integer(k) or k < 2:
            raise DomainError(f"cyclic order must be an integer >= 2, got {k!r}")
        self.k = k
        self.name = f"adiag(C{k})"
        self._elements = [
            (m, n) for n in range(k) for m in range(k)
        ]  # legacy index order: i = k*n + m + 1

    def elements(self) -> list[tuple[int, int]]:
        return list(self._elements)

    def size(self) -> int:
        return self.k * self.k

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.k
                for c in g
            )
        )

    def mul(self, word: Sequence[tuple[int, int]]) -> tuple[int, int]:
        self._check_arity(word)
        (m1, n1), (m2, n2), (m3, n3) = word
        k = self.k
        return ((m1 + n2 + m3) % k, (n1 + m2 + n3) % k)

    def quer(self, g: tuple[int, int]) -> tuple[int, int]:
        # closed form; valid in all three positions (certified in tests)
        if not self.contains(g):
            raise DomainError(f"{g!r} is not an element of {self.name}")
        m, n = g
        return ((self.k - n) % self.k, (self.k - m) % self.k)

    def sort_key(self, g: tuple[int, int]) -> tuple[int, int]:
        m, n = g
        return (n, m)

    def index(self, g: tuple[int, int]) -> int:
        """Legacy 1-based single-index label: i = k*n + m + 1."""
        m, n = g
        return self.k * n + m + 1

    def key_of_index(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self.k * self.k:
            raise DomainError(f"legacy index {i} outside 1..{self.k * self.k}")
        return ((i - 1) % self.k, (i - 1) // self.k)

    def label(self, g: tuple[int, int]) -> str:
        return f"g({g[0]},{g[1]})"

    def binary_product(self, x, y):
        """Ambient 2x2 matrix product of two carrier elements.

        Tagged as ("diag", d1, d2) or ("adiag", m, n); products of two
        antidiagonal matrices are always diagonal.
        """
        (m1, n1), (m2, n2) = x, y
        return ("diag", (m1 + n2) % self.k, (n1 + m2) % self.k)

    def binary_product_in_carrier(self, p) -> bool:
        return p[0] == "adiag"


class DerivedCyclicGroup(NaryGroup):
    """n-ary group derived from the cyclic group C_k by iterating its
    binary operation: mul(x_1, ..., x_n) = x_1 + ... + x_n (mod k)."""

    def __init__(self, k: int, arity: int):
        if not is_integer(k) or k < 1:
            raise DomainError(f"cyclic order must be an integer >= 1, got {k!r}")
        if not is_integer(arity) or arity < 2:
            raise DomainError(f"group arity must be an integer >= 2, got {arity!r}")
        self.k = k
        self.arity = arity
        self.name = f"derived[{arity}](C{k})"

    def elements(self) -> list[int]:
        return list(range(self.k))

    def size(self) -> int:
        return self.k

    def contains(self, g) -> bool:
        return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.k

    def mul(self, word: Sequence[int]) -> int:
        self._check_arity(word)
        return sum(word) % self.k

    def sort_key(self, g: int) -> int:
        return g

    def index(self, g: int) -> int:
        return g + 1

    def key_of_index(self, i: int) -> int:
        if not 1 <= i <= self.k:
            raise DomainError(f"legacy index {i} outside 1..{self.k}")
        return i - 1

    def label(self, g: int) -> str:
        return f"g{g + 1}"

    def binary_product(self, x, y):
        return (x + y) % self.k

    def binary_product_in_carrier(self, p) -> bool:
        return self.contains(p)
