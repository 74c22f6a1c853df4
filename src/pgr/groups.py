"""Finite n-ary groups.

Two families are provided: the nonderived antidiagonal family over a
cyclic group (ternary products of antidiagonal 2x2 matrices, represented
exactly by their generator-exponent pairs) and groups whose n-ary product
is derived by iterating an ordinary cyclic group.

Element keys are plain values (an (m, n) exponent pair, or an integer
exponent).  Each family fixes one order on its keys as a bijection with
0..size()-1, by arithmetic and without listing them: ``position(g)`` and
its inverse ``key(i)``.  The antidiagonal family puts (m, n) at k*n + m,
so the legacy single-index label g<i> is i = position + 1; a derived
group puts g at g.  ``elements()`` lists the keys in that order.

Each family also has a binary cover (``cover()``), after Post's coset
theorem (E. L. Post, "Polyadic groups", 1940) and Hosszú–Gluskin: an
ordinary group, the ambient, into which the carrier embeds so that every
admissible group word is the ambient product of the embedded letters,
projected back.  The antidiagonal family sits in the diagonal/antidiagonal
monomial 2x2 matrices over C_k (a product of two carrier elements is
diagonal, so it leaves the carrier: the evidence of nonderivedness); a
derived group sits in C_k under +.  The carrier is one coset of the
normal subgroup K generated by the quotients embed(g) * embed(h)^-1, and
in both families K is abelian (the diagonal matrices, or C_k itself).

Because K is abelian, a group word is a sum of kernel coordinates, and
each cover packs a key's coordinates into one integer code:
``encode(parity, keys)`` gives each key's code in a slot of that parity
(0 even, 1 odd) of one n-ary word, and ``decode(sums)`` maps each sum of
a word's codes back to the word's product.  For adiag(C_k) the code is
m + n*r in even slots and n + m*r in odd ones (the odd slots swap the
exponents), with radix r = 3*(k-1) + 1 so that the sum of three codes
never carries, and decode folds each axis mod k; for derived[n](C_k) the
code is g itself and decode is s % k.  A product over a linear ring then
needs integer sums only, never a call to the group's mul, and the codes
are computed from the keys alone, so the group is never listed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from math import gcd

from .arity import is_integer, polyadic_power
from .errors import ArityMismatch, DomainError


class NaryGroup:
    """Common behaviour for a finite group with one n-ary product.

    Subclasses set ``arity`` and ``name`` and implement ``size``,
    ``position``, ``key``, ``mul``, ``contains`` and ``cover``; only
    ``position`` and ``key`` encode the key order, and ``label`` defaults
    to g<position + 1>.  The identity, neutral-polyad and querelement
    searches below are exhaustive and rely only on ``mul``.
    """

    arity: int
    name: str

    def size(self) -> int:
        raise NotImplementedError

    def position(self, g) -> int:
        """The 0-based place of key g in the group's key order."""
        raise NotImplementedError

    def key(self, i: int):
        """The key at position i; DomainError outside 0..size()-1."""
        raise NotImplementedError

    def elements(self) -> list:
        """Every key, in position order, listed afresh on each call."""
        return [self.key(i) for i in range(self.size())]

    def mul(self, word: Sequence):
        raise NotImplementedError

    def contains(self, g) -> bool:
        raise NotImplementedError

    def label(self, g) -> str:
        return f"g{self.position(g) + 1}"

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
        candidate there.  Generic exhaustive search; both families
        override it with a closed form.
        """
        keys = self.elements()
        out = []
        for e in keys:
            pad = (e,) * (self.arity - 1)
            if all(
                self.mul((x, *pad)) == x and self.mul((*pad, x)) == x
                for x in keys
            ):
                out.append(e)
        return out

    def neutral_polyads(self) -> list[tuple]:
        """All (arity-1)-tuples t with mul(x, *t) = x and mul(*t, x) = x
        for every x; identities correspond to the constant tuples."""
        keys = self.elements()
        out = []
        for t in product(keys, repeat=self.arity - 1):
            if all(
                self.mul((x, *t)) == x and self.mul((*t, x)) == x
                for x in keys
            ):
                out.append(t)
        return out

    def idempotent(self, g, ell: int) -> bool:
        """True when the polyadic power g^<ell> returns g itself."""
        return polyadic_power(self.mul, self.arity, g, ell) == g

    def cover(self) -> BinaryCover:
        raise NotImplementedError


class BinaryCover:
    """A binary group (the ambient) that an n-ary group embeds in: for
    every admissible word g1 ... gL,

        project(mul(... mul(embed(g1), embed(g2)) ..., embed(gL)))

    is the group word of g1 ... gL.  ``in_carrier`` tells the embedded
    carrier apart from the rest of the ambient; ``project`` is defined on
    the carrier only.  Subclasses implement mul, inverse, embed, project
    and in_carrier.
    """

    def mul(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def embed(self, g):
        raise NotImplementedError

    def project(self, x):
        raise NotImplementedError

    def in_carrier(self, x) -> bool:
        raise NotImplementedError

    def encode(self, parity: int, keys: Iterable) -> tuple:
        """Each key's kernel coordinates, packed into one integer, in a
        slot of the given parity (0 even, 1 odd) of one n-ary group word:
        the codes of a word's letters add up, without carrying, to an
        integer that decode maps to the word's product."""
        raise NotImplementedError

    def decode(self, sums: Iterable[int]) -> list:
        """The key of each word whose letters' codes add up to the sum."""
        raise NotImplementedError

    def translation(self, p: int, h, h0):
        """The ambient element t with  L*e(h)*R == t*L*e(h0)*R  for every
        product L of p embedded letters and every R (e = embed).

        t is u = e(h)*e(h0)^-1 conjugated by L.  u lies in the kernel K of
        the coset map, and L runs over one coset of K, the p-th power of
        the carrier's; since K is abelian, conjugating u by any element of
        that coset gives the same t, so e(h0)^p stands in for L.
        """
        e0 = self.embed(h0)
        back = self.inverse(e0)
        t = self.mul(self.embed(h), back)
        for _ in range(p):
            t = self.mul(self.mul(e0, t), back)
        return t


class MonomialCover(BinaryCover):
    """The monomial 2x2 matrices over C_k, the cover of adiag(C_k).

    An element is (s, u, v): for s = 0 the diagonal matrix with a^u and
    a^v on the diagonal, for s = 1 the antidiagonal one with a^u upper
    right and a^v lower left, so the carrier key (m, n) embeds as
    (1, m, n).  The coset map is s, and its kernel, the diagonal
    matrices, is abelian.

    A ternary word of carrier keys is diagonal(m1 + n2 + m3, n1 + m2 + n3)
    times the embedded identity, so its kernel coordinates are the sums of
    (m, n) over the even slots and (n, m) over the odd one: the code packs
    them as first + second * radix, and three codes of at most k - 1 per
    axis sum below the radix on each axis.
    """

    def __init__(self, k: int):
        self.k = k
        self.radix = 3 * (k - 1) + 1

    def mul(self, x, y):
        s, a, b = x
        t, c, d = y
        if s:
            c, d = d, c  # an antidiagonal left factor swaps the columns
        return (s ^ t, (a + c) % self.k, (b + d) % self.k)

    def inverse(self, x):
        s, a, b = x
        if s:
            a, b = b, a
        return (s, -a % self.k, -b % self.k)

    def embed(self, g):
        return (1, *g)

    def project(self, x):
        if not self.in_carrier(x):
            raise DomainError(f"{x!r} is diagonal, outside the carrier")
        return x[1:]

    def in_carrier(self, x) -> bool:
        return x[0] == 1

    def encode(self, parity: int, keys: Iterable) -> tuple:
        r = self.radix
        if parity:
            return tuple([n + m * r for m, n in keys])
        return tuple([m + n * r for m, n in keys])

    def decode(self, sums: Iterable[int]) -> list:
        r, k = self.radix, self.k
        return [(s % r % k, s // r % k) for s in sums]


class CyclicCover(BinaryCover):
    """C_k under +, the cover of derived[n](C_k): the carrier is all of it,
    so the kernel of the coset map is C_k, abelian."""

    def __init__(self, k: int):
        self.k = k

    def mul(self, x, y):
        return (x + y) % self.k

    def inverse(self, x):
        return -x % self.k

    def embed(self, g):
        return g

    def project(self, x):
        return x

    def in_carrier(self, x) -> bool:
        return True

    def encode(self, parity: int, keys: Iterable) -> tuple:
        return tuple(keys)

    def decode(self, sums: Iterable[int]) -> list:
        k = self.k
        return [s % k for s in sums]


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

    def size(self) -> int:
        return self.k * self.k

    def position(self, g: tuple[int, int]) -> int:
        m, n = g
        return self.k * n + m

    def key(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.k * self.k:
            raise DomainError(f"no key at position {i} in {self.name}")
        return (i % self.k, i // self.k)

    def contains(self, g) -> bool:
        if not (isinstance(g, tuple) and len(g) == 2):
            return False
        m, n = g
        return (
            isinstance(m, int) and not isinstance(m, bool) and 0 <= m < self.k
            and isinstance(n, int) and not isinstance(n, bool) and 0 <= n < self.k
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

    def identities(self) -> list[tuple[int, int]]:
        # closed form: mul(x, e, e) = mul(e, e, x) = x + (m + n, m + n),
        # so e = (m, n) is an identity exactly when m + n = 0 (mod k)
        return [(-n % self.k, n) for n in range(self.k)]

    def label(self, g: tuple[int, int]) -> str:
        return f"g({g[0]},{g[1]})"

    def cover(self) -> MonomialCover:
        return MonomialCover(self.k)


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

    def size(self) -> int:
        return self.k

    def position(self, g: int) -> int:
        return g

    def key(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise DomainError(f"no key at position {i} in {self.name}")
        return i

    def contains(self, g) -> bool:
        return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.k

    def mul(self, word: Sequence[int]) -> int:
        self._check_arity(word)
        return sum(word) % self.k

    def identities(self) -> list[int]:
        # closed form: mul(x, e, ..., e) = x + (arity - 1) e, so the
        # identities are the multiples of k / gcd(arity - 1, k)
        return list(range(0, self.k, self.k // gcd(self.arity - 1, self.k)))

    def cover(self) -> CyclicCover:
        return CyclicCover(self.k)
