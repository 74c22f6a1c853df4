"""Concrete polyadic (m, n)-rings with exact integer scalars.

The j-root family: scalars are integer coefficients k standing for j_q*k
where j_q is a formal root with j_q**q = -1.  Binary addition is closed
for every q; multiplication is only closed for words of q+1 scalars,
making the family a nonderived (2, q+1)-ring.  Since j_q**(q+1) = -j_q,
the product of q+1 scalars has coefficient -(k_1*...*k_{q+1}).

q = 1 degenerates to the ordinary integers: -1 is a real root of
j**1 = -1, the carrier is all of Z, and the natural coordinate is the
integer itself with plain binary multiplication.

An optional modulus N folds the coefficients into Z_N so that the whole
ring becomes finite and exhaustively checkable.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Sequence

from .arity import is_integer, polyadic_power
from .errors import (
    ArityMismatch,
    DomainError,
    InfiniteUniverse,
    NoZero,
    NotClosed,
)

SAMPLE_BOUND = 50  # sampled coefficients for infinite rings lie in [-50, 50]


def _decimal_str(r: int) -> str:
    """str(r); DomainError, naming the digit count, when r has more digits
    than the interpreter converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(r)
    except ValueError:
        r = abs(r)
        digits = int((r.bit_length() - 1) * math.log10(2)) + 1
        while r >= 10**digits:
            digits += 1
        while r < 10 ** (digits - 1):
            digits -= 1
        raise DomainError(
            f"a coefficient of {digits} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer output"
        ) from None


class PolyadicRing:
    """Shared surface of a concrete (m_r, n_r)-ring over integer scalars."""

    m_r: int
    n_r: int
    name: str
    symbol: str
    has_zero: bool
    is_finite: bool
    # The ring's linearity, for generic linear algebra over its scalars:
    # 0 when the scalars are integer coordinates over Z, N when they are
    # residues mod N, None when neither holds.  A value other than None is
    # a contract that GroupRing.mul and GroupRing.quer rely on: addition
    # (at any arity) is coordinate addition mod N, so the zero is the
    # coordinate 0 and normalize(c1 + ... + ct) is the sum of t scalars;
    # multiplication is additive in each slot, mul(.., a + b, ..) =
    # mul(.., a, ..) + mul(.., b, ..) mod N, so it is Z-multilinear.  With
    # one coordinate per scalar, a multiplication word of any length is
    # therefore its value on ones times the product c1 * ... * cL mod N;
    # GroupRing.mul takes that constant once and never calls mul itself.
    coordinate_modulus: int | None = None

    def add(self, coeffs: Sequence):
        raise NotImplementedError

    def mul(self, coeffs: Sequence):
        raise NotImplementedError

    def zero(self):
        """The absorbing/neutral zero scalar, or None if the ring has none."""
        return None

    def contains(self, r) -> bool:
        raise NotImplementedError

    def normalize(self, r):
        return r

    def elements(self) -> list:
        raise InfiniteUniverse(f"{self.name} has infinitely many elements")

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def format_scalar(self, r) -> str:
        raise NotImplementedError

    def _check_add_arity(self, coeffs: Sequence) -> None:
        if len(coeffs) != self.m_r:
            raise ArityMismatch(
                f"{self.name} addition takes {self.m_r} scalars, got {len(coeffs)}"
            )

    def _check_mul_arity(self, coeffs: Sequence) -> None:
        if len(coeffs) != self.n_r:
            raise ArityMismatch(
                f"{self.name} multiplication takes {self.n_r} scalars, "
                f"got {len(coeffs)}"
            )

    def is_nilpotent(self, r, ell: int) -> bool:
        """True when the polyadic multiplicative power of r hits the zero."""
        if not self.has_zero:
            raise NoZero(f"{self.name} has no zero to be nilpotent onto")
        return polyadic_power(self.mul, self.n_r, r, ell) == self.zero()


class JRootRing(PolyadicRing):
    """The (2, q+1)-ring of j_q-multiples of integers, optionally mod N."""

    m_r = 2

    def __init__(self, q: int, modulus: int | None = None):
        if not is_integer(q) or q < 1:
            raise DomainError(f"root order must be an integer >= 1, got {q!r}")
        if modulus is not None and (not is_integer(modulus) or modulus < 2):
            raise DomainError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.q = q
        self.modulus = modulus
        self.n_r = q + 1
        self.symbol = "" if q == 1 else ("j" if q == 2 else f"j{q}")
        base = "Z" if q == 1 else f"{self.symbol}Z"
        self.name = base if modulus is None else f"{base} mod {modulus}"
        self.has_zero = True
        self.is_finite = modulus is not None
        self.coordinate_modulus = 0 if modulus is None else modulus

    def normalize(self, r: int) -> int:
        if not isinstance(r, int) or isinstance(r, bool):
            raise DomainError(f"scalar coefficient must be an integer, got {r!r}")
        return r % self.modulus if self.modulus is not None else r

    def contains(self, r) -> bool:
        if not isinstance(r, int) or isinstance(r, bool):
            return False
        return self.modulus is None or 0 <= r < self.modulus

    def zero(self) -> int:
        return 0

    def add(self, coeffs: Sequence[int]) -> int:
        self._check_add_arity(coeffs)
        return self.normalize(sum(coeffs))

    def mul(self, coeffs: Sequence[int]) -> int:
        self._check_mul_arity(coeffs)
        p = 1
        for c in coeffs:
            p *= c
        if self.q > 1:
            p = -p
        return self.normalize(p)

    def elements(self) -> list[int]:
        if self.modulus is None:
            raise InfiniteUniverse(f"{self.name} has infinitely many elements")
        return list(range(self.modulus))

    def sample(self, rng: random.Random) -> int:
        if self.modulus is not None:
            return rng.randrange(self.modulus)
        return rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)

    def format_scalar(self, r: int) -> str:
        return "0" if r == 0 else f"{_decimal_str(r)}{self.symbol}"

    # special elements -----------------------------------------------------

    def identity_search(self) -> list[int]:
        """All multiplicative identities, exhaustively for finite moduli.

        Over the infinite carrier the search is settled analytically: an
        identity needs e**q = -1 in Z (q >= 2), solvable only by e = -1
        for odd q; the q = 2 family in particular is unitless.
        """
        if self.modulus is not None:
            out = []
            for e in range(self.modulus):
                pad = (e,) * (self.n_r - 1)
                if all(
                    self.mul((*pad[:p], r, *pad[p:])) == r
                    for r in range(self.modulus)
                    for p in range(self.n_r)
                ):
                    out.append(e)
            return out
        if self.q == 1:
            return [1]
        if self.q % 2 == 0:
            return []
        return [-1]

    def quer(self, r: int) -> int | None:
        """Multiplicative querelement: q̄ with mul(q̄, r, ..., r) = r in every
        position, or None.  The zero is excluded by convention (absorption
        makes the defining relation vacuous there)."""
        if self.n_r < 3:
            raise DomainError(
                "querelements are defined for multiplication arity >= 3"
            )
        r = self.normalize(r)
        if r == self.zero():
            return None
        rest = (r,) * (self.n_r - 1)
        if self.modulus is not None:
            for cand in range(self.modulus):
                if all(
                    self.mul((*rest[:p], cand, *rest[p:])) == r
                    for p in range(self.n_r)
                ):
                    return cand
            return None
        # over Z: -cand * r**q = r has an integer solution iff r**q | r
        num, den = -r, r**self.q
        if num % den != 0:
            return None
        cand = num // den
        if all(
            self.mul((*rest[:p], cand, *rest[p:])) == r for p in range(self.n_r)
        ):
            return cand
        return None

    def units(self) -> list[int]:
        """The unit set: scalars possessing a multiplicative querelement."""
        if self.modulus is not None:
            return [k for k in range(self.modulus) if self.quer(k) is not None]
        return [k for k in (-1, 1) if self.quer(k) is not None]


class OddJRootSemigroup(PolyadicRing):
    """Odd-coefficient multiplicative subfamily of a j-root ring.

    Products of q+1 odd coefficients stay odd, so multiplication is total,
    but the sum of two odd coefficients is even: addition leaves the
    carrier and the structure has no zero.  Exists to exercise external
    zero adjunction.
    """

    m_r = 2

    def __init__(self, q: int = 2):
        if not is_integer(q) or q < 2:
            raise DomainError(f"root order must be an integer >= 2, got {q!r}")
        self.q = q
        self.n_r = q + 1
        self.symbol = "j" if q == 2 else f"j{q}"
        self.name = f"odd {self.symbol}Z"
        self.has_zero = False
        self.is_finite = False

    def contains(self, r) -> bool:
        return isinstance(r, int) and not isinstance(r, bool) and r % 2 == 1

    def add(self, coeffs: Sequence[int]) -> int:
        self._check_add_arity(coeffs)
        raise NotClosed("sum of odd coefficients is even, outside the carrier")

    def mul(self, coeffs: Sequence[int]) -> int:
        self._check_mul_arity(coeffs)
        p = 1
        for c in coeffs:
            p *= c
        return -p

    def sample(self, rng: random.Random) -> int:
        k = rng.randint(-SAMPLE_BOUND // 2, SAMPLE_BOUND // 2)
        return 2 * k + 1

    def format_scalar(self, r: int) -> str:
        return f"{_decimal_str(r)}{self.symbol}"


class _AdjoinedZeroScalar:
    """Singleton sentinel for an externally adjoined zero."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ż"


ADJOINED_ZERO = _AdjoinedZeroScalar()


class AdjoinedZeroRing(PolyadicRing):
    """A zeroless structure extended by one extraneous element ż that is
    additively neutral and multiplicatively absorbing in every position."""

    def __init__(self, base: PolyadicRing):
        self.base = base
        self.m_r = base.m_r
        self.n_r = base.n_r
        self.symbol = base.symbol
        self.name = f"{base.name} + ż"
        self.has_zero = True
        self.is_finite = base.is_finite

    def zero(self):
        return ADJOINED_ZERO

    def contains(self, r) -> bool:
        return r is ADJOINED_ZERO or self.base.contains(r)

    def normalize(self, r):
        return r if r is ADJOINED_ZERO else self.base.normalize(r)

    def add(self, coeffs: Sequence):
        self._check_add_arity(coeffs)
        real = [c for c in coeffs if c is not ADJOINED_ZERO]
        if not real:
            return ADJOINED_ZERO
        if len(real) == 1:
            return real[0]  # neutrality of ż
        if len(real) == len(coeffs):
            return self.base.add(real)
        # a word with some, but not all, slots equal to ż: the neutrality
        # law does not determine this and the base cannot fill the gap
        raise NoZero(
            "cannot drop ż from a partially filled addition word: "
            f"{self.base.name} has no zero of its own"
        )

    def mul(self, coeffs: Sequence):
        self._check_mul_arity(coeffs)
        if any(c is ADJOINED_ZERO for c in coeffs):
            return ADJOINED_ZERO
        return self.base.mul(coeffs)

    def elements(self) -> list:
        return [ADJOINED_ZERO, *self.base.elements()]

    def sample(self, rng: random.Random):
        return self.base.sample(rng)

    def format_scalar(self, r) -> str:
        return "ż" if r is ADJOINED_ZERO else self.base.format_scalar(r)


def adjoin_zero(ring: PolyadicRing) -> PolyadicRing:
    """Adjoin an external zero; a ring that already has one is returned
    unchanged."""
    if ring.has_zero:
        return ring
    return AdjoinedZeroRing(ring)
