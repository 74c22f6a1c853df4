"""Pure arithmetic of polyadic arities.

An n-ary operation can only be composed on words whose length is
ell*(n-1)+1 for some number of applications ell >= 1 (the admissible
lengths).  This module computes those lengths, inverts them, validates
full arity profiles for the group-ring construction, and provides the
generic left-nested iteration of an n-ary operation, either checked per
call (iterate_op) or validated once and returned as a word function
(word_function) for callers that compose many words of one length.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .errors import DomainError, InadmissibleLength, QuantizationMismatch

T = TypeVar("T")

# Arities, powers and word lengths are kept inside the nonnegative 64-bit
# range; desk-scale profiles never get close, and the explicit bound keeps
# quantization checks meaningful for absurd inputs.
U64_MAX = 2**64 - 1


def is_integer(value) -> bool:
    """An int that is not a bool (True and False are ints to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_range(value: int, low: int, name: str) -> int:
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if value > U64_MAX:
        raise DomainError(f"{name} exceeds the 64-bit bound")
    return value


def admissible_length(n: int, ell: int) -> int:
    """Word length ell*(n-1)+1 composable from ell nested n-ary operations."""
    _check_range(n, 2, "arity")
    _check_range(ell, 1, "polyadic power")
    length = ell * (n - 1) + 1
    if length > U64_MAX:
        raise DomainError("admissible length exceeds the 64-bit bound")
    return length


def power_for_length(n: int, length: int) -> int:
    """Invert admissible_length: the ell with ell*(n-1)+1 == length.

    Raises InadmissibleLength when no such ell exists, i.e. the word cannot
    be composed by n-ary operations at all.
    """
    _check_range(n, 2, "arity")
    _check_range(length, 2, "word length")
    if length < n:
        raise DomainError(f"word length {length} is below the arity {n}")
    if (length - 1) % (n - 1) != 0:
        raise InadmissibleLength(
            f"length {length} is not of the form ell*({n}-1)+1"
        )
    return (length - 1) // (n - 1)


@dataclass(frozen=True)
class ArityProfile:
    """The six input arities/powers plus the derived group-ring arities.

    gr_add_arity = ell_m*(m_r-1)+1 and gr_mul_arity = ell_n*(n_r-1)+1,
    where the latter must equal ell_g*(n_g-1)+1 for the multiplication to
    be constructible at all.
    """

    m_r: int
    n_r: int
    n_g: int
    ell_m: int
    ell_n: int
    ell_g: int
    gr_add_arity: int
    gr_mul_arity: int


def validate_profile(
    m_r: int, n_r: int, n_g: int, ell_m: int, ell_n: int, ell_g: int
) -> ArityProfile:
    """Check the quantization condition and fill in the derived arities."""
    for name, value in (("m_r", m_r), ("n_r", n_r), ("n_g", n_g)):
        _check_range(value, 2, name)
    for name, value in (("ell_m", ell_m), ("ell_n", ell_n), ("ell_g", ell_g)):
        _check_range(value, 1, name)
    ring_side = ell_n * (n_r - 1)
    group_side = ell_g * (n_g - 1)
    if ring_side != group_side:
        raise QuantizationMismatch(
            f"ell_n*(n_r-1) = {ring_side} != {group_side} = ell_g*(n_g-1); "
            "no group-ring multiplication arity exists for this profile"
        )
    return ArityProfile(
        m_r=m_r,
        n_r=n_r,
        n_g=n_g,
        ell_m=ell_m,
        ell_n=ell_n,
        ell_g=ell_g,
        gr_add_arity=admissible_length(m_r, ell_m),
        gr_mul_arity=admissible_length(n_r, ell_n),
    )


def left_fold(op: Callable[[Sequence[T]], T], n: int) -> Callable[[Sequence[T]], T]:
    """The left-nested fold of an n-ary operation over any admissible word.

    The first application consumes the leading n letters, every further
    application consumes the accumulator plus the next n-1 letters.  The
    bracketing is fixed so results are deterministic even for
    non-associative operations; bracketing-independence for associative
    ones is certified separately by the verify module.  Nothing is
    validated: callers pass a checked arity and admissible words.
    """
    step = n - 1

    def fold(word: Sequence[T]) -> T:
        acc = op(tuple(word[:n]))
        for pos in range(n, len(word), step):
            acc = op((acc, *word[pos : pos + step]))
        return acc

    return fold


def word_function(
    op: Callable[[Sequence[T]], T], n: int, ell: int
) -> Callable[[Sequence[T]], T]:
    """Validate (n, ell) once and return the function that composes a word
    of ell*(n-1)+1 letters by ell left-nested applications of op: op itself
    when ell == 1, else its left fold.  The word length is not checked
    again on each call."""
    admissible_length(n, ell)
    return op if ell == 1 else left_fold(op, n)


def iterate_op(
    op: Callable[[Sequence[T]], T], n: int, ell: int, word: Sequence[T]
) -> T:
    """Left-nested composition of ell applications of an n-ary operation
    (word_function) on a word whose length is checked first."""
    compose = word_function(op, n, ell)
    expected = ell * (n - 1) + 1
    if len(word) != expected:
        raise InadmissibleLength(
            f"word of length {len(word)} is not composable as {ell} "
            f"application(s) of a {n}-ary operation (needs {expected})"
        )
    return compose(tuple(word))


def polyadic_power(op: Callable[[Sequence[T]], T], n: int, x: T, ell: int) -> T:
    """x to the polyadic power ell: iterate op on ell*(n-1)+1 copies of x."""
    return iterate_op(op, n, ell, (x,) * admissible_length(n, ell))
