"""Exception hierarchy shared by all pgr modules.

Exit-code mapping used by the CLI: parse-level errors (ParseError and
KeyRangeError) exit 1; domain and arity errors (DomainError and its
subclasses) and configuration errors (ConfigError) exit 2; a failed
verification report exits 3; any other exception is an internal error and
exits 4.
"""

from __future__ import annotations


class PgrError(Exception):
    """Base class for all library errors."""


class DomainError(PgrError):
    """An argument lies outside the operation's domain."""


class ArityMismatch(DomainError):
    """An operation received the wrong number of operands."""


class InadmissibleLength(DomainError):
    """A word length not of the form ell*(n-1)+1 for any ell >= 1."""


class QuantizationMismatch(DomainError):
    """Arity/power combination that cannot produce a group ring:
    ell_n*(n_r-1) != ell_g*(n_g-1)."""


class NoZero(DomainError):
    """The operation needs a zero element the structure does not have."""


class NotClosed(DomainError):
    """A partial operation left the carrier set."""


class BudgetExceeded(DomainError):
    """An exhaustive or combinatorial request exceeded its case budget."""


class InfiniteUniverse(DomainError):
    """Enumeration was requested over an infinite carrier."""


class ConfigError(PgrError):
    """Configuration file or flag set violates the expected schema."""


class ParseError(PgrError):
    """Expression syntax error, with byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f" at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(message + detail)


class KeyRangeError(ParseError):
    """A group-key literal falls outside the active group's index range."""
