"""Exception types shared across the package.

Every error raised by the library derives from :class:`ConvregError`, so callers
(and the command line front end) can distinguish domain failures from bugs.
"""

from __future__ import annotations

__all__ = [
    "ConvregError",
    "BackendMismatch",
    "ParseError",
    "NotAGroup",
    "NotClosed",
    "IdentityMissing",
    "DimensionMismatch",
    "OrderBudgetExceeded",
    "ClosureBudgetExceeded",
    "CapExceeded",
    "UniverseTooLarge",
    "CertificateInvalid",
]


class ConvregError(Exception):
    """Base class for all library errors."""


class BackendMismatch(ConvregError):
    """Two elements or measures from different group backends were combined."""


class ParseError(ConvregError):
    """A group, element, or measure file failed to parse or validate.

    Carries the 1-based source line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAGroup(ConvregError):
    """A multiplication table violates a group axiom (with witness indices)."""


class NotClosed(ConvregError):
    """A support set is not closed under multiplication (with a witness pair)."""


class IdentityMissing(ConvregError):
    """A support table was requested for a set that does not contain the identity."""


class DimensionMismatch(ConvregError):
    """Vector/matrix sizes do not line up."""


class OrderBudgetExceeded(ConvregError):
    """Element order exceeds the configured cap."""


class CapExceeded(ConvregError):
    """Group enumeration or a subset survey exceeds its budget (or is impossible)."""


class ClosureBudgetExceeded(CapExceeded):
    """Generated-subgroup enumeration exceeded the configured cap."""


class UniverseTooLarge(ConvregError):
    """Brute-force search space exceeds the configured enumeration budget."""


class CertificateInvalid(ConvregError):
    """Internal invariant breach: a certificate failed re-validation."""
