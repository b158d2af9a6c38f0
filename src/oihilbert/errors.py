"""Exception types shared across the package."""


class OihError(Exception):
    """Base class for all domain errors raised by this package."""


class NonDivisible(OihError):
    """Exact polynomial division was requested but the divisor does not divide."""


class SingularAtOrigin(OihError):
    """A power-series expansion needs a denominator with nonzero constant term."""


class WidthMismatch(OihError):
    """Widths of the objects involved are incompatible."""


class NotAnIdeal(OihError):
    """The operation needs rank-zero free summands (an ideal), or FI data it supports."""


class NotInLanguage(OihError):
    """The word is not a member of the language required by the operation."""


class NotConformant(OihError):
    """A denominator factor does not match any expected shape."""


class SchemaError(OihError):
    """An input document does not conform to the JSON schema."""
