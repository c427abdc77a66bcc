"""Exception types shared across the package."""


class CubeMassError(Exception):
    """Base class for all errors raised by cubemass."""


class ExpressionSyntaxError(CubeMassError):
    """Malformed expression source.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        self.offset = int(offset)
        self.expected = tuple(expected)
        detail = f"{message} at offset {self.offset}"
        if self.expected:
            detail += " (expected " + " | ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnknownIdentifier(CubeMassError):
    """Identifier outside the fixed variable/function vocabulary."""

    def __init__(self, name, offset, kind="identifier"):
        self.name = name
        self.offset = int(offset)
        super().__init__(f"unknown {kind} '{name}' at offset {self.offset}")


class DomainError(CubeMassError):
    """Evaluation left the real domain (log of non-positive, division by
    zero, fractional power of a non-positive base, ...)."""


class NoSecondDerivatives(CubeMassError):
    """Second derivatives read from a jet evaluated at first order."""


class OutsideDomain(CubeMassError):
    """Point or cube size outside a model's declared valid chart."""


class NotPositiveDefinite(CubeMassError):
    """Metric failed a positive-definiteness check at evaluation."""


class DegenerateGradient(CubeMassError):
    """Level-set machinery hit a point where the gradient vanishes."""


class BadInterval(CubeMassError):
    """Quadrature interval is empty, reversed or not finite."""


class InsufficientPoints(CubeMassError):
    """Too few usable ladder points for a rate fit."""


class DegenerateFit(CubeMassError):
    """Rate fit is singular (all abscissae coincide)."""


class ValidationError(CubeMassError):
    """Invalid configuration, flags or schema."""
