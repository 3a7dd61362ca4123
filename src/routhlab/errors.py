"""Exception taxonomy shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own type.
The CLI maps these onto exit codes: configuration and parse problems exit
with 2, verification failures with 1, numerical breakdowns with 3.
"""

from __future__ import annotations

__all__ = [
    "RouthlabError",
    "DomainError",
    "StencilDomainError",
    "PositionDomainError",
    "SingularHessian",
    "SingularBlock",
    "NoConvergence",
    "EnergyUnreachable",
    "StepFailure",
    "PreconditionError",
    "InvarianceError",
    "DegenerateCurve",
    "NoIntersection",
    "ParseError",
    "ArityError",
    "ConfigError",
]


class RouthlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RouthlabError):
    """A field was evaluated outside its declared domain."""


class StencilDomainError(DomainError):
    """A finite-difference stencil point left the field's domain.

    Subclasses DomainError so that generic domain handling still applies,
    but keeps the stencil provenance distinguishable.
    """


class PositionDomainError(DomainError):
    """A position is outside the model's position predicate; no velocity scale moves it."""


class SingularHessian(RouthlabError):
    """The velocity Hessian failed to factor; the model is not regular here."""


class SingularBlock(RouthlabError):
    """The cyclic-velocity block of the Hessian is singular.

    Raised when the momentum relation cannot be inverted for the cyclic
    velocities at the requested point.
    """


class NoConvergence(RouthlabError):
    """An iterative solve exhausted its iteration budget."""


class EnergyUnreachable(RouthlabError):
    """No positive scale attains the requested energy along this ray."""


class StepFailure(RouthlabError):
    """The adaptive integrator could not continue.

    Either the step size underflowed while trial steps kept failing, or the
    step budget ran out.
    """


class PreconditionError(RouthlabError):
    """Input data violates a documented precondition of the operation."""


class InvarianceError(PreconditionError):
    """A coordinate declared cyclic is not: sampled d/dx there is nonzero."""


class DegenerateCurve(RouthlabError):
    """A sampled curve has (numerically) zero total chord length."""


class NoIntersection(RouthlabError):
    """The fitted circle or line does not meet the unit circle."""


class ParseError(RouthlabError):
    """Expression text could not be parsed.

    Carries 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ArityError(ParseError):
    """An expression references a variable index beyond the declared dimension."""


class ConfigError(RouthlabError):
    """A run configuration is malformed or inconsistent."""
