"""Exception taxonomy shared across the package.

The command line front end maps these onto exit codes: validation and
strategy-contract problems exit with 2, numerical preconditions (CFL bound,
displacement margin, blow-up detection) with 3, certification failures with 4;
any other exception is an internal error and exits with 1.
"""


class PricingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PricingError):
    """Invalid input value or malformed configuration."""


class OutOfDomainError(ValidationError):
    """A requested node lies outside the usable interior of a grid."""


class GradientDegenerateError(PricingError):
    """The gradient-normalized limit operator was evaluated at p = 0."""


class PreconditionError(PricingError):
    """A numerical precondition failed (CFL bound, step margin, blow-up)."""


class CertificationError(PricingError):
    """An observed payoff sample exceeded a declared certified bound."""


class StrategyContractError(PricingError):
    """A feedback strategy returned controls violating its declared bounds."""
