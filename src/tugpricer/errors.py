"""Exception taxonomy shared across the package.

The command line front end maps these onto exit codes: validation and
strategy-contract problems exit with 2; numerical preconditions exit with 3
(the CFL bound, the PDE stack budget, the DPP displacement margin, the DPP
query budget, a non-finite solve, and a solution leaving [0, sup g]);
certification failures exit with 4; any other exception is an internal error
and exits with 1.
"""


class PricingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PricingError):
    """Invalid input value or malformed configuration."""


class PreconditionError(PricingError):
    """A numerical precondition failed (CFL bound, stack or query budget, step margin,
    blow-up, range)."""


class CertificationError(PricingError):
    """An observed payoff sample exceeded a declared certified bound."""


class StrategyContractError(PricingError):
    """A feedback strategy returned controls violating its declared bounds."""
