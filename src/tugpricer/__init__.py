"""Option pricing when both counterparties can lean on the underlying.

The model prices a terminal payoff under a two-player zero-sum game: an
issuer and a holder each steer the drift of the log-prices with bounded
intensity while a fair coin decides who wins each infinitesimal round.  The
fair value solves a degenerate nonlinear PDE built from a normalized
infinity-Laplacian term; this package evaluates the game operators, solves
the PDE, and cross-checks the result against backward induction and Monte
Carlo play of the game itself.
"""

from __future__ import annotations

from .errors import (CertificationError, PreconditionError, PricingError,
                     StrategyContractError, ValidationError)
from .game import (ConstantStrategy, DiscreteGameConfig, FeedbackStrategy,
                   GameValueTables, McEstimate, SimConfig, aligned_time_steps,
                   discounted_reward, dpp_solve, greedy_strategy_pair, mc_value,
                   null_strategy_pair, path_rng, simulate_discrete_game,
                   simulate_sde_paths, tabulate_strategy, write_value_table)
from .isaacs import DirectionSet
from .market import (BasketPut, MarketParams, Payoff, PayoffCertificate,
                     RunningCost, TabulatedPayoff, certify_payoff,
                     constant_payoff, constant_running_cost, read_payoff_table,
                     write_payoff_table)
from .pde import (BarrierParams, GridSpec, PriceGrid, SolverConfig, a_design,
                  barrier_pair, cfl_max_dt, default_domain, interior_derivatives,
                  interior_mask, read_surface_csv, resolve_time_steps,
                  solve_terminal_value, write_surface)

__version__ = "0.1.0"

__all__ = [
    "BarrierParams", "BasketPut", "CertificationError", "ConstantStrategy",
    "DirectionSet", "DiscreteGameConfig", "FeedbackStrategy", "GameValueTables",
    "GridSpec", "MarketParams", "McEstimate", "Payoff", "PayoffCertificate",
    "PreconditionError", "PriceGrid", "PricingError", "RunningCost", "SimConfig",
    "SolverConfig", "StrategyContractError", "TabulatedPayoff", "ValidationError",
    "a_design", "aligned_time_steps", "barrier_pair", "certify_payoff",
    "cfl_max_dt", "constant_payoff", "constant_running_cost", "default_domain",
    "discounted_reward", "dpp_solve", "greedy_strategy_pair",
    "interior_derivatives", "interior_mask", "mc_value", "null_strategy_pair",
    "path_rng", "read_payoff_table", "read_surface_csv",
    "resolve_time_steps", "simulate_discrete_game", "simulate_sde_paths",
    "solve_terminal_value", "tabulate_strategy",
    "write_payoff_table", "write_surface", "write_value_table",
]
