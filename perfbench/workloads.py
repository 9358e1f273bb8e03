"""The benchmark's workloads: generated configs and the correctness gate.

Each workload is one public CLI command on a config built here from the
benchmark seed; the program only ever sees the generated config file.  The
gate bounds are the acceptance-test bounds; the coin game's 3 stderr are
taken around the exact mean of its N-step walk rather than the Gaussian limit.

``small=True`` gives the shrunken copy used by ``run.py --self-check``: the
same command, layers and gate on a config that runs in about a second.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

K = 100.0
LOG_K = math.log(K)
PUT = {"kind": "basket_put", "weights": 1.0, "strike": K}


def put_value_oracle(x0: float, strike: float, variance: float, drift: float,
                     r: float, T: float) -> float:
    """Discounted E[max(K - e^X, 0)] for X ~ N(x0 + drift T, variance), by
    128-point Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    x = x0 + drift * T + math.sqrt(2.0 * variance) * nodes
    payoff = np.maximum(strike - np.exp(x), 0.0)
    return math.exp(-r * T) * float(np.sum(weights * payoff)) / math.sqrt(math.pi)


def coin_walk_put_value(x0: float, strike: float, sigma: float, N: int) -> float:
    """Exact E[max(K - e^X, 0)] after the null-control coin game to T = 1:
    X = x0 + (2 sigma / sqrt(N)) (2j - N) with j ~ Binomial(N, 1/2)."""
    j = np.arange(N + 1)
    x = x0 + (2.0 * sigma / math.sqrt(N)) * (2.0 * j - N)
    pmf = np.array([math.comb(N, int(i)) / 2**N for i in j])
    return float(np.sum(pmf * np.maximum(strike - np.exp(x), 0.0)))


def _price_1d(seed: int, small: bool) -> dict:
    return {
        "market": {"sigma": 0.2, "mu": 0.05, "r": 0.02, "T": 1.0},
        "payoff": PUT,
        "grid": {"lo": [LOG_K - 3.0], "hi": [LOG_K + 3.0], "nx": 101 if small else 401},
        "solver": {"mode": "limit_F"},
        "game": {"seed": seed},
    }


def _operators_2d(seed: int, small: bool) -> dict:
    cfg = {
        "market": {"sigma": [1.0, 1.0], "r": 0.1, "T": 1.0},
        "payoff": {"kind": "constant", "value": 5.0},
        "operators": {"m_ladder": [1, 10, 100, 1000], "inputs": 4 if small else 40,
                      "seed": seed},
    }
    if small:
        cfg["solver"] = {"n_dirs": 180}
    return cfg


def _compare_1d(seed: int, small: bool) -> dict:
    return {
        "market": {"sigma": 0.2, "T": 1.0},
        "payoff": PUT,
        "grid": {"lo": [LOG_K - 4.0], "hi": [LOG_K + 4.0], "nx": 201 if small else 401},
        "solver": {"mode": "bounded_minus", "m": 10.0},
        "game": {"m": 10.0, "paths": 4000 if small else 100_000,
                 "nt_sim": 50 if small else 200, "seed": seed,
                 "strategies": {"kind": "greedy", "mode": "bounded_minus"}},
    }


def _coin_game_2t(seed: int, small: bool) -> dict:
    return {
        "market": {"sigma": 0.2, "T": 1.0},
        "payoff": PUT,
        "game": {"dynamics": "discrete", "N": 100 if small else 400,
                 "paths": 10_000 if small else 100_000, "seed": seed},
    }


def _read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _gate_price(cfg: dict, out: Path) -> str | None:
    u = _read_report(out)["points"][0]["u"]
    oracle = put_value_oracle(LOG_K, K, 5 * 0.04, 0.05, 0.02, 1.0)
    rel = abs(u - oracle) / oracle
    return None if rel < 0.01 else f"u={u!r} is {rel:.2%} from the oracle {oracle!r}"


def _gate_operators(cfg: dict, out: Path) -> str | None:
    report = _read_report(out)
    for side in ("max_err_plus", "max_err_minus"):
        errs = report[side]
        if not all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])):
            return f"{side} ladder {errs} is not non-increasing"
    with open(out / "game_table.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
    top = [row for row in rows if float(row[1]) == 1000.0]
    if not top:
        return "no m=1000 rows in game_table.csv"
    for row in top:
        _, _, ep, em, norm_m = (float(v) for v in row)
        if max(ep, em) > 0.05 * (1.0 + norm_m):
            return f"input {row[0]}: error {max(ep, em)!r} > 0.05(1+|M|) at m=1000"
    return None


def _gate_compare(cfg: dict, out: Path) -> str | None:
    report = _read_report(out)
    order = report["max_lower_minus_upper"]
    if order > 1e-9:
        return f"max_lower_minus_upper={order!r} > 1e-9"
    u_pde = report["points"][0]["u_pde"]
    mc = report["mc"]
    allow = 3 * mc["stderr"] + 0.02 * u_pde
    if abs(mc["mean"] - u_pde) > allow:
        return f"|mc - pde| = {abs(mc['mean'] - u_pde)!r} > {allow!r}"
    return None


def _gate_coin(cfg: dict, out: Path) -> str | None:
    # The reference is the exact mean of the N-step walk the command plays,
    # not its Gaussian limit: at N = 400 the two differ by 0.062, over one
    # stderr of 100k paths, which would fail a correct run on a few % of seeds.
    report = _read_report(out)
    oracle = coin_walk_put_value(LOG_K, K, cfg["market"]["sigma"], cfg["game"]["N"])
    allow = 3 * report["stderr"]
    if abs(report["mean"] - oracle) > allow:
        return f"|mean - oracle| = {abs(report['mean'] - oracle)!r} > 3 stderr = {allow!r}"
    return None


# name -> (CLI command, --threads, config from (seed, small), gate)
WORKLOADS = {
    "price-1d": ("price", 1, _price_1d, _gate_price),
    "operators-2d": ("check-operators", 1, _operators_2d, _gate_operators),
    "compare-1d": ("compare", 1, _compare_1d, _gate_compare),
    "coin-game-2t": ("simulate", 2, _coin_game_2t, _gate_coin),
}


def gate(workload: str, cfg: dict, out: Path) -> str | None:
    """None when the outputs in ``out`` of the command run on ``cfg`` are
    correct, else why not."""
    try:
        return WORKLOADS[workload][3](cfg, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
