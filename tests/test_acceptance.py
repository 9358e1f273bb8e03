"""Acceptance suite: twelve end-to-end criteria, one verdict line each.

Each test prints ``[NN] PASS/FAIL name: detail`` straight to the terminal
(bypassing capture) and then asserts, so a plain ``pytest tests/test_acceptance.py``
shows the full scorecard.  Oracle values come from closed forms and exact sums
only; nothing here is tuned to the solver output.
"""

from __future__ import annotations

import filecmp
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import put_value_oracle
from tugpricer import (BarrierParams, BasketPut, DirectionSet,
                       DiscreteGameConfig, GridSpec, MarketParams, Payoff,
                       SimConfig, SolverConfig, a_design, barrier_pair,
                       constant_payoff, constant_running_cost, dpp_solve,
                       greedy_strategy_pair, interior_mask, mc_value,
                       null_strategy_pair, simulate_discrete_game,
                       solve_terminal_value)
from tugpricer import isaacs
from tugpricer._interp import multilinear

K = 100.0
LOG_K = math.log(K)
PUT = BasketPut(weights=np.array([1.0]), strike=K)


@pytest.fixture
def verdict(capfd):
    """One scorecard line per criterion, written around pytest's capture."""

    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _flat_params(r: float = 0.0, mu: float = 0.0) -> MarketParams:
    return MarketParams(mu=np.array([mu]), sigma=np.array([0.2]), r=r, T=1.0)


class ShiftedPut(Payoff):
    """A vanilla put raised by a constant; bounds stay certified."""

    def __init__(self, base: BasketPut, shift: float):
        self.n = base.n
        self.sup_bound = base.sup_bound + shift
        self.lipschitz_bound = base.lipschitz_bound
        self._base = base
        self._shift = float(shift)

    def values(self, x):
        return self._base.values(x) + self._shift

    def center(self):
        return self._base.center()


@pytest.fixture(scope="module")
def priced_put(run_cli, tmp_path_factory):
    """Timed `price` run on the reference 1-D put; reused by the barrier check."""
    out = tmp_path_factory.mktemp("acc-price")
    cfg = {
        "market": {"sigma": 0.2, "T": 1.0},
        "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
        "grid": {"lo": [LOG_K - 3.0], "hi": [LOG_K + 3.0], "nx": 401},
    }
    start = time.perf_counter()
    code = run_cli("price", cfg, out)
    elapsed = time.perf_counter() - start
    report = json.loads((out / "report.json").read_text()) if code == 0 else None
    return SimpleNamespace(code=code, elapsed=elapsed, out=out, report=report)


@pytest.fixture(scope="module")
def bounded_put_solutions():
    """Shared m=10 solves on [ln K - 4, ln K + 4]: PDE both sides, limit, DPP."""
    params = _flat_params()
    lo = np.array([LOG_K - 4.0])
    hi = np.array([LOG_K + 4.0])
    spec_pde = GridSpec(lo=lo, hi=hi, nx=(401,), nt=1000)
    spec_dpp = GridSpec(lo=lo, hi=hi, nx=(401,), nt=None)
    band = math.sqrt(5.0) * 0.2  # one stddev of the effective dynamics at T=1
    return SimpleNamespace(
        params=params,
        spec_dpp=spec_dpp,
        minus=solve_terminal_value(PUT, params, SolverConfig(mode="bounded_minus", m=10.0), spec_pde),
        plus=solve_terminal_value(PUT, params, SolverConfig(mode="bounded_plus", m=10.0), spec_pde),
        limit=solve_terminal_value(PUT, params, SolverConfig(), spec_pde),
        tab_minus=dpp_solve(PUT, params, 10.0, spec_dpp, "minus", nt=100),
        tab_plus=dpp_solve(PUT, params, 10.0, spec_dpp, "plus", nt=100),
        mask=interior_mask(spec_pde, band),
    )


def test_01_price_matches_quadrature_oracle(verdict, priced_put, run_cli, tmp_path):
    oracle_flat = put_value_oracle(LOG_K, K, 5 * 0.04, 0.0, 0.0, 1.0)
    ok = priced_put.code == 0
    rel_flat = rel_drift = float("nan")
    if ok:
        u = priced_put.report["points"][0]["u"]
        rel_flat = abs(u - oracle_flat) / oracle_flat

    cfg = {
        "market": {"sigma": 0.2, "mu": 0.05, "r": 0.02, "T": 1.0},
        "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
        "grid": {"lo": [LOG_K - 3.0], "hi": [LOG_K + 3.0], "nx": 401},
    }
    out = tmp_path / "drifted"
    ok = ok and run_cli("price", cfg, out) == 0
    if ok:
        report = json.loads((out / "report.json").read_text())
        oracle_drift = put_value_oracle(LOG_K, K, 5 * 0.04, 0.05, 0.02, 1.0)
        rel_drift = abs(report["points"][0]["u"] - oracle_drift) / oracle_drift

    ok = ok and rel_flat < 0.01 and rel_drift < 0.01 and priced_put.elapsed < 60.0
    verdict(1, "price vs closed-form Gaussian oracle", ok,
             f"rel err {rel_flat:.1e} (flat) {rel_drift:.1e} (drifted), "
             f"{priced_put.elapsed:.1f}s")


def test_02_constant_payoff_discounting(verdict):
    params = _flat_params(r=0.1)
    flat = constant_payoff(5.0, 1)
    target = 5.0 * math.exp(-0.1)

    spec = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), nx=(41,), nt=10_000)
    surf = solve_terminal_value(flat, params, SolverConfig(), spec)
    u_pde = surf.values[0][surf.node_index(np.zeros(1))]
    dt = params.T / 10_000
    euler = 5.0 * (1.0 - 0.1 * dt) ** 10_000
    err_formula = abs(u_pde - euler)
    err_pde = abs(u_pde - target)

    spec_g = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), nx=(81,), nt=None)
    tab = dpp_solve(flat, params, 1.0, spec_g, "minus", nt=4)
    u_dpp = tab.u_minus[0][40]
    err_dpp = abs(u_dpp - target)

    ok = err_formula <= 1e-9 and err_pde <= 1e-3 and err_dpp <= 1e-12
    verdict(2, "constant-payoff discounting", ok,
             f"Euler product dev {err_formula:.1e}, PDE err {err_pde:.1e}, "
             f"DPP err {err_dpp:.1e}")


def test_03_running_cost_closed_form(verdict):
    params = MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]), r=0.1, T=1.0,
                          running_cost=constant_running_cost(-1.0))
    flat = constant_payoff(5.0, 1)
    spec = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), nx=(41,), nt=10_000)
    surf = solve_terminal_value(flat, params, SolverConfig(), spec)
    u0 = surf.values[0][surf.node_index(np.zeros(1))]
    target = 5.0 * math.exp(-0.1) - (1.0 - math.exp(-0.1)) / 0.1
    err = abs(u0 - target)
    verdict(3, "running-cost closed form", err <= 2e-3, f"err {err:.1e}")


def test_04_bounded_operators_approach_limit(verdict, run_cli, tmp_path):
    base_payoff = {"kind": "constant", "value": 5.0}

    out1 = tmp_path / "ops1d"
    cfg1 = {
        "market": {"sigma": 1.0, "r": 0.1, "T": 1.0},
        "payoff": base_payoff,
        "operators": {"m_ladder": [1, 10, 100], "inputs": 100, "seed": 7},
    }
    ok = run_cli("check-operators", cfg1, out1) == 0
    worst_1d = float("nan")
    if ok:
        rep1 = json.loads((out1 / "report.json").read_text())
        worst_1d = max(max(rep1["max_err_plus"]), max(rep1["max_err_minus"]))
        ok = worst_1d <= 1e-12

    out2 = tmp_path / "ops2d"
    cfg2 = {
        "market": {"sigma": [1.0, 1.0], "r": 0.1, "T": 1.0},
        "payoff": base_payoff,
        "solver": {"n_dirs": 2048},
        "operators": {"m_ladder": [1, 10, 100, 1000], "inputs": 100, "seed": 7},
    }
    ok = ok and run_cli("check-operators", cfg2, out2) == 0
    final_2d = slack_2d = float("nan")
    if ok:
        rep2 = json.loads((out2 / "report.json").read_text())
        for errs in (rep2["max_err_plus"], rep2["max_err_minus"]):
            ok = ok and all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        final_2d = max(rep2["max_err_plus"][-1], rep2["max_err_minus"][-1])
        # per-input bound at the top rung, read back from the error table
        slack_2d = -math.inf
        for line in (out2 / "game_table.csv").read_text().splitlines()[2:]:
            _, m, ep, em, norm_m = (float(v) for v in line.split(","))
            if m == 1000.0:
                slack_2d = max(slack_2d, max(ep, em) - 0.05 * (1.0 + norm_m))
        ok = ok and slack_2d <= 0.0
    verdict(4, "bounded operators approach the limit", ok,
             f"1-D max err {worst_1d:.1e}, 2-D err at m=1000 {final_2d:.1e} "
             f"(margin to bound {-slack_2d:.1e})")


def test_05_minimax_order_and_ellipticity(verdict):
    rng = np.random.default_rng(510)
    B = 1000
    params = MarketParams(mu=np.array([0.1, -0.2]), sigma=np.array([0.7, 1.3]),
                          r=0.05, T=1.0)
    dirs = DirectionSet.for_dimension(2, 32)
    xi = rng.uniform(-2.0, 2.0, B)
    p = rng.standard_normal((B, 2))
    A = rng.standard_normal((B, 2, 2))
    M = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    C = rng.standard_normal((B, 2, 2))
    X = M + C @ np.transpose(C, (0, 2, 1))  # X dominates M in the psd order

    hp = isaacs.hm_values_batch(xi, p, M, 3.0, params, dirs, "plus")
    hm = isaacs.hm_values_batch(xi, p, M, 3.0, params, dirs, "minus")
    order_viol = float(np.max(hp - hm))

    ell_viol = -math.inf
    for side in ("plus", "minus"):
        big = isaacs.hm_values_batch(xi, p, X, 3.0, params, dirs, side)
        small = isaacs.hm_values_batch(xi, p, M, 3.0, params, dirs, side)
        ell_viol = max(ell_viol, float(np.max(big - small)))

    ok = order_viol <= 1e-12 and ell_viol <= 1e-12
    verdict(5, "minimax order and degenerate ellipticity", ok,
             f"sup-inf minus inf-sup <= {order_viol:.1e}, "
             f"Hessian monotonicity viol <= {ell_viol:.1e}")


def test_06_barrier_sandwich(verdict, priced_put):
    ok = priced_put.code == 0
    worst = math.inf
    if ok:
        with np.load(priced_put.out / "surface.npz", allow_pickle=False) as archive:
            tgrid, x, vals = archive["t"], archive["x_1"], archive["u"]
        ok = vals.shape == (priced_put.report["nt"] + 1, 401) == (tgrid.size, x.size)
    if ok:
        params = _flat_params()
        A = a_design(params, PUT.lipschitz_bound)
        pts = x[:, None]
        for y in (LOG_K, LOG_K - 1.0, LOG_K + 1.0):
            g_y = PUT(np.array([y]))
            for eps in (0.01, 0.1):
                bp = BarrierParams(y=np.array([y]), eps=eps, A=A,
                                   L=PUT.lipschitz_bound)
                for k, t in enumerate(tgrid):
                    low, up = barrier_pair(pts, float(t), bp, g_y, params.T)
                    worst = min(worst, float(np.min(vals[k] - low)),
                                float(np.min(up - vals[k])))
        ok = worst >= -1e-9
    verdict(6, "barrier pair sandwiches the surface", ok,
             f"min slack {worst:.3g} over 6 anchor/width combos")


def test_07_payoff_monotonicity_all_modes(verdict):
    params = _flat_params()
    shifted = ShiftedPut(PUT, 1.0)
    spec = GridSpec(lo=np.array([LOG_K - 2.0]), hi=np.array([LOG_K + 2.0]),
                    nx=(41,), nt=None)
    margins = {}
    for mode, m in (("limit_F", None), ("bounded_minus", 10.0),
                    ("bounded_plus", 10.0)):
        cfg = SolverConfig(mode=mode, m=m)
        base = solve_terminal_value(PUT, params, cfg, spec)
        upper = solve_terminal_value(shifted, params, cfg, spec)
        margins[mode] = float(np.min(upper.values - base.values))
    ok = all(v >= -1e-9 for v in margins.values())
    verdict(7, "payoff comparison holds in every solver mode", ok,
             ", ".join(f"{k} min diff {v:.6f}" for k, v in margins.items()))


def test_08_backward_induction_matches_pde(verdict, bounded_put_solutions):
    s = bounded_put_solutions
    rels = {}
    for name, table, surf in (("minus", s.tab_minus.u_minus, s.minus),
                              ("plus", s.tab_plus.u_plus, s.plus)):
        gap = max(float(np.max(np.abs(table[k] - surf.values[10 * k])[s.mask]))
                  for k in range(101))
        scale = float(np.max(np.abs(surf.values[0][s.mask])))
        rels[name] = gap / scale
    ok = all(v <= 2e-2 for v in rels.values())
    verdict(8, "backward induction matches the bounded PDE", ok,
             f"interior rel gap minus {rels['minus']:.2e}, plus {rels['plus']:.2e}")


def test_09_value_ordering_and_m_ladder(verdict, bounded_put_solutions):
    s = bounded_put_solutions
    viol = float(np.max(s.tab_minus.u_minus - s.tab_plus.u_plus))
    gap_pm = float(np.max(np.abs(s.tab_plus.u_plus[0]
                                 - s.tab_minus.u_minus[0])[s.mask]))
    ladder = []
    for m in (1.0, 4.0, 16.0, 64.0):
        tab = dpp_solve(PUT, s.params, m, s.spec_dpp, "minus", nt=100)
        ladder.append(float(np.max(np.abs(tab.u_minus[0]
                                          - s.limit.values[0])[s.mask])))
    monotone = all(b <= a + 1e-12 for a, b in zip(ladder, ladder[1:]))
    ok = viol <= 1e-9 and gap_pm <= 1e-2 * PUT.sup_bound and monotone
    verdict(9, "lower value below upper value, gap shrinks with m", ok,
             f"ordering viol {viol:.1e}, side gap {gap_pm:.1e}, "
             f"ladder {['%.3f' % g for g in ladder]}")


def test_10_discrete_game_walk_converges(verdict):
    params = _flat_params()
    oracle = put_value_oracle(LOG_K, K, 4 * 0.04, 0.0, 0.0, 1.0)
    plus, minus = null_strategy_pair(1)
    errs = []
    ses = []
    for N in (25, 100, 400):
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=N,
                                 paths=100_000, seed=123)
        est = simulate_discrete_game(cfg, PUT, params, plus, minus)
        errs.append(est.mean - oracle)
        ses.append(est.stderr)
    within = all(abs(e) <= 3 * se for e, se in zip(errs, ses))
    # the |error| trend must not grow beyond joint Monte Carlo noise
    trend = all(abs(errs[k + 1]) <= abs(errs[k]) + 3 * math.hypot(ses[k], ses[k + 1])
                for k in range(2))
    ok = within and trend
    verdict(10, "coin-game walk converges to the Gaussian oracle", ok,
             "errors " + ", ".join(f"{e:+.4f} (se {s:.4f})"
                                   for e, s in zip(errs, ses)))


def test_11_greedy_strategies_attain_pde_value(verdict, bounded_put_solutions):
    s = bounded_put_solutions
    u0 = multilinear(s.minus.spec.axes, s.minus.values[0],
                     np.array([[LOG_K]]))[0]
    dirs = DirectionSet.for_dimension(1, None)
    plus, minus = greedy_strategy_pair(s.minus, s.params, 10.0, dirs, "minus")
    cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=100_000, seed=17,
                    nt=200)
    est = mc_value(PUT, s.params, plus, minus, cfg, threads=4)
    diff = abs(est.mean - u0)
    allow = 3 * est.stderr + 2e-2 * u0
    verdict(11, "greedy feedback play reproduces the PDE value", diff <= allow,
             f"|mc - pde| {diff:.4f} vs allowance {allow:.4f} "
             f"(mc {est.mean:.4f}, pde {u0:.4f})")


def test_12_every_command_is_deterministic(verdict, run_cli, tmp_path):
    configs = {
        "price": {
            "market": {"sigma": 0.2, "T": 1.0},
            "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
            "grid": {"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 21},
        },
        "game-value": {
            "market": {"sigma": 0.2, "T": 1.0},
            "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
            "grid": {"lo": [LOG_K - 1.5], "hi": [LOG_K + 1.5], "nx": 21, "nt": 10},
            "game": {"m": 2.0},
        },
        "simulate": {
            "market": {"sigma": 0.2, "T": 1.0},
            "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
            "game": {"paths": 500, "nt_sim": 20, "seed": 5},
        },
        "check-operators": {
            "market": {"sigma": 1.0, "r": 0.1, "T": 1.0},
            "payoff": {"kind": "constant", "value": 5.0},
            "operators": {"m_ladder": [1, 10], "inputs": 10, "seed": 7},
        },
        "compare": {
            "market": {"sigma": 0.2, "T": 1.0},
            "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
            "grid": {"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 21, "nt": 12},
            "game": {"m": 2.0, "paths": 200, "nt_sim": 10, "seed": 3},
        },
    }
    runs = (("t1a", ()), ("t1b", ()), ("t4a", ("--threads", "4")),
            ("t4b", ("--threads", "4")))
    ok = True
    checked = 0
    for command, cfg in configs.items():
        outs = []
        for tag, extra in runs:
            out = tmp_path / command.replace("-", "_") / tag
            ok = ok and run_cli(command, cfg, out, *extra) == 0
            outs.append(out)
        if not ok:
            break
        names = sorted(p.name for p in outs[0].iterdir())
        for other in outs[1:]:
            ok = ok and sorted(p.name for p in other.iterdir()) == names
            for name in names:
                same = filecmp.cmp(outs[0] / name, other / name, shallow=False)
                ok = ok and same
                checked += 1
    verdict(12, "reruns and thread counts are byte-identical", ok,
             f"{checked} file comparisons across {len(configs)} commands")
