from __future__ import annotations

import functools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tugpricer import (BasketPut, ConstantStrategy, DirectionSet,
                       DiscreteGameConfig, FeedbackStrategy, GameValueTables,
                       GridSpec, MarketParams, Payoff, PreconditionError,
                       RunningCost, SimConfig,
                       SolverConfig, StrategyContractError, ValidationError,
                       aligned_time_steps, constant_payoff,
                       constant_running_cost, discounted_reward, dpp_solve,
                       greedy_strategy_pair, mc_value,
                       null_strategy_pair, path_rng, simulate_discrete_game,
                       simulate_sde_paths, solve_terminal_value,
                       tabulate_strategy, write_value_table)
from tugpricer import game
from tugpricer._interp import multilinear
from tugpricer.game import _BLOCK, _HALF

from oracles import (binomial_walk_mean, brute_dpp_value, coin_sde_put_value, put_value_oracle,
                     stepwise_play)

K = 100.0
LOG_K = math.log(K)
PUT = BasketPut(weights=np.array([1.0]), strike=K)


def params_1d(mu=0.0, sigma=0.2, r=0.0, running_cost=None):
    return MarketParams(mu=np.array([mu]), sigma=np.array([sigma]), r=r, T=1.0,
                        running_cost=running_cost)


def params_2d():
    return MarketParams(mu=np.array([0.01, -0.02]), sigma=np.array([0.2, 0.3]), r=0.01, T=1.0)


class TestPathRng:
    # path_rng(seed, block) keys one stream per _BLOCK-path block
    def test_reproducible(self):
        a = path_rng(42, 7).standard_normal(5)
        b = path_rng(42, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = path_rng(42, 0).standard_normal(8)
        b = path_rng(42, 1).standard_normal(8)
        c = path_rng(43, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_block_rows_are_the_paths(self):
        # idle, opposed controls, mu = 0: each step moves sigma sqrt(dt) (z_0 + 2 z_1),
        # where path j of block b reads row j of block b's draw of min(B, _HALF)
        # rows of +-1 coins if j < _HALF, and that draw's row j - _HALF negated
        # otherwise; the short blocks are one without pairs and one with
        sp, sm = null_strategy_pair(1)
        for short in (5, 5000):
            cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK + short, seed=4, nt=6)
            term = simulate_sde_paths(cfg, params_1d(), sp, sm)[:, 0]
            scale = 0.2 * math.sqrt(1.0 / cfg.nt)
            for block, rows in ((0, _BLOCK), (1, short)):
                half = game._coins(path_rng(cfg.seed, block), (min(rows, _HALF), cfg.nt, 2))
                z = np.concatenate([half, -half[:rows - half.shape[0]]])
                want = scale * (z[:, :, 0] + 2.0 * z[:, :, 1]).sum(axis=1)
                np.testing.assert_allclose(term[block * _BLOCK:][:rows], want,
                                           rtol=0, atol=1e-13)

    def test_second_half_negates_the_first_exactly(self):
        # mu = 0 from 0 with idle controls: every step is sign-symmetric in z, and
        # round-to-nearest is too, so each antithetic path ends at the exact negation
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK + 5000, seed=6, nt=7)
        term = simulate_sde_paths(cfg, params_1d(mu=0.0), sp, sm)[:, 0]
        for lo, pairs in ((0, _HALF), (_BLOCK, 5000 - _HALF)):
            first = term[lo:lo + pairs]
            second = term[lo + _HALF:lo + _HALF + pairs]
            assert np.array_equal(second.view(np.int64), (-first).view(np.int64))

    @pytest.mark.parametrize("n", [1, 2])
    def test_coin_rows_are_the_paths(self, n):
        # mu = 0 and opposed constant players of equal d: step k of path j moves
        # axis i by spread_i c_jki + lever_i c_jkn, and the four such moves differ,
        # so the states recorded before each step and at T pin every coin; coin
        # (j, k, i) of block b is the top bit of byte (j steps + k)(n + 1) + i of
        # block b's uint32 words, the coins of integers(0, 2, int8)
        sigma = np.array([0.2, 0.3][:n])
        theta = np.array([1.0] if n == 1 else [0.6, 0.8])
        states = []

        def record(x, t):
            states.append(x.copy())
            return np.full(x.shape[0], -1.0)

        params = MarketParams(mu=np.zeros(n), sigma=sigma, r=0.0, T=1.0,
                              running_cost=RunningCost(h=record, alpha=1.0))
        payoff = _Recorder(n, states)
        sp = ConstantStrategy(theta=theta, d=1.0)
        sm = ConstantStrategy(theta=-theta, d=1.0)
        N = steps = 6
        root_n = math.sqrt(N)
        spread = 2.0 / root_n * sigma
        lever = 2.0 * sigma * (min(1.0 / root_n, 1.0) / root_n) * theta
        start = np.full(n, LOG_K)
        for short in (5, 4097):
            cfg = DiscreteGameConfig(start=start, t0=0.0, N=N, paths=_BLOCK + short, seed=8)
            states.clear()
            simulate_discrete_game(cfg, payoff, params, sp, sm)
            for block, rows in ((0, _BLOCK), (1, short)):
                count = rows * steps * (n + 1)
                words = path_rng(cfg.seed, block).integers(0, 1 << 32, size=-(-count // 4),
                                                           dtype=np.uint32)
                top = words.astype("<u4").view(np.uint8) >> 7
                j, k, i = np.meshgrid(np.arange(rows), np.arange(steps), np.arange(n + 1),
                                      indexing="ij")
                coins = 2 * top[(j * steps + k) * (n + 1) + i].astype(np.int64) - 1
                old = path_rng(cfg.seed, block).integers(0, 2, size=(rows, steps, n + 1),
                                                         dtype=np.int8)
                assert np.array_equal(coins, 2 * old.astype(np.int64) - 1)
                moves = spread * coins[:, :, :n] + lever * coins[:, :, n:]
                want = start + np.concatenate([np.zeros((rows, 1, n)),
                                               np.cumsum(moves, axis=1)], axis=1)
                # steps running-cost reads, then the payoff at T, per block
                got = np.stack(states[block * (steps + 1):(block + 1) * (steps + 1)], axis=1)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_coins_are_the_int8_coins(self):
        # 37 * 9 * 3 = 999 coins: the last word is read in part
        shape = (37, 9, 3)
        coins = game._coins(path_rng(12, 3), shape)
        want = path_rng(12, 3).integers(0, 2, size=shape, dtype=np.int8) * 2 - 1
        assert coins.dtype == np.int8 and coins.shape == shape
        assert np.array_equal(coins, want)

    def test_one_stream_per_block(self, monkeypatch):
        calls = []

        def counting(seed, block):
            calls.append(block)
            return path_rng(seed, block)

        monkeypatch.setattr(game, "path_rng", counting)
        sp, sm = null_strategy_pair(1)
        paths = 2 * _BLOCK + 1
        simulate_sde_paths(SimConfig(start=np.array([0.0]), t0=0.0, paths=paths, seed=1, nt=2),
                           params_1d(), sp, sm, threads=2)
        simulate_discrete_game(DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=2,
                                                  paths=paths, seed=1),
                               PUT, params_1d(), sp, sm)
        assert sorted(calls) == [0, 0, 1, 1, 2, 2]  # ceil(paths / _BLOCK) per simulation


class _Recorder(Payoff):
    """A zero payoff that appends every batch of states it is asked about to ``seen``."""

    sup_bound = 0.0
    lipschitz_bound = 0.0

    def __init__(self, n, seen):
        self.n = n
        self.seen = seen

    def values(self, x):
        self.seen.append(x.copy())
        return np.zeros(x.shape[0])


class TestConfigs:
    def test_sim_config_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(start=np.array([0.0]), t0=0.0, paths=0, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(start=np.array([0.0]), t0=0.0, paths=1, seed=1, nt=0)
        with pytest.raises(ValidationError):
            SimConfig(start=np.array([0.0]), t0=0.0, paths=1, seed=-1)
        with pytest.raises(ValidationError):
            SimConfig(start=np.array([0.0]), t0=0.0, paths=1, seed=2**64)

    def test_discrete_config_validation(self):
        with pytest.raises(ValidationError):
            DiscreteGameConfig(start=np.array([0.0]), t0=0.0, N=0, paths=1, seed=1)
        with pytest.raises(ValidationError):
            DiscreteGameConfig(start=np.array([0.0]), t0=0.0, N=10, paths=0, seed=1)

    @staticmethod
    def _config(kind, **counts):
        if kind is SimConfig:
            return SimConfig(**{"start": np.array([0.0]), "t0": 0.0, "paths": 3, "seed": 1,
                                "nt": 2, **counts})
        return DiscreteGameConfig(**{"start": np.array([0.0]), "t0": 0.0, "N": 2, "paths": 3,
                                     "seed": 1, **counts})

    @pytest.mark.parametrize("kind, field", [(SimConfig, "paths"), (SimConfig, "nt"),
                                             (DiscreteGameConfig, "N"),
                                             (DiscreteGameConfig, "paths")])
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None, np.float64(3.0)])
    def test_count_that_is_not_an_integer_is_refused(self, kind, field, value):
        # a bool or a float would reach the block layout and end in a raw TypeError
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
            self._config(kind, **{field: value})

    @pytest.mark.parametrize("kind, field", [(SimConfig, "paths"), (SimConfig, "nt"),
                                             (DiscreteGameConfig, "N"),
                                             (DiscreteGameConfig, "paths")])
    def test_count_below_one_keeps_its_message(self, kind, field):
        for value in (0, -3, np.int64(0)):
            with pytest.raises(ValidationError) as err:
                self._config(kind, **{field: value})
            assert str(err.value) == f"{field} must be >= 1"
        assert getattr(self._config(kind, **{field: np.int64(4)}), field) == 4

    def test_start_time_must_precede_horizon(self):
        cfg = SimConfig(start=np.array([0.0]), t0=1.0, paths=1, seed=1)
        sp, sm = null_strategy_pair(1)
        with pytest.raises(ValidationError):
            simulate_sde_paths(cfg, params_1d(), sp, sm)

    @pytest.mark.parametrize("sim", ["sde", "coin"])
    def test_start_of_another_size_is_refused(self, sim):
        sp, sm = null_strategy_pair(1)
        with pytest.raises(ValidationError, match="start must have 1 coordinates"):
            if sim == "sde":
                cfg = SimConfig(start=np.zeros(2), t0=0.0, paths=1, seed=1, nt=2)
                mc_value(PUT, params_1d(), sp, sm, cfg)
            else:
                cfg = DiscreteGameConfig(start=np.zeros(2), t0=0.0, N=2, paths=1, seed=1)
                simulate_discrete_game(cfg, PUT, params_1d(), sp, sm)


class TestStrategies:
    def test_constant_strategy_defaults_and_bounds(self):
        s = ConstantStrategy(theta=np.array([1.0]), d=2.0)
        assert s.m == 2.0
        with pytest.raises(ValidationError):
            ConstantStrategy(theta=np.array([1.0]), d=3.0, m=1.0)
        with pytest.raises(ValidationError):
            ConstantStrategy(theta=np.array([0.5]), d=0.0)

    def test_null_pair(self):
        sp, sm = null_strategy_pair(2)
        assert np.array_equal(sp.theta, [1.0, 0.0])
        assert np.array_equal(sm.theta, [-1.0, 0.0])
        assert sp.d == sm.d == 0.0 and sp.m == 0.0

    @staticmethod
    def _refused_then_tabulated(monkeypatch, rule, cfg):
        """``rule`` is refused as given; tabulated on the interior nodes 0.25, 0.5
        and 0.75 of [0, 1], its contract error comes before any draw."""
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        sp, _ = null_strategy_pair(1)
        with pytest.raises(ValidationError, match="plays only through tabulate_strategy"):
            simulate_sde_paths(cfg, params_1d(), sp, rule)
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(5,), nt=3)
        with pytest.raises(StrategyContractError) as err:
            simulate_sde_paths(cfg, params_1d(), sp, tabulate_strategy(rule, spec, 1.0 / 3))
        assert draws == []
        return str(err.value)

    def test_contract_violation_names_the_state(self, monkeypatch):
        class Broken(FeedbackStrategy):
            m = 1.0

            def controls(self, x, t):
                return np.full((x.shape[0], 1), 0.5), np.zeros(x.shape[0])

        cfg = SimConfig(start=np.array([0.25]), t0=0.0, paths=2, seed=0, nt=3)
        err = self._refused_then_tabulated(monkeypatch, Broken(), cfg)
        assert "x=[0.25]" in err and "t=0.0" in err

    def test_intensity_above_declared_bound_rejected(self, monkeypatch):
        class Greedy(FeedbackStrategy):
            m = 1.0

            def controls(self, x, t):
                return np.tile([1.0], (x.shape[0], 1)), np.full(x.shape[0], 2.0)

        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=1, seed=0, nt=1)
        err = self._refused_then_tabulated(monkeypatch, Greedy(), cfg)
        assert "outside [0, m=1.0] at x=[0.25], t=0.0" in err


class TestSdeSimulation:
    def test_running_cost_above_its_bound_names_the_time_and_row(self):
        # the cost breaks its bound once axis 1 rises above the start, first
        # after one step; the message names that step's time and first such row
        seen = []

        def h(x, t):
            seen.append((x.copy(), t))
            return np.where(x[:, 1] > LOG_K, 0.0, -1.0)

        params = replace(params_2d(), running_cost=RunningCost(h=h, alpha=0.5))
        payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
        cfg = SimConfig(start=np.full(2, LOG_K), t0=0.0, paths=64, seed=3, nt=10)
        with pytest.raises(ValidationError) as err:
            mc_value(payoff, params, *null_strategy_pair(2), cfg)
        x, t = seen[-1]
        row = x[np.argmax(x[:, 1] > LOG_K)]
        assert (len(seen), t, row.shape) == (2, 0.1, (2,))
        assert str(err.value) == ("running cost exceeded its declared bound -alpha=-0.5 "
                                  f"at t=0.1, x={row}")

    def test_uncontrolled_terminal_mean(self):
        # idle controls leave the drift untouched; the terminal mean tracks mu*T
        params = params_1d(mu=0.05)
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=4000, seed=11, nt=100)
        term = simulate_sde_paths(cfg, params, sp, sm)
        assert term.shape == (4000, 1)
        tol = 3.0 * params.sigma[0] * math.sqrt(params.T / cfg.paths)
        assert abs(term[:, 0].mean() - 0.05) < tol

    def test_block_holds_only_its_drawn_half(self):
        # one full block of 8192 x 200 x 2 normals is 26 MB; the drawn half is 13 MB
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK, seed=3, nt=200)
        tracemalloc.start()
        try:
            simulate_sde_paths(cfg, params_1d(), sp, sm, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * _BLOCK * cfg.nt * 2 * 8

    def test_steered_drift(self):
        # aligned directions with one active intensity add 2*m*sigma drift
        params = params_1d(mu=0.0)
        up = ConstantStrategy(theta=np.array([1.0]), d=2.0)
        idle = ConstantStrategy(theta=np.array([1.0]), d=0.0, m=0.0)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=4000, seed=11, nt=100)
        term = simulate_sde_paths(cfg, params, up, idle)
        expect = 2.0 * 2.0 * params.sigma[0] * params.T
        tol = 3.0 * params.sigma[0] * math.sqrt(params.T / cfg.paths)
        assert abs(term[:, 0].mean() - expect) < tol

    def test_rerun_is_bitwise_identical(self):
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=64, seed=5, nt=20)
        a = simulate_sde_paths(cfg, params_1d(), sp, sm)
        b = simulate_sde_paths(cfg, params_1d(), sp, sm)
        assert np.array_equal(a, b)

    def test_thread_count_does_not_change_results(self):
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=10000, seed=5, nt=25)
        a = simulate_sde_paths(cfg, params_1d(), sp, sm, threads=1)
        b = simulate_sde_paths(cfg, params_1d(), sp, sm, threads=3)
        assert np.array_equal(a, b)

    def test_prefix_is_stable_under_more_paths(self):
        sp, sm = null_strategy_pair(1)
        short, long = (simulate_sde_paths(
            SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK + extra, seed=8, nt=5),
            params_1d(), sp, sm) for extra in (100, 3000))
        assert np.array_equal(short, long[:_BLOCK + 100])

    def test_two_dimensional_thread_invariance(self):
        params = params_2d()
        sp = ConstantStrategy(theta=np.array([0.6, 0.8]), d=1.0)
        sm = ConstantStrategy(theta=np.array([1.0, 0.0]), d=0.5)
        cfg = SimConfig(start=np.array([0.1, -0.1]), t0=0.0, paths=_BLOCK + 700, seed=5, nt=6)
        a = simulate_sde_paths(cfg, params, sp, sm, threads=1)
        b = simulate_sde_paths(cfg, params, sp, sm, threads=3)
        assert a.shape == (_BLOCK + 700, 2)
        assert np.array_equal(a, b)

    def test_partial_horizon(self):
        sp, sm = null_strategy_pair(1)
        params = params_1d(mu=1.0, sigma=0.2)
        cfg = SimConfig(start=np.array([0.0]), t0=0.75, paths=2000, seed=11, nt=25)
        term = simulate_sde_paths(cfg, params, sp, sm)
        tol = 3.0 * math.sqrt(5.0) * params.sigma[0] * math.sqrt(0.25 / cfg.paths)
        assert abs(term[:, 0].mean() - 0.25) < tol


class TestDiscreteGame:
    def test_constant_payoff(self):
        sp, sm = null_strategy_pair(1)
        cfg = DiscreteGameConfig(start=np.array([0.0]), t0=0.0, N=10, paths=50, seed=3)
        est = simulate_discrete_game(cfg, constant_payoff(7.0, 1), params_1d(), sp, sm)
        assert est.mean == 7.0 and est.stderr == 0.0

    def test_single_path_rerun_identical(self):
        sp, sm = null_strategy_pair(1)
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=50, paths=1, seed=9)
        a = simulate_discrete_game(cfg, PUT, params_1d(), sp, sm)
        b = simulate_discrete_game(cfg, PUT, params_1d(), sp, sm)
        assert a.mean == b.mean and a.stderr == 0.0

    def test_null_walk_matches_binomial_oracle(self):
        # with idle controls the recursion is exactly a scaled Rademacher walk
        params = params_1d(sigma=0.2)
        sp, sm = null_strategy_pair(1)
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=25,
                                 paths=20000, seed=11)
        est = simulate_discrete_game(cfg, PUT, params, sp, sm)
        exact = binomial_walk_mean(PUT.values, LOG_K, params.sigma[0], cfg.N)
        assert abs(est.mean - exact) < 3.0 * est.stderr

    def test_walk_approaches_gaussian_oracle(self):
        # Donsker scaling: the (2/sqrt(N)) sigma steps carry variance 4 sigma^2 T
        params = params_1d(sigma=0.2)
        sp, sm = null_strategy_pair(1)
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=400,
                                 paths=20000, seed=11)
        est = simulate_discrete_game(cfg, PUT, params, sp, sm)
        oracle = put_value_oracle(LOG_K, K, 4.0 * params.sigma[0] ** 2 * params.T)
        assert abs(est.mean - oracle) < 3.0 * est.stderr

    def test_running_cost_left_riemann_sum(self):
        params = params_1d(r=0.1, running_cost=constant_running_cost(-1.0))
        sp, sm = null_strategy_pair(1)
        N = 20
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=N, paths=40, seed=2)
        est = simulate_discrete_game(cfg, constant_payoff(5.0, 1), params, sp, sm)
        want = 5.0 * math.exp(-0.1) - sum(math.exp(-0.1 * k / N) / N for k in range(N))
        assert est.mean == pytest.approx(want, rel=1e-12)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("T, t0, N", [(0.5, 0.0, 3), (1.0, 0.25, 10), (1.0, 0.95, 10)])
    def test_horizon_off_the_step_grid_is_refused(self, monkeypatch, T, t0, N):
        # round((T - t0) N) steps of 1/N would play 2/3 for 0.5, 0.8 for 0.75 and
        # 0 for 0.05; each is refused before any block is drawn
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        params = MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]), r=0.0, T=T)
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=t0, N=N, paths=10, seed=1)
        with pytest.raises(ValidationError, match=r"\(T - t0\) \* N = .* whole number"):
            simulate_discrete_game(cfg, PUT, params, *null_strategy_pair(1))
        assert draws == []

    @pytest.mark.parametrize("T, t0, N, steps", [(0.5, 0.0, 4, 2), (1.0, 0.25, 4, 3),
                                                 (1.0, 0.1, 30, 27), (0.3, 0.1, 10, 2)])
    def test_horizon_on_the_step_grid_plays_every_step(self, T, t0, N, steps):
        # with a constant payoff and a state-free cost every path earns the closed form
        # of exactly `steps` left-endpoint cost terms; (T - t0) N rounds to within 1e-9
        params = MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]), r=0.1, T=T,
                              running_cost=constant_running_cost(-1.0))
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=t0, N=N, paths=3, seed=1)
        est = simulate_discrete_game(cfg, constant_payoff(5.0, 1), params,
                                     *null_strategy_pair(1))
        want = 5.0 * math.exp(-0.1 * (T - t0)) - sum(
            math.exp(-0.1 * k / N) / N for k in range(steps))
        assert est.mean == pytest.approx(want, rel=1e-12)

    def test_thread_count_does_not_change_results(self):
        sp, sm = null_strategy_pair(1)
        cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.0, N=20,
                                 paths=10000, seed=5)
        a = simulate_discrete_game(cfg, PUT, params_1d(), sp, sm, threads=1)
        b = simulate_discrete_game(cfg, PUT, params_1d(), sp, sm, threads=4)
        assert a == b

    def test_two_dimensional_thread_invariance(self):
        params = params_2d()
        sp = ConstantStrategy(theta=np.array([0.6, 0.8]), d=1.0)
        sm = ConstantStrategy(theta=np.array([1.0, 0.0]), d=0.5)
        put = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
        cfg = DiscreteGameConfig(start=np.array([LOG_K, LOG_K]), t0=0.0, N=6,
                                 paths=_BLOCK + 700, seed=5)
        a = simulate_discrete_game(cfg, put, params, sp, sm, threads=1)
        b = simulate_discrete_game(cfg, put, params, sp, sm, threads=3)
        assert a == b and a.stderr > 0


class TestDiscountedReward:
    def test_zero_horizon(self):
        params = params_1d(r=0.3)
        x = np.array([LOG_K - 0.5])
        assert discounted_reward(x, params.T, params, PUT) == PUT(x)

    def test_no_discount_passthrough(self):
        x = np.array([LOG_K - 0.5])
        assert discounted_reward(x, 0.0, params_1d(r=0.0), PUT) == PUT(x)


def one_sweep(spec, dt, m, payoff, params, dirs, side):
    """One backward-induction sweep from the payoff at T: a solve with nt = 1
    over the horizon dt."""
    tables = dpp_solve(payoff, replace(params, T=dt), m, spec, side, dirs=dirs, nt=1)
    return (tables.u_minus if side == "minus" else tables.u_plus)[0]


class TestDppStep:
    def _spec(self, nx=21):
        return GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(nx,))

    def test_constant_without_discount(self):
        out = one_sweep(self._spec(), 0.01, 2.0, constant_payoff(3.0, 1), params_1d(),
                        DirectionSet.for_dimension(1), "minus")
        assert np.max(np.abs(out - 3.0)) < 1e-13

    def test_constant_discount_factor(self):
        params = params_1d(r=0.1)
        dt = 0.01
        out = one_sweep(self._spec(), dt, 2.0, constant_payoff(3.0, 1), params,
                        DirectionSet.for_dimension(1), "plus")
        assert np.max(np.abs(out - 3.0 * math.exp(-params.r * dt))) < 1e-13

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_exhaustive_enumeration(self, side):
        params = params_1d(mu=0.02, sigma=0.2, r=0.05)
        spec = self._spec()
        dirs = DirectionSet.for_dimension(1)
        dt = 0.01
        terminal = PUT.values(spec.points()).reshape(spec.nx)
        out = one_sweep(spec, dt, 2.0, PUT, params, dirs, side)
        for i, x in enumerate(spec.axes[0]):
            want = brute_dpp_value(np.array([x]), terminal, spec.axes, spec.lo,
                                   spec.hi, dt, dt, 2.0, PUT.values,
                                   params.mu, params.sigma, params.r, dt,
                                   dirs.dirs, side)
            assert out[i] == pytest.approx(want, abs=1e-12)

    def test_step_displacement_must_fit_the_grid(self):
        with pytest.raises(PreconditionError):
            one_sweep(self._spec(), 0.25, 50.0, PUT, params_1d(),
                      DirectionSet.for_dimension(1), "minus")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValidationError):
            one_sweep(self._spec(), 0.01, 1.0, PUT, params_1d(),
                      DirectionSet.for_dimension(1), "upper")

    @pytest.mark.parametrize("m", [float("nan"), -1.0])
    def test_bad_m_rejected(self, m):
        with pytest.raises(ValidationError, match="m must be finite"):
            one_sweep(self._spec(), 0.25, m, PUT, params_1d(),
                      DirectionSet.for_dimension(1), "minus")

    def test_directions_of_another_dimension_rejected(self):
        with pytest.raises(ValidationError, match="dimensions must agree"):
            one_sweep(self._spec(), 0.01, 1.0, PUT, params_1d(),
                      DirectionSet.for_dimension(2, 4), "minus")


def bits(a):
    """The IEEE bits of a float array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def per_sweep_reference(values_next, t_next, spec, dt, m, payoff, params, dirs, side):
    """One DPP sweep that builds its queries and interpolates them from scratch."""
    n = spec.n
    D = dirs.dirs
    K = D.shape[0]
    dvals = np.array([0.0, m])
    sqdt = np.sqrt(dt)
    sigma = params.sigma
    tsum = D[:, None, :] + D[None, :, :]
    tdiff = D[:, None, :] - D[None, :, :]
    dsum = dvals[:, None] + dvals[None, :]
    rows = np.arange(1 << (n + 1))
    coins = 1.0 - 2.0 * ((rows[:, None] >> np.arange(n + 1)[None, :]) & 1)
    C = coins.shape[0]
    drift = (params.mu[None, None, None, None, :]
             + sigma * dsum[None, :, None, :, None] * tsum[:, None, :, None, :]) * dt
    move = (drift[:, :, :, :, None, :]
            + sigma * coins[None, None, None, None, :, :n] * sqdt
            + sigma * tdiff[:, None, :, None, None, :] * coins[None, None, None, None, :, n:] * sqdt)
    move = move.reshape(-1, C, n)
    pts = spec.points()
    B, P = pts.shape[0], move.shape[0]
    queries = (pts[:, None, None, :] + move[None, :, :, :]).reshape(-1, n)
    inside = np.all((queries >= spec.lo) & (queries <= spec.hi), axis=1)
    vals = np.empty(queries.shape[0])
    vals[inside] = multilinear(spec.axes, values_next, queries[inside])
    vals[~inside] = np.exp(-params.r * (params.T - t_next)) * payoff.values(queries[~inside])
    table = np.exp(-params.r * dt) * vals.reshape(B, P, C).mean(axis=2)
    table = table.reshape(B, K, 2, K, 2)
    if side == "minus":
        return np.max(np.min(table, axis=(3, 4)), axis=(1, 2)).reshape(spec.nx)
    return np.min(np.max(table, axis=(1, 2)), axis=(1, 2)).reshape(spec.nx)


class TestDppSolve:
    CASES = {
        "1d": (GridSpec(lo=np.array([LOG_K - 1.5]), hi=np.array([LOG_K + 1.5]), nx=(31,)),
               params_1d(mu=0.03, sigma=0.25, r=0.05), PUT, 4.0, 1, 10),
        "2d": (GridSpec(lo=np.array([LOG_K - 2.0] * 2), hi=np.array([LOG_K + 2.0] * 2),
                        nx=(9, 11)),
               params_2d(), BasketPut(weights=np.array([0.5, 0.5]), strike=K), 1.0, 4, 3),
    }

    @pytest.mark.parametrize("side", ["minus", "plus", "both"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_equals_the_per_sweep_reference(self, case, side):
        spec, params, payoff, m, n_dirs, nt = self.CASES[case]
        dirs = DirectionSet.for_dimension(spec.n, n_dirs)
        solved = dpp_solve(payoff, params, m, spec, side, dirs=dirs, nt=nt)
        dt = params.T / nt
        # both the interpolated and the out-of-box payoff branches are exercised
        split = game._Sweep(spec, dt, m, payoff, params, dirs).inside
        assert split.any() and not split.all()
        sides = ("minus", "plus") if side == "both" else (side,)
        assert [s for s in ("minus", "plus") if getattr(solved, f"u_{s}") is not None] == \
            sorted(sides)
        for s in sides:
            got = getattr(solved, f"u_{s}")
            want = np.empty_like(got)
            want[nt] = payoff.values(spec.points()).reshape(spec.nx)
            for k in range(nt, 0, -1):
                want[k - 1] = per_sweep_reference(want[k], k * dt, spec, dt, m, payoff, params,
                                                  dirs, s)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_sides_equal_two_one_side_solves(self, case):
        spec, params, payoff, m, n_dirs, nt = self.CASES[case]
        params = replace(params, running_cost=RunningCost(
            h=lambda x, t: -1.0 - 0.1 * np.abs(x).sum(axis=1) - t, alpha=1.0))
        dirs = DirectionSet.for_dimension(spec.n, n_dirs)
        both = dpp_solve(payoff, params, m, spec, "both", dirs=dirs, nt=nt)
        for side in ("minus", "plus"):
            one = dpp_solve(payoff, params, m, spec, side, dirs=dirs, nt=nt)
            assert np.array_equal(bits(getattr(both, f"u_{side}")), bits(getattr(one, f"u_{side}")))

    def test_query_budget_counts_the_distinct_moves(self, monkeypatch):
        # nodes x 3 K^2 distinct actions x 2^(n+1) coins x n coordinates, refused
        # before the sweep allocates anything node-sized; nt = 1 also breaks the
        # margin, so the budget is checked first
        spec = GridSpec(lo=np.array([LOG_K - 2.0] * 2), hi=np.array([LOG_K + 2.0] * 2),
                        nx=(101, 101))
        dirs = DirectionSet.for_dimension(2, 8)
        coords = 101 * 101 * 3 * 8 ** 2 * 2 ** 3 * 2
        assert coords > game._DPP_QUERY_BUDGET
        payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
        with pytest.raises(PreconditionError) as err:
            dpp_solve(payoff, params_2d(), 1.0, spec, "both", dirs=dirs, nt=1)
        assert f"needs {coords:.3g} query coordinates per step (10201 nodes, 8 directions)" \
            in str(err.value)
        # 65^2 at K = 8 fits: 4225 x 3072 = 1.3e7 coordinates (all 4 K^2 actions:
        # 1.73e7), and nt = 2 fits the margin, so the sweep reaches its first
        # node-sized allocation
        class Reached(Exception):
            pass

        def reached(self):
            raise Reached

        monkeypatch.setattr(GridSpec, "points", reached)
        with pytest.raises(Reached):
            dpp_solve(payoff, params_2d(), 1.0, replace(spec, nx=(65, 65)), "both",
                      dirs=dirs, nt=2)

    def test_running_cost_at_the_node_time(self):
        # constant payoff 5 and cost -1: u0 = 5 e^{-rT} - sum_{k < nt} e^{-r k dt} dt
        # wherever no move over the nt steps, nor the cell it interpolates in,
        # reaches the box edge, whose outside queries take the payoff alone
        spec = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), nx=(161,))
        params = params_1d(sigma=0.2, r=0.1, running_cost=constant_running_cost(-1.0))
        m, nt = 1.0, 8
        dt = params.T / nt
        tables = dpp_solve(constant_payoff(5.0, 1), params, m, spec, "both", nt=nt)
        reach = nt * (4 * m * 0.2 * dt + 3 * 0.2 * math.sqrt(dt) + spec.h[0])
        clean = np.abs(spec.axes[0]) < 4.0 - reach
        assert clean.sum() >= 20
        want = 5.0 * math.exp(-0.1) - sum(math.exp(-0.1 * k * dt) * dt for k in range(nt))
        for u in (tables.u_minus, tables.u_plus):
            assert np.allclose(u[0][clean], want, rtol=1e-12, atol=0.0)

    def test_constant_payoff_discounts_exactly(self):
        spec = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), nx=(17,))
        params = params_1d(sigma=0.2, r=0.1)
        for m in (1.0, 10.0):
            tables = dpp_solve(constant_payoff(5.0, 1), params, m, spec,
                               side="minus", nt=8)
            assert tables.u_minus is not None
            assert np.max(np.abs(tables.u_minus[0] - 5.0 * math.exp(-0.1))) < 1e-12

    def test_sides_are_ordered(self):
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(41,))
        params = params_1d(sigma=0.2)
        both = dpp_solve(PUT, params, 2.0, spec, side="both", nt=16)
        assert np.all(both.u_minus <= both.u_plus + 1e-9)

    def test_terminal_slice_is_the_payoff(self):
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(21,))
        tables = dpp_solve(PUT, params_1d(), 1.0, spec, side="plus", nt=4)
        assert np.array_equal(tables.u_plus[-1],
                              PUT.values(spec.points()).reshape(spec.nx))

    def test_value_bracket(self):
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(21,))
        params = params_1d(sigma=0.2, r=0.05)
        tables = dpp_solve(PUT, params, 2.0, spec, side="minus", nt=16)
        assert tables.u_minus.min() >= -1e-9
        assert tables.u_minus.max() <= K + 1e-9

    def test_directions_of_another_dimension_rejected(self):
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(21,))
        with pytest.raises(ValidationError,
                           match="directions, params and grid dimensions must agree"):
            dpp_solve(PUT, params_1d(), 2.0, spec, "minus",
                      dirs=DirectionSet.for_dimension(2, 4), nt=50)

    def test_aligned_time_steps_formula(self):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([2.0]), nx=(21,))
        params = params_1d(sigma=0.2)
        # sigma*sqrt(dt) spans one cell: dt = (h/sigma)^2 = 0.25, four steps
        assert aligned_time_steps(spec, params) == 4

    def test_tables_validation(self):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(5,), nt=1)
        flat = np.zeros((2, 5))
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0)
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=flat, u_minus=flat + 1.0)
        GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=flat + 1.0, u_minus=flat)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_tables_need_a_spec_with_nt(self, side):
        spec = GridSpec(lo=[0.0], hi=[1.0], nx=(3,))
        with pytest.raises(ValidationError, match="nt=None"):
            GameValueTables(spec=spec, dt=1.0, m=1.0, **{f"u_{side}": np.zeros((2, 3))})

    def test_table_csv_layout(self, tmp_path):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(3,), nt=1)
        tables = GameValueTables(spec=spec, dt=1.0, m=1.0,
                                 u_plus=np.arange(6, dtype=float).reshape(2, 3),
                                 u_minus=np.zeros((2, 3)))
        path = tmp_path / "tables.csv"
        write_value_table(path, tables, config_digest="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=deadbeef"
        assert lines[1] == "t,x_1,u,side"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 12  # two sides, two slices, three nodes
        assert all(r[3] == "minus" for r in rows[:6])
        assert all(r[3] == "plus" for r in rows[6:])
        # slices descend from T within each side
        assert [r[0] for r in rows[:6]] == ["1", "1", "1", "0", "0", "0"]
        assert [float(r[2]) for r in rows[6:9]] == [3.0, 4.0, 5.0]

    def test_table_archive_holds_the_populated_sides(self, tmp_path):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(3,), nt=1)
        lower = np.arange(6, dtype=float).reshape(2, 3)
        tables = GameValueTables(spec=spec, dt=1.0, m=1.0, u_minus=lower)
        write_value_table(tmp_path / "tables.npz", tables, config_digest="deadbeef")
        with np.load(tmp_path / "tables.npz", allow_pickle=False) as archive:
            assert archive.files == ["t", "x_1", "u_minus", "config_digest"]
            assert np.array_equal(archive["u_minus"], lower)
            assert np.array_equal(archive["t"], [0.0, 1.0])


def savetxt_tables(path, tables: GameValueTables, config_digest=None) -> None:
    """The value-table writer as one ``np.savetxt`` block per slice: the reference."""
    spec = tables.spec
    n = spec.n
    pts = spec.points()
    with open(path, "w", newline="") as fh:
        if config_digest is not None:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write(",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["u", "side"]) + "\n")
        for side, arr in (("minus", tables.u_minus), ("plus", tables.u_plus)):
            if arr is None:
                continue
            block = np.empty((pts.shape[0], n + 2))
            block[:, 1:n + 1] = pts
            for k in range(spec.nt, -1, -1):
                block[:, 0] = k * tables.dt
                block[:, n + 1] = arr[k].reshape(-1)
                np.savetxt(fh, block, fmt=",".join(["%.17g"] * (n + 2)) + f",{side}")


class TestValueTableCsvBytes:
    @pytest.mark.parametrize("n", [1, 2])
    def test_both_sides_match_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(6 + n)
        spec = GridSpec(lo=np.full(n, 3.7), hi=np.linspace(5.0, 5.9, n), nx=(13, 6)[:n], nt=4)
        lower = rng.standard_normal((5, *spec.nx)) * 1e3
        tables = GameValueTables(spec=spec, dt=0.7 / 3.0, m=10.0, u_minus=lower,
                                 u_plus=lower + rng.random((5, *spec.nx)))
        write_value_table(tmp_path / "new.csv", tables, config_digest="deadbeef")
        savetxt_tables(tmp_path / "old.csv", tables, config_digest="deadbeef")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_special_values_match_savetxt(self, tmp_path, side):
        spec = GridSpec(lo=np.array([-1.0, -0.0]), hi=np.array([1.0, 5e-324]), nx=(4, 3), nt=1)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308])
        values = np.stack([np.resize(special, 12), np.resize(special[::-1], 12)])
        tables = GameValueTables(spec=spec, dt=1.0, m=1.0, **{f"u_{side}": values.reshape(2, 4, 3)})
        write_value_table(tmp_path / "new.csv", tables)
        savetxt_tables(tmp_path / "old.csv", tables)
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        assert f",nan,{side}\n" in text and f",-inf,{side}\n" in text


class TestMcValue:
    def test_constant_payoff(self):
        sp, sm = null_strategy_pair(1)
        params = params_1d(r=0.1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=32, seed=2, nt=4)
        est = mc_value(constant_payoff(5.0, 1), params, sp, sm, cfg)
        assert est.mean == pytest.approx(5.0 * math.exp(-0.1), abs=1e-12)
        assert est.stderr == 0.0
        assert est.paths == 32 and est.seed == 2

    def test_stderr_matches_the_sample_formula(self):
        sp, sm = null_strategy_pair(1)
        params = params_1d()
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=500, seed=7, nt=20)
        est = mc_value(PUT, params, sp, sm, cfg)
        term = simulate_sde_paths(cfg, params, sp, sm)
        rewards = discounted_reward(term, 0.0, params, PUT)
        assert est.mean == pytest.approx(float(rewards.mean()), abs=1e-15)
        assert est.stderr == pytest.approx(
            float(np.std(rewards, ddof=1)) / math.sqrt(500), abs=1e-15)

    def test_idle_controls_match_quadrature(self):
        # the direction-difference noise channel stays on even at d = 0,
        # so the uncontrolled limit diffuses with variance 5 sigma^2 T
        params = params_1d(sigma=0.2)
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=20000, seed=11, nt=200)
        est = mc_value(PUT, params, sp, sm, cfg)
        oracle = put_value_oracle(LOG_K, K, 5.0 * params.sigma[0] ** 2 * params.T)
        assert abs(est.mean - oracle) < 3.0 * est.stderr

    def test_running_cost_closed_form(self):
        # constant payoff and state-free cost: every path earns the same reward
        params = params_1d(r=0.1, running_cost=constant_running_cost(-1.0))
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=16, seed=3, nt=200)
        est = mc_value(constant_payoff(5.0, 1), params, sp, sm, cfg)
        want = 5.0 * math.exp(-0.1) - (1.0 - math.exp(-0.1)) / 0.1
        dt = params.T / cfg.nt
        assert abs(est.mean - want) <= 1.0 * params.r * dt * params.T
        assert est.stderr == 0.0

    @pytest.mark.parametrize("t0", [0.0, 0.25])
    def test_running_cost_discounted_from_the_start(self, t0):
        # the cost paid at t_k is discounted by e^{-r (t_k - t0)}, as the PDE and the
        # DPP discount it; h = -1 - 4t and r = 0.1, left endpoints of nt = 200 steps
        params = params_1d(r=0.1, running_cost=RunningCost(
            h=lambda x, t: np.full(len(x), -1.0 - 4.0 * t), alpha=1.0))
        cfg = SimConfig(start=np.array([LOG_K]), t0=t0, paths=16, seed=3, nt=200)
        est = mc_value(constant_payoff(5.0, 1), params, *null_strategy_pair(1), cfg)
        term = est.mean - 5.0 * math.exp(-0.1 * (1.0 - t0))
        dt = (1.0 - t0) / cfg.nt
        want = sum(math.exp(-0.1 * k * dt) * (-1.0 - 4.0 * (t0 + k * dt)) * dt
                   for k in range(cfg.nt))
        assert term == pytest.approx(want, abs=1e-12)
        if t0 == 0.0:
            # the integral of e^{-rs} h(s) over [0, 1]; the left sum is within
            # max |d/ds e^{-rs} h(s)| T dt / 2 = 3.9 dt / 2 of it
            exact = -(1 - math.exp(-0.1)) / 0.1 - 4 * (1 - 1.1 * math.exp(-0.1)) / 0.01
            assert exact == pytest.approx(-2.8232, abs=1e-4)
            assert abs(term - exact) <= 0.5 * 3.9 * dt

    def test_state_free_cost_term_equals_the_dpp(self):
        # a cost that does not read the state adds the same discounted sum in both
        # legs; x = 0 lies farther from the box edge than 20 steps of moves reach
        params = params_1d(r=0.1, running_cost=RunningCost(
            h=lambda x, t: np.full(len(x), -1.0 - 4.0 * t), alpha=1.0))
        spec = GridSpec(lo=np.array([-6.0]), hi=np.array([6.0]), nx=(241,))
        tables = dpp_solve(constant_payoff(5.0, 1), params, 1.0, spec, "both", nt=20)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=16, seed=3, nt=20)
        est = mc_value(constant_payoff(5.0, 1), params, *null_strategy_pair(1), cfg)
        assert spec.axes[0][120] == 0.0
        for u in (tables.u_minus, tables.u_plus):
            assert est.mean == pytest.approx(u[0][120], rel=1e-12)

    def test_stderr_covers_the_null_walk(self):
        # the null SDE walk at nt = 4 takes steps {+-1, +-3} sigma sqrt(dt), each
        # with probability 1/4, and the oracle is its exact value;
        # 20k paths span two antithetic blocks and a short unpaired one
        params = params_1d(sigma=0.2)
        sp, sm = null_strategy_pair(1)
        oracle = coin_sde_put_value(LOG_K, K, params.sigma[0], 4)
        means, errs = [], []
        for seed in range(2100, 2140):
            cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=20000, seed=seed, nt=4)
            est = mc_value(PUT, params, sp, sm, cfg)
            means.append(est.mean)
            errs.append(est.stderr)
        means, errs = np.array(means), np.array(errs)
        assert np.sum(np.abs(means - oracle) <= 2.0 * errs) >= 34
        spread = float(np.std(means, ddof=1)) / float(np.median(errs))
        assert 0.65 <= spread <= 1.35

    @pytest.mark.parametrize("threads", [1, 2])
    def test_running_cost_rewards_rebuild_from_the_paths(self, threads):
        # the value is the mean of discounted payoff plus the left-endpoint cost
        # sum, accumulated step by step as the paths are played
        rc = constant_running_cost(-1.0)
        params = params_1d(mu=0.01, r=0.05, running_cost=rc)
        sp = ConstantStrategy(theta=np.array([1.0]), d=1.0)
        sm = ConstantStrategy(theta=np.array([-1.0]), d=0.5)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.25, paths=_BLOCK + 808, seed=9, nt=12)
        est = mc_value(PUT, params, sp, sm, cfg, threads=threads)
        term = simulate_sde_paths(cfg, params, sp, sm, threads=threads)
        dt = (params.T - cfg.t0) / cfg.nt
        acc = np.zeros(cfg.paths)
        for k in range(cfg.nt):
            t_k = cfg.t0 + k * dt
            acc += np.exp(-params.r * (t_k - cfg.t0)) * rc(term, t_k) * dt
        want = game._estimate(discounted_reward(term, cfg.t0, params, PUT) + acc,
                              cfg.paths, cfg.seed)
        assert est.mean == want.mean and est.stderr == want.stderr


class TestSdeChain:
    # the SDE leg is the two-point weak Euler chain: each step reads n + 1 fair
    # +-1 coins, as the DPP's step does at equal dt

    @pytest.mark.parametrize("nt", [50, 100])
    def test_null_put_matches_the_exact_chain(self, nt):
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=100_000, seed=7, nt=nt)
        est = mc_value(PUT, params_1d(sigma=0.2), *null_strategy_pair(1), cfg)
        assert abs(est.mean - coin_sde_put_value(LOG_K, K, 0.2, nt)) <= 3.0 * est.stderr

    def test_exact_chain_has_weak_order_one(self):
        # no sampling: against the Gaussian limit X ~ N(ln K, v), v = 5 sigma^2 T,
        # whose ATM put is K (1/2 - e^{v/2} Phi(-sqrt v)), the error falls as 1/nt
        v = 5.0 * 0.2 ** 2
        gauss = K * (0.5 - math.exp(v / 2) * 0.5 * math.erfc(math.sqrt(v / 2)))
        assert gauss == pytest.approx(13.82108, abs=5e-6)
        err = [coin_sde_put_value(LOG_K, K, 0.2, nt) - gauss for nt in (100, 800)]
        assert abs(math.log(err[0] / err[1]) / math.log(8) - 1.0) <= 0.1

    @pytest.mark.parametrize("nt", [7, 8])
    def test_terminals_lie_on_the_coin_lattice(self, nt):
        # mu = 0 from 0 with the null pair: a terminal is sigma sqrt(dt) times a sum
        # of nt steps in {+-1, +-3}, an integer of nt's parity, in both halves
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK + 5000, seed=6, nt=nt)
        term = simulate_sde_paths(cfg, params_1d(mu=0.0), *null_strategy_pair(1))[:, 0]
        units = term / (0.2 * math.sqrt(1.0 / nt))
        for lo, hi in ((0, _HALF), (_HALF, _BLOCK), (_BLOCK, _BLOCK + _HALF),
                       (_BLOCK + _HALF, cfg.paths)):
            whole = np.rint(units[lo:hi])
            assert np.max(np.abs(units[lo:hi] - whole)) <= 1e-9
            assert np.all(whole % 2 == nt % 2) and np.max(np.abs(whole)) <= 3 * nt

    def test_block_stores_its_coins_small(self):
        # the drawn half of a full block at nt 200 is 1.6 MB of int8 coins, an
        # eighth of the 13 MB the same rows of float normals would take
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK, seed=3, nt=200)
        tracemalloc.start()
        try:
            simulate_sde_paths(cfg, params_1d(), sp, sm, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * _HALF * cfg.nt * 2 * 8


def stderr_by_hand(rewards) -> float:
    """The pair/single standard error, unit by unit: block b pairs row j with
    row j + h, h = min(B, _BLOCK // 2), for j < B - h; other rows are single."""
    pair_means, singles = [], []
    for lo in range(0, len(rewards), _BLOCK):
        block = [float(v) for v in rewards[lo:lo + _BLOCK]]
        h = min(len(block), _BLOCK // 2)
        pair_means += [(block[j] + block[j + h]) / 2 for j in range(len(block) - h)]
        singles += block[len(block) - h:h]

    def sample_var(units):
        if len(units) < 2:
            return 0.0
        mean = math.fsum(units) / len(units)
        return math.fsum((u - mean) ** 2 for u in units) / (len(units) - 1)

    return math.sqrt(4 * len(pair_means) * sample_var(pair_means)
                     + len(singles) * sample_var(singles)) / len(rewards)


class TestEstimate:
    # one pair with singles, one single with pairs, and short blocks on both sides of _HALF
    @pytest.mark.parametrize("paths", [2, 1000, _HALF, _HALF + 1, _BLOCK, 2 * _BLOCK - 1,
                                       2 * _BLOCK + 6000, _BLOCK + _HALF - 1])
    def test_matches_the_pair_single_formula(self, paths):
        rewards = np.random.default_rng(paths).lognormal(size=paths)
        est = game._estimate(rewards, paths, 3)
        assert est.mean == float(np.mean(rewards)) and est.paths == paths and est.seed == 3
        assert est.stderr == pytest.approx(stderr_by_hand(rewards), rel=1e-12)

    @pytest.mark.parametrize("paths", [2, 1000, _HALF])
    def test_one_unpaired_block_is_the_sample_formula(self, paths):
        rewards = np.random.default_rng(paths).normal(size=paths)
        want = float(np.std(rewards, ddof=1)) / math.sqrt(paths)
        assert game._estimate(rewards, paths, 0).stderr == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("paths", [3000, 2 * _BLOCK + 6000])
    def test_constant_rewards_have_no_error(self, paths):
        # 2.5 sums exactly, so every unit sits on its group's mean
        est = game._estimate(np.full(paths, 2.5), paths, 0)
        assert est.mean == 2.5 and est.stderr == 0.0

    def test_single_path(self):
        est = game._estimate(np.array([1.25]), 1, 9)
        assert est == game.McEstimate(mean=1.25, stderr=0.0, paths=1, seed=9)


class TestGreedyStrategies:
    def _solved(self):
        params = params_1d(sigma=0.2)
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(101,))
        grid = solve_terminal_value(PUT, params,
                                    SolverConfig(mode="bounded_minus", m=2.0), spec)
        return params, grid

    def test_pair_contract(self):
        params, grid = self._solved()
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        assert isinstance(gp, FeedbackStrategy) and isinstance(gm, FeedbackStrategy)
        assert gp.m == 2.0 and gm.m == 2.0
        theta, d = game.checked_controls(gp, np.array([[LOG_K]]), 0.0)
        assert abs(np.linalg.norm(theta[0]) - 1.0) < 1e-9
        assert 0.0 <= d[0] <= 2.0

    def test_feedback_reproduces_the_surface_value(self):
        params, grid = self._solved()
        u0 = float(grid.values[0][grid.node_index(np.array([LOG_K]))])
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=4000, seed=17, nt=100)
        est = mc_value(PUT, params, gp, gm, cfg)
        assert abs(est.mean - u0) <= 3.0 * est.stderr + 0.02 * u0

    def test_slice_tables_are_thread_safe(self):
        # tables built from more threads than cores, switching often, equal
        # serial ones
        params = MarketParams(mu=np.zeros(2), sigma=np.full(2, 0.3), r=0.0, T=0.25)
        spec = GridSpec(lo=np.full(2, LOG_K - 1.5), hi=np.full(2, LOG_K + 1.5), nx=(15, 15))
        grid = solve_terminal_value(BasketPut(weights=np.full(2, 0.5), strike=K), params,
                                    SolverConfig(), spec)
        dirs = DirectionSet.for_dimension(2, 16)
        tables = greedy_strategy_pair(grid, params, 2.0, dirs)[0].tables
        slices = list(range(grid.nt + 1)) * 4
        want = {k: tables.table(k) for k in set(slices)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                got = list(pool.map(tables.table, slices, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, want[k]) for g, k in zip(got, slices))

    def test_policy_controls_from_two_threads(self):
        # each slice table fills a stencil of its own: two threads reading the
        # pair's controls at once, of different slices and of one slice, get
        # the controls read one after another
        _, params, grid, dirs, side = _solved_for_greedy(2)
        gp, gm = greedy_strategy_pair(grid, params, 2.0, dirs, side)
        x = grid.spec.points()

        def read(k):
            return gp.controls(x, k * grid.dt) + gm.controls(x, k * grid.dt)

        ks = range(grid.nt + 1)
        want = {k: read(k) for k in ks}
        # thread 0 reads the slices upward, thread 1 downward, then both upward
        slices = list(zip(*[(k, grid.nt - k) for k in ks], *[(k, k) for k in ks]))
        barrier = threading.Barrier(2)

        def run(order):
            got = []
            for k in order:
                barrier.wait(timeout=60)
                got.append(read(k))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = list(pool.map(run, slices, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for order, got in zip(slices, runs):
            for k, controls in zip(order, got):
                assert all(np.array_equal(a, b) for a, b in zip(controls, want[k])), k

    @pytest.mark.parametrize("bad", [{"m": -1.0}, {"m": float("nan")}, {"side": "both"},
                                     {"dirs": DirectionSet.for_dimension(2, 8)}])
    def test_inputs_are_checked_when_built(self, bad):
        params, grid = self._solved()
        with pytest.raises(ValidationError):
            greedy_strategy_pair(grid, params, **{"m": 2.0, **bad})

    def test_market_of_another_dimension_is_refused(self):
        _, grid = self._solved()
        with pytest.raises(ValidationError, match="dimensions must agree"):
            greedy_strategy_pair(grid, params_2d(), 2.0, DirectionSet.for_dimension(1))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_route_matches_the_checked_path(self, monkeypatch, threads):
        params, grid = self._solved()
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=_BLOCK + 808, seed=5, nt=30)
        _, checked = stepwise_play(cfg, PUT, params, gp, gm)
        calls = []
        real = game.checked_controls
        monkeypatch.setattr(game, "checked_controls",
                            lambda *a: calls.append(a[2]) or real(*a))
        shared = mc_value(PUT, params, gp, gm, cfg, threads=threads)
        assert calls == []  # the policies read their slice tables, not checked_controls
        assert shared.mean == checked.mean and shared.stderr == checked.stderr

    @pytest.mark.parametrize("mixed", [False, True])
    def test_table_contract_is_checked_on_first_read(self, monkeypatch, mixed):
        real = game.greedy_controls_batch

        def stretched(*args):
            tp, dp, tm, dm = real(*args)
            return 1.5 * tp, dp, tm, dm

        monkeypatch.setattr(game, "greedy_controls_batch", stretched)
        params, grid = self._solved()
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        if mixed:
            gm = ConstantStrategy(theta=np.array([-1.0]), d=1.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=10, seed=5, nt=30)
        with pytest.raises(StrategyContractError, match=r"non-unit theta .* t=0\.0"):
            mc_value(PUT, params, gp, gm, cfg)

    def test_greedy_maximizer_defends_the_lower_value(self):
        # against the greedy maximizer no minimizer drags the estimate
        # below the lower value, up to noise and scheme tolerance
        params, grid = self._solved()
        u0 = float(grid.values[0][grid.node_index(np.array([LOG_K]))])
        gp, _ = greedy_strategy_pair(grid, params, 2.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=4000, seed=17, nt=100)
        zoo = [null_strategy_pair(1)[1],
               ConstantStrategy(theta=np.array([1.0]), d=2.0),
               ConstantStrategy(theta=np.array([-1.0]), d=2.0)]
        for challenger in zoo:
            est = mc_value(PUT, params, gp, challenger, cfg)
            assert est.mean >= u0 - 3.0 * est.stderr - 0.02 * u0


class _Delegate(FeedbackStrategy):
    """Forwards to another strategy; neither a constant nor a policy, so the
    simulators refuse it as given."""

    def __init__(self, inner):
        self.inner = inner
        self.m = inner.m

    def controls(self, x, t):
        return self.inner.controls(x, t)


class TestConstantReads:
    """Constants are read once per run; ``stepwise_play`` reads every player on
    every step and is the reference each route must match exactly."""

    PARAMS = params_1d(mu=0.02, sigma=0.2, r=0.05)

    @staticmethod
    def _pair():
        return (ConstantStrategy(theta=np.array([1.0]), d=0.7, m=1.0),
                ConstantStrategy(theta=np.array([-1.0]), d=0.4, m=1.0))

    @staticmethod
    def _cfg(sim, paths=_BLOCK + 808):
        if sim == "sde":
            return SimConfig(start=np.array([LOG_K]), t0=0.1, paths=paths, seed=5, nt=30)
        return DiscreteGameConfig(start=np.array([LOG_K]), t0=0.1, N=30, paths=paths, seed=5)

    def _run(self, sim, sp, sm, threads=1, paths=_BLOCK + 808, params=PARAMS):
        cfg = self._cfg(sim, paths)
        if sim == "sde":
            return mc_value(PUT, params, sp, sm, cfg, threads=threads)
        return simulate_discrete_game(cfg, PUT, params, sp, sm, threads=threads)

    def _stepwise(self, sim, sp, sm, params=PARAMS):
        return stepwise_play(self._cfg(sim), PUT, params, sp, sm)[1]

    def _count_reads(self, monkeypatch):
        calls = []
        real = game.checked_controls

        def counted(strategy, x, t):
            calls.append((strategy, x.shape[0], t))
            return real(strategy, x, t)

        monkeypatch.setattr(game, "checked_controls", counted)
        return calls

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    @pytest.mark.parametrize("null", [False, True])
    def test_read_once_matches_the_checked_path(self, sim, threads, null):
        sp, sm = null_strategy_pair(1) if null else self._pair()
        checked = self._stepwise(sim, sp, sm)
        once = self._run(sim, sp, sm, threads)
        assert once.mean == checked.mean and once.stderr == checked.stderr

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    def test_step_coefficients_built_once_match_with_running_cost(self, sim, threads):
        # the coefficients of a constant pair are built once per run; the cost reads
        # the state before every step, so the two routes must agree on every path
        rc = RunningCost(h=lambda x, t: -1.0 - (x[:, 0] - LOG_K) ** 2 - t, alpha=1.0)
        params = replace(self.PARAMS, running_cost=rc)
        sp, sm = self._pair()
        checked = self._stepwise(sim, sp, sm, params=params)
        once = self._run(sim, sp, sm, threads, params=params)
        assert once.mean == checked.mean and once.stderr == checked.stderr
        assert once.mean != self._run(sim, sp, sm, threads).mean

    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    def test_one_checked_read_per_constant_player(self, monkeypatch, sim):
        sp, sm = self._pair()
        calls = self._count_reads(monkeypatch)
        self._run(sim, sp, sm, threads=2)
        assert calls == [(sp, 1, 0.1), (sm, 1, 0.1)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_greedy_and_constant_mixed_pair(self, monkeypatch, threads):
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(101,))
        grid = solve_terminal_value(PUT, self.PARAMS,
                                    SolverConfig(mode="bounded_minus", m=2.0), spec)
        gp, _ = greedy_strategy_pair(grid, self.PARAMS, 2.0)
        cm = ConstantStrategy(theta=np.array([-1.0]), d=1.0)
        checked = self._stepwise("sde", gp, cm)
        calls = self._count_reads(monkeypatch)
        mixed = self._run("sde", gp, cm, threads)
        assert mixed.mean == checked.mean and mixed.stderr == checked.stderr
        # the constant is read once; the greedy view's slices are read as tables
        assert sum(s is cm for s, _, _ in calls) == 1
        assert sum(s is gp for s, _, _ in calls) == 0

    def test_subclass_that_reads_the_state_plays_tabulated(self, monkeypatch):
        class Contrarian(ConstantStrategy):
            def controls(self, x, t):
                sign = np.where(x[:, :1] > LOG_K, -1.0, 1.0)
                return sign * self.theta, np.full(x.shape[0], self.d)

        sp = Contrarian(theta=np.array([1.0]), d=1.0)
        _, sm = null_strategy_pair(1)
        draws = []
        real_rng = game.path_rng
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a) or real_rng(*a))
        with pytest.raises(ValidationError, match="Contrarian .* tabulate_strategy"):
            self._run("discrete", sp, sm)
        assert draws == []
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(101,), nt=30)
        tp = tabulate_strategy(sp, spec, 1.0 / 30)
        checked = self._stepwise("discrete", tp, sm)
        calls = self._count_reads(monkeypatch)
        est = self._run("discrete", tp, sm)
        assert est.mean == checked.mean and est.stderr == checked.stderr
        # the game's 27 steps from t0 = 0.1 fall on slices 3..29, one read each
        assert [(n, t) for s, n, t in calls if s is sp] == [(99, k * (1.0 / 30))
                                                            for k in range(3, 30)]
        assert est.mean != self._run("discrete", ConstantStrategy(theta=np.array([1.0]), d=1.0),
                                     sm).mean

    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    def test_mutated_constant_is_refused_before_any_draw(self, monkeypatch, sim):
        sp, sm = self._pair()
        sm.d = 2.0  # above m = 1.0, past the constructor's check
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        with pytest.raises(StrategyContractError, match=r"outside \[0, m=1\.0\] at x=\[4\.605"):
            self._run(sim, sp, sm, threads=2)
        assert draws == []


@functools.cache
def _solved_for_greedy(n):
    """(payoff, params, solved surface, directions, side) of a small bounded game."""
    if n == 1:
        params = params_1d(mu=0.02, sigma=0.2, r=0.05)
        spec = GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(41,))
        payoff, dirs, side = PUT, DirectionSet.for_dimension(1), "minus"
    else:
        # a bounded_minus solve leaves [0, sup g] on small 2-D grids; bounded_plus keeps it
        params = params_2d()
        spec = GridSpec(lo=np.full(2, LOG_K - 1.5), hi=np.full(2, LOG_K + 1.5), nx=(11, 13))
        payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
        dirs, side = DirectionSet.for_dimension(2, 8), "plus"
    grid = solve_terminal_value(payoff, params,
                                SolverConfig(mode=f"bounded_{side}", m=2.0, n_dirs=dirs.count),
                                spec)
    return payoff, params, grid, dirs, side


@functools.cache
def _second_surface(n, nx=None):
    """Another solved surface of ``_solved_for_greedy(n)``'s game, at m = 1: on the
    same grid and time step by default, else on ``nx`` nodes per axis."""
    payoff, params, grid, dirs, side = _solved_for_greedy(n)
    spec = grid.spec if nx is None else replace(grid.spec, nx=nx, nt=None)
    return solve_terminal_value(payoff, params,
                                SolverConfig(mode=f"bounded_{side}", m=1.0, n_dirs=dirs.count),
                                spec)


def _constant(n, sign):
    theta = np.array([1.0]) if n == 1 else np.array([0.6, -0.8])
    return ConstantStrategy(theta=sign * theta, d=1.0)


class TestGreedyCoefficients:
    """A pair of exact constants and policies on one grid builds its step
    coefficients once per slice; ``stepwise_play`` reads and prepares the same
    players on every step."""

    @staticmethod
    def _pair(n, kind="shared"):
        payoff, params, grid, dirs, side = _solved_for_greedy(n)
        gp, gm = greedy_strategy_pair(grid, params, 2.0, dirs, side)
        if kind == "view_plus":
            gm = _constant(n, -1.0)
        elif kind == "view_minus":
            gp = _constant(n, 1.0)
        elif kind == "two_cores":
            _, gm = greedy_strategy_pair(_second_surface(n), params, 1.0, dirs, side)
        elif kind == "two_grids":
            nx = tuple(k - 4 for k in grid.spec.nx)
            _, gm = greedy_strategy_pair(_second_surface(n, nx), params, 1.0, dirs, side)
        return payoff, params, grid, (gp, gm)

    @staticmethod
    def _cfg(n, paths, nt=30):
        # the clock (t0 = 0.1, 30 steps) is off the surface's slices in both dimensions
        return SimConfig(start=np.full(n, LOG_K + 0.1), t0=0.1, paths=paths, seed=5, nt=nt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_node_is_the_nearest_interior_node(self, n):
        # both routes snap through the same node(); check it against a search
        _, _, grid, (gp, _) = self._pair(n)
        spec = grid.spec
        x = np.random.default_rng(0).uniform(spec.lo - 2 * spec.h, spec.hi + 2 * spec.h,
                                             size=(500, n))
        nearest = [np.argmin(np.abs(x[:, a, None] - spec.axes[a][None, 1:-1]), axis=1)
                   for a in range(n)]
        want = np.ravel_multi_index(nearest, tuple(k - 2 for k in spec.nx))
        assert np.array_equal(gp.tables.node(x), want)

    def _check_routes(self, kind, n, paths, threads):
        payoff, params, _, (gp, gm) = self._pair(n, kind)
        cfg = self._cfg(n, paths)
        terminals, checked = stepwise_play(cfg, payoff, params, gp, gm)
        sliced = simulate_sde_paths(cfg, params, gp, gm, threads)
        assert np.array_equal(sliced, terminals)
        sliced = mc_value(payoff, params, gp, gm, cfg, threads)
        assert sliced.mean == checked.mean and sliced.stderr == checked.stderr

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("paths", [1, _HALF - 1, _HALF + 1, _BLOCK + 808])
    @pytest.mark.parametrize("n", [1, 2])
    def test_slice_coefficients_match_the_checked_route(self, n, paths, threads):
        self._check_routes("shared", n, paths, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("paths", [1, _HALF - 1, _HALF + 1, _BLOCK + 808])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["view_plus", "view_minus", "two_cores"])
    def test_mixed_pairs_match_the_checked_route(self, kind, n, paths, threads):
        self._check_routes(kind, n, paths, threads)

    @pytest.mark.parametrize("kind", ["view_plus", "two_cores"])
    def test_coin_game_table_route_matches_the_checked_route(self, kind):
        payoff, params, _, (gp, gm) = self._pair(1, kind)
        cfg = DiscreteGameConfig(start=np.array([LOG_K + 0.1]), t0=0.1, N=30,
                                 paths=_BLOCK + 808, seed=5)
        _, checked = stepwise_play(cfg, payoff, params, gp, gm)
        sliced = simulate_discrete_game(cfg, payoff, params, gp, gm, 2)
        assert sliced.mean == checked.mean and sliced.stderr == checked.stderr

    def test_views_on_two_grids_are_refused_and_play_tabulated(self, monkeypatch):
        payoff, params, grid, (gp, gm) = self._pair(1, "two_grids")
        cfg = self._cfg(1, _BLOCK + 808)
        draws = []
        real_rng = game.path_rng
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a) or real_rng(*a))
        with pytest.raises(ValidationError, match="two grids .* tabulate_strategy"):
            mc_value(payoff, params, gp, gm, cfg, 2)
        assert draws == []
        tm = tabulate_strategy(gm, grid.spec, grid.dt)
        _, checked = stepwise_play(cfg, payoff, params, gp, tm)
        reads = []
        real = game.checked_controls
        monkeypatch.setattr(game, "checked_controls",
                            lambda s, x, t: reads.append(s) or real(s, x, t))
        played = mc_value(payoff, params, gp, tm, cfg, 2)
        assert played.mean == checked.mean and played.stderr == checked.stderr
        # the other grid's view is read once per slice the clock reads, not per step
        dt = (params.T - cfg.t0) / cfg.nt
        slices = {min(max(round((cfg.t0 + k * dt) / grid.dt), 0), grid.nt)
                  for k in range(cfg.nt)}
        assert reads == [gm] * len(slices)

    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    def test_wrapped_view_is_refused_before_any_draw(self, monkeypatch, sim):
        payoff, params, _, (gp, gm) = self._pair(1)
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        with pytest.raises(ValidationError,
                           match="^_Delegate plays only through tabulate_strategy$"):
            if sim == "sde":
                mc_value(payoff, params, gp, _Delegate(gm), self._cfg(1, 10))
            else:
                cfg = DiscreteGameConfig(start=np.array([LOG_K]), t0=0.1, N=30, paths=10, seed=5)
                simulate_discrete_game(cfg, payoff, params, _Delegate(gp), gm)
        assert draws == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_slice_coefficients_match_with_running_cost(self, threads):
        payoff, params, _, (gp, gm) = self._pair(1)
        rc = RunningCost(h=lambda x, t: -1.0 - (x[:, 0] - LOG_K) ** 2 - t, alpha=1.0)
        with_cost = replace(params, running_cost=rc)
        cfg = self._cfg(1, _BLOCK + 808)
        _, checked = stepwise_play(cfg, payoff, with_cost, gp, gm)
        sliced = mc_value(payoff, with_cost, gp, gm, cfg, threads)
        assert sliced.mean == checked.mean and sliced.stderr == checked.stderr
        assert sliced.mean != mc_value(payoff, params, gp, gm, cfg, threads).mean

    def _check_slices_before_draws(self, monkeypatch, kind, n, blocks):
        payoff, params, grid, (gp, gm) = self._pair(n, kind)
        events = []
        real_batch, real_rng = game.greedy_controls_batch, game.path_rng
        monkeypatch.setattr(game, "greedy_controls_batch",
                            lambda *a: events.append("slice") or real_batch(*a))
        monkeypatch.setattr(game, "path_rng", lambda *a: events.append("draw") or real_rng(*a))
        # 60 steps from t0 = 0.1 are shorter than the surface's slices, so some
        # slices serve several steps
        cfg = self._cfg(n, (blocks - 1) * _BLOCK + 1, nt=60)
        mc_value(payoff, params, gp, gm, cfg, threads=2)
        dt = (params.T - cfg.t0) / cfg.nt
        slices = {min(max(round((cfg.t0 + k * dt) / grid.dt), 0), grid.nt)
                  for k in range(cfg.nt)}
        assert len(slices) < cfg.nt
        assert events == ["slice"] * len(slices) + ["draw"] * blocks

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_slice_is_built_once_before_any_draw(self, monkeypatch, n):
        self._check_slices_before_draws(monkeypatch, "shared", n, 3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_view_against_a_constant_builds_its_slices_before_any_draw(self, monkeypatch, n):
        # no worker thread builds a slice, so none is built twice
        self._check_slices_before_draws(monkeypatch, "view_plus", n, 4)


class _Tilt(FeedbackStrategy):
    """A state- and time-reading rule: theta leans by the first coordinate's
    side of LOG_K, d grows with t."""

    m = 2.0

    def controls(self, x, t):
        n = x.shape[1]
        theta = np.where(x[:, :1] > LOG_K, -1.0, 1.0) * np.full(n, 1.0 / math.sqrt(n))
        return theta, np.full(x.shape[0], min(2.0, 0.5 + t))


class TestTabulateStrategy:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rule_is_read_once_per_slice_before_any_draw(self, monkeypatch, n):
        payoff, params, grid, _, _ = _solved_for_greedy(n)
        rule, cm = _Tilt(), _constant(n, -1.0)
        policy = tabulate_strategy(rule, grid.spec, grid.dt)
        events = []
        real_read, real_rng = game.checked_controls, game.path_rng
        monkeypatch.setattr(game, "checked_controls",
                            lambda s, x, t: events.append((s, x.shape, t)) or real_read(s, x, t))
        monkeypatch.setattr(game, "path_rng", lambda *a: events.append("draw") or real_rng(*a))
        # 60 steps from t0 = 0.1 are shorter than the surface's slices, so some
        # slices serve several steps
        cfg = TestGreedyCoefficients._cfg(n, 2 * _BLOCK + 1, nt=60)
        mc_value(payoff, params, policy, cm, cfg, threads=2)
        dt = (params.T - cfg.t0) / cfg.nt
        slices = sorted({min(max(round((cfg.t0 + k * dt) / grid.dt), 0), grid.nt)
                         for k in range(cfg.nt)})
        assert len(slices) < cfg.nt
        interior = (math.prod(k - 2 for k in grid.spec.nx), n)
        assert events == ([(cm, (1, n), cfg.t0)]
                          + [(rule, interior, k * grid.dt) for k in slices] + ["draw"] * 3)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tabulated_rule_matches_the_stepwise_play(self, n, threads):
        payoff, params, grid, _, _ = _solved_for_greedy(n)
        policy = tabulate_strategy(_Tilt(), grid.spec, grid.dt)
        cfg = TestGreedyCoefficients._cfg(n, _BLOCK + 808)
        terminals, checked = stepwise_play(cfg, payoff, params, policy, _constant(n, -1.0))
        assert np.array_equal(simulate_sde_paths(cfg, params, policy, _constant(n, -1.0),
                                                 threads), terminals)
        played = mc_value(payoff, params, policy, _constant(n, -1.0), cfg, threads)
        assert played.mean == checked.mean and played.stderr == checked.stderr

    @pytest.mark.parametrize("nt, dt", [(None, 0.1), (10, 0.0), (10, -0.1),
                                        (10, float("nan")), (10, float("inf"))])
    def test_grid_without_a_clock_is_refused(self, nt, dt):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(5,), nt=nt)
        with pytest.raises(ValidationError, match="spec.nt set and a finite dt > 0"):
            tabulate_strategy(_Tilt(), spec, dt)


class TestPlayerDimension:
    """A player of another dimension than the market's is refused before any
    draw, where a constant would broadcast and a view snap by axis 0 only."""

    @pytest.mark.parametrize("sim", ["sde", "discrete"])
    @pytest.mark.parametrize("player", ["constant", "view"])
    def test_one_dimensional_player_in_a_two_dimensional_market(self, monkeypatch, sim,
                                                                player):
        if player == "constant":
            _, low = null_strategy_pair(1)
        else:
            _, params, grid, dirs, side = _solved_for_greedy(1)
            _, low = greedy_strategy_pair(grid, params, 2.0, dirs, side)
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
        start = np.full(2, LOG_K)
        with pytest.raises(ValidationError, match="a 1-D player cannot play in a 2-D market"):
            if sim == "sde":
                cfg = SimConfig(start=start, t0=0.0, paths=10, seed=1, nt=5)
                mc_value(payoff, params_2d(), _constant(2, 1.0), low, cfg)
            else:
                cfg = DiscreteGameConfig(start=start, t0=0.0, N=10, paths=10, seed=1)
                simulate_discrete_game(cfg, payoff, params_2d(), low, _constant(2, -1.0))
        assert draws == []

    def test_two_dimensional_view_in_a_one_dimensional_market(self):
        _, params, grid, dirs, side = _solved_for_greedy(2)
        gp, _ = greedy_strategy_pair(grid, params, 2.0, dirs, side)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=10, seed=1, nt=5)
        with pytest.raises(ValidationError, match="a 2-D player cannot play in a 1-D market"):
            simulate_sde_paths(cfg, params_1d(), gp, _constant(1, -1.0))

    def test_tabulated_rule_of_another_dimension_breaks_its_contract(self, monkeypatch):
        # a 1-D rule read at the 9 x 11 interior nodes of a 2-D grid returns one
        # theta column per state
        payoff, params, grid, _, _ = _solved_for_greedy(2)
        draws = []
        monkeypatch.setattr(game, "path_rng", lambda *a: draws.append(a))
        policy = tabulate_strategy(_constant(1, 1.0), grid.spec, grid.dt)
        cfg = SimConfig(start=np.full(2, LOG_K), t0=0.0, paths=10, seed=1, nt=5)
        with pytest.raises(StrategyContractError, match=r"theta \(99, 1\) and d \(99,\) "
                                                        r"for states \(99, 2\) at t=0\.0$"):
            mc_value(payoff, params, policy, _constant(2, -1.0), cfg)
        assert draws == []
