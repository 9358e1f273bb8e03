from __future__ import annotations

import math

import numpy as np
import pytest

from tugpricer import (BasketPut, ConstantStrategy, DirectionSet,
                       DiscreteGameConfig, FeedbackStrategy, GameValueTables,
                       GridSpec, MarketParams, PreconditionError, SimConfig,
                       SolverConfig, StrategyContractError, ValidationError,
                       aligned_time_steps, constant_payoff,
                       constant_running_cost, discounted_reward, dpp_solve,
                       dpp_step, greedy_strategy_pair, mc_value,
                       null_strategy_pair, path_rng, simulate_discrete_game,
                       simulate_sde_paths, solve_terminal_value,
                       write_value_table_csv)
from tugpricer import game
from tugpricer._interp import multilinear
from tugpricer.game import _BLOCK

from oracles import binomial_walk_mean, brute_dpp_value, put_value_oracle

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
        # where path j of block b reads row j of block b's draw
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=_BLOCK + 5, seed=4, nt=6)
        term = simulate_sde_paths(cfg, params_1d(), sp, sm)[:, 0]
        scale = 0.2 * math.sqrt(1.0 / cfg.nt)
        for block, rows in ((0, _BLOCK), (1, 5)):
            z = path_rng(cfg.seed, block).standard_normal((rows, cfg.nt, 2))
            want = scale * (z[:, :, 0] + 2.0 * z[:, :, 1]).sum(axis=1)
            np.testing.assert_allclose(term[block * _BLOCK:][:rows], want, rtol=0, atol=1e-13)

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

    def test_start_time_must_precede_horizon(self):
        cfg = SimConfig(start=np.array([0.0]), t0=1.0, paths=1, seed=1)
        sp, sm = null_strategy_pair(1)
        with pytest.raises(ValidationError):
            simulate_sde_paths(cfg, params_1d(), sp, sm)


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

    def test_at_returns_control_point(self):
        s = ConstantStrategy(theta=np.array([0.0, 1.0]), d=1.5)
        cp = s.at(np.array([0.3, -0.2]), 0.5)
        assert np.array_equal(cp.theta, [0.0, 1.0]) and cp.d == 1.5

    def test_contract_violation_names_the_state(self):
        class Broken(FeedbackStrategy):
            m = 1.0

            def controls(self, x, t):
                return np.full((x.shape[0], 1), 0.5), np.zeros(x.shape[0])

        cfg = SimConfig(start=np.array([0.25]), t0=0.0, paths=2, seed=0, nt=3)
        sp, _ = null_strategy_pair(1)
        with pytest.raises(StrategyContractError) as err:
            simulate_sde_paths(cfg, params_1d(), sp, Broken())
        assert "x=[0.25]" in str(err.value) and "t=0.0" in str(err.value)

    def test_intensity_above_declared_bound_rejected(self):
        class Greedy(FeedbackStrategy):
            m = 1.0

            def controls(self, x, t):
                return np.tile([1.0], (x.shape[0], 1)), np.full(x.shape[0], 2.0)

        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=1, seed=0, nt=1)
        sp, _ = null_strategy_pair(1)
        with pytest.raises(StrategyContractError) as err:
            simulate_sde_paths(cfg, params_1d(), sp, Greedy())
        assert "outside [0, m=1.0]" in str(err.value)


class TestSdeSimulation:
    def test_uncontrolled_terminal_mean(self):
        # idle controls leave the drift untouched; the terminal mean tracks mu*T
        params = params_1d(mu=0.05)
        sp, sm = null_strategy_pair(1)
        cfg = SimConfig(start=np.array([0.0]), t0=0.0, paths=4000, seed=11, nt=100)
        term = simulate_sde_paths(cfg, params, sp, sm)
        assert term.shape == (4000, 1)
        tol = 3.0 * params.sigma[0] * math.sqrt(params.T / cfg.paths)
        assert abs(term[:, 0].mean() - 0.05) < tol

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
        want = 5.0 * math.exp(-0.1) - sum(math.exp(-0.1 * (1.0 - k / N)) / N
                                          for k in range(N))
        assert est.mean == pytest.approx(want, rel=1e-12)
        assert est.stderr == 0.0

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

    def test_running_cost_closed_form(self):
        params = params_1d(r=0.1)
        payoff = constant_payoff(5.0, 1)
        nt = 400
        dt = params.T / nt
        samples = np.full((1, nt), -1.0)
        got = discounted_reward(np.array([[0.0]]), 0.0, params, payoff,
                                running_cost_samples=samples, dt=dt)[0]
        want = 5.0 * math.exp(-0.1) - (1.0 - math.exp(-0.1)) / 0.1
        assert abs(got - want) <= 1.0 * params.r * dt * params.T

    def test_samples_require_dt(self):
        with pytest.raises(ValidationError):
            discounted_reward(np.array([[0.0]]), 0.0, params_1d(), PUT,
                              running_cost_samples=np.zeros((1, 3)))


class TestDppStep:
    def _spec(self, nx=21):
        return GridSpec(lo=np.array([LOG_K - 2]), hi=np.array([LOG_K + 2]), nx=(nx,))

    def test_constant_without_discount(self):
        spec = self._spec()
        vals = np.full(spec.nx, 3.0)
        out = dpp_step(vals, 1.0, spec, 0.01, 2.0, constant_payoff(3.0, 1),
                       params_1d(), DirectionSet.for_dimension(1), "minus")
        assert np.max(np.abs(out - 3.0)) < 1e-13

    def test_constant_discount_factor(self):
        spec = self._spec()
        params = params_1d(r=0.1)
        vals = np.full(spec.nx, 3.0)
        dt = 0.01
        out = dpp_step(vals, 1.0, spec, dt, 2.0, constant_payoff(3.0, 1),
                       params, DirectionSet.for_dimension(1), "plus")
        assert np.max(np.abs(out - 3.0 * math.exp(-params.r * dt))) < 1e-13

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_exhaustive_enumeration(self, side):
        params = params_1d(mu=0.02, sigma=0.2, r=0.05)
        spec = self._spec()
        dirs = DirectionSet.for_dimension(1)
        dt = 0.01
        terminal = PUT.values(spec.points()).reshape(spec.nx)
        out = dpp_step(terminal, params.T, spec, dt, 2.0, PUT, params, dirs, side)
        for i, x in enumerate(spec.axes[0]):
            want = brute_dpp_value(np.array([x]), terminal, spec.axes, spec.lo,
                                   spec.hi, params.T, dt, 2.0, PUT.values,
                                   params.mu, params.sigma, params.r, params.T,
                                   dirs.dirs, side)
            assert out[i] == pytest.approx(want, abs=1e-12)

    def test_step_displacement_must_fit_the_grid(self):
        spec = self._spec()
        vals = np.zeros(spec.nx)
        with pytest.raises(PreconditionError):
            dpp_step(vals, 1.0, spec, 0.25, 50.0, PUT, params_1d(),
                     DirectionSet.for_dimension(1), "minus")

    def test_unknown_side_rejected(self):
        spec = self._spec()
        with pytest.raises(ValidationError):
            dpp_step(np.zeros(spec.nx), 1.0, spec, 0.01, 1.0, PUT, params_1d(),
                     DirectionSet.for_dimension(1), "upper")


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

    @pytest.mark.parametrize("side", ["minus", "plus"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_equals_the_per_sweep_reference(self, case, side):
        spec, params, payoff, m, n_dirs, nt = self.CASES[case]
        dirs = DirectionSet.for_dimension(spec.n, n_dirs)
        solved = dpp_solve(payoff, params, m, spec, side, dirs=dirs, nt=nt)
        got = solved.u_minus if side == "minus" else solved.u_plus
        dt = params.T / nt
        # both the interpolated and the out-of-box payoff branches are exercised
        split = game._Sweep(spec, dt, m, payoff, params, dirs, side).inside
        assert split.any() and not split.all()
        want = np.empty_like(got)
        want[nt] = payoff.values(spec.points()).reshape(spec.nx)
        for k in range(nt, 0, -1):
            want[k - 1] = per_sweep_reference(want[k], k * dt, spec, dt, m, payoff, params,
                                              dirs, side)
            assert np.array_equal(
                dpp_step(want[k], k * dt, spec, dt, m, payoff, params, dirs, side),
                want[k - 1])
        assert np.array_equal(got, want)

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
        lower = dpp_solve(PUT, params, 2.0, spec, side="minus", nt=16)
        upper = dpp_solve(PUT, params, 2.0, spec, side="plus", nt=16)
        both = lower.merged(upper)
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

    def test_aligned_time_steps_formula(self):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([2.0]), nx=(21,))
        params = params_1d(sigma=0.2)
        # sigma*sqrt(dt) spans one cell: dt = (h/sigma)^2 = 0.25, four steps
        assert aligned_time_steps(spec, params) == 4
        assert aligned_time_steps(spec, params, cells=2) == 1

    def test_tables_validation(self):
        spec = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(5,), nt=1)
        flat = np.zeros((2, 5))
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0)
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=flat, u_minus=flat + 1.0)
        tables = GameValueTables(spec=spec, dt=1.0, m=1.0, u_plus=flat + 1.0,
                                 u_minus=flat)
        with pytest.raises(ValidationError):
            tables.merged(GameValueTables(spec=spec, dt=1.0, m=2.0, u_plus=flat))

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
        write_value_table_csv(path, tables, config_digest="deadbeef")
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
        write_value_table_csv(tmp_path / "new.csv", tables, config_digest="deadbeef")
        savetxt_tables(tmp_path / "old.csv", tables, config_digest="deadbeef")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_special_values_match_savetxt(self, tmp_path, side):
        spec = GridSpec(lo=np.array([-1.0, -0.0]), hi=np.array([1.0, 5e-324]), nx=(4, 3), nt=1)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308])
        values = np.stack([np.resize(special, 12), np.resize(special[::-1], 12)])
        tables = GameValueTables(spec=spec, dt=1.0, m=1.0, **{f"u_{side}": values.reshape(2, 4, 3)})
        write_value_table_csv(tmp_path / "new.csv", tables)
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
            acc += np.exp(-params.r * (params.T - t_k)) * rc(term, t_k) * dt
        want = game._estimate(discounted_reward(term, cfg.t0, params, PUT) + acc,
                              cfg.paths, cfg.seed)
        assert est.mean == want.mean and est.stderr == want.stderr


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
        cp = gp.at(np.array([LOG_K]), 0.0)
        assert abs(np.linalg.norm(cp.theta) - 1.0) < 1e-9
        assert 0.0 <= cp.d <= 2.0

    def test_feedback_reproduces_the_surface_value(self):
        params, grid = self._solved()
        u0 = float(grid.values[0][grid.node_index(np.array([LOG_K]))])
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=4000, seed=17, nt=100)
        est = mc_value(PUT, params, gp, gm, cfg)
        assert abs(est.mean - u0) <= 3.0 * est.stderr + 0.02 * u0

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
    def test_shared_lookup_matches_the_checked_path(self, monkeypatch, threads):
        class Delegate(FeedbackStrategy):
            def __init__(self, inner):
                self.inner = inner
                self.m = inner.m

            def controls(self, x, t):
                return self.inner.controls(x, t)

        params, grid = self._solved()
        gp, gm = greedy_strategy_pair(grid, params, 2.0)
        cfg = SimConfig(start=np.array([LOG_K]), t0=0.0, paths=_BLOCK + 808, seed=5, nt=30)
        checked = mc_value(PUT, params, Delegate(gp), Delegate(gm), cfg, threads=threads)
        calls = []
        real = game.checked_controls
        monkeypatch.setattr(game, "checked_controls",
                            lambda *a: calls.append(a[2]) or real(*a))
        shared = mc_value(PUT, params, gp, gm, cfg, threads=threads)
        assert calls == []  # one table lookup per step serves both views
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
