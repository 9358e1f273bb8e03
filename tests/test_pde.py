from __future__ import annotations

import math
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from tugpricer import (BarrierParams, BasketPut, GridSpec, MarketParams,
                       PreconditionError, PriceGrid, SolverConfig,
                       TabulatedPayoff, ValidationError, a_design, barrier_pair,
                       cfl_max_dt, constant_payoff, constant_running_cost,
                       default_domain, interior_derivatives, interior_mask,
                       read_surface_csv, resolve_time_steps,
                       solve_terminal_value, write_surface)
from tugpricer import isaacs, pde
from tugpricer.market import RunningCost

from oracles import (central_differences_formula, explicit_step_oracle,
                     put_value_oracle)

K = 100.0
LOG_K = math.log(K)


def params_1d(mu=0.0, sigma=1.0, r=0.0, running_cost=None):
    return MarketParams(mu=np.array([mu]), sigma=np.array([sigma]), r=r, T=1.0,
                        running_cost=running_cost)


def spec_1d(lo=-2.0, hi=2.0, nx=41, nt=None):
    return GridSpec(lo=np.array([lo]), hi=np.array([hi]), nx=(nx,), nt=nt)


class TestGridSpec:
    def test_axes_and_spacing(self):
        spec = GridSpec(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 1.0]), nx=(5, 3))
        assert np.allclose(spec.h, [0.25, 1.0])
        assert np.allclose(spec.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(spec.axes[1], [-1.0, 0.0, 1.0])

    def test_points_order_first_axis_slowest(self):
        spec = GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 1.0]), nx=(3, 3))
        pts = spec.points()
        assert pts.shape == (9, 2)
        assert np.array_equal(pts[:3, 0], np.zeros(3))
        assert np.array_equal(pts[:3, 1], spec.axes[1])

    def test_equality_is_by_value(self):
        def spec(hi=(1.0, 2.0), nx=(5, 4), nt=7):
            return GridSpec(lo=np.array([0.0, -1.0]), hi=np.array(hi), nx=nx, nt=nt)

        assert spec() == spec() and not spec() != spec()
        assert spec(nt=None) == spec(nt=None)
        assert spec() != spec(hi=(1.0, 2.5))
        assert spec() != spec(nx=(5, 5))
        assert spec() != spec(nt=8)
        assert spec() != spec(nt=None)
        assert spec() != "not a grid"

    def test_equal_specs_hash_equal(self):
        def spec(lo=(0.0, -1.0), nt=7):
            return GridSpec(lo=np.array(lo), hi=np.array([1.0, 2.0]), nx=(5, 4), nt=nt)

        assert hash(spec()) == hash(spec())
        assert hash(spec(nt=None)) == hash(spec(nt=None))
        assert spec(lo=(-0.0, -1.0)) == spec() and hash(spec(lo=(-0.0, -1.0))) == hash(spec())
        assert len({spec(), spec(), spec(nt=8)}) == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(2,))
        with pytest.raises(ValidationError):
            GridSpec(lo=np.array([1.0]), hi=np.array([1.0]), nx=(5,))
        with pytest.raises(ValidationError):
            GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 1.0]), nx=(5,))
        with pytest.raises(ValidationError):
            GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), nx=(5,), nt=0)

    @pytest.mark.parametrize("field, value", [
        ("nx", (10.9,)), ("nx", (True,)), ("nx", (np.float64(11.0),)), ("nx", np.array([11.0])),
        ("nx", 10.9), ("nx", (11, True)),
        ("nt", 2.7), ("nt", True), ("nt", 4.0), ("nt", "4")])
    def test_counts_must_be_integers(self, field, value):
        # these used to be truncated: nx (10.9,) to 10, nt 2.7 to 2 and True to 1
        n = np.size(value) if field == "nx" else 1
        kwargs = {"nx": (11,) * n, "nt": 4, field: value}
        with pytest.raises(ValidationError, match=rf"^{field} must be an integer, got"):
            GridSpec(lo=np.zeros(n), hi=np.ones(n), **kwargs)

    def test_counts_keep_their_integers(self):
        spec = GridSpec(lo=np.zeros(2), hi=np.ones(2), nx=np.array([5, 7]), nt=np.int64(3))
        assert spec.nx == (5, 7) and spec.nt == 3
        assert all(type(k) is int for k in spec.nx) and type(spec.nt) is int
        with pytest.raises(ValidationError, match=r"^nx must be >= 3$"):
            GridSpec(lo=np.zeros(2), hi=np.ones(2), nx=(5, 2))


class TestSolverConfig:
    def test_bounded_mode_requires_intensity_bound(self):
        with pytest.raises(ValidationError):
            SolverConfig(mode="bounded_minus")
        SolverConfig(mode="bounded_minus", m=2.0)

    def test_rejects_unknown_mode_and_bad_cfl(self):
        with pytest.raises(ValidationError):
            SolverConfig(mode="implicit")
        with pytest.raises(ValidationError):
            SolverConfig(cfl=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(cfl=1.5)

    def test_resolved_eps_grad(self):
        params = params_1d(sigma=0.5)
        assert SolverConfig().resolved_eps_grad(params) == pytest.approx(0.5e-8)
        assert SolverConfig(eps_grad=1e-6).resolved_eps_grad(params) == 1e-6
        with pytest.raises(ValidationError):
            SolverConfig(eps_grad=-1.0).resolved_eps_grad(params)


class TestDomainHelpers:
    def test_default_domain_half_width(self):
        params = MarketParams(mu=np.array([0.0, 2.0]), sigma=np.array([2.0, 0.1]),
                              r=0.0, T=1.0)
        lo, hi = default_domain(params, np.zeros(2))
        # diffusive width on the first axis, advective on the second
        assert hi[0] == pytest.approx(4.0 * math.sqrt(5.0) * 2.0)
        assert hi[1] == pytest.approx(4.0 * (2.0 + 1.0))
        assert np.allclose(lo, -hi)

    def test_cfl_max_dt_value(self):
        spec = spec_1d(lo=0.0, hi=4.0, nx=11)  # h = 0.4
        params = params_1d(sigma=2.0)
        assert cfl_max_dt(spec, params, 0.5) == pytest.approx(
            0.5 * 0.16 / (5.0 * 1 * 4.0))

    def test_resolve_time_steps(self):
        spec = spec_1d(nx=21)  # h = 0.2
        params = params_1d(sigma=1.0)
        config = SolverConfig()
        auto = resolve_time_steps(spec, params, config)
        assert auto == math.ceil(params.T / cfl_max_dt(spec, params, 0.5))
        assert resolve_time_steps(spec_1d(nx=21, nt=auto + 10), params, config) == auto + 10
        with pytest.raises(PreconditionError):
            resolve_time_steps(spec_1d(nx=21, nt=2), params, config)

    def test_a_design_value(self):
        params = MarketParams(mu=np.array([0.1, -0.3]), sigma=np.array([0.2, 0.5]),
                              r=0.05, T=1.0)
        assert a_design(params, 10.0) == pytest.approx(
            20.0 * 10.0 * 2 * (0.25 + 0.3 + 0.05 + 1.0))

    def test_interior_mask(self):
        spec = spec_1d(lo=0.0, hi=1.0, nx=11)
        mask = interior_mask(spec, 0.25)
        assert mask.sum() == 5  # nodes 0.3 .. 0.7 survive the trim
        assert not mask[0] and not mask[-1]


class TestDerivatives:
    def test_constant_field(self):
        u = np.full((5, 5), 3.0)
        p, M = interior_derivatives(u, np.array([0.1, 0.2]))
        assert np.all(p == 0.0) and np.all(M == 0.0)

    def test_affine_exact(self):
        spec = GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 2.0]), nx=(6, 5))
        a = np.array([1.5, -0.7])
        pts = spec.points().reshape(6, 5, 2)
        u = pts @ a + 2.0
        p, M = interior_derivatives(u, spec.h)
        assert np.max(np.abs(p - a)) < 1e-12
        assert np.max(np.abs(M)) < 1e-10

    def test_quadratic_exact(self):
        spec = GridSpec(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]), nx=(9, 7))
        Q = np.array([[2.0, 0.6], [0.6, -1.0]])
        pts = spec.points().reshape(9, 7, 2)
        u = 0.5 * np.einsum("xyi,ij,xyj->xy", pts, Q, pts)
        p, M = interior_derivatives(u, spec.h)
        grad = np.einsum("ij,xyj->xyi", Q, pts[1:-1, 1:-1])
        assert np.max(np.abs(p - grad)) < 1e-12
        assert np.max(np.abs(M - Q)) < 1e-10

    def test_discrete_derivatives_point(self):
        spec = spec_1d(lo=0.0, hi=1.0, nx=5)
        u = spec.axes[0] ** 2
        p, M = interior_derivatives(u, spec.h)
        # interior arrays start at node 1, so node 2 is entry 1
        assert u[2] == pytest.approx(0.25)
        assert p[1, 0] == pytest.approx(1.0)
        assert M[1, 0, 0] == pytest.approx(2.0)

    def test_discrete_derivatives_2d_quadratic(self):
        # u = 1/2 x'Qx + b.x is reproduced exactly by the stencil, cross term included
        spec = GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 2.0]), nx=(5, 5))
        Q = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([0.25, -0.75])
        pts = spec.points()
        u = (0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts) + pts @ b).reshape(spec.nx)
        p, M = interior_derivatives(u, spec.h)
        x = np.array([spec.axes[0][1], spec.axes[1][3]])
        assert p[0, 2] == pytest.approx(Q @ x + b, abs=1e-12)
        assert M[0, 2] == pytest.approx(Q, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_whole_array_formula(self, rng, n):
        """Entry by entry, the stencil repeats the whole-array expressions
        bit for bit, signed zeros included."""
        for _ in range(5):
            shape = tuple(int(k) for k in rng.integers(3, 8 if n < 3 else 5, size=n))
            u = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            u[rng.random(shape) < 0.2] = -0.0
            u[rng.random(shape) < 0.1] = 0.0
            h = rng.uniform(0.01, 1.0, size=n)
            for got, want in zip(interior_derivatives(u, h), central_differences_formula(u, h)):
                assert same_floats(got, want)

    @pytest.mark.parametrize("u, h", [(np.zeros((2, 5)), [0.1, 0.1]),
                                      (np.zeros(5), [0.1, 0.1]),
                                      (np.zeros((5, 5)), [0.1]),
                                      (np.float64(1.0), []),
                                      (np.zeros((5, 5)), [-1.0, 1.0]),
                                      (np.zeros((5, 5)), [0.1, 0.0]),
                                      (np.zeros(5), [np.nan]),
                                      (np.zeros(5), [np.inf])])
    def test_refuses_shapes_that_do_not_fit(self, u, h):
        # a spacing that is not finite and > 0 fits no axis: h = [-1, 1]
        # would flip the sign of the first gradient component
        with pytest.raises(ValidationError, match="do not fit"):
            interior_derivatives(u, h)


def same_floats(got, want) -> bool:
    """Equal shapes and floats, NaN where NaN, and equal sign bits (so -0.0 != 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def one_point(config, params, p, M, xi=0.0) -> float:
    """The solver's G(xi, p, M) for the configured mode, on a one-row batch."""
    p, M = np.array([p], dtype=float), np.array([M], dtype=float)
    dirs = (None if config.mode == "limit_F"
            else isaacs.DirectionSet.for_dimension(params.n, config.n_dirs))
    return float(pde._operator(config, params, p, M, dirs)(np.array([xi]), p, M)[0])


class TestApplyOperator:
    def test_limit_mode_is_gradient_independent_in_1d(self):
        params = params_1d()
        config = SolverConfig()
        for p in (0.0, 0.3, -2.0):
            assert one_point(config, params, [p], [[2.0]]) == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_gradient_fallback(self):
        params = MarketParams(mu=np.zeros(2), sigma=np.ones(2), r=0.0, T=1.0)
        val = one_point(SolverConfig(), params, np.zeros(2), np.diag([2.0, -1.0]))
        assert val == pytest.approx(1.5, abs=1e-12)
        assert -1.5 - 1e-12 <= val <= 4.5 + 1e-12

    def test_bounded_minus_sign(self):
        params = params_1d()
        val = one_point(SolverConfig(mode="bounded_minus", m=10.0), params, [1.0], [[1.0]])
        assert val == pytest.approx(2.5, abs=1e-12)


def one_step(values_next, payoff, params, config, spec, dt):
    """One backward step from T: a solve with nt = 1 over the horizon dt."""
    grid = solve_terminal_value(payoff, replace(params, T=dt), config, replace(spec, nt=1))
    assert np.array_equal(grid.values[1], values_next)
    return grid.values[0]


class TestStepBackward:
    @pytest.mark.parametrize("config", [SolverConfig(),
                                        SolverConfig(mode="bounded_plus", m=2.0),
                                        SolverConfig(mode="bounded_minus", m=2.0)])
    def test_constant_is_invariant_without_discount(self, config):
        spec = spec_1d(nx=21)
        out = one_step(np.full(21, 4.0), constant_payoff(4.0, 1), params_1d(r=0.0), config,
                       spec, dt=1e-3)
        assert np.max(np.abs(out - 4.0)) < 1e-14

    def test_discount_decays_interior(self):
        spec = spec_1d(nx=21)
        params = params_1d(r=0.1)
        dt = 1e-3
        out = one_step(np.full(21, 5.0), constant_payoff(5.0, 1), params, SolverConfig(),
                       spec, dt=dt)
        assert np.max(np.abs(out[1:-1] - 5.0 * (1.0 - params.r * dt))) < 1e-12
        # the lateral faces carry the discounted payoff instead
        assert out[0] == pytest.approx(5.0 * math.exp(-params.r * dt), abs=1e-12)

    def test_affine_slice_is_stationary(self):
        spec = spec_1d(lo=0.0, hi=1.0, nx=21)
        ax = spec.axes[0]
        payoff = TabulatedPayoff(axes=(ax,), table=0.5 * ax + 1.0)
        params = params_1d(mu=0.0, sigma=1.0, r=0.0)
        out = one_step(0.5 * ax + 1.0, payoff, params, SolverConfig(), spec, dt=2e-4)
        assert np.max(np.abs(out - (0.5 * ax + 1.0))) < 1e-12

    def test_running_cost_accrues(self):
        spec = spec_1d(nx=21)
        params = params_1d(r=0.0, running_cost=constant_running_cost(-1.0))
        dt = 1e-3
        out = one_step(np.full(21, 5.0), constant_payoff(5.0, 1), params, SolverConfig(),
                       spec, dt=dt)
        assert np.max(np.abs(out[1:-1] - (5.0 - dt))) < 1e-14

    def test_cfl_violation_rejected(self):
        spec = spec_1d(nx=201)
        with pytest.raises(PreconditionError):
            one_step(np.ones(201), constant_payoff(1.0, 1), params_1d(sigma=1.0),
                     SolverConfig(), spec, dt=0.1)


class TestPreparedStep:
    """The workspace's step against the step as the solver took it before
    (``oracles.explicit_step_oracle``: public derivatives and operators,
    boolean-mask writes), float for float and sign bit for sign bit."""

    CONFIGS = [SolverConfig(), SolverConfig(mode="bounded_plus", m=2.0, n_dirs=6),
               SolverConfig(mode="bounded_minus", m=2.0, n_dirs=6)]

    def case(self, n, config, running_cost=None):
        params = MarketParams(mu=np.array([0.03, -0.02, 0.0][:n]),
                              sigma=np.array([0.3, 0.2, 0.25][:n]), r=0.04, T=1.0,
                              running_cost=running_cost)
        payoff = BasketPut(weights=np.full(n, 1.0 / n), strike=K)
        spec = GridSpec(lo=np.full(n, LOG_K - 1.5), hi=np.full(n, LOG_K + 1.5),
                        nx=(9, 7, 6)[:n], nt=10)
        dt = params.T / spec.nt
        eps = config.resolved_eps_grad(params)
        if config.mode == "limit_F":
            dirs = None

            def operator(xi, p, M):
                return isaacs.limit_values_batch(xi, p, M, params, eps)
        else:
            dirs = isaacs.DirectionSet.for_dimension(n, config.n_dirs)
            side = config.mode.removeprefix("bounded_")

            def operator(xi, p, M):
                return -isaacs.hm_values_batch(xi, p, M, config.m, params, dirs, side)

        ws = pde._Workspace(payoff, params, config, spec, dt, dirs)

        def oracle(u, t_next):
            return explicit_step_oracle(u, t_next, ws.terminal, spec.points(), spec.h, dt,
                                        params, operator)
        return ws, oracle, spec, eps

    def slices(self, ws, spec, eps, rng):
        """The payoff (flat, p = 0, past the strike), a random slice, a slice
        of signed zeros, and a plane too shallow for eps_grad beside a
        steep one."""
        yield ws.terminal
        yield rng.normal(size=spec.nx)
        zeros = np.zeros(spec.nx)
        zeros[rng.random(spec.nx) < 0.5] = -0.0
        yield zeros
        x = spec.points()[:, 0].reshape(spec.nx)
        yield np.where(x < LOG_K, 3.0 + 0.1 * eps * x, 2.0 * x)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.mode)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_mask_step(self, rng, n, config):
        ws, oracle, spec, eps = self.case(n, config)
        for u in self.slices(ws, spec, eps, rng):
            for t_next in (1.0, 0.5):
                assert same_floats(ws(u, t_next), oracle(u, t_next))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.mode)
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_mask_step_with_a_running_cost(self, rng, n, config):
        # a cost that varies over the nodes and in time, so a wrong row or time shows
        cost = RunningCost(h=lambda x, t: -1.0 - 0.01 * np.sum(x, axis=1) - 0.3 * t, alpha=0.5)
        ws, oracle, spec, eps = self.case(n, config, cost)
        for u in self.slices(ws, spec, eps, rng):
            assert same_floats(ws(u, 0.7), oracle(u, 0.7))

    def test_steps_do_not_share_their_output(self, rng):
        ws, _, spec, _ = self.case(2, SolverConfig())
        u = rng.normal(size=spec.nx)
        first = ws(u, 1.0)
        kept = first.copy()
        ws(rng.normal(size=spec.nx), 0.9)
        assert same_floats(first, kept)

    def test_limit_shapes_are_checked_once_per_solve(self, monkeypatch):
        calls = []
        check = isaacs._check_batch
        monkeypatch.setattr(isaacs, "_check_batch", lambda *a: calls.append(1) or check(*a))
        solve_terminal_value(BasketPut(weights=np.array([1.0]), strike=K),
                             params_1d(mu=0.02, sigma=0.2), SolverConfig(),
                             spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=21))
        assert calls == [1]


class TestSolveTerminalValue:
    def test_constant_payoff_discount_formula(self):
        # slow diffusion keeps the exactly-discounted boundary from bleeding
        # into the center, so the interior follows the Euler product exactly
        spec = spec_1d(lo=-4.0, hi=4.0, nx=21)
        params = params_1d(sigma=0.2, r=0.1)
        grid = solve_terminal_value(constant_payoff(5.0, 1), params,
                                    SolverConfig(), spec)
        dt = params.T / grid.nt
        expect = 5.0 * (1.0 - params.r * dt) ** grid.nt
        mid = grid.values[0][grid.node_index(np.array([0.0]))]
        assert mid == pytest.approx(expect, abs=1e-9)
        assert abs(mid - 5.0 * math.exp(-0.1)) <= 5.0 * params.r**2 * dt

    def test_put_matches_quadrature(self):
        params = params_1d(sigma=0.2)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = spec_1d(lo=LOG_K - 3, hi=LOG_K + 3, nx=101)
        grid = solve_terminal_value(payoff, params, SolverConfig(), spec)
        u0 = grid.values[0][grid.node_index(np.array([LOG_K]))]
        # the limit dynamics diffuse with variance 5 sigma^2 per unit time
        oracle = put_value_oracle(LOG_K, K, 5.0 * params.sigma[0] ** 2 * params.T)
        assert abs(u0 - oracle) / oracle < 0.01

    def test_halving_the_mesh_reduces_the_error(self):
        params = params_1d(sigma=0.2)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        oracle = put_value_oracle(LOG_K, K, 5.0 * params.sigma[0] ** 2 * params.T)
        errs = []
        for nx in (51, 101):
            spec = spec_1d(lo=LOG_K - 3, hi=LOG_K + 3, nx=nx)
            grid = solve_terminal_value(payoff, params, SolverConfig(), spec)
            u0 = grid.values[0][grid.node_index(np.array([LOG_K]))]
            errs.append(abs(u0 - oracle))
        assert errs[1] < errs[0]

    def test_values_stay_in_payoff_range(self):
        params = params_1d(sigma=0.3, r=0.05)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        grid = solve_terminal_value(payoff, params, SolverConfig(), spec)
        slack = 1e-6 * (1.0 + K)
        assert grid.values.min() >= -slack
        assert grid.values.max() <= K + slack

    def test_pointwise_payoff_ordering_is_preserved(self):
        params = params_1d(sigma=0.2)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        ax = spec.axes[0]
        bigger = TabulatedPayoff(axes=(ax,), table=payoff.values(ax[:, None]) + 0.5)
        u1 = solve_terminal_value(payoff, params, SolverConfig(), spec)
        u2 = solve_terminal_value(bigger, params, SolverConfig(), spec)
        tol = 10 * np.finfo(float).eps * u1.nt
        assert np.all(u1.values <= u2.values + tol)

    def test_bounded_mode_ordering(self):
        params = params_1d(sigma=0.2)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        up = solve_terminal_value(payoff, params,
                                  SolverConfig(mode="bounded_plus", m=2.0), spec)
        um = solve_terminal_value(payoff, params,
                                  SolverConfig(mode="bounded_minus", m=2.0), spec)
        assert np.all(up.values >= um.values - 1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    def test_stack_budget_is_checked_before_the_workspace(self, n, monkeypatch):
        # default grid (nx 101 per axis): 192 x 101^3 doubles pass the budget
        # and reach the workspace, 255 x 101^4 are refused before it
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(pde, "_Workspace", reached)
        params = MarketParams(mu=np.zeros(n), sigma=np.full(n, 0.2), r=0.05, T=1.0)
        payoff = BasketPut(weights=np.full(n, 1.0 / n), strike=K)
        lo, hi = default_domain(params, payoff.center())
        spec = GridSpec(lo=lo, hi=hi, nx=(101,) * n)
        nt = resolve_time_steps(spec, params, SolverConfig())
        assert ((nt + 1 + n) * 101 ** n > pde._STACK_BUDGET) == (n == 4)
        if n == 3:
            with pytest.raises(Reached):
                solve_terminal_value(payoff, params, SolverConfig(), spec)
        else:
            with pytest.raises(PreconditionError, match="lower grid.nx"):
                solve_terminal_value(payoff, params, SolverConfig(), spec)

    @pytest.mark.parametrize("n, nx, T, mode", [
        pytest.param(1, 24001, 2e-7, "limit_F", id="1-24001-2e-07"),
        pytest.param(2, 141, 3e-3, "limit_F", id="2-141-0.003"),
        pytest.param(3, 31, 0.04, "limit_F", id="3-31-0.04"),
        pytest.param(4, 13, 0.2, "limit_F", id="4-13-0.2"),
        pytest.param(1, 24001, 2e-7, "bounded_minus", id="bounded_minus-1-24001-2e-07"),
        pytest.param(2, 41, 0.04, "bounded_minus", id="bounded_minus-2-41-0.04"),
    ])
    def test_solve_peak_stays_within_the_counted_bytes(self, n, nx, T, mode):
        # about a dozen steps each; the step's temporaries, n^2 + 2n + 8 doubles
        # per interior node, come to 1.5-3.5 MiB on these grids.  A bounded
        # solve also holds the operator scratch of one slice of inputs, counted
        # as 8.1 MiB (1-D) and 7.2 MiB (2-D, K = 18) here: without it the peak
        # exceeds the count by 5.1 and 3.1 MiB.  The 2-D one carries a running
        # cost, which skips the [0, sup g] check that its non-monotone step fails
        rc = constant_running_cost(-1.0) if mode == "bounded_minus" and n == 2 else None
        params = MarketParams(mu=np.zeros(n), sigma=np.full(n, 0.2), r=0.0, T=T,
                              running_cost=rc)
        payoff = BasketPut(weights=np.full(n, 1.0 / n), strike=1.0)
        spec = GridSpec(lo=np.full(n, -1.0), hi=np.full(n, 1.0), nx=(nx,) * n)
        config = (SolverConfig() if mode == "limit_F"
                  else SolverConfig(mode=mode, m=2.0, n_dirs=16))
        nt = resolve_time_steps(spec, params, config)
        counted = (nt + 1 + n) * nx**n + (2 * n * n + 3 * n + 8) * (nx - 2) ** n
        if mode != "limit_F":
            dirs = isaacs.DirectionSet.for_dimension(n, config.n_dirs)
            counted += isaacs._scratch_doubles(dirs, (nx - 2) ** n)
        tracemalloc.start()
        try:
            solve_terminal_value(payoff, params, config, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * counted + 2**20

    @pytest.mark.parametrize("case", ["five_dimensions", "range", "dimensions", "non_finite"])
    def test_refused_solves(self, case):
        config, quiet = SolverConfig(), {}
        if case == "dimensions":
            params, spec = params_1d(sigma=0.2), spec_1d()
            payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
            error, match = ValidationError, "^payoff, params and grid dimensions must agree$"
        elif case == "non_finite":
            # the second differences of a 1e308 spike overflow, and inf - inf is NaN
            params, spec = params_1d(sigma=0.2), spec_1d(lo=-1.0, hi=1.0, nx=11)
            payoff = TabulatedPayoff(axes=(np.linspace(-1.0, 1.0, 3),),
                                     table=np.array([0.0, 1e308, 0.0]), lipschitz_bound=1.0)
            error, match = PreconditionError, "^solver produced non-finite values"
            quiet = {"over": "ignore", "invalid": "ignore"}
        elif case == "five_dimensions":
            params = MarketParams(mu=np.zeros(5), sigma=np.full(5, 0.2), r=0.05, T=1.0)
            payoff = BasketPut(weights=np.full(5, 0.2), strike=K)
            spec = GridSpec(*default_domain(params, payoff.center()), nx=(3,) * 5)
            error, match = ValidationError, "at most 4 spatial"
        else:
            # the non-monotone 2-D bounded_minus step leaves [0, sup g] on this
            # grid (range [-0.0185, 77.69]), how README says a 2-D bounded run exits
            params = MarketParams(mu=np.array([0.01, -0.02]), sigma=np.array([0.2, 0.3]),
                                  r=0.01, T=1.0)
            payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
            spec = GridSpec(lo=np.full(2, LOG_K - 1.5), hi=np.full(2, LOG_K + 1.5),
                            nx=(11, 13))
            config = SolverConfig(mode="bounded_minus", m=2.0, n_dirs=8)
            error, match = PreconditionError, r"left \[0, sup g\] .* range \[-0.0185"
        with pytest.raises(error, match=match), np.errstate(**quiet):
            solve_terminal_value(payoff, params, config, spec)

    @pytest.mark.parametrize("case", ["limit_F", "bounded_plus", "bounded_minus",
                                      "limit_F_2d", "bounded_plus_2d", "bounded_minus_2d",
                                      "running_cost"])
    def test_each_slice_is_one_step_backward(self, case):
        # every interior slice is the explicit step of the batched operator on
        # the next slice's central differences, bit for bit; the boundary is
        # the discounted payoff
        mode = "limit_F" if case == "running_cost" else case.removesuffix("_2d")
        if case.endswith("_2d"):
            # the 2-D bounded solves carry a running cost, which also skips the
            # [0, sup g] check: without one, the non-monotone 2-D bounded_minus
            # step leaves that range on this grid (ROADMAP item 1) and is refused
            rc = None if mode == "limit_F" else constant_running_cost(-1.0)
            params = MarketParams(mu=np.array([0.01, -0.02]), sigma=np.array([0.2, 0.3]),
                                  r=0.03, T=1.0, running_cost=rc)
            payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
            spec = GridSpec(lo=np.full(2, LOG_K - 2), hi=np.full(2, LOG_K + 2), nx=(11, 9))
        else:
            rc = constant_running_cost(-1.0) if case == "running_cost" else None
            params = params_1d(mu=0.02, sigma=0.2, r=0.03, running_cost=rc)
            payoff = BasketPut(weights=np.array([1.0]), strike=K)
            spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        config = (SolverConfig(mode=mode, m=2.0, n_dirs=16) if mode.startswith("bounded")
                  else SolverConfig())
        eps = config.resolved_eps_grad(params)
        dirs = isaacs.DirectionSet.for_dimension(spec.n, config.n_dirs)
        grid = solve_terminal_value(payoff, params, config, spec)
        dt = grid.dt
        g = payoff.values(spec.points()).reshape(spec.nx)
        core = tuple(slice(1, -1) for _ in range(spec.n))
        interior_points = spec.points().reshape(*spec.nx, spec.n)[core].reshape(-1, spec.n)
        for k in range(grid.nt, 0, -1):
            u = grid.values[k]
            p, M = interior_derivatives(u, spec.h)
            xi = u[core].reshape(-1)
            p, M = p.reshape(-1, spec.n), M.reshape(-1, spec.n, spec.n)
            if mode == "limit_F":
                rhs = isaacs.limit_values_batch(xi, p, M, params, eps)
            else:
                rhs = -isaacs.hm_values_batch(xi, p, M, config.m, params, dirs,
                                              mode.removeprefix("bounded_"))
            if params.running_cost is not None:
                rhs = rhs + params.running_cost(interior_points, k * dt)
            want = np.exp(-params.r * (params.T - (k * dt - dt))) * g
            want[core] = (xi + dt * rhs).reshape(want[core].shape)
            assert np.array_equal(grid.values[k - 1], want), k


class TestBarriers:
    def test_terminal_cone_width(self):
        bp = BarrierParams(y=np.array([0.0]), eps=0.04, A=123.0, L=3.0)
        lo, hi = barrier_pair(np.array([0.0]), 1.0, bp, 7.0, 1.0)
        assert lo == pytest.approx(7.0 - 2.0 * 3.0 * 0.2)
        assert hi == pytest.approx(7.0 + 2.0 * 3.0 * 0.2)

    def test_reference_values(self):
        bp = BarrierParams(y=np.array([0.0]), eps=0.01, A=5.0, L=100.0)
        lo, hi = barrier_pair(np.array([0.0]), 1.0, bp, 50.0, 1.0)
        assert (lo, hi) == pytest.approx((30.0, 70.0))

    def test_antisymmetry_about_the_anchor_value(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            bp = BarrierParams(y=rng.normal(size=n), eps=float(rng.uniform(0.01, 1.0)),
                               A=float(rng.uniform(0, 50)), L=float(rng.uniform(0, 10)))
            x = rng.normal(size=n)
            t = float(rng.uniform(0, 1))
            lo, hi = barrier_pair(x, t, bp, 2.0, 1.0)
            width = 2.0 * (bp.A / bp.eps**2) * (1.0 - t) + 4.0 * bp.L * math.sqrt(
                float(np.sum((x - bp.y) ** 2)) + bp.eps)
            assert hi - lo == pytest.approx(width, rel=1e-12)
            assert hi + lo == pytest.approx(4.0, abs=1e-9)

    def test_surface_sits_between_the_cones(self):
        params = params_1d(sigma=0.2)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        grid = solve_terminal_value(payoff, params, SolverConfig(), spec)
        ax = spec.axes[0]
        A = a_design(params, payoff.lipschitz_bound)
        for anchor in (10, 20, 30):
            g_y = float(payoff(np.array([ax[anchor]])))
            for eps in (0.01, 0.1):
                bp = BarrierParams(y=ax[anchor:anchor + 1], eps=eps, A=A,
                                   L=payoff.lipschitz_bound)
                for k in range(0, grid.nt + 1, max(1, grid.nt // 4)):
                    lo, hi = barrier_pair(ax[:, None], k * grid.dt, bp, g_y, params.T)
                    assert np.all(grid.values[k] >= lo - 1e-9)
                    assert np.all(grid.values[k] <= hi + 1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BarrierParams(y=np.array([0.0]), eps=0.0, A=1.0, L=1.0)
        with pytest.raises(ValidationError):
            BarrierParams(y=np.array([0.0]), eps=0.1, A=-1.0, L=1.0)
        with pytest.raises(ValidationError, match="^barrier L must be finite and >= 0$"):
            BarrierParams(y=np.array([0.0]), eps=0.1, A=1.0, L=-1.0)
        bp = BarrierParams(y=np.array([0.0]), eps=0.1, A=1.0, L=1.0)
        with pytest.raises(ValidationError):
            barrier_pair(np.array([0.0]), 1.5, bp, 0.0, 1.0)
        with pytest.raises(ValidationError):
            barrier_pair(np.array([0.0, 0.0]), 0.5, bp, 0.0, 1.0)


def savetxt_surface(path, grid: PriceGrid, config_digest=None) -> None:
    """The surface writer as one ``np.savetxt`` block per slice: the reference."""
    n = grid.n
    pts = grid.spec.points()
    with open(path, "w", newline="") as fh:
        if config_digest is not None:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write(",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["u"]) + "\n")
        block = np.empty((pts.shape[0], n + 2))
        block[:, 1:n + 1] = pts
        for k in range(grid.nt, -1, -1):
            block[:, 0] = k * grid.dt
            block[:, n + 1] = grid.values[k].reshape(-1)
            np.savetxt(fh, block, fmt="%.17g", delimiter=",")


class TestSurfaceCsv:
    def _small_grid(self):
        spec = GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 1.0]),
                        nx=(3, 4), nt=2)
        values = np.arange(3 * 3 * 4, dtype=float).reshape(3, 3, 4) / 7.0
        return PriceGrid(spec=spec, dt=0.5, values=values)

    def test_round_trip(self, tmp_path):
        grid = self._small_grid()
        path = tmp_path / "surface.csv"
        write_surface(path, grid)
        times, points, values = read_surface_csv(path)
        assert times[0] == 1.0 and times[-1] == 0.0  # slices run from T down
        npts = 12
        for k in range(3):
            block = slice(k * npts, (k + 1) * npts)
            slice_index = grid.nt - k
            assert np.array_equal(points[block], grid.spec.points())
            assert np.array_equal(values[block], grid.values[slice_index].reshape(-1))

    def test_digest_comment_is_skipped(self, tmp_path):
        grid = self._small_grid()
        path = tmp_path / "surface.csv"
        write_surface(path, grid, config_digest="ab12")
        first = path.read_text().splitlines()[0]
        assert first == "# config_digest=ab12"
        times, _, _ = read_surface_csv(path)
        assert times.size == 36

    @pytest.mark.parametrize("n", [1, 2])
    def test_bytes_match_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(5 + n)
        spec = GridSpec(lo=np.full(n, -1.3), hi=np.linspace(2.0, 3.1, n),
                        nx=(17, 9)[:n], nt=5)
        values = rng.standard_normal((6, *spec.nx)) * 10.0 ** rng.integers(-8, 8, (6, *spec.nx))
        grid = PriceGrid(spec=spec, dt=1.0 / 3.0, values=values)
        write_surface(tmp_path / "new.csv", grid, config_digest="ab12")
        savetxt_surface(tmp_path / "old.csv", grid, config_digest="ab12")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_special_values_match_savetxt(self, tmp_path):
        spec = GridSpec(lo=np.array([-0.0]), hi=np.array([1e-300]), nx=(8,), nt=2)
        # nan, +-inf, -0.0, the smallest subnormal and values near the largest double
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308, 0.1])
        values = np.stack([special, special[::-1], -special])
        grid = PriceGrid(spec=spec, dt=0.1, values=values)
        write_surface(tmp_path / "new.csv", grid)
        savetxt_surface(tmp_path / "old.csv", grid)
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308"):
            assert f",{token}\n" in text

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_surface_csv(path)


class TestSurfaceArchive:
    def _small_grid(self):
        spec = GridSpec(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 2.0]), nx=(3, 4), nt=2)
        return PriceGrid(spec=spec, dt=0.5, values=np.arange(36.0).reshape(3, 3, 4) / 7.0)

    def test_round_trip(self, tmp_path):
        grid = self._small_grid()
        path = str(tmp_path / "surface.dat")  # a str path gains no ".npz"
        write_surface(path, grid, config_digest="ab12")
        assert [p.name for p in tmp_path.iterdir()] == ["surface.dat"]
        with zipfile.ZipFile(path) as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == ["t", "x_1", "x_2", "u", "config_digest"]
            assert np.array_equal(archive["t"], [0.0, 0.5, 1.0])  # ascending: u[k] at t[k]
            for i, axis in enumerate(grid.axes):
                assert np.array_equal(archive[f"x_{i + 1}"], axis)
            assert np.array_equal(archive["u"], grid.values)
            assert archive["config_digest"].item() == "ab12"

    def test_reruns_are_byte_identical(self, tmp_path):
        grid = self._small_grid()
        write_surface(tmp_path / "a.npz", grid)
        write_surface(tmp_path / "b.npz", grid)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        with np.load(tmp_path / "a.npz", allow_pickle=False) as archive:
            assert archive.files == ["t", "x_1", "x_2", "u"]  # no digest given


class TestPriceGrid:
    def test_node_index_nearest(self):
        spec = spec_1d(lo=0.0, hi=1.0, nx=11, nt=1)
        grid = PriceGrid(spec=spec, dt=1.0, values=np.zeros((2, 11)))
        assert grid.node_index(np.array([0.52])) == (5,)
        assert grid.node_index(np.array([-3.0])) == (0,)

    def test_shape_mismatch_rejected(self):
        spec = spec_1d(nx=5, nt=2)
        with pytest.raises(ValidationError):
            PriceGrid(spec=spec, dt=0.5, values=np.zeros((2, 5)))

    def test_spec_without_nt_rejected(self):
        spec = GridSpec(lo=[0.0], hi=[1.0], nx=(3,))
        with pytest.raises(ValidationError, match="nt=None"):
            PriceGrid(spec=spec, dt=1.0, values=np.zeros((2, 3)))
