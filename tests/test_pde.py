from __future__ import annotations

import math

import numpy as np
import pytest

from tugpricer import (BarrierParams, BasketPut, GridSpec, MarketParams,
                       OutOfDomainError, PreconditionError, PriceGrid,
                       SolverConfig, TabulatedPayoff, ValidationError,
                       a_design, apply_operator, barrier_pair, cfl_max_dt,
                       constant_payoff, constant_running_cost, default_domain,
                       discrete_derivatives, interior_derivatives,
                       interior_mask, read_surface_csv, resolve_time_steps,
                       solve_terminal_value, step_backward, write_surface_csv)
from tugpricer.isaacs import OperatorInput

from oracles import put_value_oracle

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
        spec = spec_1d(lo=0.0, hi=1.0, nx=5, nt=1)
        u = spec.axes[0] ** 2
        grid = PriceGrid(spec=spec, dt=1.0, values=np.stack([u, u]))
        inp = discrete_derivatives(grid, (2,), 0)
        assert inp.xi == pytest.approx(0.25)
        assert inp.p[0] == pytest.approx(1.0)
        assert inp.M[0, 0] == pytest.approx(2.0)

    def test_discrete_derivatives_2d_quadratic(self):
        # u = 1/2 x'Qx + b.x is reproduced exactly by the stencil, cross term included
        spec = GridSpec(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 2.0]), nx=(5, 5), nt=1)
        Q = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([0.25, -0.75])
        pts = spec.points()
        u = (0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts) + pts @ b).reshape(spec.nx)
        grid = PriceGrid(spec=spec, dt=1.0, values=np.stack([u, u]))
        inp = discrete_derivatives(grid, (1, 3), 1)
        x = np.array([spec.axes[0][1], spec.axes[1][3]])
        assert inp.xi == u[1, 3]
        assert inp.p == pytest.approx(Q @ x + b, abs=1e-12)
        assert inp.M == pytest.approx(Q, abs=1e-12)

    def test_boundary_node_rejected(self):
        spec = spec_1d(nx=5, nt=1)
        vals = np.zeros((2, 5))
        grid = PriceGrid(spec=spec, dt=1.0, values=vals)
        with pytest.raises(OutOfDomainError):
            discrete_derivatives(grid, (0,), 0)
        with pytest.raises(OutOfDomainError):
            discrete_derivatives(grid, (4,), 1)


class TestApplyOperator:
    def test_limit_mode_is_gradient_independent_in_1d(self):
        params = params_1d()
        config = SolverConfig()
        for p in (0.0, 0.3, -2.0):
            inp = OperatorInput(xi=0.0, p=np.array([p]), M=np.array([[2.0]]))
            assert apply_operator(inp, config, params) == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_gradient_fallback(self):
        params = MarketParams(mu=np.zeros(2), sigma=np.ones(2), r=0.0, T=1.0)
        inp = OperatorInput(xi=0.0, p=np.zeros(2), M=np.diag([2.0, -1.0]))
        val = apply_operator(inp, SolverConfig(), params)
        assert val == pytest.approx(1.5, abs=1e-12)
        assert -1.5 - 1e-12 <= val <= 4.5 + 1e-12

    def test_bounded_minus_sign(self):
        params = params_1d()
        inp = OperatorInput(xi=0.0, p=np.array([1.0]), M=np.array([[1.0]]))
        val = apply_operator(inp, SolverConfig(mode="bounded_minus", m=10.0), params)
        assert val == pytest.approx(2.5, abs=1e-12)


class TestStepBackward:
    @pytest.mark.parametrize("config", [SolverConfig(),
                                        SolverConfig(mode="bounded_plus", m=2.0),
                                        SolverConfig(mode="bounded_minus", m=2.0)])
    def test_constant_is_invariant_without_discount(self, config):
        spec = spec_1d(nx=21)
        payoff = constant_payoff(4.0, 1)
        params = params_1d(r=0.0)
        out = step_backward(np.full(21, 4.0), params.T, payoff, params, config,
                            spec, dt=1e-3)
        assert np.max(np.abs(out - 4.0)) < 1e-14

    def test_discount_decays_interior(self):
        spec = spec_1d(nx=21)
        payoff = constant_payoff(5.0, 1)
        params = params_1d(r=0.1)
        dt = 1e-3
        out = step_backward(np.full(21, 5.0), params.T, payoff, params,
                            SolverConfig(), spec, dt=dt)
        assert np.max(np.abs(out[1:-1] - 5.0 * (1.0 - params.r * dt))) < 1e-12
        # the lateral faces carry the discounted payoff instead
        assert out[0] == pytest.approx(5.0 * math.exp(-params.r * dt), abs=1e-12)

    def test_affine_slice_is_stationary(self):
        spec = spec_1d(lo=0.0, hi=1.0, nx=21)
        ax = spec.axes[0]
        payoff = TabulatedPayoff(axes=(ax,), table=0.5 * ax + 1.0)
        params = params_1d(mu=0.0, sigma=1.0, r=0.0)
        out = step_backward(0.5 * ax + 1.0, params.T, payoff, params,
                            SolverConfig(), spec, dt=2e-4)
        assert np.max(np.abs(out - (0.5 * ax + 1.0))) < 1e-12

    def test_running_cost_accrues(self):
        spec = spec_1d(nx=21)
        payoff = constant_payoff(5.0, 1)
        params = params_1d(r=0.0, running_cost=constant_running_cost(-1.0))
        dt = 1e-3
        out = step_backward(np.full(21, 5.0), params.T, payoff, params,
                            SolverConfig(), spec, dt=dt)
        assert np.max(np.abs(out[1:-1] - (5.0 - dt))) < 1e-14

    def test_cfl_violation_rejected(self):
        spec = spec_1d(nx=201)
        payoff = constant_payoff(1.0, 1)
        params = params_1d(sigma=1.0)
        with pytest.raises(PreconditionError):
            step_backward(np.ones(201), 1.0, payoff, params, SolverConfig(),
                          spec, dt=0.1)


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

    @pytest.mark.parametrize("case", ["limit_F", "bounded_plus", "bounded_minus",
                                      "limit_F_2d", "running_cost"])
    def test_each_slice_is_one_step_backward(self, case):
        # the solve and the standalone step run the same kernel, bit for bit
        if case == "limit_F_2d":
            params = MarketParams(mu=np.array([0.01, -0.02]), sigma=np.array([0.2, 0.3]),
                                  r=0.03, T=1.0)
            payoff = BasketPut(weights=np.array([0.5, 0.5]), strike=K)
            spec = GridSpec(lo=np.full(2, LOG_K - 2), hi=np.full(2, LOG_K + 2), nx=(11, 9))
        else:
            rc = constant_running_cost(-1.0) if case == "running_cost" else None
            params = params_1d(mu=0.02, sigma=0.2, r=0.03, running_cost=rc)
            payoff = BasketPut(weights=np.array([1.0]), strike=K)
            spec = spec_1d(lo=LOG_K - 2, hi=LOG_K + 2, nx=41)
        config = (SolverConfig(mode=case, m=2.0) if case.startswith("bounded")
                  else SolverConfig())
        grid = solve_terminal_value(payoff, params, config, spec)
        for k in range(grid.nt, 0, -1):
            step = step_backward(grid.values[k], k * grid.dt, payoff, params, config,
                                 grid.spec, dt=grid.dt)
            assert np.array_equal(grid.values[k - 1], step), k


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
        write_surface_csv(path, grid)
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
        write_surface_csv(path, grid, config_digest="ab12")
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
        write_surface_csv(tmp_path / "new.csv", grid, config_digest="ab12")
        savetxt_surface(tmp_path / "old.csv", grid, config_digest="ab12")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_special_values_match_savetxt(self, tmp_path):
        spec = GridSpec(lo=np.array([-0.0]), hi=np.array([1e-300]), nx=(8,), nt=2)
        # nan, +-inf, -0.0, the smallest subnormal and values near the largest double
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308, 0.1])
        values = np.stack([special, special[::-1], -special])
        grid = PriceGrid(spec=spec, dt=0.1, values=values)
        write_surface_csv(tmp_path / "new.csv", grid)
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
