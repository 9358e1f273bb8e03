from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tugpricer import (BasketPut, ConstantStrategy, DirectionSet, GridSpec, MarketParams,
                       SimConfig, SolverConfig, ValidationError, greedy_strategy_pair, mc_value,
                       solve_terminal_value)
from tugpricer import isaacs, pde
from tugpricer.isaacs import greedy_controls_batch, hm_values_batch, limit_values_batch

from oracles import (bounded_constant_formula, brute_greedy, brute_hm, limit_batch_formula,
                     limit_envelopes_oracle, limit_oracle, phi_formula)

EPS = 1e-8  # eps_grad of the limit operator: the solver's default at sigma = 1


def params_1d(mu=0.0, sigma=1.0, r=0.0):
    return MarketParams(mu=np.array([mu]), sigma=np.array([sigma]), r=r, T=1.0)


def params_nd(n, r=0.0):
    return MarketParams(mu=np.zeros(n), sigma=np.ones(n), r=r, T=1.0)


def inp_1d(xi=0.0, p=1.0, M=1.0):
    return xi, np.array([p]), np.array([[M]])


def batch(xi, p, M):
    """The one-row batch (xi, p, M) of a single input."""
    return np.array([float(xi)]), np.asarray(p, dtype=float)[None], np.asarray(M, dtype=float)[None]


def hm(inp, m, params, dirs, side) -> float:
    return float(hm_values_batch(*batch(*inp), m, params, dirs, side)[0])


def greedy(inp, m, params, dirs, side):
    """(theta+, d+, theta-, d-) of one input."""
    tp, dp, tm, dm = greedy_controls_batch(*batch(*inp), m, params, dirs, side)
    return tp[0], dp[0], tm[0], dm[0]


def phi_at(controls, inp, params) -> float:
    tp, dp, tm, dm = controls
    return phi_formula(tp, tm, dp, dm, inp[1], inp[2], params.mu, params.sigma)


def limit(inp, params, eps_grad=EPS) -> float:
    return float(limit_values_batch(*batch(*inp), params, eps_grad)[0])


DIRS_1D = DirectionSet.for_dimension(1)


def random_symmetric(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n))
    return scale * 0.5 * (raw + raw.T)


def random_unit(rng, n):
    v = rng.normal(size=n)
    while np.linalg.norm(v) < 1e-6:
        v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestControlPoint:
    """A single action (theta, d), checked where a ConstantStrategy takes it."""

    def test_rejects_non_unit_theta(self):
        with pytest.raises(ValidationError, match="theta must be a unit vector"):
            ConstantStrategy(theta=np.array([0.5]), d=0.0)
        with pytest.raises(ValidationError):
            ConstantStrategy(theta=np.array([1.0 + 10 * isaacs.UNIT_TOL]), d=0.0)

    def test_rejects_negative_intensity(self):
        for d in (-0.1, float("nan")):
            with pytest.raises(ValidationError, match="d must be finite and >= 0"):
                ConstantStrategy(theta=np.array([1.0]), d=d)

    def test_theta_is_frozen(self):
        cp = ConstantStrategy(theta=np.array([1.0]), d=2.0)
        with pytest.raises(ValueError):
            cp.theta[0] = 0.0


class TestDirectionSet:
    def test_one_dimensional_set_is_exact(self):
        ds = DirectionSet.for_dimension(1)
        assert np.array_equal(ds.dirs, np.array([[-1.0], [1.0]]))
        # the 0-sphere has two points; a requested count is ignored
        assert DirectionSet.for_dimension(1, 50).count == 2

    @pytest.mark.parametrize("n,count", [(2, 64), (3, 100), (4, 128)])
    def test_unit_norms_and_count(self, n, count):
        ds = DirectionSet.for_dimension(n, count)
        assert ds.count == count and ds.n == n
        assert np.max(np.abs(np.linalg.norm(ds.dirs, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_halton_fan_matches_norm_ppf(self, n):
        from scipy.stats import norm, qmc

        u = qmc.Halton(d=n, scramble=False).random(64)
        ref = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        assert DirectionSet.for_dimension(n, 64).dirs.tobytes() == ref.tobytes()

    def test_default_counts(self):
        assert DirectionSet.for_dimension(2).count == 720
        assert DirectionSet.for_dimension(3).count == 2048

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            DirectionSet(np.array([[1.0, 0.0], [0.5, 0.5]]))
        for dirs in ([1.0, 0.0], [[1.0, 0.0]], [[1.0, 0.0], [np.nan, 1.0]]):
            with pytest.raises(ValidationError, match="^dirs must be a finite"):
                DirectionSet(np.array(dirs))
        with pytest.raises(ValidationError):
            DirectionSet.for_dimension(0)
        with pytest.raises(ValidationError):
            DirectionSet.for_dimension(2, 1)


class TestPhi:
    """The joint running term of tests/oracles.py, and the Gram split of the kernel."""

    def test_opposed_directions(self):
        # theta_plus + theta_minus = 0, so the intensity term drops out
        val = phi_formula(np.array([1.0]), np.array([-1.0]), 3.0, 7.0,
                          np.array([2.0]), np.array([[1.0]]), np.zeros(1), np.ones(1))
        assert val == pytest.approx(-2.5, abs=1e-14)

    def test_aligned_directions(self):
        val = phi_formula(np.array([1.0]), np.array([1.0]), 0.0, 0.0,
                          np.array([1.0]), np.array([[1.0]]), np.zeros(1), np.ones(1))
        assert val == pytest.approx(-0.5, abs=1e-14)

    def test_drift_term(self):
        val = phi_formula(np.array([1.0]), np.array([1.0]), 0.0, 0.0,
                          np.array([2.0]), np.array([[1.0]]), np.array([0.1]), np.ones(1))
        assert val == pytest.approx(-0.7, abs=1e-14)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_direct_formula(self, n, seed):
        # phi(plus D_i, minus D_j) = G_ij - q_i/2 - q_j/2 - (d+ + d-)(c_i + c_j)
        # + const, the split the lattice search ranks on
        rng = np.random.default_rng(seed)
        dirs = DirectionSet.for_dimension(n, 6)
        dp, dm = rng.uniform(0, 5, size=2)
        p = rng.normal(size=n)
        M = random_symmetric(rng, n)
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.2, 2.0, size=n)
        params = MarketParams(mu=mu, sigma=sigma, r=0.0, T=1.0)
        D, QD, q, c = (a[0] for a in isaacs._phi_pieces(p[None], M[None], params,
                                                         dirs.dirs, 1.0))
        const = -0.5 * float(np.sum(np.diag(M) * sigma**2)) - float(mu @ p)
        for i, j in rng.integers(0, D.shape[0], size=(4, 2)):
            got = D[i] @ QD[:, j] - 0.5 * q[i] - 0.5 * q[j] - (dp + dm) * (c[i] + c[j]) + const
            want = phi_formula(D[i], D[j], dp, dm, p, M, mu, sigma)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_linear_in_curvature(self):
        # doubling M doubles exactly the M-dependent part of the value
        rng = np.random.default_rng(5)
        n = 2
        tp, tm = random_unit(rng, n), random_unit(rng, n)
        dp, dm = 1.5, 0.5
        p = rng.normal(size=n)
        M = random_symmetric(rng, n)
        params = params_nd(n)
        v1 = phi_formula(tp, tm, dp, dm, p, M, params.mu, params.sigma)
        v2 = phi_formula(tp, tm, dp, dm, p, 2.0 * M, params.mu, params.sigma)
        control_terms = -(dp + dm) * float((tp + tm) @ p) - float(params.mu @ p)
        assert v2 - v1 == pytest.approx(v1 - control_terms, abs=1e-12)


class TestBoundedOperators:
    def test_values_with_gradient(self):
        inp = inp_1d(p=1.0, M=1.0)
        assert hm(inp, 10.0, params_1d(), DIRS_1D, "plus") == pytest.approx(-2.5, abs=1e-12)
        assert hm(inp, 10.0, params_1d(), DIRS_1D, "minus") == pytest.approx(-2.5, abs=1e-12)

    def test_values_split_at_degenerate_gradient(self):
        # with p = 0 the two optimization orders genuinely disagree
        inp = inp_1d(p=0.0, M=1.0)
        assert hm(inp, 10.0, params_1d(), DIRS_1D, "plus") == pytest.approx(-2.5, abs=1e-12)
        assert hm(inp, 10.0, params_1d(), DIRS_1D, "minus") == pytest.approx(-0.5, abs=1e-12)

    def test_discount_term_is_additive(self):
        p = params_1d(r=0.05)
        inp = inp_1d(xi=10.0, p=0.0, M=1.0)
        assert hm(inp, 10.0, p, DIRS_1D, "plus") == pytest.approx(-2.5 + 0.5, abs=1e-12)
        base = hm(inp_1d(xi=0.0, p=0.7, M=-0.4), 3.0, p, DIRS_1D, "minus")
        shifted = hm(inp_1d(xi=4.0, p=0.7, M=-0.4), 3.0, p, DIRS_1D, "minus")
        assert shifted == pytest.approx(base + 0.05 * 4.0, abs=1e-12)

    def test_flat_objective_reduces_to_discount(self):
        p = params_1d(r=0.3)
        inp = inp_1d(xi=2.0, p=0.0, M=0.0)
        assert hm(inp, 5.0, p, DIRS_1D, "plus") == pytest.approx(0.6, abs=1e-14)
        assert hm(inp, 5.0, p, DIRS_1D, "minus") == pytest.approx(0.6, abs=1e-14)

    def test_rejects_bad_intensity_bound(self):
        with pytest.raises(ValidationError):
            hm(inp_1d(), 0.0, params_1d(), DIRS_1D, "plus")
        with pytest.raises(ValidationError):
            hm(inp_1d(), -1.0, params_1d(), DIRS_1D, "minus")

    def test_batch_matches_singles(self, rng):
        # each row's value is independent of the rows batched with it
        n = 2
        params = params_nd(n, r=0.1)
        dirs = DirectionSet.for_dimension(n, 32)
        B = 7
        xi = rng.normal(size=B)
        p = rng.normal(size=(B, n))
        M = np.stack([random_symmetric(rng, n) for _ in range(B)])
        for side in ("plus", "minus"):
            rows = hm_values_batch(xi, p, M, 2.0, params, dirs, side)
            for b in range(B):
                one = hm((xi[b], p[b], M[b]), 2.0, params, dirs, side)
                assert rows[b] == pytest.approx(one, abs=1e-12)

    def test_matches_enumeration_1d(self, rng):
        params = params_1d(mu=0.03, sigma=1.3, r=0.07)
        for _ in range(25):
            inp = inp_1d(xi=rng.normal(), p=rng.normal(), M=rng.normal())
            for m in (1.0, 10.0):
                for side in ("plus", "minus"):
                    want = brute_hm(*inp, m, params.mu, params.sigma, params.r,
                                    DIRS_1D.dirs, side)
                    assert hm(inp, m, params, DIRS_1D, side) == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_2d(self, rng):
        n = 2
        params = MarketParams(mu=np.array([0.01, -0.02]),
                              sigma=np.array([0.8, 1.4]), r=0.05, T=1.0)
        dirs = DirectionSet.for_dimension(n, 16)
        for _ in range(8):
            inp = (rng.normal(), rng.normal(size=n), random_symmetric(rng, n))
            for side in ("plus", "minus"):
                want = brute_hm(*inp, 4.0, params.mu, params.sigma, params.r, dirs.dirs, side)
                assert hm(inp, 4.0, params, dirs, side) == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 20.0))
    def test_order_of_optimization(self, seed, m):
        # sup-inf never exceeds inf-sup on the same control lattice
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        dirs = DirectionSet.for_dimension(n, 12)
        params = params_nd(n, r=0.1)
        inp = (rng.normal(), rng.normal(size=n), random_symmetric(rng, n))
        assert hm(inp, m, params, dirs, "plus") <= hm(inp, m, params, dirs, "minus") + 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_degenerate_ellipticity(self, seed):
        # adding positive semidefinite curvature lowers hm and raises the limit operator
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        dirs = DirectionSet.for_dimension(n, 12)
        params = params_nd(n)
        p = rng.normal(size=n)
        Y = random_symmetric(rng, n)
        B = rng.normal(size=(n, n))
        X = Y + B @ B.T
        ix = (0.0, p, X)
        iy = (0.0, p, Y)
        for side in ("plus", "minus"):
            assert hm(ix, 3.0, params, dirs, side) <= hm(iy, 3.0, params, dirs, side) + 1e-12
        if np.linalg.norm(p) > 1e-8:
            assert limit(ix, params) >= limit(iy, params) - 1e-12

    def test_exact_limit_in_one_dimension(self, rng):
        # for n=1 the bounded operators hit minus the limit operator exactly
        # once the intensity bound dominates the curvature-to-gradient ratio
        params = params_1d(mu=0.02, sigma=0.9, r=0.04)
        for m in (1.0, 10.0, 100.0):
            for _ in range(10):
                p = rng.uniform(0.5, 3.0) * (1 if rng.random() < 0.5 else -1)
                cap = 0.99 * m * abs(p) / params.sigma[0] ** 2
                M = rng.uniform(-cap, cap)
                inp = inp_1d(xi=rng.normal(), p=p, M=M)
                target = -limit(inp, params)
                assert hm(inp, m, params, DIRS_1D, "plus") == pytest.approx(target, abs=1e-12)
                assert hm(inp, m, params, DIRS_1D, "minus") == pytest.approx(target, abs=1e-12)

    def test_limit_convergence_2d(self):
        params = params_nd(2)
        dirs = DirectionSet.for_dimension(2, 256)
        inp = (0.0, np.array([0.6, -0.8]), np.array([[1.2, 0.3], [0.3, -0.5]]))
        target = limit(inp, params)
        for side in ("plus", "minus"):
            errs = [abs(hm(inp, m, params, dirs, side) + target) for m in (1.0, 10.0, 100.0)]
            assert errs[1] <= errs[0] + 1e-12
            assert errs[2] <= errs[1] + 1e-12
            assert errs[2] < 0.02


class TestDegenerateInputs:
    """2-D inputs whose lattice has exact or symmetric ties, against the oracles."""

    DIRS = DirectionSet.for_dimension(2, 16)

    def check(self, inp, params, m, side, exact=True):
        want = brute_hm(*inp, m, params.mu, params.sigma, params.r, self.DIRS.dirs, side)
        assert hm(inp, m, params, self.DIRS, side) == pytest.approx(want, abs=1e-12)
        gtp, gdp, gtm, gdm = greedy(inp, m, params, self.DIRS, side)
        tp, dp, tm, dm = brute_greedy(*inp, m, params.mu, params.sigma, self.DIRS.dirs, side)
        assert gdp == dp and gdm == dm
        if exact:
            assert np.array_equal(gtp, tp) and np.array_equal(gtm, tm)
        else:
            # phi is even in (theta_plus, theta_minus) at p = 0, and the fan's
            # opposite directions agree only to rounding, so either sign may win
            sign = 1.0 if np.allclose(gtp, tp, rtol=0, atol=1e-12) else -1.0
            assert np.allclose(gtp, sign * tp, rtol=0, atol=1e-12)
            assert np.allclose(gtm, sign * tm, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_zero_gradient(self, side, rng):
        # _augment falls back to dirs[0]; the intensities no longer matter
        for _ in range(6):
            params = MarketParams(mu=rng.normal(size=2), sigma=rng.uniform(0.3, 2.0, 2),
                                  r=0.05, T=1.0)
            inp = (rng.normal(), np.zeros(2), random_symmetric(rng, 2))
            for m in (0.5, 20.0):
                self.check(inp, params, m, side, exact=False)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_no_curvature_no_drift(self, side, rng):
        params = MarketParams(mu=np.zeros(2), sigma=np.array([0.7, 1.3]), r=0.05, T=1.0)
        flat = (0.4, np.zeros(2), np.zeros((2, 2)))
        # every action ties, so the tie rule alone picks the first direction at d = 0
        tp, dp, tm, dm = greedy(flat, 3.0, params, self.DIRS, side)
        for theta, d in ((tp, dp), (tm, dm)):
            assert np.array_equal(theta, self.DIRS.dirs[0]) and d == 0.0
        self.check(flat, params, 3.0, side)
        for _ in range(6):
            inp = (rng.normal(), rng.normal(size=2), np.zeros((2, 2)))
            for m in (0.5, 20.0):
                self.check(inp, params, m, side)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_isotropic_unit_curvature(self, side, rng):
        # with m |p| > sigma^2 the optimum pairs +-p/|p|, whose drift terms
        # cancel exactly, so d = 0 and d = m tie exactly for both players;
        # below that, every direction pairs with its near-opposite for the
        # same value up to rounding, and only the value is well defined
        for _ in range(6):
            s = rng.uniform(0.3, 1.5)
            params = MarketParams(mu=rng.normal(size=2), sigma=np.array([s, s]), r=0.05, T=1.0)
            p = random_unit(rng, 2) * rng.uniform(1.0, 3.0)
            inp = (rng.normal(), p, np.eye(2))
            for m in (10.0, 50.0):
                self.check(inp, params, m, side)
            want = brute_hm(*inp, 0.5, params.mu, params.sigma, params.r, self.DIRS.dirs, side)
            assert hm(inp, 0.5, params, self.DIRS, side) == pytest.approx(want, abs=1e-12)


class TestLimitOperator:
    def test_direct_substitution(self):
        assert limit(inp_1d(p=3.0, M=2.0), params_1d()) == pytest.approx(5.0, abs=1e-12)

    def test_gradient_independent_in_one_dimension(self):
        params = params_1d(sigma=1.3, r=0.02)
        a = limit(inp_1d(xi=2.0, p=0.001, M=0.7), params)
        b = limit(inp_1d(xi=2.0, p=7.0, M=0.7), params)
        assert a == pytest.approx(b, rel=1e-12)

    def test_two_dimensional_value(self):
        inp = (0.0, np.array([1.0, 0.0]), np.diag([2.0, -1.0]))
        assert limit(inp, params_nd(2)) == pytest.approx(4.5, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_definition_oracle(self, n, rng):
        # one batch mixing gradients above eps_grad, nonzero ones below it and p = 0
        params = MarketParams(mu=rng.normal(size=n), sigma=rng.uniform(0.3, 2.0, n),
                              r=0.05, T=1.0)
        B = 24
        xi = rng.normal(size=B)
        p = rng.normal(size=(B, n))
        p[8:16] *= 0.5 * EPS / np.linalg.norm(p[8:16], axis=1, keepdims=True)
        p[16:] = 0.0
        M = np.stack([random_symmetric(rng, n) for _ in range(B)])
        got = limit_values_batch(xi, p, M, params, EPS)
        for b in range(B):
            want = limit_oracle(xi[b], p[b], M[b], params.mu, params.sigma, params.r, EPS)
            assert got[b] == pytest.approx(want, abs=1e-12, rel=1e-12)


class TestEnvelopes:
    """At p = 0 the limit operator takes the eigenvalue average of SMS, which
    lies between the semicontinuous envelopes of tests/oracles.py."""

    def test_one_dimensional(self):
        inp = inp_1d(p=0.0, M=1.0)
        lo, hi = limit_envelopes_oracle(inp[0], inp[2], np.ones(1), 0.0)
        assert (lo, hi) == pytest.approx((2.5, 2.5), abs=1e-12)
        assert limit(inp, params_1d()) == pytest.approx(2.5, abs=1e-12)

    def test_two_dimensional(self):
        lo, hi = limit_envelopes_oracle(0.0, np.diag([2.0, -1.0]), np.ones(2), 0.0)
        assert lo == pytest.approx(-1.5, abs=1e-12)
        assert hi == pytest.approx(4.5, abs=1e-12)

    def test_collapse_off_the_singularity(self):
        inp = (1.0, np.array([0.3, -0.2]), np.array([[1.0, 0.4], [0.4, -0.6]]))
        params = params_nd(2, r=0.1)
        want = limit_oracle(*inp, params.mu, params.sigma, params.r, EPS)
        assert limit(inp, params) == pytest.approx(want, abs=1e-12)

    def test_mean_eigenvalue_value(self):
        inp = (0.0, np.zeros(2), np.diag([2.0, -1.0]))
        assert limit(inp, params_nd(2)) == pytest.approx(1.5, abs=1e-12)

    def test_mean_eigenvalue_between_envelopes(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            params = MarketParams(mu=np.zeros(n), sigma=rng.uniform(0.3, 2.0, n),
                                  r=0.05, T=1.0)
            inp = (rng.normal(), np.zeros(n), random_symmetric(rng, n))
            lo, hi = limit_envelopes_oracle(inp[0], inp[2], params.sigma, params.r)
            assert lo - 1e-12 <= limit(inp, params) <= hi + 1e-12


class TestGreedyControls:
    def test_minus_side_example(self):
        inp = inp_1d(p=1.0, M=1.0)
        params = params_1d()
        controls = greedy(inp, 10.0, params, DIRS_1D, "minus")
        tp, dp, tm, dm = controls
        assert np.array_equal(tp, np.array([1.0])) and dp == 10.0
        assert np.array_equal(tm, np.array([-1.0])) and dm == 0.0
        val = phi_at(controls, inp, params)
        assert val == pytest.approx(hm(inp, 10.0, params, DIRS_1D, "minus"), abs=1e-14)

    def test_sign_mirror(self):
        tp, dp, tm, dm = greedy(inp_1d(p=-1.0, M=1.0), 10.0, params_1d(), DIRS_1D, "minus")
        assert np.array_equal(tp, np.array([-1.0])) and dp == 10.0
        assert np.array_equal(tm, np.array([1.0])) and dm == 0.0

    def test_flat_objective(self):
        inp = inp_1d(p=0.0, M=0.0)
        params = params_1d()
        assert phi_at(greedy(inp, 2.0, params, DIRS_1D, "plus"), inp, params) == 0.0

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_round_trip_1d(self, side, rng):
        params = params_1d(mu=0.05, sigma=1.1)
        for _ in range(20):
            inp = inp_1d(xi=0.0, p=rng.normal(), M=rng.normal())
            val = phi_at(greedy(inp, 5.0, params, DIRS_1D, side), inp, params)
            assert val == pytest.approx(hm(inp, 5.0, params, DIRS_1D, side), abs=1e-12)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_round_trip_2d_with_discount(self, side, rng):
        params = params_nd(2, r=0.08)
        dirs = DirectionSet.for_dimension(2, 24)
        for _ in range(10):
            inp = (rng.normal(), rng.normal(size=2), random_symmetric(rng, 2))
            val = phi_at(greedy(inp, 3.0, params, dirs, side), inp, params) + params.r * inp[0]
            assert val == pytest.approx(hm(inp, 3.0, params, dirs, side), abs=1e-12)

    @staticmethod
    def degenerate_2d():
        """xi = 0 and rows whose inner replies tie to within rounding: p = 0
        and rounded p against small symmetric M, M = 0.3 [[1, 1], [1, 1]] and
        M = I among them."""
        entries = (0.0, 0.25, -0.5, 0.3, 1.0)
        Ms = [np.array([[a, b], [b, d]]) for a in entries for b in entries for d in entries]
        ps = [np.array([a, b]) for a in (0.0, 0.25, -1.0) for b in (0.0, 0.5, -1.0)]
        p = np.repeat(np.array(ps), len(Ms), axis=0)
        M = np.tile(np.array(Ms), (len(ps), 1, 1))
        return np.zeros(p.shape[0]), p, M

    @pytest.mark.parametrize("count", [8, 16])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_pair_reproduces_hm_on_ties(self, side, count):
        # the inner reply is the one the value search recorded, so phi at the
        # greedy pair, rebuilt in the search's arithmetic from the rows k
        # (outer) and l (inner) of its directions, is hm bit for bit
        params = MarketParams(mu=np.array([0.02, -0.01]), sigma=np.ones(2), r=0.0, T=1.0)
        dirs = DirectionSet.for_dimension(2, count)
        xi, p, M = self.degenerate_2d()
        sign = 1.0 if side == "plus" else -1.0
        D, QD, q, c = isaacs._phi_pieces(p, M, params, dirs.dirs, sign)
        const = -0.5 * (0.0 + isaacs._trace_s2m(M, params.sigma**2)) - p @ params.mu
        b = np.arange(p.shape[0])
        for m in (0.25, 1.0, 3.7):
            tp, dp, tm, dm = greedy_controls_batch(xi, p, M, m, params, dirs, side)
            (t_out, d_out), (t_in, d_in) = (((tm, dm), (tp, dp)) if side == "plus"
                                            else ((tp, dp), (tm, dm)))
            k = np.argmax(np.all(D == t_out[:, None], axis=2), axis=1)
            l = np.argmax(np.all(D == t_in[:, None], axis=2), axis=1)
            assert np.array_equal(D[b, k], t_out) and np.array_equal(D[b, l], t_in)
            entry = ((np.einsum("bi,bi->b", D[b, k], QD[b, :, l]) + (-0.5 * q[b, l]))
                     + (-0.5 * q[b, k]) - (d_out + d_in) * (c[b, l] + c[b, k]))
            want = hm_values_batch(xi, p, M, m, params, dirs, side)
            assert np.array_equal(bits(sign * entry + const + params.r * xi), bits(want)), m

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_enumeration(self, side, rng):
        # tie-breaking must agree with a literal first-occurrence scan
        params = MarketParams(mu=np.array([0.02, 0.0]),
                              sigma=np.array([1.0, 0.7]), r=0.0, T=1.0)
        dirs = DirectionSet.for_dimension(2, 16)
        for _ in range(6):
            inp = (0.0, rng.normal(size=2), random_symmetric(rng, 2))
            gtp, gdp, gtm, gdm = greedy(inp, 2.0, params, dirs, side)
            tp, dp, tm, dm = brute_greedy(*inp, 2.0, params.mu, params.sigma, dirs.dirs, side)
            assert np.array_equal(gtp, tp) and gdp == dp
            assert np.array_equal(gtm, tm) and gdm == dm

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_enumeration_1d(self, side, rng):
        # the two directions are exact opposites, so every pair with
        # theta_plus = -theta_minus ties across intensities exactly
        params = params_1d(mu=0.03, sigma=1.2)
        for _ in range(30):
            inp = inp_1d(p=rng.normal() * 10.0 ** rng.integers(-3, 1), M=rng.normal())
            for m in (0.5, 2.0, 20.0):
                gtp, gdp, gtm, gdm = greedy(inp, m, params, DIRS_1D, side)
                tp, dp, tm, dm = brute_greedy(*inp, m, params.mu, params.sigma,
                                              DIRS_1D.dirs, side)
                assert np.array_equal(gtp, tp) and gdp == dp
                assert np.array_equal(gtm, tm) and gdm == dm

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_one_dimensional_ties_follow_the_scan(self, side):
        # dyadic inputs make same and opposed replies tie exactly, as at
        # p = -1, M = 0.25, m = 0.25: the inner reply is the scan's first,
        # the earlier direction before the lower intensity
        params = params_1d()
        for p in (0.0, 0.25, -0.5, 1.0, -1.0):
            for M in (0.0, 0.25, -0.5, 1.0):
                for m in (0.25, 0.5, 1.0):
                    inp = inp_1d(p=p, M=M)
                    gtp, gdp, gtm, gdm = greedy(inp, m, params, DIRS_1D, side)
                    tp, dp, tm, dm = brute_greedy(*inp, m, params.mu, params.sigma,
                                                  DIRS_1D.dirs, side)
                    assert np.array_equal(gtp, tp) and gdp == dp, (p, M, m)
                    assert np.array_equal(gtm, tm) and gdm == dm, (p, M, m)

    def test_batch_matches_singles(self, rng):
        # each row's controls are independent of the rows batched with it
        params = params_1d()
        B = 6
        xi = np.zeros(B)
        p = rng.normal(size=(B, 1))
        M = rng.normal(size=(B, 1, 1))
        tp, dp, tm, dm = greedy_controls_batch(xi, p, M, 4.0, params, DIRS_1D, "minus")
        for b in range(B):
            otp, odp, otm, odm = greedy((0.0, p[b], M[b]), 4.0, params, DIRS_1D, "minus")
            assert np.array_equal(tp[b], otp) and dp[b] == odp
            assert np.array_equal(tm[b], otm) and dm[b] == odm

    def test_rejects_unknown_side(self):
        with pytest.raises(ValidationError):
            greedy(inp_1d(), 1.0, params_1d(), DIRS_1D, "both")


@pytest.mark.parametrize("n, count", [(1, None), (2, 12), (1, "reversed"), (2, 200), (3, 130),
                                      (2, 1139)])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_chunked_batches_match_one_chunk(n, count, side, rng, monkeypatch):
    # "reversed" is the 1-D pair in the order [+1, -1], which the lattice
    # searches; fans of 200 and 130 directions prune, and so does 1139, where
    # blocks of _CHUNK_ELEMS // K rows would leave the last row alone
    params = params_nd(n, r=0.1)
    dirs = (DirectionSet(DIRS_1D.dirs[::-1]) if count == "reversed"
            else DirectionSet.for_dimension(n, count))
    B = 11
    xi = rng.normal(size=B)
    p = rng.normal(size=(B, n))
    M = np.stack([random_symmetric(rng, n) for _ in range(B)])
    whole_hm = hm_values_batch(xi, p, M, 3.0, params, dirs, side)
    whole_greedy = greedy_controls_batch(xi, p, M, 3.0, params, dirs, side)
    K = dirs.count + (0 if n == 1 else 2)
    S = isaacs._seeds(dirs.count, K).size
    # three rows per chunk, so the batch spans four chunks with a ragged last
    # one; then 5 K and 2 K entries, which leave one row per chunk (K * S > 5 K
    # where n >= 2) and split its seed and survivor rows into segments of five
    # or two rows (a lone last row padded to two), and, where it prunes, its
    # bound block into slices of outer directions
    for cap in (3 * K * S, 5 * K, 2 * K):
        monkeypatch.setattr(isaacs, "_CHUNK_ELEMS", cap)
        assert np.array_equal(hm_values_batch(xi, p, M, 3.0, params, dirs, side), whole_hm)
        for got, want in zip(greedy_controls_batch(xi, p, M, 3.0, params, dirs, side),
                             whole_greedy):
            assert np.array_equal(got, want)


def bits(a):
    """The IEEE bits of a float array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestPairClosedForm:
    """The 1-D pair [-1, +1] skips the lattice search; its values and greedy
    controls are the lattice's bit for bit, and any other set searches."""

    SIDES = ("plus", "minus")

    @staticmethod
    def both_routes(monkeypatch, xi, p, M, m, params, side, dirs=DIRS_1D):
        """(value, controls) of the closed form, then of the lattice."""
        fast = (hm_values_batch(xi, p, M, m, params, dirs, side),
                greedy_controls_batch(xi, p, M, m, params, dirs, side))
        with monkeypatch.context() as patch:
            patch.setattr(isaacs, "_is_pair", lambda dirs: False)
            lattice = (hm_values_batch(xi, p, M, m, params, dirs, side),
                       greedy_controls_batch(xi, p, M, m, params, dirs, side))
        return fast, lattice

    def assert_same_bits(self, monkeypatch, xi, p, M, params, ms=(0.5, 2.0, 10.0)):
        for m in ms:
            for side in self.SIDES:
                (hm_f, g_f), (hm_l, g_l) = self.both_routes(monkeypatch, xi, p, M, m,
                                                            params, side)
                assert np.array_equal(bits(hm_f), bits(hm_l))
                for got, want in zip(g_f, g_l):
                    assert np.array_equal(bits(got), bits(want))

    @staticmethod
    def degenerate(rng, B, subnormal=True):
        """Rows with signed zeros, rounded values that tie, huge ones and subnormals."""
        special = [0.0, -0.0, 0.25, -0.5, 1.0, -1.0, 2.0, 1e300, -1e300]
        if subnormal:
            special += [5e-324, -5e-324, 1e-310, -1e-310]
        special = np.array(special)
        xi = rng.choice(np.array([0.0, -0.0, 1.0, -2.0]), size=B)
        return xi, rng.choice(special, size=(B, 1)), rng.choice(special, size=(B, 1, 1))

    def test_random_batches_match_the_lattice(self, monkeypatch, rng):
        for _ in range(20):
            B = int(rng.integers(1, 300))
            params = MarketParams(mu=np.array([rng.normal()]),
                                  sigma=np.array([rng.uniform(0.1, 2.0)]),
                                  r=float(rng.choice([0.0, 0.05])), T=1.0)
            scale = 10.0 ** rng.integers(-3, 2, size=(B, 1))
            p = rng.normal(size=(B, 1)) * scale
            M = rng.normal(size=(B, 1, 1)) * scale[:, :, None]
            self.assert_same_bits(monkeypatch, rng.normal(size=B), p, M, params)

    @pytest.mark.parametrize("mu", [0.0, -0.0, 0.03])
    def test_degenerate_batches_match_the_lattice(self, mu, monkeypatch, rng):
        # p = 0 and M = 0 rows reach the value's sign of zero, and rounded rows
        # make same and opposed replies tie exactly
        for sigma in (1.0, 0.2):
            params = MarketParams(mu=np.array([mu]), sigma=np.array([sigma]), r=0.0, T=1.0)
            self.assert_same_bits(monkeypatch, *self.degenerate(rng, 400), params,
                                  ms=(0.25, 1.0, 3.7))

    def test_non_finite_rows_stay_nan(self, monkeypatch, rng):
        # NaN where the lattice gives NaN (the NaN's sign bit may differ)
        B = 64
        p = rng.choice(np.array([np.nan, np.inf, -np.inf, 1.0, 0.0]), size=(B, 1))
        M = rng.choice(np.array([np.nan, np.inf, -np.inf, 1.0, 0.0, 1e308]), size=(B, 1, 1))
        params = params_1d(mu=0.03, sigma=1.5)
        with np.errstate(all="ignore"):
            for side in self.SIDES:
                (hm_f, g_f), (hm_l, g_l) = self.both_routes(monkeypatch, np.zeros(B), p, M,
                                                            2.0, params, side)
                assert np.array_equal(hm_f, hm_l, equal_nan=True)
                for got, want in zip(g_f, g_l):
                    assert np.array_equal(got, want)

    def test_surface_slices_match_the_lattice(self, monkeypatch):
        # every slice of a bounded 1-D surface, as the PDE and the greedy
        # strategies feed the operator
        params = MarketParams(mu=np.zeros(1), sigma=np.array([0.2]), r=0.0, T=1.0)
        spec = GridSpec(lo=np.array([np.log(100.0) - 4.0]),
                        hi=np.array([np.log(100.0) + 4.0]), nx=(201,))
        put = BasketPut(weights=np.array([1.0]), strike=100.0)
        grid = solve_terminal_value(put, params, SolverConfig(mode="bounded_minus", m=10.0),
                                    spec)
        # fill's views are overwritten by the next fill, so each slice is copied
        stencil = pde._Stencil(spec.h, tuple(k - 2 for k in spec.nx))
        xi, p, M = (np.concatenate(a) for a in zip(*([x.copy() for x in stencil.fill(u)]
                                                      for u in grid.values)))
        self.assert_same_bits(monkeypatch, xi, p, M, params, ms=(10.0,))

    def test_lower_value_never_exceeds_upper(self, rng):
        # README's lower value <= upper value, with no tolerance, in 1-D.  Not
        # at subnormal gradients: p = 5e-324, M = 0 at m = 0.5 gives a lower
        # value of 5e-324 against an upper 0.0, on the lattice as here
        params = params_1d(mu=0.02, sigma=0.7, r=0.05)
        batches = [self.degenerate(rng, 300, subnormal=False)]
        for _ in range(20):
            B = 200
            batches.append((rng.normal(size=B), rng.normal(size=(B, 1)),
                            rng.normal(size=(B, 1, 1)) * 10.0 ** rng.integers(-2, 2)))
        for xi, p, M in batches:
            for m in (0.5, 2.0, 10.0):
                lower = hm_values_batch(xi, p, M, m, params, DIRS_1D, "plus")
                upper = hm_values_batch(xi, p, M, m, params, DIRS_1D, "minus")
                assert np.all(lower <= upper)

    def test_pde_and_greedy_monte_carlo_skip_the_lattice(self, monkeypatch):
        params = params_1d(sigma=0.2)
        spec = GridSpec(lo=np.array([np.log(100.0) - 2.0]),
                        hi=np.array([np.log(100.0) + 2.0]), nx=(101,))
        put = BasketPut(weights=np.array([1.0]), strike=100.0)
        cfg = SimConfig(start=np.array([np.log(100.0)]), t0=0.0, paths=500, seed=3, nt=40)

        def run():
            grid = solve_terminal_value(put, params, SolverConfig(mode="bounded_minus", m=2.0),
                                        spec)
            est = mc_value(put, params, *greedy_strategy_pair(grid, params, 2.0), cfg)
            return grid.values, est

        with monkeypatch.context() as patch:
            patch.setattr(isaacs, "_is_pair", lambda dirs: False)
            want_values, want = run()

        def refuse(*args):
            raise AssertionError("the 1-D pair reached the lattice search")

        monkeypatch.setattr(isaacs, "_outer_table", refuse)
        values, est = run()
        assert np.array_equal(bits(values), bits(want_values))
        assert est.mean == want.mean and est.stderr == want.stderr

    @pytest.mark.parametrize("dirs", [[[1.0], [-1.0]], [[-1.0], [1.0], [1.0]]],
                             ids=["reversed", "duplicate"])
    def test_other_one_dimensional_sets_search_the_lattice(self, dirs, monkeypatch, rng):
        dirs = DirectionSet(np.array(dirs))
        calls = []
        real = isaacs._outer_table
        monkeypatch.setattr(isaacs, "_outer_table", lambda *a: calls.append(1) or real(*a))
        params = params_1d(mu=0.03, sigma=1.2, r=0.04)
        for _ in range(10):
            inp = inp_1d(xi=rng.normal(), p=rng.normal(), M=rng.normal())
            for m in (0.5, 5.0):
                for side in self.SIDES:
                    calls.clear()
                    want = brute_hm(*inp, m, params.mu, params.sigma, params.r, dirs.dirs, side)
                    assert hm(inp, m, params, dirs, side) == pytest.approx(want, abs=1e-12)
                    gtp, gdp, gtm, gdm = greedy(inp, m, params, dirs, side)
                    tp, dp, tm, dm = brute_greedy(*inp, m, params.mu, params.sigma,
                                                  dirs.dirs, side)
                    assert np.array_equal(gtp, tp) and gdp == dp
                    assert np.array_equal(gtm, tm) and gdm == dm
                    assert len(calls) == 2


def operators_batch(seed, B, n):
    """The inputs of ``check-operators`` for n >= 2 (``cli.cmd_check_operators``):
    unit gradients and symmetric M scaled to a spectral radius in [0.25, 1]."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    xi = rng.uniform(-1.0, 1.0, B)
    raw = rng.standard_normal((B, n))
    p = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    A = rng.standard_normal((B, n, n))
    M = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    M = M / np.max(np.abs(np.linalg.eigvalsh(M)), axis=1)[:, None, None]
    return xi, p, M * rng.uniform(0.25, 1.0, B)[:, None, None]


def every_row(count, K):
    """A ``_seeds`` that makes every outer row a seed: the search without pruning."""
    return np.arange(K)


class TestPrunedSearch:
    """Every search but the 1-D pair's computes full rows only for its seed
    rows and for the rows whose bound reaches the best seed entry.  Its
    values and greedy controls are those of the search over every row, bit
    for bit; here even fans below _FULL_BELOW prune, so small K is covered."""

    SIDES = ("plus", "minus")
    MS = (0.5, 2.0, 10.0, 1000.0)

    def assert_same_bits(self, monkeypatch, xi, p, M, params, dirs, ms=MS):
        for m in ms:
            for side in self.SIDES:
                routes = []
                for patch_name, value in (("_FULL_BELOW", 0), ("_seeds", every_row)):
                    with monkeypatch.context() as patch, np.errstate(all="ignore"):
                        patch.setattr(isaacs, patch_name, value)
                        routes.append((hm_values_batch(xi, p, M, m, params, dirs, side),
                                       greedy_controls_batch(xi, p, M, m, params, dirs, side)))
                (hm_p, g_p), (hm_e, g_e) = routes
                assert np.array_equal(bits(hm_p), bits(hm_e)), (m, side)
                for got, want in zip(g_p, g_e):
                    assert np.array_equal(bits(got), bits(want)), (m, side)

    @staticmethod
    def market(rng, n):
        return MarketParams(mu=rng.normal(size=n) * 0.1, sigma=rng.uniform(0.1, 2.0, size=n),
                            r=0.05, T=1.0)

    @pytest.mark.parametrize("count", [4, 16, 722])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_batches_match_every_row(self, n, count, monkeypatch, rng):
        # K = count + 2: 6, 18 and 724 outer rows
        dirs = DirectionSet.for_dimension(n, count)
        for B in (0, 1, 37):
            scale = 10.0 ** rng.integers(-3, 3, size=(B, 1))
            p = rng.normal(size=(B, n)) * scale
            M = rng.normal(size=(B, n, n)) * scale[:, :, None]
            self.assert_same_bits(monkeypatch, rng.normal(size=B), p, M + M.transpose(0, 2, 1),
                                  self.market(rng, n), dirs)

    @pytest.mark.parametrize("count", [4, 16, 200])
    @pytest.mark.parametrize("n", [2, 3])
    def test_degenerate_batches_match_every_row(self, n, count, monkeypatch, rng):
        # p = 0 and M = 0 rows tie every action; rounded entries make replies
        # tie exactly; 1e300 overflows the Gram block; signed zeros and
        # subnormals reach the signs of zero and the underflows
        special = np.array([0.0, -0.0, 0.25, -0.5, 1.0, -1.0, 2.0, 1e300, -1e300,
                            5e-324, -1e-310])
        B = 120
        p = rng.choice(special, size=(B, n))
        M = rng.choice(special, size=(B, n, n))
        M = np.where(np.tril(np.ones((n, n), bool)), M, M.transpose(0, 2, 1))
        p[:10] = 0.0
        M[:5] = 0.0
        M[5:10] = -0.0
        xi = rng.choice(np.array([0.0, -0.0, 1.0]), size=B)
        for mu in (0.0, -0.0):
            params = MarketParams(mu=np.full(n, mu), sigma=np.full(n, 0.5), r=0.0, T=1.0)
            self.assert_same_bits(monkeypatch, xi, p, M, params,
                                  DirectionSet.for_dimension(n, count))

    def test_isotropic_ties_match_every_row(self, monkeypatch, rng):
        # M = s I and a tiny or zero p: every outer row is worth -2 s up to
        # rounding, so rows and bounds tie the best seed entry within ulps
        B = 60
        s = 10.0 ** rng.uniform(-3, 3, size=B)
        p = rng.normal(size=(B, 2)) * rng.choice(np.array([0.0, 1e-14, 1e-9]), size=(B, 1))
        M = s[:, None, None] * np.eye(2)
        self.assert_same_bits(monkeypatch, np.zeros(B), p, M, params_nd(2),
                              DirectionSet.for_dimension(2), ms=(0.5, 2.0))

    def test_full_rows_take_blocks_of_two_rows_or_more(self, monkeypatch):
        """np.matmul rounds a one-row block differently (gemv), so no block
        of full rows has one row, whatever the cap cuts off."""
        shapes = []
        real = np.matmul

        def spy(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, b, *args, **kwargs)

        B, K = 3, 22
        pieces = isaacs._phi_pieces(*operators_batch(3, B, 2)[1:], params_nd(2),
                                    DirectionSet.for_dimension(2, 20).dirs, 1.0)
        out = np.empty((B, K, 2))
        inner = np.empty((B, K, 2), dtype=np.intp)
        monkeypatch.setattr(np, "matmul", spy)
        for cap in (isaacs._CHUNK_ELEMS, 3 * K, 2 * K):
            monkeypatch.setattr(isaacs, "_CHUNK_ELEMS", cap)
            isaacs._outer_table(*pieces, 2.0, None, np.arange(K), out, inner)
            isaacs._outer_table(*pieces, 2.0, np.array([0, 2]), np.array([[5], [9]]), out,
                                inner)
            isaacs._outer_table(*pieces, 2.0, np.array([1]), np.arange(7)[None], out, inner)
        assert shapes and min(shape[-2] for shape in shapes) >= 2

    @pytest.mark.parametrize("values", [
        [np.nan, np.inf, -np.inf, 1.0, 0.0, 0.3],
        [1.5e308, -1.5e308, 1e308, 3e307, 1.0, 0.0]], ids=["non-finite", "overflow"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_rows_match_every_row(self, n, values, monkeypatch, rng):
        # an input with a NaN or an infinity, or whose Gram block overflows to
        # one, keeps every row, so its NaN (or not) are where the search over
        # every row puts them
        B = 200
        p = rng.choice(np.array(values), size=(B, n))
        M = rng.choice(np.array(values), size=(B, n, n))
        params = MarketParams(mu=np.zeros(n), sigma=np.linspace(1.0, 2.0, n), r=0.0, T=1.0)
        self.assert_same_bits(monkeypatch, np.zeros(B), p, M, params,
                              DirectionSet.for_dimension(n, 200), ms=(2.0,))

    def test_operators_batches_match_every_row(self, monkeypatch):
        params = MarketParams(mu=np.zeros(2), sigma=np.ones(2), r=0.1, T=1.0)
        self.assert_same_bits(monkeypatch, *operators_batch(19801, 40, 2), params,
                              DirectionSet.for_dimension(2), ms=(1.0, 10.0, 100.0, 1000.0))

    def test_surface_slices_match_every_row(self, monkeypatch):
        # every slice of a 2-D put surface, flat and near-flat regions
        # included, as the PDE and the greedy strategies feed the operator
        params = MarketParams(mu=np.array([0.02, -0.01]), sigma=np.array([0.3, 0.2]),
                              r=0.0, T=0.25)
        spec = GridSpec(lo=np.full(2, np.log(100.0) - 1.5), hi=np.full(2, np.log(100.0) + 1.5),
                        nx=(9, 9))
        put = BasketPut(weights=np.array([0.5, 0.5]), strike=100.0)
        grid = solve_terminal_value(put, params, SolverConfig(mode="limit_F"), spec)
        # fill's views are overwritten by the next fill, so each slice is copied
        stencil = pde._Stencil(spec.h, tuple(k - 2 for k in spec.nx))
        xi, p, M = (np.concatenate(a) for a in zip(*([x.copy() for x in stencil.fill(u)]
                                                      for u in grid.values)))
        self.assert_same_bits(monkeypatch, xi, p, M, params, DirectionSet.for_dimension(2),
                              ms=(2.0,))

    @pytest.mark.parametrize("count, n", [(722, 2), (1139, 2), (300, 3)])
    def test_any_rows_match_every_row(self, count, n, monkeypatch, rng):
        """The exact-row helper gives each (input, row) the entries of the
        call over every row: in row sets of one row (padded to two), of a
        few rows and of every row, in the sets ``_row_sets`` makes, and in
        slices that a small block cap cuts, a lone last row among them."""
        B = 5
        xi, p, M = operators_batch(7, B, n)
        dirs = DirectionSet.for_dimension(n, count)
        pieces = isaacs._phi_pieces(p, M, params_nd(n), dirs.dirs, 1.0)
        K = count + 2
        want = np.empty((B, K, 2))
        want_inner = np.empty((B, K, 2), dtype=np.intp)
        isaacs._outer_table(*pieces, 10.0, None, np.arange(K), want, want_inner)
        keep = rng.random((B, K)) < 0.1
        keep[2] = True
        cases = [(np.array([0]), np.array([[K - 1]])),
                 (np.array([1, 4]), np.array([[0, 3, 4], [7, 8, 9]])),
                 (np.array([2]), np.arange(K)[None]),
                 isaacs._row_sets(*np.nonzero(keep), B)]
        for cap in (isaacs._CHUNK_ELEMS, 3 * K):
            monkeypatch.setattr(isaacs, "_CHUNK_ELEMS", cap)
            for owner, rows in cases:
                got = np.full((B, K, 2), -np.inf)
                got_inner = np.full((B, K, 2), -1, dtype=np.intp)
                isaacs._outer_table(*pieces, 10.0, owner, rows, got, got_inner)
                mask = np.zeros((B, K), bool)
                mask[owner[:, None], rows] = True
                assert np.array_equal(bits(got[mask]), bits(want[mask])), cap
                assert np.array_equal(got_inner[mask], want_inner[mask]), cap
                assert np.all(got[~mask] == -np.inf)
                assert np.all(got_inner[~mask] == -1)

    def test_row_sets_cover_each_input_once(self, rng):
        # sets of the (upper) median count, padded by repeating the input's last row
        keep = rng.random((9, 50)) < np.linspace(0.0, 1.0, 9)[:, None]
        b, k = np.nonzero(keep)
        owner, rows = isaacs._row_sets(b, k, 9)
        for i in range(9):
            assert set(rows[owner == i].ravel()) == set(k[b == i])
        counts = np.sort(keep.sum(1)[keep.any(1)])
        assert rows.shape[1] == max(2, counts[counts.size // 2])

    def test_pruning_computes_few_rows(self, monkeypatch):
        """perfbench times the public operator only: this pins that the
        search still prunes, at under a tenth of the rows of every row (the
        seeds alone are 25 of 724)."""
        computed = []
        real = isaacs._outer_table

        def count_rows(D, QD, q, c, m, owner, rows, out, inner):
            computed.append(rows.size * (out.shape[0] if owner is None else 1))
            return real(D, QD, q, c, m, owner, rows, out, inner)

        monkeypatch.setattr(isaacs, "_outer_table", count_rows)
        params = MarketParams(mu=np.zeros(2), sigma=np.ones(2), r=0.1, T=1.0)
        dirs = DirectionSet.for_dimension(2)
        xi, p, M = operators_batch(19801, 40, 2)
        for m in (1.0, 10.0, 100.0, 1000.0):
            for side in self.SIDES:
                computed.clear()
                hm_values_batch(xi, p, M, m, params, dirs, side)
                assert 0 < sum(computed) <= 0.1 * 40 * 724, (m, side)

    @pytest.mark.parametrize("count", [2, 16, isaacs._FULL_BELOW - 1, isaacs._FULL_BELOW, 720])
    def test_seed_rule(self, count):
        """Small fans make every row a seed, so nothing is bounded or pruned;
        larger ones seed every _SEED_STRIDE-th fan direction and +-p/|p|."""
        seeds = isaacs._seeds(count, count + 2)
        if count < isaacs._FULL_BELOW:
            assert np.array_equal(seeds, np.arange(count + 2))
        else:
            assert np.array_equal(seeds[:-2], np.arange(0, count, isaacs._SEED_STRIDE))
            assert np.array_equal(seeds[-2:], [count, count + 1])


class TestBatchShapes:
    """A batch whose p, M, market and directions disagree on n is refused up front."""

    PARAMS_2D = params_nd(2)
    ONE_ROW_1D = batch(*inp_1d())

    def test_hm_values_batch(self):
        with pytest.raises(ValidationError, match="dimension 2"):
            hm_values_batch(*self.ONE_ROW_1D, 2.0, self.PARAMS_2D,
                            DirectionSet.for_dimension(2, 8), "plus")
        with pytest.raises(ValidationError, match="directions of dimension 1"):
            hm_values_batch(*batch(0.0, np.ones(2), np.eye(2)), 2.0, self.PARAMS_2D,
                            DIRS_1D, "minus")

    def test_greedy_controls_batch(self):
        with pytest.raises(ValidationError, match="dimension 2"):
            greedy_controls_batch(*self.ONE_ROW_1D, 2.0, self.PARAMS_2D,
                                  DirectionSet.for_dimension(2, 8), "minus")
        _, p, M = batch(0.0, np.ones(2), np.eye(2))  # two rows of p, one of M
        with pytest.raises(ValidationError, match=r"M \(1, 2, 2\)"):
            greedy_controls_batch(np.zeros(2), np.vstack([p, p]), M, 2.0, self.PARAMS_2D,
                                  DirectionSet.for_dimension(2, 8), "plus")

    def test_limit_values_batch(self):
        with pytest.raises(ValidationError, match="dimension 2"):
            limit_values_batch(*self.ONE_ROW_1D, self.PARAMS_2D, EPS)
        with pytest.raises(ValidationError, match="dimension 2"):
            limit_values_batch(np.zeros(1), np.ones(2), np.eye(2)[None], self.PARAMS_2D, EPS)

    # xi of a B = 3 batch that must be refused: one row (it used to broadcast),
    # a (3, 3) block (it used to give a (3, 3) result), five rows (it used to
    # raise a raw NumPy error) and a scalar
    BAD_XI = [np.zeros(1), np.zeros((3, 3)), np.zeros(5), 0.0]

    @pytest.mark.parametrize("xi", BAD_XI, ids=["1", "3x3", "5", "scalar"])
    @pytest.mark.parametrize("operator", ["hm", "greedy", "limit"])
    def test_xi_must_have_one_entry_per_row(self, operator, xi):
        p, M = np.ones((3, 2)), np.tile(np.eye(2), (3, 1, 1))
        dirs = DirectionSet.for_dimension(2, 8)
        call = {"hm": lambda x: hm_values_batch(x, p, M, 2.0, self.PARAMS_2D, dirs, "plus"),
                "greedy": lambda x: greedy_controls_batch(x, p, M, 2.0, self.PARAMS_2D, dirs,
                                                          "minus"),
                "limit": lambda x: limit_values_batch(x, p, M, self.PARAMS_2D, EPS)}[operator]
        with pytest.raises(ValidationError, match=r"xi \(.*\) does not match p \(3, 2\)"):
            call(xi)
        out = call(np.zeros(3))
        assert len(out[0] if operator == "greedy" else out) == 3


def same_floats(got, want) -> bool:
    """Equal shapes and floats, NaN where NaN, and equal sign bits (so -0.0 != 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def special_batch(rng, n, B):
    """(xi, p, M) with magnitudes over 16 decades, signed zeros, rows with
    p = 0 and with |p| below EPS, and, in a few rows, NaN and infinities."""
    p = rng.normal(size=(B, n)) * 10.0 ** rng.integers(-8, 8, size=(B, n))
    M = rng.normal(size=(B, n, n)) * 10.0 ** rng.integers(-8, 8, size=(B, n, n))
    M = M + M.transpose(0, 2, 1)
    xi = rng.normal(size=B)
    for arr in (p, M, xi):
        pick = rng.random(arr.shape)
        arr[pick < 0.15] = -0.0
        arr[(pick >= 0.15) & (pick < 0.3)] = 0.0
    p[: B // 4] = 0.0
    p[B // 4: B // 3] = 1e-12
    if B >= 12:
        p[-1, 0], M[-2, 0, 0], M[-3, -1, -1], p[-4, -1] = np.nan, np.inf, -np.inf, np.inf
    return xi, p, M


class TestColumnKernels:
    """The operators' kernels work column by column; these pin their floats
    to the whole-batch formulas (np.einsum, np.sum, np.trace) they replace."""

    def market(self, rng, n, mu_kind):
        mu = {"zero": np.zeros(n), "negzero": np.full(n, -0.0),
              "random": rng.normal(size=n) * 0.1}[mu_kind]
        return MarketParams(mu=mu, sigma=rng.uniform(0.05, 2.0, size=n), r=0.05, T=1.0)

    @pytest.mark.parametrize("mu_kind", ["zero", "negzero", "random"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_limit_matches_the_batch_formula(self, rng, n, mu_kind):
        for B in (0, 1, 2, 13, 400):
            params = self.market(rng, n, mu_kind)
            xi, p, M = special_batch(rng, n, B)
            for eps in (EPS, 1e-3):
                with np.errstate(all="ignore"):
                    got = limit_values_batch(xi, p, M, params, eps)
                    want = limit_batch_formula(xi, p, M, params.mu, params.sigma, params.r, eps)
                assert same_floats(got, want), (n, B, eps)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bounded_matches_the_batch_formula(self, rng, n, side):
        """The table search is unchanged; the value adds the constant term
        -trace(S^2 M)/2 - mu . p and then r xi, as before."""
        dirs = DirectionSet.for_dimension(n, 6)
        for mu_kind in ("zero", "negzero", "random"):
            params = self.market(rng, n, mu_kind)
            xi, p, M = special_batch(rng, n, 40)
            with np.errstate(all="ignore"):
                got = hm_values_batch(xi, p, M, 2.0, params, dirs, side)
                sign = 1.0 if side == "plus" else -1.0
                table = np.empty(len(xi))
                for rows, _, t, _ in isaacs._chunks(p, M, params, dirs, sign, 2.0):
                    table[rows] = sign * np.max(t, axis=(1, 2))
                want = (table + bounded_constant_formula(p, M, params.mu, params.sigma)
                        + params.r * xi)
            assert same_floats(got, want), mu_kind

    @pytest.mark.parametrize("n", [1, 2])
    def test_bounded_sign_of_zero_at_the_origin(self, n):
        """At p = 0, M = 0 and xi = 0, each with either sign of zero, side
        'plus' returns +0.0 and side 'minus' the sign of xi, for any r and a
        mu of +0.0, -0.0 or not zero (the values of the previous release)."""
        zeros = [(xi, pv, mv) for xi in (0.0, -0.0) for pv in (0.0, -0.0) for mv in (0.0, -0.0)]
        xi = np.array([z[0] for z in zeros])
        p = np.array([[z[1]] * n for z in zeros])
        M = np.array([np.full((n, n), z[2]) for z in zeros])
        dirs = DirectionSet.for_dimension(n, 8)
        for mu0 in (0.0, -0.0, 0.03):
            for r in (0.0, 0.05):
                params = MarketParams(mu=np.full(n, mu0), sigma=np.full(n, 0.7), r=r, T=1.0)
                for side in ("plus", "minus"):
                    got = hm_values_batch(xi, p, M, 2.0, params, dirs, side)
                    want_negative = np.signbit(xi) if side == "minus" else np.zeros(8, bool)
                    assert np.all(got == 0.0)
                    assert np.array_equal(np.signbit(got), want_negative), (mu0, r, side)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_public_operator_is_check_then_kernel(self, rng, n):
        params = self.market(rng, n, "random")
        xi, p, M = special_batch(rng, n, 30)
        with np.errstate(all="ignore"):
            assert same_floats(limit_values_batch(xi, p, M, params, EPS),
                               isaacs._Limit(params, EPS)(xi, p, M))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_row_sum_is_np_sum(self, rng, n):
        """0.0 + _row_sum is np.sum exactly, sign of zero included; without
        the 0.0 only a row of -0.0 differs (it sums to -0.0)."""
        for B in (1, 2, 7, 64, 1000):
            x = rng.normal(size=(B, n)) * 10.0 ** rng.integers(-8, 8, size=(B, n))
            pick = rng.random((B, n))
            x[pick < 0.4] = -0.0
            x[pick > 0.8] = 0.0
            x[0] = -0.0
            if B > 1:
                x[1, 0] = np.nan
            with np.errstate(all="ignore"):
                got = isaacs._row_sum(list(x.T))
                want = np.sum(x, axis=1)
            assert same_floats(0.0 + got, want)
            assert np.array_equal(got, want, equal_nan=True)


class TestDirectionCap:
    @pytest.mark.parametrize("count", [isaacs.MAX_DIRS + 1, 2**64])
    def test_refused_before_any_allocation(self, count):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"n_dirs must be <= {isaacs.MAX_DIRS}"):
                DirectionSet.for_dimension(2, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_one_dimension_still_ignores_the_count(self):
        assert DirectionSet.for_dimension(1, 2**64).count == 2


class TestScratchCount:
    @pytest.mark.parametrize("n, count, B, flat", [(1, None, 2 * 32768 + 1, 0.0),
                                                   (2, 4, 2 * 3640 + 1, 0.5),
                                                   (2, 720, 60, 0.8), (3, 130, 40, 0.5)])
    def test_batch_peak_stays_within_the_counted_scratch(self, n, count, B, flat):
        # the PDE's stack budget counts a bounded step's operator call as
        # _scratch_doubles; the call's (B,) arrays, 4 per input, come on top.
        # Three slices of the 1-D pair (B = 2 chunks + 1) peak at 0.97 of it
        dirs = DirectionSet.for_dimension(n, count)
        rng = np.random.default_rng(3)
        p = rng.standard_normal((B, n))
        M = rng.standard_normal((B, n, n))
        M += M.transpose(0, 2, 1)
        zero = rng.random(B) < flat
        p[zero], M[zero] = 0.0, 0.0
        xi = np.zeros(B)
        tracemalloc.start()
        try:
            hm_values_batch(xi, p, M, 2.0, params_nd(n), dirs, "minus")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (isaacs._scratch_doubles(dirs, B) + 4 * B)
