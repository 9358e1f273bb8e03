from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tugpricer import (BasketPut, CertificationError, MarketParams,
                       TabulatedPayoff, ValidationError, certify_payoff,
                       constant_payoff, constant_running_cost,
                       payoff_basket_put, read_payoff_table,
                       tabulated_payoff_from_csv, write_payoff_table)
from tugpricer.market import _halton


class TestBasketPutFunction:
    def test_at_the_money_index(self):
        x = np.array([math.log(100.0), math.log(100.0)])
        assert payoff_basket_put(x, np.array([0.5, 0.5]), 100.0) == 0.0

    def test_in_the_money(self):
        x = np.array([math.log(20.0), math.log(60.0)])
        assert payoff_basket_put(x, np.array([0.5, 0.5]), 100.0) == pytest.approx(60.0, abs=1e-12)

    def test_deep_in_the_money(self):
        x = np.array([-50.0, -50.0])
        val = payoff_basket_put(x, np.array([0.5, 0.5]), 100.0)
        assert abs(val - 100.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            payoff_basket_put(np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.5]), 100.0)

    @given(st.lists(st.floats(-5, 8), min_size=1, max_size=3),
           st.integers(0, 2), st.floats(1e-3, 2.0))
    def test_monotone_and_bounded(self, xs, axis, delta):
        x = np.array(xs)
        w = np.full(x.size, 1.0 / x.size)
        base = payoff_basket_put(x, w, 100.0)
        assert 0.0 <= base <= 100.0
        bumped = x.copy()
        bumped[axis % x.size] += delta
        assert payoff_basket_put(bumped, w, 100.0) <= base + 1e-12


class TestBasketPutPayoff:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            BasketPut(weights=np.array([0.9]), strike=100.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            BasketPut(weights=np.array([1.5, -0.5]), strike=100.0)

    def test_default_bounds_are_strike(self):
        put = BasketPut(weights=np.array([1.0]), strike=80.0)
        assert put.sup_bound == 80.0
        assert put.lipschitz_bound == 80.0

    def test_center_is_log_strike(self):
        put = BasketPut(weights=np.array([0.5, 0.5]), strike=100.0)
        assert np.allclose(put.center(), math.log(100.0))

    def test_batch_and_scalar_agree(self):
        put = BasketPut(weights=np.array([1.0]), strike=100.0)
        pts = np.linspace(3.0, 6.0, 7)[:, None]
        batch = put.values(pts)
        singles = [put(p) for p in pts]
        assert np.allclose(batch, singles)


class TestMarketParams:
    def test_zero_sigma_rejected(self):
        with pytest.raises(ValidationError):
            MarketParams(mu=np.array([0.0]), sigma=np.array([0.0]), r=0.0, T=1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]), r=-0.1, T=1.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValidationError):
            MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]), r=0.0, T=0.0)

    def test_dimension_from_sigma(self):
        p = MarketParams(mu=np.zeros(3), sigma=np.ones(3), r=0.0, T=2.0)
        assert p.n == 3


class TestRunningCost:
    def test_constant_cost_value(self):
        rc = constant_running_cost(-1.0)
        assert rc(np.zeros((4, 2)), 0.3).shape == (4,)
        assert np.all(rc(np.zeros((4, 2)), 0.3) == -1.0)
        assert rc.alpha == pytest.approx(1.0)

    def test_nonnegative_cost_rejected(self):
        with pytest.raises(ValidationError):
            constant_running_cost(0.0)

    def test_alpha_must_bound_h(self):
        with pytest.raises(ValidationError):
            constant_running_cost(-0.5, alpha=1.0)

    @pytest.mark.parametrize("alpha", [None, 1.0])
    def test_cost_must_be_negative(self, alpha):
        with pytest.raises(ValidationError, match="^value must be < 0"):
            constant_running_cost(0.5, alpha=alpha)


class TestCertification:
    def test_constant_payoff_certificate(self):
        pay = constant_payoff(5.0, 1)
        cert = certify_payoff(pay, (np.array([-2.0]), np.array([2.0])), 512)
        assert cert.observed_sup == pytest.approx(5.0)
        assert cert.observed_lipschitz == pytest.approx(0.0, abs=1e-9)

    def test_basket_put_within_declared_bounds(self):
        pay = BasketPut(weights=np.array([1.0]), strike=100.0)
        cert = certify_payoff(pay, (np.array([0.0]), np.array([6.0])), 10000)
        assert cert.observed_sup <= 100.0
        assert cert.observed_lipschitz <= 100.0

    def test_understated_lipschitz_bound_fails(self):
        xs = np.linspace(-2.0, 2.0, 401)
        table = np.maximum(1.0 - np.abs(xs), 0.0)
        pay = TabulatedPayoff(axes=(xs,), table=table, lipschitz_bound=0.5)
        with pytest.raises(CertificationError):
            certify_payoff(pay, (np.array([-2.0]), np.array([2.0])), 4096)


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_scipy_bitwise(self, d):
        from scipy.stats import qmc

        for count in (1, 2, 4096, 100003):
            ref = qmc.Halton(d=d, scramble=False).random(count)
            assert _halton(d, count).tobytes() == ref.tobytes(), (d, count)


class TestTabulatedPayoff:
    def test_matches_table_nodes(self):
        xs = np.linspace(-1.0, 1.0, 11)
        table = np.abs(xs)
        pay = TabulatedPayoff(axes=(xs,), table=table)
        assert pay(np.array([xs[3]])) == pytest.approx(abs(xs[3]))

    def test_flat_extrapolation(self):
        xs = np.linspace(-1.0, 1.0, 11)
        pay = TabulatedPayoff(axes=(xs,), table=xs + 1.0)
        assert pay(np.array([5.0])) == pytest.approx(2.0)
        assert pay(np.array([-5.0])) == pytest.approx(0.0)

    def test_constant_payoff_properties(self):
        pay = constant_payoff(3.0, 2)
        assert pay.lipschitz_bound == 0.0
        assert pay.sup_bound == 3.0
        assert pay(np.array([0.7, -0.2])) == pytest.approx(3.0)

    def test_constant_payoff_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="^value must be >= 0"):
            constant_payoff(-1.0, 2)
        assert constant_payoff(0.0, 1).sup_bound == 0.0


class TestPayoffTableCsv:
    def test_round_trip(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 5)
        ys = np.linspace(-1.0, 1.0, 3)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        table = X + 2.0 * Y
        path = tmp_path / "payoff.csv"
        write_payoff_table(path, (xs, ys), table)
        axes, back = read_payoff_table(path)
        assert np.allclose(axes[0], xs)
        assert np.allclose(axes[1], ys)
        assert np.allclose(back, table)
        pay = tabulated_payoff_from_csv(path, sup_bound=10.0, lipschitz_bound=10.0)
        assert pay(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_payoff_table(path)

    def test_wrong_row_order_rejected(self, tmp_path):
        path = tmp_path / "scrambled.csv"
        path.write_text("x_1,g\n1,1\n0,0\n")
        with pytest.raises(ValidationError):
            read_payoff_table(path)
