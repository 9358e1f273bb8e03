from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tugpricer import (BasketPut, CertificationError, MarketParams,
                       TabulatedPayoff, ValidationError, certify_payoff,
                       constant_payoff, constant_running_cost, read_payoff_table,
                       write_payoff_table)
from tugpricer.market import _halton


class TestBasketPutFunction:
    """``BasketPut`` called on one point: max(strike - sum w exp(x), 0)."""

    HALVES = BasketPut(weights=np.array([0.5, 0.5]), strike=100.0)

    def test_at_the_money_index(self):
        x = np.array([math.log(100.0), math.log(100.0)])
        assert self.HALVES(x) == 0.0

    def test_in_the_money(self):
        x = np.array([math.log(20.0), math.log(60.0)])
        assert self.HALVES(x) == pytest.approx(60.0, abs=1e-12)

    def test_deep_in_the_money(self):
        x = np.array([-50.0, -50.0])
        val = self.HALVES(x)
        assert abs(val - 100.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            self.HALVES(np.array([0.0, 0.0, 0.0]))

    def test_batch_call_is_values(self):
        x = np.log([[20.0, 60.0], [100.0, 100.0], [1.0, 3.0]])
        assert self.HALVES(x).tobytes() == self.HALVES.values(x).tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 2, 2)])
    def test_batch_of_another_shape_is_refused(self, shape):
        with pytest.raises(ValidationError, match=r"^payoff expects points of shape \(B, 2\)$"):
            self.HALVES(np.zeros(shape))

    @given(st.lists(st.floats(-5, 8), min_size=1, max_size=3),
           st.integers(0, 2), st.floats(1e-3, 2.0))
    def test_monotone_and_bounded(self, xs, axis, delta):
        x = np.array(xs)
        put = BasketPut(weights=np.full(x.size, 1.0 / x.size), strike=100.0)
        base = put(x)
        assert 0.0 <= base <= 100.0
        bumped = x.copy()
        bumped[axis % x.size] += delta
        assert put(bumped) <= base + 1e-12


class TestBasketPutPayoff:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            BasketPut(weights=np.array([0.9]), strike=100.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            BasketPut(weights=np.array([1.5, -0.5]), strike=100.0)

    @pytest.mark.parametrize("field, value, message", [
        ("strike", 0.0, "strike must be finite and > 0"),
        ("strike", np.inf, "strike must be finite and > 0"),
        ("lipschitz_bound", -1.0, "lipschitz_bound must be finite and >= 0"),
        ("lipschitz_bound", np.nan, "lipschitz_bound must be finite and >= 0"),
        ("sup_bound", np.inf, "sup_bound must be finite and >= 0")])
    def test_refused_fields(self, field, value, message):
        kwargs = {"weights": np.array([1.0]), "strike": 100.0, field: value}
        with pytest.raises(ValidationError, match=f"^{message}$"):
            BasketPut(**kwargs)

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

    @pytest.mark.parametrize("mu, sigma, message", [
        ([[0.0]], [0.2], "mu must be a 1-D vector"),
        ([0.0], [0.2, 0.2], "sigma must have length 1, got 2"),
        ([np.nan], [0.2], "mu must be finite"),
        ([0.0], [np.inf], "sigma must be finite")])
    def test_refused_vectors(self, mu, sigma, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            MarketParams(mu=np.array(mu), sigma=np.array(sigma), r=0.0, T=1.0)

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

    @pytest.mark.parametrize("height, bound, match", [
        (1.0, {"lipschitz_bound": 0.5}, "exceeds declared Lipschitz bound 0.5 "),
        (5.0, {"sup_bound": 1.0}, r"observed \|g\| = 5 exceeds declared sup bound 1 ")],
        ids=["lipschitz", "sup"])
    def test_understated_bound_fails(self, height, bound, match):
        xs = np.linspace(-2.0, 2.0, 401)
        table = height * np.maximum(1.0 - np.abs(xs), 0.0)
        pay = TabulatedPayoff(axes=(xs,), table=table, **bound)
        with pytest.raises(CertificationError, match=match):
            certify_payoff(pay, (np.array([-2.0]), np.array([2.0])), 4096)

    @pytest.mark.parametrize("region, samples, message", [
        (([1.0], [0.0]), 16, "certification region must satisfy lo < hi per axis"),
        (([0.0], [0.0]), 16, "certification region must satisfy lo < hi per axis"),
        (([0.0], [1.0]), 1, "samples must be >= 2")])
    def test_refused_region_and_samples(self, region, samples, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            certify_payoff(constant_payoff(1.0, 1), tuple(map(np.array, region)), samples)


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

    @pytest.mark.parametrize("axes, table, message", [
        ([[0.0]], [1.0], r"axes\[0\] must be 1-D with at least 2 points"),
        ([[0.0, 1.0], [0.0, 0.5, 0.5]], np.zeros((2, 3)),
         r"axes\[1\] must be strictly increasing"),
        ([[0.0, 1.0]], [1.0, 2.0, 3.0], r"table shape \(3,\) does not match axes \(2,\)"),
        ([[0.0, 1.0]], [1.0, np.nan], "table values must be finite")])
    def test_refused_tables(self, axes, table, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TabulatedPayoff(axes=tuple(map(np.array, axes)), table=np.array(table))

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
        pay = TabulatedPayoff(*read_payoff_table(path), sup_bound=10.0, lipschitz_bound=10.0)
        assert pay(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_payoff_table(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty payoff table"),
        ("x_1,g\n0,a\n", "non-numeric cell"),
        ("x_1,g\n0,1,2\n1,2,3\n", "rows must have 2 columns"),
        ("x_1,g\n0,1\n1\n", "rows must have 2 columns; data row 2 has 1$"),
        ("x_1,g\n", "rows must have 2 columns"),
        ("x_1,x_2,g\n0,0,1\n0,1,1\n1,0,1\n", r"rows do not form a full \(2, 2\) grid")],
        ids=["empty", "non_numeric", "wide_rows", "ragged_rows", "no_rows", "incomplete_grid"])
    def test_malformed_file_is_refused(self, tmp_path, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}"):
            read_payoff_table(path)

    def test_wrong_row_order_rejected(self, tmp_path):
        path = tmp_path / "scrambled.csv"
        path.write_text("x_1,g\n1,1\n0,0\n")
        with pytest.raises(ValidationError):
            read_payoff_table(path)
