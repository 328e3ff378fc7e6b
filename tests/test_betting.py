import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbet.betting import (
    ConstantStrategy,
    PortfolioPosterior,
    UniversalPortfolioStrategy,
    lambda_grid,
    quadrature_coefficients,
    up_bet,
    up_update,
)
from evbet.errors import DegeneratePosterior, OutOfRange
from evbet.evariables import bet_bounds


class TestUpUpdate:
    def test_observation_at_mean_is_neutral(self):
        p = PortfolioPosterior.uniform(0.5, 101)
        p2 = up_update(p, 0.5, 0.5)
        assert (p2.log_weights == p.log_weights).all()

    def test_single_step_weights(self):
        p = PortfolioPosterior.uniform(0.5, 101)
        p2 = up_update(p, 1.0, 0.5)
        with np.errstate(divide="ignore"):
            expected = np.log(1.0 + p.lambda_grid * 0.5)
        assert np.allclose(p2.log_weights, expected, atol=1e-15)

    def test_two_step_product(self):
        p = PortfolioPosterior.uniform(0.5, 101)
        p2 = up_update(up_update(p, 0.0, 0.5), 1.0, 0.5)
        with np.errstate(divide="ignore"):
            expected = np.log((1.0 - p.lambda_grid * 0.5) * (1.0 + p.lambda_grid * 0.5))
        assert np.allclose(p2.log_weights, expected, atol=1e-12, equal_nan=False)

    def test_boundary_node_killed(self):
        p = PortfolioPosterior.uniform(0.5, 101)
        p2 = up_update(p, 0.0, 0.5)
        assert p2.log_weights[-1] == -np.inf  # lambda = 1/mu dies on x=0
        assert np.isfinite(p2.log_weights[:-1]).all()


class TestUpBet:
    def test_prior_mean_zero_for_symmetric_interval(self):
        assert up_bet(PortfolioPosterior.uniform(0.5, 1001)) == pytest.approx(0.0, abs=1e-12)

    def test_posterior_mean_after_one(self):
        # Closed form: int lam*(1+lam/2) / int (1+lam/2) over [-2,2] = (8/3)/4.
        p = up_update(PortfolioPosterior.uniform(0.5, 1001), 1.0, 0.5)
        assert up_bet(p) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_posterior_mean_after_zero(self):
        p = up_update(PortfolioPosterior.uniform(0.5, 1001), 0.0, 0.5)
        assert up_bet(p) == pytest.approx(-2.0 / 3.0, abs=1e-6)

    def test_quadrature_matches_cubic_moments(self):
        # Degree-3 oracle: after x=1 then x=1 at mu=0.5 the posterior density
        # is (1+lam/2)^2; its mean is a ratio of polynomial integrals of
        # degree <= 3, all computed in closed form below.
        p = PortfolioPosterior.uniform(0.5, 1001)
        p = up_update(up_update(p, 1.0, 0.5), 1.0, 0.5)
        # num = int lam + lam^2 + lam^3/4 = 16/3; den = int 1 + lam + lam^2/4 = 16/3
        assert up_bet(p) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_posterior_raises(self):
        p = PortfolioPosterior.uniform(0.5, 3)  # nodes -2, 0, 2
        p = up_update(p, 0.0, 0.5)  # kills +2
        p = up_update(p, 1.0, 0.5)  # kills -2
        p = PortfolioPosterior(p.lambda_grid, np.array([-np.inf, -np.inf, -np.inf]))
        with pytest.raises(DegeneratePosterior):
            up_bet(p)

    def test_permutation_invariance(self, rng):
        xs = rng.uniform(0, 1, size=6)
        mu = 0.37
        p1 = PortfolioPosterior.uniform(mu, 301)
        p2 = PortfolioPosterior.uniform(mu, 301)
        for x in xs:
            p1 = up_update(p1, float(x), mu)
        for x in reversed(xs):
            p2 = up_update(p2, float(x), mu)
        assert up_bet(p1) == pytest.approx(up_bet(p2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(0.1, 0.9),
        data=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=30),
    )
    def test_bets_stay_in_interval(self, mu, data):
        strat = UniversalPortfolioStrategy(mu, 101)
        lo, hi = bet_bounds(mu)
        for x in data:
            lam = strat.bet()
            assert lo - 1e-12 <= lam <= hi + 1e-12
            strat.observe(x)


class TestConstant:
    def test_identity(self):
        assert ConstantStrategy(0.5, 0.0).bet() == 0.0

    def test_boundary_allowed(self):
        assert ConstantStrategy(0.5, 2.0).bet() == 2.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ConstantStrategy(0.5, 2.1)

    def test_strategy_fresh_clone(self):
        s = ConstantStrategy(0.5, 1.0)
        assert s.fresh().bet() == 1.0


class TestQuadrature:
    def test_simpson_pattern_odd(self):
        assert list(quadrature_coefficients(5)) == [1.0, 4.0, 2.0, 4.0, 1.0]

    def test_trapezoid_for_even(self):
        assert list(quadrature_coefficients(4)) == [0.5, 1.0, 1.0, 0.5]

    def test_grid_spans_interval(self):
        grid = lambda_grid(0.25, 11)
        lo, hi = bet_bounds(0.25)
        assert grid[0] == lo and grid[-1] == hi
