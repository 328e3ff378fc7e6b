import math

import numpy as np
import pytest

from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.domain import DiscreteDistribution, sample_stream
from evbet.evariables import dominating_lambda
from evbet.game import (
    WealthLedger,
    play_round,
    recompute_log_wealth,
    run_game,
    run_games_batch,
)


class TestPlayRound:
    def test_zero_bet_keeps_wealth(self):
        ledger = WealthLedger(mu=0.5, delta=0.05)
        out = play_round(ledger, ConstantStrategy(0.5, 0.0), 0.8)
        assert out.rows[-1].e_value == 1.0
        assert out.rows[-1].log_wealth == 0.0

    def test_boundary_win_doubles(self):
        ledger = WealthLedger(mu=0.5, delta=0.05)
        out = play_round(ledger, ConstantStrategy(0.5, 2.0), 1.0)
        assert out.rows[-1].e_value == 2.0
        assert out.rows[-1].log_wealth == pytest.approx(math.log(2.0))

    def test_boundary_wipeout_saturates(self):
        ledger = WealthLedger(mu=0.5, delta=0.05)
        out = play_round(ledger, ConstantStrategy(0.5, 2.0), 0.0)
        assert out.rows[-1].e_value == 0.0
        assert out.rows[-1].log_wealth == -math.inf
        out = play_round(out, ConstantStrategy(0.5, 2.0), 1.0)
        assert out.rows[-1].log_wealth == -math.inf
        assert out.rejected_at is None

    def test_strategy_queried_before_observation(self):
        calls = []

        class Spy:
            def bet(self):
                calls.append("bet")
                return 0.0

            def observe(self, x):
                calls.append(("observe", x))

        play_round(WealthLedger(mu=0.5, delta=0.05), Spy(), 0.3)
        assert calls == ["bet", ("observe", 0.3)]


class TestRunGame:
    def test_zero_strategy_never_rejects(self):
        xs = sample_stream(DiscreteDistribution.bernoulli(0.9), 200, 3)
        ledger = run_game(0.5, 0.05, ConstantStrategy(0.5, 0.0), xs)
        assert ledger.rejected_at is None
        assert ledger.final_log_wealth == 0.0

    def test_max_bet_on_sure_ones_rejects_at_two(self):
        # R_n = n*log(10); log(1/0.05) ~ 2.9957 sits between log10 and 2log10.
        ledger = run_game(0.1, 0.05, ConstantStrategy(0.1, 10.0), [1.0] * 5)
        assert ledger.rejected_at == 2
        assert ledger.final_log_wealth == pytest.approx(5 * math.log(10.0))

    def test_rejection_needs_strict_crossing(self):
        # One boundary win at delta=0.5 puts wealth exactly at the threshold;
        # only a strict crossing rejects.
        ledger = run_game(0.5, 0.5, ConstantStrategy(0.5, 2.0), [1.0])
        assert ledger.rows[-1].log_wealth == pytest.approx(ledger.threshold, abs=1e-15)
        assert ledger.rejected_at is None

    def test_ledger_recompute_bit_for_bit(self, rng):
        xs = rng.uniform(0, 1, size=10_000)
        strat = UniversalPortfolioStrategy(0.4, 51)
        ledger = run_game(0.4, 0.05, strat, xs)
        recomputed = recompute_log_wealth(r.e_value for r in ledger.rows)
        assert recomputed == [r.log_wealth for r in ledger.rows]

    def test_pathwise_dominance_transfer(self, rng):
        # Any Hoeffding alpha-trace is beaten round by round by its coin-bet shadow.
        mu = 0.35
        xs = rng.uniform(0, 1, size=300)
        alphas = rng.uniform(-4, 4, size=300)
        log_h = np.cumsum(alphas * (xs - mu) - alphas**2 / 8.0)
        lams = np.array([dominating_lambda(mu, a) for a in alphas])
        log_cb = np.cumsum(np.log1p(lams * (xs - mu)))
        assert (log_cb >= log_h - 1e-12).all()

    def test_ville_monte_carlo_small(self):
        # Under the true mean, ever-rejection stays near delta (loose MC bound).
        reps, horizon, delta = 300, 150, 0.1
        rejected = 0
        for i in range(reps):
            xs = sample_stream(DiscreteDistribution.bernoulli(0.5), horizon, 1000 + i)
            res = run_games_batch(np.array([0.5]), xs[None, :], "up:101", delta)
            rejected += int(res.rejected_at[0] > 0)
        slack = 3 * math.sqrt(delta * (1 - delta) / reps)
        assert rejected / reps <= delta + slack


class TestBatch:
    def test_matches_object_api_universal_portfolio(self):
        xs = sample_stream(DiscreteDistribution.bernoulli(0.4), 120, 11)
        ledger = run_game(0.5, 0.05, UniversalPortfolioStrategy(0.5, 101), xs)
        res = run_games_batch(np.array([0.5]), xs[None, :], "up:101", 0.05)
        assert np.allclose(res.log_wealth[0], ledger.log_wealth_series(), atol=1e-9)
        assert np.allclose(res.bets[0], [r.lam for r in ledger.rows], atol=1e-9)

    def test_matches_object_api_constant(self):
        xs = sample_stream(DiscreteDistribution.uniform_grid(5), 80, 2)
        ledger = run_game(0.3, 0.05, ConstantStrategy(0.3, 1.5), xs)
        res = run_games_batch(np.array([0.3]), xs[None, :], "constant:1.5", 0.05)
        assert np.allclose(res.log_wealth[0], ledger.log_wealth_series(), atol=1e-12)
        assert res.rejected_at[0] == (ledger.rejected_at or 0)

    @pytest.mark.parametrize("strategy", ["constant:0.5", "up:11"])
    def test_nan_observation_rejected(self, strategy):
        xs = np.array([[0.0, np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            run_games_batch(np.array([0.5]), xs, strategy, 0.05)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            run_games_batch(np.array([0.5]), np.zeros((1, 3)), "up:11", delta)

    def test_wipeout_propagates_minus_inf(self):
        xs = np.array([[0.0, 1.0, 1.0]])
        res = run_games_batch(np.array([0.5]), xs, "constant:2.0", 0.05)
        assert (res.log_wealth[0] == -np.inf).all()
        assert res.rejected_at[0] == 0
