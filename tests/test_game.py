import math
import re

import numpy as np
import pytest

from evbet import game, kernels
from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.confseq import run_cs_batch
from evbet.domain import DiscreteDistribution, sample_stream
from evbet.evariables import bet_bounds, dominating_lambda
from evbet.errors import OutOfRange
from evbet.game import (
    WealthLedger,
    parse_strategy,
    recompute_log_wealth,
    run_game,
    run_games_batch,
    score_bets,
)


class TestPlayRound:
    """One- and two-round games through run_game."""

    def test_zero_bet_keeps_wealth(self):
        out = run_game(0.5, 0.05, ConstantStrategy(0.5, 0.0), [0.8])
        assert out.rows[-1].e_value == 1.0
        assert out.rows[-1].log_wealth == 0.0

    def test_boundary_win_doubles(self):
        out = run_game(0.5, 0.05, ConstantStrategy(0.5, 2.0), [1.0])
        assert out.rows[-1].e_value == 2.0
        assert out.rows[-1].log_wealth == pytest.approx(math.log(2.0))

    def test_boundary_wipeout_saturates(self):
        out = run_game(0.5, 0.05, ConstantStrategy(0.5, 2.0), [0.0])
        assert out.rows[-1].e_value == 0.0
        assert out.rows[-1].log_wealth == -math.inf
        out = run_game(0.5, 0.05, ConstantStrategy(0.5, 2.0), [0.0, 1.0])
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

        run_game(0.5, 0.05, Spy(), [0.3])
        assert calls == ["bet", ("observe", 0.3)]


def random_game(rng, mu, n):
    """Bets in I_mu, 1% of them at an endpoint, against half binary, half uniform data."""
    lo, hi = bet_bounds(mu)
    xs = np.where(rng.random(n) < 0.5, rng.integers(0, 2, n), rng.uniform(0.0, 1.0, n))
    bets = rng.uniform(lo, hi, n)
    ends = rng.random(n) < 0.01
    bets[ends] = rng.choice([lo, hi], ends.sum())
    return bets, xs


class TestScoreBets:
    def test_equals_round_loop_on_random_bets(self, loop_game, replay):
        seen = {"zero": 0, "rejected": 0, "rejected then zero": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mu = (0.5, 0.25, 0.1, 0.37)[seed % 4]
            bets, xs = random_game(rng, mu, 300)
            ledger = score_bets(mu, 0.05, bets, xs)
            rows, rejected_at = loop_game(mu, 0.05, replay(bets), xs)
            assert ledger.rows == rows
            assert ledger.rejected_at == rejected_at
            assert recompute_log_wealth(ledger.e_value) == list(ledger.log_wealth)
            zero = 0.0 in ledger.e_value
            seen["zero"] += zero
            seen["rejected"] += rejected_at is not None
            seen["rejected then zero"] += zero and rejected_at is not None
        assert all(seen.values()), seen

    def test_run_game_equals_round_loop(self, loop_game, rng):
        xs = rng.uniform(0.0, 1.0, 500)
        for make in (
            lambda: UniversalPortfolioStrategy(0.3, 51),
            lambda: ConstantStrategy(0.3, 1.2),
        ):
            ledger = run_game(0.3, 0.05, make(), xs)
            assert (ledger.rows, ledger.rejected_at) == loop_game(0.3, 0.05, make(), xs)

    def test_threshold_needs_strict_crossing(self, loop_game, replay):
        # Two wins of e=2 put the wealth at exactly log 4 = log(1/0.25); the third crosses.
        bets, xs = [2.0] * 4, [1.0] * 4
        ledger = score_bets(0.5, 0.25, bets, xs)
        assert ledger.log_wealth[1] == ledger.threshold
        assert ledger.rejected_at == 3
        assert (ledger.rows, ledger.rejected_at) == loop_game(0.5, 0.25, replay(bets), xs)

    def test_minus_inf_after_zero_e_value(self):
        ledger = score_bets(0.5, 0.05, [1.0, 2.0, 0.5, -2.0], [1.0, 0.0, 1.0, 0.0])
        assert ledger.e_value == (1.5, 0.0, 1.25, 2.0)
        assert ledger.log_wealth == (math.log(1.5), -math.inf, -math.inf, -math.inf)
        assert ledger.rejected_at is None

    @pytest.mark.parametrize(
        "bets, xs",
        [
            ([0.0, 2.0 + 1e-12, 0.0], [0.5, 0.5, 0.5]),  # bet above 1/mu
            ([0.0, -2.5, 0.0], [0.5, 0.5, 0.5]),  # bet below 1/(mu - 1)
            ([0.0, math.nan], [0.5, 0.5]),
            ([0.0, 0.0, 0.0], [0.5, 1.5, 0.5]),  # observation above 1
            ([0.0, 3.0], [0.5, -0.1]),  # both bad in one round: the observation first
            ([0.0, 3.0, 0.0], [0.5, 0.5, math.nan]),  # the earlier round first
        ],
    )
    def test_raises_as_round_loop(self, loop_game, replay, bets, xs):
        with pytest.raises((OutOfRange, ValueError)) as expected:
            loop_game(0.5, 0.05, replay(bets), xs)
        with pytest.raises(expected.type, match="^" + re.escape(str(expected.value)) + "$"):
            score_bets(0.5, 0.05, bets, xs)
        with pytest.raises(expected.type, match="^" + re.escape(str(expected.value)) + "$"):
            run_game(0.5, 0.05, replay(bets), xs)

    def test_empty_game(self):
        ledger = score_bets(0.5, 0.05, [], [])
        assert ledger == WealthLedger(mu=0.5, delta=0.05)
        assert ledger.rows == () and ledger.final_log_wealth == 0.0


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

    @pytest.mark.parametrize("strategy", ["constant:0.5", "up:11"])
    def test_zero_rounds_give_empty_results(self, strategy):
        # As run_game, whose ledger of no rounds is empty.
        res = run_games_batch(np.array([0.3, 0.6]), np.empty((2, 0)), strategy, 0.05)
        assert res.bets.shape == res.log_wealth.shape == (2, 0)
        assert res.rejected_at.tolist() == [0, 0]
        cs = run_cs_batch([0.3], [], strategy, 0.05)
        assert cs.in_set.shape == (0, 1)
        assert cs.intervals() == []

    @pytest.mark.parametrize("strategy", ["up:11", "constant:0.5"])
    @pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-stream"])
    def test_each_batch_is_checked_once(self, monkeypatch, strategy, shared):
        # The UP branch leaves its checks to the kernels' one boundary, which
        # the game must still call through kernels.up_game_batch.
        calls = {"check_batch": 0, "check_observations": 0, "up_game_batch": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (game, kernels):
            counted(module, "check_batch")
            counted(module, "check_observations")
        counted(kernels, "up_game_batch")
        xs = np.linspace(0.0, 1.0, 12)
        xs = np.broadcast_to(xs, (3, 12)) if shared else np.tile(xs, (3, 1))
        run_games_batch(np.array([0.3, 0.5, 0.7]), xs, strategy, 0.05)
        up = strategy.startswith("up")
        assert calls == {"check_batch": 1, "check_observations": 1, "up_game_batch": int(up)}

    def test_wipeout_propagates_minus_inf(self):
        xs = np.array([[0.0, 1.0, 1.0]])
        res = run_games_batch(np.array([0.5]), xs, "constant:2.0", 0.05)
        assert (res.log_wealth[0] == -np.inf).all()
        assert res.rejected_at[0] == 0


class TestParseStrategy:
    def test_literals(self):
        assert parse_strategy("constant:0.5") == ("constant", 0.5)
        assert parse_strategy("up:51") == ("up", 51)
        assert parse_strategy("up") == ("up", 1001)

    def test_bad_literals(self):
        for lit in ("up:x", "constant:", "kelly:1", "up:2"):
            with pytest.raises(ValueError):
                parse_strategy(lit)
        with pytest.raises(OutOfRange):
            run_games_batch(np.array([0.5]), np.full((1, 3), 0.5), "constant:2.1", 0.05)
