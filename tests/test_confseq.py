import math

import numpy as np
import pytest

from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.confseq import CsResult, default_mu_grid, run_cs_batch
from evbet.domain import DiscreteDistribution, replicate_seed, sample_stream
from evbet.evariables import dominating_lambda

# --- the reference: one strategy object per candidate, one round at a time ---


class ConfidenceState:
    """Per-candidate games sharing one data stream: the reference for ``run_cs_batch``.

    Strategies are cloned fresh per grid point; each observation advances all
    games by one round through the strategies' ``bet``/``observe``, with no
    batch kernel.
    """

    def __init__(self, mu_grid, strategy_factory, delta: float, running_intersect: bool = False):
        self.mu_grid = np.asarray(mu_grid, dtype=float)
        if self.mu_grid.ndim != 1 or not ((self.mu_grid > 0) & (self.mu_grid < 1)).all():
            raise ValueError("mu grid must be a 1-d array inside (0, 1)")
        self.delta = float(delta)
        self.running_intersect = running_intersect
        self.strategies = [strategy_factory(mu) for mu in self.mu_grid]
        self.threshold = math.log(1.0 / delta)
        self.log_wealth: list[np.ndarray] = []  # one (M,) row per round
        self._wealth = np.zeros(len(self.mu_grid))
        self._ever_out = np.zeros(len(self.mu_grid), dtype=bool)
        self._ever_out_rows: list[np.ndarray] = []

    @property
    def rounds(self) -> int:
        return len(self.log_wealth)

    def in_set(self, n: int) -> np.ndarray:
        """Membership mask of the confidence set after round ``n``."""
        if n == 0:
            return np.ones(len(self.mu_grid), dtype=bool)
        if self.running_intersect:
            return ~self._ever_out_rows[n - 1]
        return self.log_wealth[n - 1] <= self.threshold


def cs_update(state: ConfidenceState, x: float) -> ConfidenceState:
    """Advance every per-candidate game by one observation."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    lams = np.array([s.bet() for s in state.strategies])
    payoffs = np.maximum(1.0 + lams * (x - state.mu_grid), 0.0)
    with np.errstate(divide="ignore"):
        state._wealth = state._wealth + np.log(payoffs)
    for s in state.strategies:
        s.observe(x)
    state.log_wealth.append(state._wealth.copy())
    state._ever_out |= state._wealth > state.threshold
    state._ever_out_rows.append(state._ever_out.copy())
    return state


def cs_interval(state: ConfidenceState, n: int) -> tuple[float, float, int]:
    """Interval hull and size of the confidence set after round ``n``."""
    if n > state.rounds:
        raise ValueError(f"round {n} not played yet (have {state.rounds})")
    mask = state.in_set(n)
    alive = int(mask.sum())
    if alive == 0:
        return math.nan, math.nan, 0
    pts = state.mu_grid[mask]
    return float(pts.min()), float(pts.max()), alive


def small_state(running_intersect=False, grid=9, nodes=51):
    return ConfidenceState(
        default_mu_grid(grid),
        lambda mu: UniversalPortfolioStrategy(mu, nodes),
        delta=0.05,
        running_intersect=running_intersect,
    )


class TestGrid:
    def test_default_grid_is_open_and_equispaced(self):
        grid = default_mu_grid(99)
        assert len(grid) == 99
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)
        assert np.allclose(np.diff(grid), 0.01)


class TestCsUpdate:
    def test_zero_strategy_keeps_full_grid(self):
        state = ConfidenceState(
            default_mu_grid(9), lambda mu: ConstantStrategy(mu, 0.0), delta=0.05
        )
        xs = (0.0, 1.0, 0.3, 0.9)
        for x in xs:
            cs_update(state, x)
        result = run_cs_batch(default_mu_grid(9), xs, "constant:0.0", 0.05)
        for lower, upper, alive in (cs_interval(state, 4), result.interval(4)):
            assert alive == 9
            assert (lower, upper) == (pytest.approx(0.1), pytest.approx(0.9))

    def test_sure_ones_reject_small_means_first(self):
        grid = default_mu_grid(99)
        xs = np.ones(60)
        result = run_cs_batch(grid, xs, "up:101", 0.05)
        rejected = result.games.rejected_at
        hit = rejected > 0
        assert hit.any() and grid[hit].max() < grid[~hit].min()
        # rejection round weakly increases with the candidate mean
        rounds = rejected[hit]
        assert (np.diff(rounds) >= 0).all()

    def test_true_mean_survives_with_high_probability(self):
        reps, horizon = 200, 150
        survived = 0
        for i in range(reps):
            xs = sample_stream(DiscreteDistribution.bernoulli(0.5), horizon, replicate_seed(5, i))
            result = run_cs_batch(np.array([0.5]), xs, "up:101", 0.05)
            survived += int(result.games.rejected_at[0] == 0)
        slack = 3 * math.sqrt(0.05 * 0.95 / reps)
        assert survived / reps >= 0.95 - slack


class TestCsInterval:
    def test_no_data_full_span(self):
        result = run_cs_batch(default_mu_grid(9), [0.5], "up:51", 0.05)
        for lower, upper, alive in (cs_interval(small_state(), 0), result.interval(0)):
            assert alive == 9
            assert (lower, upper) == (pytest.approx(0.1), pytest.approx(0.9))

    def test_running_intersection_nested(self):
        xs = sample_stream(DiscreteDistribution.bernoulli(0.8), 120, 21)
        result = run_cs_batch(default_mu_grid(33), xs, "up:101", 0.05, running_intersect=True)
        widths = []
        for _, lower, upper, alive in result.intervals():
            widths.append(0.0 if alive == 0 else upper - lower)
        assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(widths, widths[1:]))

    def test_raw_sets_can_grow(self):
        # Without intersection the hull may widen again; find one occurrence.
        xs = sample_stream(DiscreteDistribution.bernoulli(0.5), 200, 3)
        result = run_cs_batch(default_mu_grid(99), xs, "up:101", 0.2)
        widths = [upper - lower for _, lower, upper, alive in result.intervals() if alive]
        grew = any(b > a + 1e-12 for a, b in zip(widths, widths[1:]))
        assert grew

    def test_empty_set_reports_nan(self):
        state = ConfidenceState(np.array([0.5]), lambda mu: ConstantStrategy(mu, 2.0), 0.05)
        for _ in range(10):
            cs_update(state, 1.0)
        result = run_cs_batch(np.array([0.5]), np.ones(10), "constant:2.0", 0.05)
        for lower, upper, alive in (cs_interval(state, 10), result.interval(10)):
            assert alive == 0
            assert math.isnan(lower) and math.isnan(upper)


    @pytest.mark.parametrize(
        "grid",
        [default_mu_grid(9), np.array([0.7, 0.2, 0.9, 0.4, 0.1]), np.array([0.3, 0.5, 0.3, 0.8, 0.5])],
        ids=["sorted", "unsorted", "duplicates"],
    )
    def test_intervals_match_each_round(self, grid, rng):
        in_set = rng.random((60, len(grid))) < 0.4
        in_set[[0, 17, 59]] = False
        in_set[5] = True
        result = CsResult(grid, 0.05, running_intersect=False, games=None, in_set=in_set)
        rows = result.intervals()
        np.testing.assert_equal(rows, [(n, *result.interval(n)) for n in range(1, 61)])
        for n, lower, upper, alive in rows:
            assert (type(n), type(lower), type(upper), type(alive)) == (int, float, float, int)
        assert [alive for *_, alive in rows].count(0) >= 3


class TestBatchAgainstObject:
    def test_same_wealth_and_sets(self):
        grid = default_mu_grid(7)
        xs = sample_stream(DiscreteDistribution.uniform_grid(3), 40, 17)
        state = ConfidenceState(grid, lambda mu: UniversalPortfolioStrategy(mu, 51), 0.05)
        for x in xs:
            cs_update(state, float(x))
        result = run_cs_batch(grid, xs, "up:51", 0.05)
        obj_wealth = np.array(state.log_wealth)  # (rounds, M)
        assert np.allclose(obj_wealth, result.games.log_wealth.T, atol=1e-9)
        for n in (1, 20, 40):
            assert cs_interval(state, n) == result.interval(n)


class TestClassDominanceTransfer:
    def test_hoeffding_sets_contain_coinbet_sets(self):
        # Per candidate mean, run a constant-alpha Hoeffding game and its
        # dominating coin-bet shadow on the same stream: the shadow's
        # confidence sets are contained in the Hoeffding ones at every round.
        grid = default_mu_grid(33)
        xs = sample_stream(DiscreteDistribution.bernoulli(0.7), 150, 9)
        alpha = 1.5
        threshold = math.log(1.0 / 0.05)
        in_h = np.empty((len(grid), len(xs)), dtype=bool)
        in_cb = np.empty_like(in_h)
        for j, mu in enumerate(grid):
            log_h = np.cumsum(alpha * (xs - mu) - alpha**2 / 8.0)
            lam = dominating_lambda(mu, alpha)
            log_cb = np.cumsum(np.log1p(lam * (xs - mu)))
            in_h[j] = log_h <= threshold
            in_cb[j] = log_cb <= threshold
        assert (in_cb <= in_h).all()  # membership implication, pointwise
