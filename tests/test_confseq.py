import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.confseq import CsResult, default_mu_grid, run_cs_batch
from evbet.domain import DiscreteDistribution, replicate_seed, sample_stream
from evbet.evariables import dominating_lambda
from evbet.game import run_games_batch

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


def bracket(mu_grid, mask) -> tuple[float, float, int]:
    """Outer bracket and size of the set ``mask`` of the grid, one mean at a time.

    From the largest grid mean below every alive one (0.0 if none) to the
    smallest above every alive one (1.0 if none); NaN when none is alive.
    """
    alive = [float(mu) for mu, kept in zip(mu_grid, mask) if kept]
    if not alive:
        return math.nan, math.nan, 0
    below = [float(mu) for mu in mu_grid if mu < min(alive)]
    above = [float(mu) for mu in mu_grid if mu > max(alive)]
    return max(below, default=0.0), min(above, default=1.0), len(alive)


def cs_interval(state: ConfidenceState, n: int) -> tuple[float, float, int]:
    """Outer bracket and size of the confidence set after round ``n``."""
    if n > state.rounds:
        raise ValueError(f"round {n} not played yet (have {state.rounds})")
    return bracket(state.mu_grid, state.in_set(n))


def interval(result: CsResult, n: int) -> tuple[float, float, int]:
    """``(lower, upper, alive)`` of round ``n`` >= 1 from ``result.intervals()``."""
    t, *row = result.intervals()[n - 1]
    assert t == n
    return tuple(row)


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
        for lower, upper, alive in (cs_interval(state, 4), interval(result, 4)):
            assert (lower, upper, alive) == (0.0, 1.0, 9)

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
        for lower, upper, alive in (cs_interval(small_state(), 0), interval(result, 1)):
            assert (lower, upper, alive) == (0.0, 1.0, 9)

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
        for lower, upper, alive in (cs_interval(state, 10), interval(result, 10)):
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
        np.testing.assert_equal(rows, [(n, *bracket(grid, in_set[n - 1])) for n in range(1, 61)])
        for n, lower, upper, alive in rows:
            assert (type(n), type(lower), type(upper), type(alive)) == (int, float, float, int)
        assert [alive for *_, alive in rows].count(0) >= 3


@st.composite
def in_set_traces(draw):
    """A grid of candidate means (unsorted, repeats allowed) and random memberships."""
    means = st.integers(1, 19).map(lambda k: k / 20.0)
    grid = np.array(draw(st.lists(means, min_size=1, max_size=8)))
    rounds = draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=rounds * len(grid), max_size=rounds * len(grid)))
    return grid, np.array(cells).reshape(rounds, len(grid))


class TestOuterBracket:
    """``intervals()`` reports the outer bracket of each round's set, which
    holds every mean the set keeps, off the grid too."""

    @settings(max_examples=100, deadline=None)
    @given(in_set_traces(), st.booleans())
    def test_bracket_holds_the_alive_means_and_nests(self, trace, running_intersect):
        grid, in_set = trace
        if running_intersect:
            np.logical_and.accumulate(in_set, axis=0, out=in_set)
        rows = CsResult(grid, 0.05, running_intersect, games=None, in_set=in_set).intervals()
        for (_, lower, upper, alive), mask in zip(rows, in_set):
            assert alive == mask.sum()
            if alive:
                assert ((lower <= grid[mask]) & (grid[mask] <= upper)).all()
                # Tight: each end is 0 or 1, or a grid mean the set rejects.
                for end, edge in ((lower, 0.0), (upper, 1.0)):
                    assert end == edge or (end in grid[~mask] and end not in grid[mask])
            else:
                assert math.isnan(lower) and math.isnan(upper)
        if running_intersect:
            live = [(lower, upper) for _, lower, upper, alive in rows if alive]
            assert all(a[0] <= b[0] and b[1] <= a[1] for a, b in zip(live, live[1:]))

    # Seeds 0-399 on which the hull of the alive grid means excludes mu* = 0.305
    # at some round where mu*'s own game has not crossed log(1/delta).
    HULL_MISSES = (28, 85, 120, 160, 206, 210, 217, 277, 312, 315, 316, 328, 333, 335, 351,
                   354, 378)

    @pytest.mark.parametrize("running_intersect", [True, False], ids=["intersected", "raw"])
    def test_bracket_keeps_an_off_grid_mean_its_game_keeps(self, running_intersect):
        mu_star, delta = 0.305, 0.05
        threshold = math.log(1.0 / delta)
        for seed in self.HULL_MISSES:
            xs = sample_stream(DiscreteDistribution.bernoulli(mu_star), 1000, seed)
            result = run_cs_batch(default_mu_grid(99), xs, "up:101", delta, running_intersect)
            own = run_games_batch(np.array([mu_star]), xs[None, :], "up:101", delta).log_wealth[0]
            if running_intersect:  # an intersected set keeps mu* only if it never crossed
                own = np.maximum.accumulate(own)
            for (t, lower, upper, alive), log_wealth in zip(result.intervals(), own):
                if alive and log_wealth < threshold - 1e-9:
                    assert lower <= mu_star <= upper, (seed, t, lower, upper)


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
            assert cs_interval(state, n) == interval(result, n)


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
