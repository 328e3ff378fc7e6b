import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbet import kernels
from evbet.betting import UniversalPortfolioStrategy, lambda_grid, quadrature_coefficients
from evbet.confseq import default_mu_grid
from evbet.domain import DiscreteDistribution, sample_stream
from evbet.errors import DegeneratePosterior
from evbet.game import run_game, run_games_batch
from evbet.kernels import _pykernels


def make_batch(rng, n_games=6, n_rounds=80, points=(0.0, 0.25, 0.5, 0.75, 1.0)):
    xs = rng.choice(points, size=(n_games, n_rounds))
    mus = rng.uniform(0.15, 0.85, size=n_games)
    return xs, mus


class TestBackendContract:
    points = (0.0, 0.25, 0.5, 0.75, 1.0)

    def make_batch(self, rng, **kwargs):
        return make_batch(rng, points=self.points, **kwargs)

    def test_shapes_and_saturation(self, up_batch, rng):
        xs, mus = self.make_batch(rng)
        bets, logw = up_batch(xs, mus, 101)
        assert bets.shape == xs.shape and logw.shape == xs.shape
        assert np.isfinite(bets).all()

    def test_bets_stay_in_interval(self, up_batch, rng):
        xs, mus = self.make_batch(rng)
        bets, _ = up_batch(xs, mus, 101)
        assert_bets_in_interval(bets, mus)

    def test_deterministic(self, up_batch, rng):
        xs, mus = self.make_batch(rng)
        first = up_batch(xs, mus, 51)
        second = up_batch(xs, mus, 51)
        assert (first[0] == second[0]).all()
        assert (first[1] == second[1]).all()

    def test_boundary_data_only_kills_endpoint_nodes(self, up_batch):
        # x in {0,1} kills exactly the two endpoint fractions of I_mu; the
        # interior nodes survive, so the game keeps running with sane bets.
        xs = np.array([[0.0, 1.0] * 40])
        mus = np.array([0.5])
        bets, logw = up_batch(xs, mus, 11)
        assert np.isfinite(bets).all()
        assert (np.abs(bets) < 2.0).all()
        assert np.isfinite(logw).all()


def lambda_grid_loop(xs, mus, n_nodes):
    """The mixture over each game's lambda-grid, in log space: the reference.

    Node k keeps its log-wealth L_k, the sum of its log payoffs. Every round
    bets the posterior mean of lam_k under weights c_k exp(L_k) and scores
    the mixture's log-wealth log(sum c_k exp(L_k) / sum c_k). Node payoffs
    are taken in the factored form (1 - u_k)(1 - x)/(1 - mu) + u_k x/mu of
    1 + lam_k (x - mu), u_k = k/(K-1) (``exact_mixture`` checks it against
    the lambda form). Evaluated as 1 + lam_k*(x - mu), a payoff that should
    vanish comes out as a rounding error instead: an endpoint node survives
    at 1e-16 of the mass and can regrow, and the bets drift far past 1e-9.
    """
    xs = np.asarray(xs, dtype=float)
    n_games, n_rounds = xs.shape
    u = np.linspace(0.0, 1.0, n_nodes)
    grids = np.stack([lambda_grid(mu, n_nodes) for mu in mus])
    log_c = np.log(quadrature_coefficients(n_nodes))
    log_node = np.zeros((n_games, n_nodes))
    bets = np.empty((n_games, n_rounds))
    log_wealth = np.empty((n_games, n_rounds))
    for t in range(n_rounds):
        log_w = log_c + log_node
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        bets[:, t] = (w * grids).sum(axis=1) / w.sum(axis=1)
        x, mu = xs[:, t, None], mus[:, None]
        with np.errstate(divide="ignore"):
            log_node += np.log((1.0 - u) * (1.0 - x) / (1.0 - mu) + u * x / mu)
        log_wealth[:, t] = log_sum_exp(log_c + log_node) - log_sum_exp(log_c)
    return bets, log_wealth


def log_sum_exp(a):
    top = a.max(axis=-1)
    return top + np.log(np.exp(a - top[..., None]).sum(axis=-1))


def exact_mixture(xs, mus, n_nodes):
    """Bets and log-wealth of the lambda-grid mixture in exact rational arithmetic.

    Nodes are lam_k = lo + (hi - lo) k/(K-1) with lo = 1/(mu - 1), hi = 1/mu
    taken exactly from the double mu, and payoffs 1 + lam_k (x - mu).
    """
    c = [Fraction(v) for v in quadrature_coefficients(n_nodes)]
    bets = np.empty(xs.shape)
    log_wealth = np.empty(xs.shape)
    for g, row in enumerate(np.asarray(xs, dtype=float)):
        mu = Fraction(mus[g])
        lo, hi = 1 / (mu - 1), 1 / mu
        lam = [lo + (hi - lo) * Fraction(k, n_nodes - 1) for k in range(n_nodes)]
        w = list(c)
        for t, x in enumerate(row):
            bets[g, t] = sum(wk * lk for wk, lk in zip(w, lam)) / sum(w)
            dx = Fraction(x) - mu
            w = [wk * (1 + lk * dx) for wk, lk in zip(w, lam)]
            wealth = sum(w) / sum(c)
            log_wealth[g, t] = math.log(wealth.numerator) - math.log(wealth.denominator)
    return bets, log_wealth


def full_grid_means(posterior, ones):
    """``_BinaryPosterior.means`` with every chunk over all K nodes: the reference.

    The kernel restricts each chunk to the nodes between the first and last
    non-zero weight; the others are exactly 0 and only lengthen the sums.
    """
    n_rounds = len(ones)
    n_one = np.concatenate(([0], np.cumsum(ones)))
    n_zero = np.arange(n_rounds + 1) - n_one
    sums = np.empty((n_rounds + 1, 3))
    start = 0
    while start < n_rounds:
        w = posterior.weights(n_one[start], n_zero[start])
        sums[start] = w @ posterior.moments
        stop = min(start + posterior.chunk, n_rounds)
        f = posterior.pow_one[n_one[start + 1 : stop + 1] - n_one[start]]
        f *= posterior.pow_zero[n_zero[start + 1 : stop + 1] - n_zero[start]]
        f *= w
        m = f @ posterior.moments
        low = np.flatnonzero(m[:, 1] < posterior.restart_below)
        if low.size:
            stop = start + 1 + int(low[0])
            m = m[: low[0]]
        sums[start + 1 : start + 1 + len(m)] = m
        start = stop
    sums = sums[:n_rounds]
    return sums[:, 0] / sums[:, 1], sums[:, 2] / sums[:, 1]


def assert_bets_in_interval(bets, mus):
    """Every bet inside I_mu = [1/(mu - 1), 1/mu], with no slack."""
    lo, hi = 1.0 / (mus - 1.0), 1.0 / mus
    assert ((bets >= lo[:, None]) & (bets <= hi[:, None])).all()


@st.composite
def general_batches(draw, max_rounds=300, max_games=6, node_counts=(3, 4, 11, 101, 1001)):
    """Batches on uniform-grid:11 points or continuous draws on [0, 1]."""
    n_rounds = draw(st.integers(1, max_rounds))
    n_games = draw(st.integers(1, max_games))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.sampled_from(["uniform-grid:11", "continuous"])) == "continuous":
        stream = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_games, n_rounds))
    else:
        grid = DiscreteDistribution.uniform_grid(11)
        stream = np.stack([sample_stream(grid, n_rounds, seed + g) for g in range(n_games)])
    if draw(st.booleans()):  # one stream broadcast to every game
        xs = np.broadcast_to(stream[0], stream.shape)
    else:
        xs = stream
    mus = draw(st.lists(st.floats(0.01, 0.99), min_size=n_games, max_size=n_games))
    n_nodes = draw(st.sampled_from(node_counts))
    return xs, np.array(mus), n_nodes


class TestGeneralKernel:
    """``_pykernels.up_game_batch`` on the u-grid against the lambda-grid mixture."""

    @settings(max_examples=80, deadline=None)
    @given(general_batches())
    def test_matches_lambda_grid_loop(self, batch):
        xs, mus, n_nodes = batch
        bets, logw = _pykernels.up_game_batch(xs, mus, n_nodes)
        ref_bets, ref_logw = lambda_grid_loop(xs, mus, n_nodes)
        assert_bets_in_interval(bets, mus)
        np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
        finite = np.isfinite(ref_logw)
        assert (np.isfinite(logw) == finite).all()
        np.testing.assert_allclose(logw[finite], ref_logw[finite], rtol=0.0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(general_batches(max_rounds=60, max_games=3, node_counts=(3, 4, 11)))
    def test_matches_exact_mixture(self, batch):
        xs, mus, n_nodes = batch
        bets, logw = _pykernels.up_game_batch(xs, mus, n_nodes)
        ref_bets, ref_logw = exact_mixture(xs, mus, n_nodes)
        np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(logw, ref_logw, rtol=0.0, atol=1e-9)

    def test_log_wealth_keeps_accuracy_near_a_zero_payoff(self):
        # 45 rounds well above mu pile the posterior on lam = 1/mu; x = 0 then
        # pays about 1e-10. Scored as 1 + bet*(x - mu), one ulp of that bet
        # moves the log payoff by about 1e-6.
        xs = np.array([[0.9] * 45 + [0.0]])
        mus = np.array([0.125])
        bets, logw = _pykernels.up_game_batch(xs, mus, 3)
        ref_bets, ref_logw = exact_mixture(xs, mus, 3)
        assert 1.0 + ref_bets[0, -1] * (0.0 - 0.125) < 1e-9
        np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(logw, ref_logw, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("x", [0.05, 0.9, 0.95])
    def test_constant_streams_bet_inside_interval(self, x):
        # Unclipped, the affine image of a posterior piled on an endpoint
        # rounds up to 1.4e-14 outside I_mu at some of these means.
        mus = default_mu_grid(99)
        xs = np.full((len(mus), 3000), x)
        bets, _ = _pykernels.up_game_batch(xs, mus, 11)
        assert_bets_in_interval(bets, mus)

    @pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
    def test_long_horizon_matches_object_path(self, mu):
        stream = sample_stream(DiscreteDistribution.uniform_grid(11), 5000, 12)
        bets, logw = _pykernels.up_game_batch(stream[None, :], np.array([mu]), 1001)
        reference = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, 1001), stream)
        np.testing.assert_allclose(bets[0], [r.lam for r in reference.rows], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(
            logw[0], [r.log_wealth for r in reference.rows], rtol=0.0, atol=1e-9
        )

    def test_broadcast_input_matches_contiguous_copy(self):
        stream = sample_stream(DiscreteDistribution.uniform_grid(11), 400, 5)
        mus = default_mu_grid(19)
        view = np.broadcast_to(stream, (len(mus), len(stream)))
        bets, logw = _pykernels.up_game_batch(view, mus, 101)
        copy_bets, copy_logw = _pykernels.up_game_batch(view.copy(), mus, 101)
        assert (bets == copy_bets).all()
        assert (logw == copy_logw).all()

    def test_wiped_out_posterior_raises_at_the_reference_round(self):
        # At K = 3 a long run of zeros underflows the middle node, and the
        # first one, round 8001, then kills the last survivor, u = 0.
        xs = np.concatenate([np.zeros(8000), np.ones(5)])[None, :]
        mus = np.array([0.5])
        with pytest.raises(DegeneratePosterior) as raised:
            _pykernels.up_game_batch(xs, mus, 3)
        assert str(raised.value) == "game 0: posterior wiped out at round 8001"

    def test_bad_arguments(self):
        xs = np.full((2, 5), 0.5)
        for mus, n_nodes in (([0.5], 11), ([0.5, 1.0], 11), ([0.5, 0.5], 2)):
            with pytest.raises(ValueError):
                _pykernels.up_game_batch(xs, np.array(mus), n_nodes)
        with pytest.raises(ValueError):
            _pykernels.up_game_batch(np.full((2, 5), 1.5), np.array([0.5, 0.5]), 11)


BLOCK = _pykernels._BLOCK
GRID_11 = np.linspace(0.0, 1.0, 11)


def assert_matches_exact_mixture(xs, mus, n_nodes):
    """The general kernel against exact rational arithmetic, at the 1e-9 bounds.

    Bets also get a relative slack of 1e-12: near an endpoint mean they are of
    size 1/mu, and the affine image of a double ubar is only that accurate.
    """
    bets, logw = _pykernels.up_game_batch(xs, mus, n_nodes)
    ref_bets, ref_logw = exact_mixture(xs, mus, n_nodes)
    assert bets.shape == logw.shape == np.shape(xs)
    assert_bets_in_interval(bets, mus)
    np.testing.assert_allclose(bets, ref_bets, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(logw, ref_logw, rtol=0.0, atol=1e-9)


class TestBlockSeams:
    """The blocked general kernel where rounds meet the edges of its blocks."""

    @pytest.mark.parametrize("n_rounds", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_horizons_around_a_block(self, n_rounds, rng):
        xs = rng.choice(GRID_11, size=(3, n_rounds))
        assert_matches_exact_mixture(xs, np.array([0.2, 0.5, 0.85]), 11)

    # The first and last round of the first and of the second block.
    @pytest.mark.parametrize("position", [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1])
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_zero_payoff_at_a_block_edge(self, x, position, rng):
        # x = 0 pays nothing on u = 1, x = 1 nothing on u = 0.
        xs = rng.choice(GRID_11, size=(2, 2 * BLOCK + 3))
        xs[:, position] = x
        assert_matches_exact_mixture(xs, np.array([0.3, 0.7]), 11)

    # The first, a middle and the last round of the second block.
    @pytest.mark.parametrize("position", [BLOCK, BLOCK + BLOCK // 2, 2 * BLOCK - 1])
    def test_nan_raises_at_its_own_round(self, position):
        # NaN anywhere in the batch is rejected before any round is played.
        xs = np.full((3, 3 * BLOCK), 0.4)
        xs[1, position] = np.nan
        xs[0, position + 1] = np.nan
        with pytest.raises(ValueError, match=r"^observations must be finite and lie in \[0, 1\]$"):
            _pykernels.up_game_batch(xs, np.array([0.3, 0.5, 0.7]), 11)

    # The killing one on the first and on the last round of a block.
    @pytest.mark.parametrize("n_zeros", [8000 // BLOCK * BLOCK, 8000 // BLOCK * BLOCK + BLOCK - 1])
    def test_wipe_out_on_a_block_edge(self, n_zeros):
        # As in TestGeneralKernel: the zeros underflow the middle node of K = 3.
        xs = np.concatenate([np.zeros(n_zeros), np.ones(5)])[None, :]
        with pytest.raises(DegeneratePosterior) as raised:
            _pykernels.up_game_batch(xs, np.array([0.5]), 3)
        assert str(raised.value) == f"game 0: posterior wiped out at round {n_zeros + 1}"

    @pytest.mark.parametrize("mu", [1e-6, 1.0 - 1e-6])
    def test_extreme_means(self, mu, rng):
        # Node payoffs reach 1/mu or 1/(1 - mu), 1e6; a block of them must
        # neither overflow nor underflow the mass.
        xs = np.stack([rng.uniform(0.0, 1.0, 3 * BLOCK), rng.choice(GRID_11, 3 * BLOCK)])
        with np.errstate(over="raise", invalid="raise"):
            assert_matches_exact_mixture(xs, np.array([mu, mu]), 11)

    def test_mass_near_underflow_ends_the_block_early(self):
        # After 13294 zeros the node u = 0.1 weighs about 2e-607 of u = 0, so
        # about 2e-307 against a total of 2**1000: just above the smallest
        # normal double. The first one kills u = 0, and the mass left would
        # underflow over a block of rounds. Blocks end early, down to one
        # round, and the game plays on as the log-space reference.
        stream = np.concatenate([np.zeros(13294), np.ones(40), np.full(10, 0.5)])
        xs, mus = stream[None, :], np.array([0.5])
        bets, logw = _pykernels.up_game_batch(xs, mus, 11)
        ref_bets, ref_logw = lambda_grid_loop(xs, mus, 11)
        np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(logw, ref_logw, rtol=0.0, atol=1e-9)

    def test_leading_node_dies_after_a_long_run(self):
        # After n zeros the middle node of K = 3 weighs about 2**-n of u = 0,
        # and the first one kills u = 0; the mixture then pays about 2**-n in
        # one round. While the middle node is a normal double the game plays
        # on as the log-space reference (the ledger scored from the bets, which
        # round to -2, would pay 0). Past that it is lost, and the kernel
        # raises at the one. Nothing in between may come out as NaN or inf.
        zeros = range(1000, 2201, 4)
        streams = np.full((len(zeros), zeros[-1] + 6), 0.5)  # 0.5 pays 1 on every node
        for g, n in enumerate(zeros):
            streams[g, :n] = 0.0
            streams[g, n : n + 5] = 1.0
        ref_bets, ref_logw = lambda_grid_loop(streams, np.full(len(zeros), 0.5), 3)
        outcomes = set()
        for g, n in enumerate(zeros):
            try:
                bets, logw = _pykernels.up_game_batch(streams[g : g + 1, : n + 6], np.array([0.5]), 3)
            except DegeneratePosterior as raised:
                assert str(raised) == f"game 0: posterior wiped out at round {n + 1}"
                outcomes.add("raised")
                continue
            np.testing.assert_allclose(bets[0], ref_bets[g, : n + 6], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(logw[0], ref_logw[g, : n + 6], rtol=0.0, atol=1e-9)
            outcomes.add("played")
        assert outcomes == {"played", "raised"}


def assert_matches_object_path(xs, mus, n_nodes):
    """The general kernel against the log-space object path, game by game, at 1e-9."""
    bets, logw = _pykernels.up_game_batch(xs, mus, n_nodes)
    for g, mu in enumerate(mus.tolist()):
        reference = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, n_nodes), xs[g])
        np.testing.assert_allclose(bets[g], reference.lam, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(logw[g], reference.log_wealth, rtol=0.0, atol=1e-9)


class TestSpanSeams:
    """The general kernel where its blocks meet the edges of a span of blocks."""

    MUS = np.array([0.2, 0.5, 0.85])
    SPAN = _pykernels._span_blocks(len(MUS)) * BLOCK  # rounds per span of this batch

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_horizons_around_a_span(self, offset, rng):
        xs = rng.choice(GRID_11, size=(len(self.MUS), self.SPAN + offset))
        assert_matches_object_path(xs, self.MUS, 11)

    def test_early_block_end_inside_a_span(self, rng):
        # As in TestBlockSeams, the first one after the zeros ends a block
        # early, here in the middle of a block inside the second span of a
        # single game; varied rounds follow, within that span and over more
        # than a span after it. The bets pile on lam = -2, so x = 1 pays 0 on
        # a ledger scored from them: the reference is the log-space mixture,
        # as in that test.
        span = _pykernels._span_blocks(1) * BLOCK
        stream = np.concatenate([np.zeros(13299), np.ones(2), rng.choice(GRID_11, span)])
        assert 13299 % BLOCK > 0 and span < 13299 < 2 * span and len(stream) - 13299 > span
        xs, mus = stream[None, :], np.array([0.5])
        bets, logw = _pykernels.up_game_batch(xs, mus, 11)
        ref_bets, ref_logw = lambda_grid_loop(xs, mus, 11)
        np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(logw, ref_logw, rtol=0.0, atol=1e-9)

    def test_no_games(self):
        bets, logw = _pykernels.up_game_batch(np.empty((0, 3 * BLOCK)), np.empty(0), 11)
        assert bets.shape == logw.shape == (0, 3 * BLOCK)

    def test_one_long_game_crosses_spans(self):
        stream = sample_stream(DiscreteDistribution.uniform_grid(11), 20_000, 3)
        assert len(stream) > 2 * _pykernels._span_blocks(1) * BLOCK
        assert_matches_object_path(stream[None, :], np.array([0.45]), 11)


class TestBinaryDispatchContract(TestBackendContract):
    """The backend contract on binary batches, through the dispatcher."""

    points = (0.0, 1.0)

    @pytest.fixture
    def up_batch(self):
        return kernels.up_game_batch


def assert_matches_general_kernel(xs, mus, n_nodes):
    """The dispatcher against the general numpy kernel on a binary batch."""
    mus = np.asarray(mus, dtype=float)
    bets, logw = kernels.up_game_batch(xs, mus, n_nodes)
    ref_bets, ref_logw = _pykernels.up_game_batch(xs, mus, n_nodes)
    lo, hi = 1.0 / (mus - 1.0), 1.0 / mus
    assert ((bets >= lo[:, None]) & (bets <= hi[:, None])).all()
    np.testing.assert_allclose(bets, ref_bets, rtol=0.0, atol=1e-9)
    finite = np.isfinite(ref_logw)
    assert (np.isfinite(logw) == finite).all()
    np.testing.assert_allclose(logw[finite], ref_logw[finite], rtol=0.0, atol=1e-9)


def exact_log_wealth(stream, mu, n_nodes):
    """Log-wealth of the Simpson-weighted mixture over u_k = k/(K-1), in closed form.

    log W_t = log(sum_k c_k u_k^n1 (1-u_k)^n0 / sum_k c_k) - n1 log mu - n0 log(1-mu)
    """
    u = np.linspace(0.0, 1.0, n_nodes)
    c = quadrature_coefficients(n_nodes)
    n1 = np.cumsum(stream)[:, None]
    n0 = np.arange(1, len(stream) + 1)[:, None] - n1
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (
            np.log(c)
            + np.where(n1 > 0, n1 * np.log(u), 0.0)
            + np.where(n0 > 0, n0 * np.log1p(-u), 0.0)
        )
    top = terms.max(axis=1)
    mixture = top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - np.log(c.sum())
    return mixture - n1[:, 0] * np.log(mu) - n0[:, 0] * np.log1p(-mu)


@st.composite
def binary_batches(draw):
    """Binary batches of a few distinct streams, each repeated at random."""
    n_rounds = draw(st.integers(1, 150))
    stream = st.lists(st.sampled_from([0.0, 1.0]), min_size=n_rounds, max_size=n_rounds)
    streams = draw(st.lists(stream, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(streams) - 1), min_size=1, max_size=8))
    mus = draw(st.lists(st.floats(0.01, 0.99), min_size=len(picks), max_size=len(picks)))
    n_nodes = draw(st.sampled_from([3, 4, 11, 50, 101, 1001]))
    return np.array([streams[i] for i in picks]), np.array(mus), n_nodes


class TestBinaryPath:
    @settings(max_examples=60, deadline=None)
    @given(binary_batches())
    def test_matches_general_kernel(self, batch):
        assert_matches_general_kernel(*batch)

    @pytest.mark.parametrize("n_nodes", [3, 4, 101, 1001])
    @pytest.mark.parametrize("pattern", ["zeros", "ones", "alternating"])
    def test_degenerate_streams(self, pattern, n_nodes):
        stream = {"zeros": np.zeros(300), "ones": np.ones(300), "alternating": np.arange(300) % 2.0}
        # A dense grid: at some of these means the affine map of a posterior
        # mean of 0 or 1 rounds outside I_mu unless it is clipped.
        mus = np.arange(1, 100) / 100.0
        assert_matches_general_kernel(np.tile(stream[pattern], (len(mus), 1)), mus, n_nodes)

    def test_duplicate_and_distinct_rows(self, rng):
        streams = rng.choice([0.0, 1.0], size=(3, 200))
        mus = np.linspace(0.05, 0.95, 12)
        assert_matches_general_kernel(streams[np.arange(12) % 3], mus, 101)
        assert_matches_general_kernel(rng.choice([0.0, 1.0], size=(12, 200)), mus, 101)

    def test_broadcast_stream_shared_by_every_game(self):
        stream = sample_stream(DiscreteDistribution.bernoulli(0.3), 400, 8)
        mus = np.arange(1, 20) / 20.0
        assert_matches_general_kernel(np.broadcast_to(stream, (len(mus), len(stream))), mus, 1001)

    def test_broadcast_stream_is_read_once(self):
        # Beyond its two (G, n) outputs, a run on one stream broadcast to 99
        # games holds no (G, n) temporary: a bool copy of the batch alone is
        # 4.95 MB, over twice the bound.
        stream = sample_stream(DiscreteDistribution.bernoulli(0.4), 50_000, 7)
        mus = default_mu_grid(99)
        view = np.broadcast_to(stream, (len(mus), len(stream)))
        tracemalloc.start()
        try:
            bets, logw = kernels.up_game_batch(view, mus, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - bets.nbytes - logw.nbytes < 2e6

    def test_batch_first_crossings_hold_no_round_array(self):
        # The game layer over the same broadcast batch: finding each game's
        # first crossing adds no (G, n) array to the kernel's outputs (a
        # bool one is 4.95 MB).
        stream = sample_stream(DiscreteDistribution.bernoulli(0.4), 50_000, 7)
        mus = default_mu_grid(99)
        view = np.broadcast_to(stream, (len(mus), len(stream)))
        tracemalloc.start()
        try:
            result = run_games_batch(mus, view, "up:11", 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.bets.nbytes - result.log_wealth.nbytes < 1e6
        # Games are scanned in blocks; the first crossings are those of the whole array.
        crossed = result.log_wealth > math.log(1.0 / 0.05)
        expected = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, 0)
        assert 0 < np.count_nonzero(expected) < len(mus)
        np.testing.assert_array_equal(result.rejected_at, expected)

    def test_long_horizon(self):
        stream = sample_stream(DiscreteDistribution.bernoulli(0.4), 20_000, 3)
        mus = np.array([0.05, 0.4, 0.5, 0.95])
        assert_matches_general_kernel(np.tile(stream, (len(mus), 1)), mus, 1001)

    @pytest.mark.parametrize("n_nodes", [3, 4, 101, 1001])
    def test_exact_mixture_oracle(self, n_nodes):
        stream = sample_stream(DiscreteDistribution.bernoulli(0.35), 2000, 4)
        mus = np.array([0.1, 0.35, 0.6])
        _, logw = kernels.up_game_batch(np.tile(stream, (len(mus), 1)), mus, n_nodes)
        for g, mu in enumerate(mus):
            exact = exact_log_wealth(stream, mu, n_nodes)
            np.testing.assert_allclose(logw[g], exact, rtol=0.0, atol=1e-9)

    def test_dispatch_follows_the_data(self, rng, monkeypatch):
        calls = []
        binary_kernel = _pykernels.up_game_batch_binary

        def spy(*args):
            calls.append(args)
            return binary_kernel(*args)

        monkeypatch.setattr(_pykernels, "up_game_batch_binary", spy)
        xs, mus = make_batch(rng, points=(0.0, 1.0))
        kernels.up_game_batch(xs, mus, 51)
        assert len(calls) == 1
        for odd in (0.5, np.nextafter(0.0, 1.0)):
            graded = xs.copy()
            graded[2, 7] = odd
            kernels.up_game_batch(graded, mus, 51)
        graded[2, 7] = np.nan
        with pytest.raises(ValueError, match="observations must be finite"):
            kernels.up_game_batch(graded, mus, 51)
        assert len(calls) == 1

    @pytest.mark.parametrize("mu", [0.05, 0.5, 0.9])
    def test_change_of_regime_matches_exact_mixture(self, mu):
        # During the zeros the nodes near u = 1 fall far below the top; once
        # the ones come they carry the posterior, so none may be lost for good.
        stream = np.concatenate([np.zeros(190), np.ones(5000)])
        _, logw = kernels.up_game_batch(stream[None, :], np.array([mu]), 1001)
        exact = exact_log_wealth(stream, mu, 1001)
        np.testing.assert_allclose(logw[0], exact, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n_nodes", [3, 11])
    def test_long_run_then_switch_matches_object_path(self, n_nodes):
        # After 8000 zeros the weights of all nodes but u = 0 are far below
        # the smallest double (at K = 3 the general kernel loses them and
        # raises on the first one). The object path keeps log-weights and
        # plays on; so must the binary routine.
        mu = 0.5
        stream = np.concatenate([np.zeros(8000), np.ones(40), np.zeros(40)])
        bets, logw = kernels.up_game_batch(stream[None, :], np.array([mu]), n_nodes)
        reference = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, n_nodes), stream)
        np.testing.assert_allclose(bets[0], [r.lam for r in reference.rows], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(
            logw[0], [r.log_wealth for r in reference.rows], rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("n_nodes", [3, 11, 101, 1001])
    @pytest.mark.parametrize(
        "stream",
        [
            sample_stream(DiscreteDistribution.bernoulli(0.4), 20_000, 3),
            sample_stream(DiscreteDistribution.bernoulli(0.02), 20_000, 5),
            np.concatenate([np.zeros(190), np.ones(5000)]),
            np.concatenate([np.zeros(8000), np.ones(40), np.zeros(40)]),
            np.concatenate([np.ones(3000), np.zeros(3000), np.ones(3000)]),
        ],
        ids=["bernoulli-0.4", "bernoulli-0.02", "zeros-then-ones", "long-zeros-switch",
             "ones-zeros-ones"],
    )
    def test_live_span_matches_full_grid(self, stream, n_nodes):
        posterior = _pykernels._BinaryPosterior(n_nodes)
        ones = stream == 1.0
        for live, full in zip(posterior.means(ones), full_grid_means(posterior, ones)):
            np.testing.assert_allclose(live, full, rtol=1e-12, atol=0.0)

    def test_bad_arguments(self):
        xs = np.ones((2, 5))
        with pytest.raises(ValueError):
            _pykernels.up_game_batch_binary(xs, np.array([0.5]), 11)
        with pytest.raises(ValueError):
            _pykernels.up_game_batch_binary(xs, np.array([0.5, 1.0]), 11)
        with pytest.raises(ValueError):
            _pykernels.up_game_batch_binary(xs, np.array([0.5, 0.5]), 2)


def simpson_weights(n_nodes):
    """Composite Simpson weights on K equispaced nodes (trapezoid when K is even)."""
    if n_nodes % 2 == 0:
        return [0.5] + [1.0] * (n_nodes - 2) + [0.5]
    return [1.0] + [4.0 if k % 2 else 2.0 for k in range(1, n_nodes - 1)] + [1.0]


def exact_up_log_wealth(xs, mus, n_nodes):
    """Log-wealth of the universal portfolio on the stream ``xs``, for every
    round and every mean of ``mus``, from a formula that shares no code with
    the kernels: an array of shape ``(len(mus), len(xs))``.

    Node u_k = k/(K-1) pays (1 - u_k)(1 - x)/(1 - mu) + u_k x/mu on x.
    Expanding the product over t rounds by the rounds j whose x-term is taken,

        W_t(mu) = sum_j p_t(j) B_K(j, t - j) mu**-j (1 - mu)**-(t - j),

    where p_t is the Poisson-binomial pmf of the data (j successes with
    probabilities x_1, ..., x_t) and B_K(a, b) = sum_k c_k u_k**a (1 - u_k)**b
    / sum_k c_k, with Simpson weights c_k. Every sum is taken in log space.
    """
    xs, mus = np.asarray(xs, dtype=float), np.asarray(mus, dtype=float)
    u = np.arange(n_nodes) / (n_nodes - 1)
    c = np.array(simpson_weights(n_nodes))
    with np.errstate(divide="ignore"):
        log_c, log_u, log_v = np.log(c / c.sum()), np.log(u), np.log1p(-u)
        log_x, log_y = np.log(xs), np.log1p(-xs)
    log_p = np.zeros(1)  # p_0: no success, surely
    out = np.empty((len(mus), len(xs)))
    for t in range(1, len(xs) + 1):
        log_p = np.logaddexp(
            np.append(log_p + log_y[t - 1], -np.inf), np.insert(log_p + log_x[t - 1], 0, -np.inf)
        )
        j = np.arange(t + 1)[:, None]
        with np.errstate(invalid="ignore"):  # 0 * log(0) is 0
            terms = np.where(j > 0, j * log_u, 0.0) + np.where(t - j > 0, (t - j) * log_v, 0.0)
        log_b = log_sum_exp(log_c + terms)
        j = j[:, 0]
        odds = -np.outer(np.log(mus), j) - np.outer(np.log1p(-mus), t - j)
        out[:, t - 1] = log_sum_exp(log_p + log_b + odds)
    return out


def fraction_up_wealth(xs, mu, n_nodes):
    """W_t(mu) of the universal portfolio in exact rational arithmetic, node by node."""
    c = [Fraction(v) for v in simpson_weights(n_nodes)]
    mu = Fraction(mu)
    w = list(c)
    wealth = []
    for x in map(Fraction, xs):
        w = [wk * ((1 - Fraction(k, n_nodes - 1)) * (1 - x) / (1 - mu)
                   + Fraction(k, n_nodes - 1) * x / mu) for k, wk in enumerate(w)]
        wealth.append(sum(w) / sum(c))
    return wealth


STREAMS = {"binary": DiscreteDistribution.bernoulli(0.35),
           "uniform-grid:11": DiscreteDistribution.uniform_grid(11)}


class TestExactUpOracle:
    """``exact_up_log_wealth`` against rational arithmetic, then both kernel routines against it."""

    MUS = np.array([0.05, 0.3, 0.5, 0.77, 0.95])

    @pytest.mark.parametrize("n_nodes", [3, 4, 11])
    @pytest.mark.parametrize("data", sorted(STREAMS))
    def test_matches_fraction_arithmetic(self, data, n_nodes):
        for seed in range(3):
            xs = sample_stream(STREAMS[data], 10, seed)
            oracle = exact_up_log_wealth(xs, self.MUS, n_nodes)
            for g, mu in enumerate(self.MUS):
                exact = [math.log(w.numerator) - math.log(w.denominator)
                         for w in fraction_up_wealth(xs, mu, n_nodes)]
                np.testing.assert_allclose(oracle[g], exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_nodes", [3, 11, 101])
    @pytest.mark.parametrize("data", sorted(STREAMS))
    def test_kernel_routines_match(self, data, n_nodes):
        xs = sample_stream(STREAMS[data], 300, 11)
        oracle = exact_up_log_wealth(xs, self.MUS, n_nodes)
        batch = np.tile(xs, (len(self.MUS), 1))
        routines = [_pykernels.up_game_batch]
        if data == "binary":
            routines.append(_pykernels.up_game_batch_binary)
        for routine in routines:
            _, log_wealth = routine(batch, self.MUS, n_nodes)
            np.testing.assert_allclose(log_wealth, oracle, rtol=0.0, atol=1e-9)


class TestObjectPath:
    def test_dead_endpoint_node_stays_dead(self):
        # At mu = 0.41, fl(fl(1/mu)*mu) != 1, so the lambda form 1 + lam*(x - mu)
        # left the node lam = 1/mu about 1e-16 of its weight after the zero; the
        # ones then regrew it (it pays the most on a one) and the bets drifted.
        mu = 0.41
        assert (1.0 / mu) * mu != 1.0
        xs = np.array([[0.0] + [1.0] * 100])
        ledger = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, 3), xs[0])
        bets, log_wealth = exact_mixture(xs, np.array([mu]), 3)
        np.testing.assert_allclose([r.lam for r in ledger.rows], bets[0], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(ledger.log_wealth, log_wealth[0], rtol=0.0, atol=1e-9)

