"""Pure-numpy implementation of the batch game kernels.

Both routines work on the grid u_k = k/(K-1) of [0, 1]. Game g with target
mean mu[g] has quadrature nodes lam_k = lo + (hi - lo)*u_k spanning
I_mu = [lo, hi] = [1/(mu - 1), 1/mu], with Simpson coefficients folded into
the initial weights; each round bets the posterior mean, scores the coin-bet
payoff of the bet, then multiplies node weights by their own payoffs. On that
grid the payoff of node k on observation x in [0, 1] is affine in u_k,

    1 + lam_k*(x - mu) = alpha*(1 - u_k) + beta*u_k,
    alpha = (1 - x)/(1 - mu),  beta = x/mu,

and never negative, and the bet is the affine image
(ubar - mu)/(mu*(1 - mu)) of the posterior mean ubar of u. Both routines
clip that bet into I_mu exactly (``_bets``).

Log-wealth is the log of the mixture wealth: each round adds the log of the
posterior mean of the node payoffs, sum(w*payoff)/sum(w), a sum of
non-negative terms. In exact arithmetic that is the payoff 1 + bet*(x - mu)
of the unrounded bet, but it keeps its relative accuracy where the payoff
nears zero, while 1 + bet*(x - mu) of the rounded bet does not: there one
ulp of the bet can move the log payoff by 1e-7 or more.

``up_game_batch`` is the general K-node kernel. It visits the (G, K)
weights once per block of J = ``_BLOCK`` rounds, not once per round. After i
rounds of a block node k weighs w_k*Q_i(u_k), with w the weights at the block
start and Q_i = prod_{s<i} (alpha_s*(1 - u) + beta_s*u). In the basis
u**j (1 - u)**(i - j) the coefficients of Q_i follow

    q_{i+1}[j] = alpha_i*q_i[j] + beta_i*q_i[j-1],

and the moments m_i[j] = sum_k w_k u_k**j (1 - u_k)**(i - j) all come from
the one product m_J = w @ P, P[k, l] = u_k**l (1 - u_k)**(J - l), by
m_i[j] = m_{i+1}[j] + m_{i+1}[j+1]. Then sum(w*Q_i) = sum_j q_i[j]*m_i[j]
is the mass before round i and sum(w*Q_i*u) = sum_j q_i[j]*m_{i+1}[j+1]
its first moment; their ratio is ubar, and the ratio of successive masses
is the round's mixture payoff. Every term of these sums is non-negative, so
none cancels, which a monomial basis would not give. At the block end
w <- w*Q_J(u_k)/mass, from the same P. A block thus costs two K-wide
products and one multiply, and a round a few operations on (J+1, G)
arrays. P is kept as the Bernstein basis, C(J, l) times the above: the
Bernstein coefficients q_J[l]/C(J, l) of Q_J lie in [0, 1], so divided by
any normal mass they stay finite. Each round's alpha and beta are divided
by max(alpha, beta), the factor going back into that round's payoff, so Q
stays in range for any mu in (0, 1); a short last block is padded with
neutral rounds, alpha = beta = 1, which multiply Q by (1 - u) + u = 1.
Renormalising at each block end leaves the bets invariant and prevents
under/overflow over long horizons.

``up_game_batch_binary`` plays the same games on observations that are all
exactly 0.0 or 1.0, with one posterior pass per distinct stream instead of
one per game. It keeps the exact posterior up to rounding (1e-9 against the
closed-form mixture wealth in the tests), so it agrees with ``up_game_batch``
to 1e-9 while no weight of the general kernel underflows. Where that kernel
loses weights to underflow (long runs of one value, a late change of
regime) it drifts from the mixture or raises ``DegeneratePosterior``; the
binary routine does neither.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..betting import quadrature_coefficients
from ..domain import check_batch, check_node_count, check_observations
from ..errors import DegeneratePosterior


def up_game_batch(xs: np.ndarray, mus: np.ndarray, n_nodes: int):
    """Run one universal-portfolio coin-betting game per row of ``xs``.

    Observations must lie in [0, 1]; ``xs`` may be a broadcast view and is
    not copied. Returns ``(bets, log_wealth)`` of shape ``(G, n)``;
    ``log_wealth`` is the running log of the mixture wealth.

    Plays ``_BLOCK`` rounds per pass over the (G, K) weights: within a block
    the weights stay put and each round advances the block polynomial Q_i,
    whose sums against the weights give the round's mass and bet (see the
    module docstring). A mass that is not positive (NaN included) raises
    ``DegeneratePosterior`` naming its round and the first game there.
    """
    xs, mus = check_batch(xs, mus)
    check_node_count(n_nodes)
    # fmin and fmax skip NaN, which raises DegeneratePosterior at its own round below.
    extremes = [np.fmin.reduce(xs, None, initial=0.5), np.fmax.reduce(xs, None, initial=0.5)]
    check_observations(np.array(extremes))
    n_games, n_rounds = xs.shape
    block = _BLOCK
    basis, binomial = _bernstein(n_nodes)
    # Terms lost to underflow in a mass total under K * 2**J * tiny, so they
    # are under _EPS of any mass above this floor. A block ends before the
    # first round whose mass falls below it, or after that round if it is
    # the block's first.
    floor = n_nodes * 2.0**block * np.finfo(float).tiny / _EPS
    w = np.broadcast_to(quadrature_coefficients(n_nodes), (n_games, n_nodes)).copy()
    scratch = np.empty_like(w)
    # coef[i, :i+1] holds the coefficients of Q_i, moments[i, :i+1] the m_i,
    # both per game along the last axis; entries past degree i stay 0.
    coef = np.zeros((block + 1, block + 1, n_games))
    coef[0, 0] = 1.0
    moments = np.zeros_like(coef)
    alpha, beta = np.empty((2, block, n_games))
    alpha_at_zero, beta_at_one = 1.0 / (1.0 - mus), 1.0 / mus

    ubar = np.empty((n_games, n_rounds))  # becomes the bets
    payoffs = np.empty((n_games, n_rounds))  # becomes the log-wealth
    start = 0
    while start < n_rounds:
        x = xs[:, start : start + block].T
        n_play = len(x)
        np.multiply(1.0 - x, alpha_at_zero, out=alpha[:n_play])
        np.multiply(x, beta_at_one, out=beta[:n_play])
        alpha[n_play:] = beta[n_play:] = 1.0  # neutral rounds pad a short block
        scale = np.maximum(alpha, beta)  # NaN stays NaN
        alpha /= scale
        beta /= scale
        _advance(coef, alpha, beta, 0)
        np.matmul(basis, w.T, out=moments[block])
        moments[block] /= binomial
        for i in range(block - 1, -1, -1):
            np.add(moments[i + 1, : i + 1], moments[i + 1, 1 : i + 2], out=moments[i, : i + 1])
        mass = np.einsum("ijg,ijg->ig", coef, moments)
        low = ~(mass[1 : n_play + 1] >= floor).all(axis=1)  # NaN is low
        if low.any():
            first = int(np.argmax(low))
            if first == 0:
                _check_mass(mass[1], start + 1)
            n_play = max(first, 1)
        mean_u = np.einsum("ijg,ijg->ig", coef[:n_play, :block], moments[1 : n_play + 1, 1:])
        ubar[:, start : start + n_play] = (mean_u / mass[:n_play]).T
        step = mass[1 : n_play + 1] / mass[:n_play]
        step *= scale[:n_play]
        payoffs[:, start : start + n_play] = step.T
        start += n_play
        if start < n_rounds:  # w <- w * Q(u) / mass
            if n_play < block:  # neutral rounds take Q to degree J
                alpha[n_play:] = beta[n_play:] = 1.0
                _advance(coef, alpha, beta, n_play)
            top = coef[block] / binomial
            top /= mass[n_play]
            np.matmul(top.T, basis, out=scratch)
            w *= scratch
    return _bets(ubar, mus), _log_wealth(payoffs)


# Rounds ``up_game_batch`` plays per pass over its weights. On the mc-grid shape
# (99 games x 1000 rounds, K = 1001; 2-vCPU VM) J = 8, 12, 16, 24 and 32 ran
# within run-to-run spread of one another, while the benchmark's peak RSS rose
# 0.2 MB over the per-round kernel's at J = 8 and 0.9 MB at 16, the
# (J+1, J+1, G) tables growing as J**2. Longer blocks do help one long game.
_BLOCK = 8
_EPS = 2.0**-53


@functools.lru_cache(maxsize=8)
def _bernstein(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-J Bernstein basis on the u-grid, J = ``_BLOCK``, read-only.

    Returns the (J+1, K) table C(J, l) u_k**l (1 - u_k)**(J - l) and the
    (J+1, 1) column of binomials C(J, l).
    """
    u = np.linspace(0.0, 1.0, n_nodes)
    powers = np.arange(_BLOCK + 1)
    binomial = np.array([math.comb(_BLOCK, l) for l in powers], dtype=float)[:, None]
    basis = binomial * u ** powers[:, None] * (1.0 - u) ** (_BLOCK - powers[:, None])
    basis.flags.writeable = binomial.flags.writeable = False
    return basis, binomial


def _advance(coef: np.ndarray, alpha: np.ndarray, beta: np.ndarray, start: int) -> None:
    """Fill ``coef[i]`` for i > ``start`` by q_{i+1}[j] = alpha_i q_i[j] + beta_i q_i[j-1]."""
    for i in range(start, len(alpha)):
        np.multiply(coef[i], alpha[i], out=coef[i + 1])
        coef[i + 1, 1:] += coef[i, :-1] * beta[i]


# The binary routine advances its posterior T rounds at a time, from weights
# rebuilt from the counts in log space at each chunk start (largest 1). In a
# chunk no weight grows and, short of an endpoint top node being killed, the
# mass shrinks by at most (K-1)**-T. Weights below floor = tiny*(K-1)**T are
# left out of the chunk, so every product stays a normal double: numpy is
# over ten times slower on subnormals. Left-out weights sum to under K*floor,
# so while the kept mass is at least K*floor/_EPS they move the posterior
# mean by under _EPS; where it falls below, the chunk restarts from the
# counts. T is the largest, up to _MAX_CHUNK, with that bar below (K-1)**-T.
_MAX_CHUNK = 64


def up_game_batch_binary(xs: np.ndarray, mus: np.ndarray, n_nodes: int):
    """``up_game_batch`` for observations that are all exactly 0.0 or 1.0.

    On such data node k pays u_k/mu on a one and (1 - u_k)/(1 - mu) on a
    zero, so the normalised posterior over u, and so its means ubar_t of u
    and vbar_t of 1 - u, do not depend on mu: identical rows of ``xs`` share
    one posterior pass. The mixture pays ubar/mu on a one and vbar/(1 - mu)
    on a zero. Returns ``(bets, log_wealth)`` as ``up_game_batch`` does.
    """
    xs, mus = check_batch(xs, mus)
    check_node_count(n_nodes)
    ones = xs == 1.0
    # Streams are grouped by their packed bytes, one opaque item per row:
    # np.unique on that 1-D view sorts as axis=0 would, at a fraction of its cost.
    packed = np.ascontiguousarray(np.packbits(ones, axis=1))
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, stream_of = np.unique(rows, return_index=True, return_inverse=True)
    stream_of = stream_of.reshape(-1)
    posterior = _BinaryPosterior(n_nodes)
    ubar, vbar = (np.stack(m) for m in zip(*(posterior.means(ones[i]) for i in first)))
    payoffs = vbar[stream_of]
    payoffs /= (1.0 - mus)[:, None]
    ubar = ubar[stream_of]
    np.divide(ubar, mus[:, None], out=payoffs, where=ones)
    return _bets(ubar, mus), _log_wealth(payoffs)


class _BinaryPosterior:
    """Simpson-weighted posterior over the u-grid, advanced a chunk at a time.

    After n1 ones and n0 zeros node k has weight c_k u_k**n1 (1 - u_k)**n0.
    Each chunk starts from these weights computed in log space, and within
    the chunk multiplies them by u_k**a (1 - u_k)**b, read from power tables
    built once per node count. For K >= 3 the interior nodes keep a positive
    weight, so the posterior is never empty. A chunk only visits its live
    nodes, from the first to the last non-zero weight at its start: the
    others stay exactly 0 through it.
    """

    def __init__(self, n_nodes: int):
        u = np.linspace(0.0, 1.0, n_nodes)
        tiny = np.finfo(float).tiny
        max_chunk = math.log(_EPS / (n_nodes * tiny)) / (2.0 * math.log(n_nodes - 1))
        self.chunk = max(1, min(_MAX_CHUNK, int(max_chunk)))
        self.floor = tiny * float(n_nodes - 1) ** self.chunk
        self.restart_below = n_nodes * self.floor / _EPS
        powers = np.arange(self.chunk + 1)[:, None]
        self.pow_one = u**powers
        self.pow_zero = (1.0 - u) ** powers
        # sums of w*u, of w and of w*(1 - u)
        self.moments = np.stack([u, np.ones(n_nodes), 1.0 - u], axis=1)
        with np.errstate(divide="ignore"):
            self.log_one = np.log(u)
            self.log_zero = np.log1p(-u)
        self.log_prior = np.log(quadrature_coefficients(n_nodes))

    def weights(self, n_one: int, n_zero: int) -> np.ndarray:
        """Weights after the given counts, largest 1, those below the floor zeroed."""
        log_w = self.log_prior.copy()
        if n_one:
            log_w += n_one * self.log_one
        if n_zero:
            log_w += n_zero * self.log_zero
        w = np.exp(log_w - log_w.max())
        w[w < self.floor] = 0.0
        return w

    def means(self, ones: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means of u and of 1 - u before each round of one stream (True = a one).

        Both are taken from their own sums, so each keeps its relative
        accuracy when it is tiny and the other is close to 1.
        """
        n_rounds = len(ones)
        n_one = np.concatenate(([0], np.cumsum(ones)))
        n_zero = np.arange(n_rounds + 1) - n_one
        sums = np.empty((n_rounds + 1, 3))
        start = 0
        while start < n_rounds:
            w = self.weights(n_one[start], n_zero[start])
            live = np.flatnonzero(w)
            live = slice(live[0], live[-1] + 1)
            w, moments = w[live], self.moments[live]
            sums[start] = w @ moments
            stop = min(start + self.chunk, n_rounds)
            f = self.pow_one[n_one[start + 1 : stop + 1] - n_one[start], live]
            f *= self.pow_zero[n_zero[start + 1 : stop + 1] - n_zero[start], live]
            f *= w
            m = f @ moments
            low = np.flatnonzero(m[:, 1] < self.restart_below)
            if low.size:  # restart from the counts at the first such round
                stop = start + 1 + int(low[0])
                m = m[: low[0]]
            sums[start + 1 : start + 1 + len(m)] = m
            start = stop
        sums = sums[:n_rounds]
        return sums[:, 0] / sums[:, 1], sums[:, 2] / sums[:, 1]


def _check_mass(total: np.ndarray, n_played: int) -> None:
    """Raise unless every game's posterior mass after ``n_played`` rounds is positive."""
    if not (total > 0.0).all():  # NaN fails too
        dead = int(np.flatnonzero(~(total > 0.0))[0])
        raise DegeneratePosterior(f"game {dead}: posterior wiped out at round {n_played}")


def _bets(ubar: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Turn posterior means of u into bets, overwriting ``ubar``.

    Each bet is (ubar - mu)/(mu*(1 - mu)), clipped into I_mu exactly: the
    game checks bets against I_mu with no tolerance, and rounding can put the
    affine image of an extreme mean one ulp outside.
    """
    bets = ubar
    bets -= mus[:, None]
    bets /= (mus * (1.0 - mus))[:, None]
    np.clip(bets, (1.0 / (mus - 1.0))[:, None], (1.0 / mus)[:, None], out=bets)
    return bets


def _log_wealth(payoffs: np.ndarray) -> np.ndarray:
    """Running log-wealth from the mixture's per-round payoffs, overwriting them.

    A zero payoff gives -inf from that round on.
    """
    with np.errstate(divide="ignore"):
        np.log(payoffs, out=payoffs)
    np.cumsum(payoffs, axis=1, out=payoffs)
    return payoffs
