"""Pure-numpy implementation of the batch game kernels.

``up_game_batch`` is the general K-node kernel, with the semantics contract
shared with the compiled kernel: per game g with target mean mu[g],
quadrature nodes span I_mu with Simpson coefficients folded into the initial
weights; each round bets the posterior mean, scores the coin-bet payoff of
the bet, then multiplies node weights by their own payoffs. Weights are
renormalised by their sum every round, which leaves the bets invariant and
prevents under/overflow over long horizons.

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

import math

import numpy as np

from ..betting import lambda_grid, quadrature_coefficients
from ..errors import DegeneratePosterior


def up_game_batch(xs: np.ndarray, mus: np.ndarray, n_nodes: int, threads: int = 1):
    """Run one universal-portfolio coin-betting game per row of ``xs``.

    Returns ``(bets, log_wealth)`` of shape ``(G, n)``; ``log_wealth`` is the
    running sum of log payoffs with -inf saturation after a zero payoff.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    mus = np.ascontiguousarray(mus, dtype=float)
    n_games, n_rounds = xs.shape
    if mus.shape != (n_games,):
        raise ValueError("mus must have one entry per game")

    grids = np.empty((n_games, n_nodes))
    for g in range(n_games):
        grids[g] = lambda_grid(mus[g], n_nodes)
    w = np.broadcast_to(quadrature_coefficients(n_nodes), grids.shape).copy()
    w /= w.sum(axis=1, keepdims=True)

    bets = np.empty((n_games, n_rounds))
    log_wealth = np.empty((n_games, n_rounds))
    wealth = np.zeros(n_games)

    for t in range(n_rounds):
        bet = (w * grids).sum(axis=1)  # w rows are kept normalised to sum 1
        dx = xs[:, t] - mus
        payoff = np.maximum(1.0 + bet * dx, 0.0)
        with np.errstate(divide="ignore"):
            wealth = wealth + np.log(payoff)
        bets[:, t] = bet
        log_wealth[:, t] = wealth
        factors = np.maximum(1.0 + grids * dx[:, None], 0.0)
        w *= factors
        s = w.sum(axis=1, keepdims=True)
        if not (s > 0.0).all():
            dead = int(np.argmin(s[:, 0]))
            raise DegeneratePosterior(f"game {dead}: posterior wiped out at round {t + 1}")
        w /= s

    return bets, log_wealth


# The binary routine advances its posterior T rounds at a time, from weights
# rebuilt from the counts in log space at each chunk start (largest 1). In a
# chunk no weight grows and, short of an endpoint top node being killed, the
# mass shrinks by at most (K-1)**-T. Weights below floor = tiny*(K-1)**T are
# left out of the chunk, so every product stays a normal double: numpy is
# over ten times slower on subnormals. Left-out weights sum to under K*floor,
# so while the kept mass is at least K*floor/_EPS they move the posterior
# mean by under _EPS; where it falls below, the chunk restarts from the
# counts. T is the largest, up to _MAX_CHUNK, with that bar below (K-1)**-T.
_EPS = 2.0**-53
_MAX_CHUNK = 64


def up_game_batch_binary(xs: np.ndarray, mus: np.ndarray, n_nodes: int):
    """``up_game_batch`` for observations that are all exactly 0.0 or 1.0.

    Mapped to u = mu*(1 + lam*(1 - mu)), the nodes sit at u_k = k/(K-1) for
    every mu, and node k pays u_k/mu on a one and (1 - u_k)/(1 - mu) on a
    zero. The normalised posterior over u, and so its mean ubar_t, does not
    depend on mu: identical rows of ``xs`` share one posterior pass, and each
    game bets the affine image (ubar_t - mu)/(mu*(1 - mu)), clipped into
    I_mu. Returns ``(bets, log_wealth)`` as ``up_game_batch`` does.
    """
    xs = np.asarray(xs, dtype=float)
    mus = np.ascontiguousarray(mus, dtype=float)
    n_games, n_rounds = xs.shape
    if mus.shape != (n_games,):
        raise ValueError("mus must have one entry per game")
    if n_nodes < 3:
        raise ValueError("need at least 3 quadrature nodes")
    if not ((mus > 0.0) & (mus < 1.0)).all():
        raise ValueError("every mu must lie in (0, 1)")

    ones = xs == 1.0
    _, first, stream_of = np.unique(
        np.packbits(ones, axis=1), axis=0, return_index=True, return_inverse=True
    )
    posterior = _BinaryPosterior(n_nodes)
    ubar = np.stack([posterior.means(ones[i]) for i in first])

    span = mus * (1.0 - mus)
    bets = (ubar[stream_of.reshape(-1)] - mus[:, None]) / span[:, None]
    np.clip(bets, (1.0 / (mus - 1.0))[:, None], (1.0 / mus)[:, None], out=bets)
    payoff = np.maximum(1.0 + bets * (xs - mus[:, None]), 0.0)
    with np.errstate(divide="ignore"):
        log_wealth = np.cumsum(np.log(payoff), axis=1)
    return bets, log_wealth


class _BinaryPosterior:
    """Simpson-weighted posterior over the u-grid, advanced a chunk at a time.

    After n1 ones and n0 zeros node k has weight c_k u_k**n1 (1 - u_k)**n0.
    Each chunk starts from these weights computed in log space, and within
    the chunk multiplies them by u_k**a (1 - u_k)**b, read from power tables
    built once per node count. For K >= 3 the interior nodes keep a positive
    weight, so the posterior is never empty.
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
        self.moments = np.stack([u, np.ones(n_nodes)], axis=1)  # sums of w*u and of w
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

    def means(self, ones: np.ndarray) -> np.ndarray:
        """Posterior mean of u before each round of one stream (True = a one)."""
        n_rounds = len(ones)
        n_one = np.concatenate(([0], np.cumsum(ones)))
        n_zero = np.arange(n_rounds + 1) - n_one
        means = np.empty(n_rounds + 1)
        start = 0
        while start < n_rounds:
            w = self.weights(n_one[start], n_zero[start])
            m = w @ self.moments
            means[start] = m[0] / m[1]
            stop = min(start + self.chunk, n_rounds)
            f = self.pow_one[n_one[start + 1 : stop + 1] - n_one[start]]
            f *= self.pow_zero[n_zero[start + 1 : stop + 1] - n_zero[start]]
            f *= w
            m = f @ self.moments
            low = np.flatnonzero(m[:, 1] < self.restart_below)
            if low.size:  # restart from the counts at the first such round
                stop = start + 1 + int(low[0])
                m = m[: low[0]]
            means[start + 1 : start + 1 + len(m)] = m[:, 0] / m[:, 1]
            start = stop
        return means[:n_rounds]
