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

``up_game_batch`` is the general K-node kernel. Per round it takes sum(w*u)
and sum(w) in one (K, 2) product, and builds the payoff row from alpha and
beta divided by the previous sum, so the weights are renormalised inside the
multiply rather than by a pass of their own. Renormalising leaves the bets
invariant and prevents under/overflow over long horizons.

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

from ..betting import quadrature_coefficients
from ..errors import DegeneratePosterior


def up_game_batch(xs: np.ndarray, mus: np.ndarray, n_nodes: int):
    """Run one universal-portfolio coin-betting game per row of ``xs``.

    Observations must lie in [0, 1]; ``xs`` may be a broadcast view and is
    not copied. Returns ``(bets, log_wealth)`` of shape ``(G, n)``;
    ``log_wealth`` is the running log of the mixture wealth.
    """
    xs, mus = _check_batch(xs, mus, n_nodes)
    # NaN passes here and raises DegeneratePosterior in the loop.
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ValueError("observations must lie in [0, 1]")
    n_games, n_rounds = xs.shape

    u = np.linspace(0.0, 1.0, n_nodes)
    moments = np.stack([u, np.ones(n_nodes)], axis=1)  # sums of w*u and of w
    basis = np.stack([1.0 - u, u])  # payoff row = [alpha, beta] @ basis
    w = np.broadcast_to(quadrature_coefficients(n_nodes), (n_games, n_nodes)).copy()
    payoff = np.empty_like(w)
    alpha_beta = np.empty((n_games, 2))
    alpha_at_zero, beta_at_one = 1.0 / (1.0 - mus), 1.0 / mus

    ubar = np.empty((n_games, n_rounds))  # becomes the bets
    payoffs = np.empty((n_games, n_rounds))  # becomes the log-wealth
    for t in range(n_rounds):
        m = w @ moments
        total = m[:, 1]
        _check_mass(total, t)
        if t:  # the mass of renormalised weights after a round is its payoff
            payoffs[:, t - 1] = total
        ubar[:, t] = m[:, 0] / total
        x = xs[:, t]
        np.multiply(1.0 - x, alpha_at_zero, out=alpha_beta[:, 0])
        np.multiply(x, beta_at_one, out=alpha_beta[:, 1])
        alpha_beta /= total[:, None]  # renormalises w in the multiply below
        np.matmul(alpha_beta, basis, out=payoff)
        w *= payoff
    if n_rounds:
        total = w.sum(axis=1)
        _check_mass(total, n_rounds)
        payoffs[:, -1] = total
    return _bets(ubar, mus), _log_wealth(payoffs)


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

    On such data node k pays u_k/mu on a one and (1 - u_k)/(1 - mu) on a
    zero, so the normalised posterior over u, and so its means ubar_t of u
    and vbar_t of 1 - u, do not depend on mu: identical rows of ``xs`` share
    one posterior pass. The mixture pays ubar/mu on a one and vbar/(1 - mu)
    on a zero. Returns ``(bets, log_wealth)`` as ``up_game_batch`` does.
    """
    xs, mus = _check_batch(xs, mus, n_nodes)
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


def _check_batch(xs, mus, n_nodes):
    xs = np.asarray(xs, dtype=float)
    mus = np.ascontiguousarray(mus, dtype=float)
    if xs.ndim != 2:
        raise ValueError("xs must be (games, rounds)")
    if mus.shape != (xs.shape[0],):
        raise ValueError("mus must have one entry per game")
    if n_nodes < 3:
        raise ValueError("need at least 3 quadrature nodes")
    if not ((mus > 0.0) & (mus < 1.0)).all():
        raise ValueError("every mu must lie in (0, 1)")
    return xs, mus


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
