# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled batch game kernel: fused universal-portfolio betting rounds.

Mirrors the semantics of ``_pykernels.up_game_batch`` (weights on the grid
u_k = k/(K-1) with node payoffs alpha*(1 - u_k) + beta*u_k, posterior-mean
bet clipped into I_mu, log of the mixture wealth) in a single pass per round
with no temporaries. Games are independent, so slices of the batch can be
processed by separate threads with the GIL released.
"""

import numpy as np

cimport numpy as cnp
from cython.parallel cimport prange
from libc.math cimport log

from ..betting import quadrature_coefficients
from ..errors import DegeneratePosterior

cnp.import_array()


cdef int _run_game(const double* xs, double mu, const double* u,
                   double* w, int n_nodes, int n_rounds,
                   double* bets, double* logw) noexcept nogil:
    """Run one game in place; returns the 1-based round of posterior death, or 0."""
    cdef int t, k
    cdef double num, den, bet, x, alpha, beta, wealth
    # The game checks bets against I_mu with no tolerance, and the affine
    # image of the posterior mean can round one ulp outside it.
    cdef double lo = 1.0 / (mu - 1.0)
    cdef double hi = 1.0 / mu
    den = 0.0
    for k in range(n_nodes):
        den += w[k]
    wealth = 0.0
    for t in range(n_rounds):
        num = 0.0
        for k in range(n_nodes):
            num += w[k] * u[k]
        bet = (num / den - mu) / (mu * (1.0 - mu))
        if bet < lo:
            bet = lo
        elif bet > hi:
            bet = hi
        bets[t] = bet
        x = xs[t]
        # Dividing by the previous mass renormalises the weights, so the new
        # mass is the mixture's payoff for the round.
        alpha = (1.0 - x) / (1.0 - mu) / den
        beta = x / mu / den
        den = 0.0
        for k in range(n_nodes):
            w[k] *= alpha * (1.0 - u[k]) + beta * u[k]
            den += w[k]
        if not den > 0.0:  # NaN too
            return t + 1
        wealth += log(den)
        logw[t] = wealth
    return 0


def up_game_batch(xs, mus, int n_nodes, int threads=1):
    """Run one universal-portfolio coin-betting game per row of ``xs``.

    Returns ``(bets, log_wealth)`` of shape ``(G, n)``.
    """
    cdef cnp.ndarray[double, ndim=2, mode="c"] xs_c = np.ascontiguousarray(xs, dtype=np.float64)
    cdef cnp.ndarray[double, ndim=1, mode="c"] mus_c = np.ascontiguousarray(mus, dtype=np.float64)
    cdef int n_games = xs_c.shape[0]
    cdef int n_rounds = xs_c.shape[1]
    if mus_c.shape[0] != n_games:
        raise ValueError("mus must have one entry per game")

    cdef cnp.ndarray[double, ndim=1, mode="c"] u = np.linspace(0.0, 1.0, n_nodes)
    cdef cnp.ndarray[double, ndim=2, mode="c"] w = np.broadcast_to(
        quadrature_coefficients(n_nodes), (n_games, n_nodes)).copy()
    cdef cnp.ndarray[double, ndim=2, mode="c"] bets = np.empty((n_games, n_rounds))
    cdef cnp.ndarray[double, ndim=2, mode="c"] logw = np.empty((n_games, n_rounds))
    cdef cnp.ndarray[int, ndim=1, mode="c"] died = np.zeros(n_games, dtype=np.intc)

    cdef int i
    cdef int nthreads = threads if threads > 0 else 1
    if nthreads > 1:
        for i in prange(n_games, nogil=True, num_threads=nthreads, schedule="static"):
            died[i] = _run_game(&xs_c[i, 0], mus_c[i], &u[0], &w[i, 0],
                                n_nodes, n_rounds, &bets[i, 0], &logw[i, 0])
    else:
        with nogil:
            for i in range(n_games):
                died[i] = _run_game(&xs_c[i, 0], mus_c[i], &u[0], &w[i, 0],
                                    n_nodes, n_rounds, &bets[i, 0], &logw[i, 0])

    if died.any():
        g = int(np.flatnonzero(died)[0])
        raise DegeneratePosterior(f"game {g}: posterior wiped out at round {int(died[g])}")
    return np.asarray(bets), np.asarray(logw)
