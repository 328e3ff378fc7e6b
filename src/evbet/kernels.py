"""The batch universal-portfolio game kernels, dispatched on the data.

``up_game_batch`` is the kernels' one entry point and their one argument
boundary: it checks the batch, the node count and the observations once,
then hands the checked arrays to one of two private routines, which check
nothing. Batches whose observations are all exactly 0.0 or 1.0 take the
binary u-posterior routine (``_binary_kernel``): one posterior pass per
distinct stream rather than per game. Every other batch goes to the general
K-node kernel (``_general_kernel``), which plays a block of rounds per pass
over its (games, K) weights. Both are plain numpy, and their own loops run
on the calling thread; ``BACKEND`` and ``n_threads()`` say so in run
manifests. numpy's matrix products inside them use OpenBLAS's thread pool
in any process that did not pin it: the ``evbet`` command line pins it to one
thread (``evbet.cli``), and a library user can set ``OPENBLAS_NUM_THREADS=1``
before importing numpy.

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

``_general_kernel`` is the general K-node kernel. It visits the (G, K)
weights once per block of J = ``_BLOCK`` rounds, not once per round. After i
rounds of a block node k weighs w_k*Q_i(u_k), with w the weights at the block
start and Q_i = prod_{s<i} (alpha_s*(1 - u) + beta_s*u). In the basis
u**j (1 - u)**(i - j) the coefficients of Q_i follow

    q_{i+1}[j] = alpha_i*q_i[j] + beta_i*q_i[j-1].

Multiplied by ((1 - u) + u)**(J - i) = 1, Q_i and u*Q_i are polynomials of
degree J, whose coefficients E_i[l] and F_i[l] in the Bernstein basis
b_l(u) = C(J, l) u**l (1 - u)**(J - l) are fixed binomial combinations of
q_i (``_elevation``). With the block's moments M[l] = sum_k w_k b_l(u_k),
one (J+1, K) product, the mass before round i is sum(w*Q_i) =
sum_l E_i[l]*M[l] and its first moment sum(w*Q_i*u) = sum_l F_i[l]*M[l];
their ratio is ubar, and the ratio of successive masses is the round's
mixture payoff. Every term of these sums is non-negative, so none cancels,
which a monomial basis would not give. At the block end
w <- w*Q_J(u_k)/mass = w*sum_l E_J[l]*b_l(u_k)/mass, from the same (J+1, K)
basis table; a block that ends after n < J rounds uses E_n, Q_n padded with
neutral rounds. A block thus costs two K-wide products and one multiply.

None of q, E and F depends on the weights, so they are built for a span of
blocks at a time: the J steps of the recursion run on (i+1, blocks, G)
arrays, and each step's q_i goes to its E_i and F_i rows by one product with
a fixed (2(J+1), i+1) matrix. The block loop keeps only the work that reads
the weights: the moment product, one contraction giving the 2J+1 sums of
every game, the floor check and the update; the span's bets and payoffs are
written when it ends, straight into the (G, n) outputs. A span has as many
blocks as its tables fit in ``_SPAN_BYTES``: 8 at 99 games, over 800 for one
game. Each round's alpha and beta are divided by max(alpha, beta), the
factor going back into that round's payoff, so the Bernstein coefficients E
of Q lie in [0, 1] for any mu in (0, 1). A short last span is padded with
neutral rounds, alpha = beta = 1, which multiply Q by (1 - u) + u = 1.
Renormalising at each block end, to a total of 2**S (``_TOTAL_EXP``) rather
than 1, leaves the bets invariant, prevents under/overflow over long
horizons and keeps a weight a normal double down to 2**-(S + 1022) of the
total. A block whose mass nears underflow ends early, and its span with
it; the next span starts at the round where it stopped. When that happens
at a block's first round, its subnormal weights, which carry too few bits
for so small a mass, are dropped first, and a round that leaves no weight
raises ``DegeneratePosterior``. A payoff below the smallest normal double,
which a posterior that lost its leading nodes can pay, is taken from the
logs of its masses.

``_binary_kernel`` plays the same games on observations that are all
exactly 0.0 or 1.0, with one posterior pass per distinct stream instead of
one per game. It keeps the exact posterior up to rounding (1e-9 against the
closed-form mixture wealth in the tests), so it agrees with ``_general_kernel``
to 1e-9 while no weight of the general kernel underflows. Where that kernel
loses weights to underflow (long runs of one value, a late change of
regime) it drifts from the mixture or raises ``DegeneratePosterior``; the
binary routine does neither.
"""

from __future__ import annotations

import functools
import math

from ._lazy import np
from .domain import bet_bounds, check_batch, check_node_count, check_observations
from .domain import unbroadcast_rows
from .errors import DegeneratePosterior

BACKEND = "python"
# Quadrature nodes of the universal portfolio unless a strategy names its own.
DEFAULT_UP_NODES = 1001


def n_threads() -> int:
    """Threads the kernels' own loops run on: the calling thread only.

    numpy's matrix products inside them use OpenBLAS's thread pool, sized when
    numpy loads: one thread under the ``evbet`` command line or after
    ``OPENBLAS_NUM_THREADS=1`` is set before numpy is imported, OpenBLAS's
    default otherwise.
    """
    return 1


def quadrature_coefficients(n_nodes: int) -> np.ndarray:
    """Composite Simpson coefficients (trapezoid when the node count is even).

    The step size is omitted: the posterior mean is a ratio of two integrals
    over the same grid, so constant factors cancel. Simpson is used because it
    integrates the cubic-and-below posterior moments exactly, which the
    trapezoid rule misses at the default grid size.
    """
    c = np.ones(n_nodes)
    if n_nodes % 2 == 1:
        c[1:-1:2] = 4.0
        c[2:-1:2] = 2.0
    else:
        c[0] = c[-1] = 0.5
    return c


def up_game_batch(xs, mus, n_nodes: int):
    """Run one universal-portfolio coin-betting game per row of ``xs``.

    ``xs`` is a (games, rounds) array of observations, finite and in [0, 1],
    with one mean in (0, 1) per game in ``mus`` and at least 3 quadrature
    nodes; anything else raises ``ValueError`` before any round is played.
    ``xs`` may be a broadcast view and is not copied. Returns
    ``(bets, log_wealth)`` of shape ``(G, n)``; ``log_wealth`` is the running
    log of the mixture wealth. Binary data takes ``_binary_kernel``, anything
    else ``_general_kernel``.
    """
    xs, mus = check_batch(xs, mus)
    check_node_count(n_nodes)
    rows = unbroadcast_rows(xs)  # one row for a stream shared by every game
    check_observations(rows)
    if rows.size and ((rows == 0.0) | (rows == 1.0)).all():
        return _binary_kernel(rows == 1.0, mus, n_nodes)
    return _general_kernel(xs, mus, n_nodes)


def _general_kernel(xs: np.ndarray, mus: np.ndarray, n_nodes: int):
    """``up_game_batch`` on checked arrays, by the general K-node kernel.

    Plays ``_BLOCK`` rounds per pass over the (G, K) weights: within a block
    the weights stay put, and each round's mass and bet are the block's
    Bernstein moments of the weights summed against weight-free tables, which
    are built for a span of blocks at a time (see the module docstring). A
    round that leaves a game no weight raises ``DegeneratePosterior`` naming
    the round and the first such game. No bet or log-wealth is NaN or inf.
    """
    n_games, n_rounds = xs.shape
    block = _BLOCK
    basis = _bernstein(n_nodes)
    # Terms lost to underflow in a mass total under K * 2**J * tiny, so they
    # are under _EPS of any mass above this floor. A block ends before the
    # first round whose mass falls below it, or after that round if it is
    # the block's first; its span ends with it.
    floor = n_nodes * 2.0**block * _TINY / _EPS
    coefficients = quadrature_coefficients(n_nodes)
    coefficients *= 2.0 ** (_TOTAL_EXP - math.frexp(coefficients.sum())[1])
    w = np.broadcast_to(coefficients, (n_games, n_nodes)).copy()
    scratch = np.empty_like(w)
    rows = 2 * block + 1
    n_blocks = min(_span_blocks(n_games), -(-n_rounds // block))
    span = n_blocks * block
    # Round i of block b of a span is row b*J + i.
    alpha, beta, scale = np.empty((3, span, n_games))
    a, b = (v.reshape(n_blocks, block, n_games) for v in (alpha, beta))
    # coef[j, b] holds the coefficient of Q_i on u**j (1 - u)**(i - j) in
    # block b, per game along the last axis; rows past degree i are not read.
    coef, coef_next = np.empty((2, block + 1, n_blocks, n_games))
    # tables[2i, :, b] and tables[2i + 1, :, b]: the degree-J Bernstein
    # coefficients of Q_i and of u*Q_i in block b.
    tables = np.empty((rows, block + 1, n_blocks, n_games))
    columns = n_blocks * n_games
    moments = np.empty((block + 1, n_games))
    # sums[b, 2i] and sums[b, 2i + 1]: the mass and first moment of u before
    # round i of block b, relative to the weights at the block start.
    sums = np.empty((n_blocks, rows, n_games))
    top = np.empty((block + 1, n_games))
    # alpha = 1 + lo*(x - mu) and beta = 1 + hi*(x - mu): the payoffs of the
    # bets at the ends of I_mu, nodes u = 0 and u = 1.
    lo, hi = bet_bounds(mus)
    alpha_at_zero, beta_at_one = -lo, hi

    bets = np.empty((n_games, n_rounds))
    log_payoffs = np.empty((n_games, n_rounds))  # becomes the log-wealth
    start = 0
    while start < n_rounds:
        # The span's weight-free work: payoff factors, scaled per round, and tables.
        x = xs[:, start : start + span].T
        n_span = len(x)
        np.subtract(1.0, x, out=alpha[:n_span])
        alpha[:n_span] *= alpha_at_zero
        np.multiply(x, beta_at_one, out=beta[:n_span])
        alpha[n_span:] = beta[n_span:] = 1.0  # neutral rounds pad the span
        np.maximum(alpha, beta, out=scale)
        alpha /= scale
        beta /= scale
        coef[0] = 1.0
        for i, elevate in enumerate(_elevation()):  # q_i has i + 1 coefficients
            q = coef[: i + 1]
            rows_of_q = tables[2 * i : 2 * i + 2].reshape(len(elevate), columns)
            np.matmul(elevate, q.reshape(i + 1, columns), out=rows_of_q)
            if i == block:
                break
            # q_{i+1}[j] = alpha_i q_i[j] + beta_i q_i[j-1]
            np.multiply(q, b[:, i], out=coef_next[1 : i + 2])
            q *= a[:, i]
            coef_next[0] = q[0]
            coef_next[1 : i + 1] += q[1:]
            coef, coef_next = coef_next, coef

        # The weight-dependent work, block by block.
        first_round = start
        for k in range(n_blocks):
            np.matmul(basis, w.T, out=moments)
            np.einsum("rlg,lg->rg", tables[:, :, k], moments, out=sums[k])
            mass = sums[k, 0::2]
            n_play = min(block, n_rounds - start)
            if mass[1 : n_play + 1].min(initial=math.inf) < floor:
                low = (mass[1 : n_play + 1] < floor).any(axis=1)
                first = int(np.argmax(low))
                if first == 0:
                    # Subnormal weights hold too few bits to carry a mass
                    # this low: they are dropped and the block read again.
                    w[w < _TINY] = 0.0
                    np.matmul(basis, w.T, out=moments)
                    np.einsum("rlg,lg->rg", tables[:, :, k], moments, out=sums[k])
                    _check_mass(mass[1], start + 1)
                n_play = max(first, 1)
            start += n_play
            if start == n_rounds:
                break
            # w <- w * Q(u) * 2**S / mass, Q taken to degree J by neutral rounds
            np.multiply(tables[2 * n_play, :, k], 2.0**_TOTAL_EXP, out=top)
            top /= np.maximum(mass[n_play], _MIN_MASS)
            np.matmul(top.T, basis, out=scratch)
            w *= scratch
            if n_play < block:  # the next span starts where this block ended
                break
        _write_span(sums, scale, bets, log_payoffs, first_round, start)
    return _bets(bets, mus), np.cumsum(log_payoffs, axis=1, out=log_payoffs)


# Rounds ``_general_kernel`` plays per pass over its weights. On the mc-grid shape
# (99 games x 1000 rounds, K = 1001; 2-vCPU VM) J = 8, 12, 16, 24 and 32 ran
# within run-to-run spread of one another when each block built its own
# tables, while the benchmark's peak RSS rose 0.2 MB over the per-round
# kernel's at J = 8 and 0.9 MB at 16, the tables growing as J**2. With span
# tables J = 12 and 16 still ran within spread on mc-grid; longer blocks do
# help one long game (20,000 rounds: 0.048 s at J = 16, 0.077 s at 8).
_BLOCK = 8
# Bytes of the (2J+1, J+1, blocks, G) tables of one span: a span has as many
# blocks as fit, at least one. On the mc-grid shape that is 8 blocks (1 MB);
# one game gets spans of over 800 blocks.
_SPAN_BYTES = 2**20
_EPS = 2.0**-53
_TINY = 2.0**-1022  # the smallest normal double
# The general kernel's weights sum to 2**S, S = _TOTAL_EXP, after each block,
# not to 1, so a weight stays a normal double down to 2**-(S + 1022) of the
# total: numpy is many times slower on subnormals. The masses and moments
# are sums of non-negative terms bounded by the total, so they cannot
# overflow while S stays below 1023. A block end multiplies the
# weights by Bernstein coefficients times 2**S / mass; a mass below _MIN_MASS
# is read as _MIN_MASS, so that factor stays under 2**1023 and the next block
# starts from a total below 2**S.
_TOTAL_EXP = 1000
_MIN_MASS = 2.0 ** (_TOTAL_EXP - 1023)


def _span_blocks(n_games: int) -> int:
    """Blocks per span for a batch of ``n_games`` games, as ``_SPAN_BYTES`` allows."""
    return max(1, _SPAN_BYTES // ((2 * _BLOCK + 1) * (_BLOCK + 1) * max(n_games, 1) * 8))


@functools.cache
def _elevation() -> list[np.ndarray]:
    """Matrices taking block-polynomial coefficients to degree-J Bernstein ones.

    Times ((1 - u) + u)**(J - i), Q_i = sum_j q_i[j] u**j (1 - u)**(i - j)
    has the coefficient sum_j C(J - i, l - j) q_i[j] on u**l (1 - u)**(J - l),
    and u*Q_i has sum_j C(J - i - 1, l - j - 1) q_i[j]; divided by C(J, l)
    these are Bernstein coefficients. Returns, read-only, for i < J the
    (2(J+1), i+1) matrix taking q_i to those of Q_i stacked on those of u*Q_i,
    and for i = J the (J+1, J+1) matrix of Q_J alone; J = ``_BLOCK``.
    """
    degree = _BLOCK

    def entry(n: int, k: int, l: int) -> float:
        return math.comb(n, k) / math.comb(degree, l) if 0 <= k <= n else 0.0

    matrices = []
    for i in range(degree + 1):
        columns = range(i + 1)
        rows = [[entry(degree - i, l - j, l) for j in columns] for l in range(degree + 1)]
        if i < degree:  # u*Q_i
            rows += [[entry(degree - i - 1, l - j - 1, l) for j in columns] for l in range(degree + 1)]
        matrix = np.array(rows)
        matrix.flags.writeable = False
        matrices.append(matrix)
    return matrices


@functools.lru_cache(maxsize=8)
def _bernstein(n_nodes: int) -> np.ndarray:
    """The (J+1, K) degree-J Bernstein basis C(J, l) u_k**l (1 - u_k)**(J - l)
    on the u-grid, J = ``_BLOCK``, read-only."""
    u = np.linspace(0.0, 1.0, n_nodes)
    powers = np.arange(_BLOCK + 1)[:, None]
    binomial = np.array([math.comb(_BLOCK, l) for l in range(_BLOCK + 1)], dtype=float)[:, None]
    basis = binomial * u**powers * (1.0 - u) ** (_BLOCK - powers)
    basis.flags.writeable = False
    return basis


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


def _binary_kernel(ones: np.ndarray, mus: np.ndarray, n_nodes: int):
    """``up_game_batch`` on checked observations that are all exactly 0.0 or
    1.0, given as ``ones``: True for a one, a single row for a stream shared
    by every game.

    On such data node k pays u_k/mu on a one and (1 - u_k)/(1 - mu) on a
    zero, so the normalised posterior over u, and so its means ubar_t of u
    and vbar_t of 1 - u, do not depend on mu: identical rows of ``xs`` share
    one posterior pass. The mixture pays ubar/mu on a one and vbar/(1 - mu)
    on a zero. Returns ``(bets, log_wealth)`` as ``up_game_batch`` does.
    """
    # Streams are grouped by their packed bytes, one opaque item per row:
    # np.unique on that 1-D view sorts as axis=0 would, at a fraction of its cost.
    packed = np.ascontiguousarray(np.packbits(ones, axis=1))
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, stream_of = np.unique(rows, return_index=True, return_inverse=True)
    stream_of = np.broadcast_to(stream_of.reshape(-1), len(mus))
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


def _write_span(sums, scale, bets, log_payoffs, first: int, stop: int) -> None:
    """Write the bets (as posterior means of u) and the logs of the scaled
    mixture payoffs of rounds ``first`` to ``stop`` - 1, the rounds a span played.

    ``sums[b, 2i]`` is the mass before round i of block b and ``sums[b, 2i + 1]``
    its first moment of u, both relative to the weights at the block start. A
    payoff is the ratio of two masses; one below the smallest normal double,
    which a posterior that lost its leading nodes can pay, is taken as the
    difference of their logs instead, so it neither underflows nor loses bits.
    """
    n_games = sums.shape[2]
    full, rest = divmod(stop - first, _BLOCK)
    for start, n_blocks, n in ((0, full, _BLOCK), (full, int(rest > 0), rest)):  # full blocks, then a short one
        if not n_blocks:
            continue
        blocks = slice(start, start + n_blocks)
        rounds = slice(first + start * _BLOCK, first + start * _BLOCK + n_blocks * n)
        before = sums[blocks, 0 : 2 * n : 2]
        # (blocks, n, G) views of the (G, rounds) outputs
        out = bets[:, rounds].reshape(n_games, n_blocks, n).transpose(1, 2, 0)
        np.divide(sums[blocks, 1 : 2 * n : 2], before, out=out)
        after = sums[blocks, 2 : 2 * n + 1 : 2]
        factor = scale[start * _BLOCK : start * _BLOCK + n_blocks * n].reshape(n_blocks, n, n_games)
        out = log_payoffs[:, rounds].reshape(n_games, n_blocks, n).transpose(1, 2, 0)
        np.divide(after, before, out=out)
        out *= factor
        low = out < _TINY
        np.log(out, out=out, where=~low)
        if low.any():
            out[low] = np.log(after[low]) - np.log(before[low]) + np.log(factor[low])


def _check_mass(total: np.ndarray, n_played: int) -> None:
    """Raise unless every game's posterior mass after ``n_played`` rounds is positive."""
    if not (total > 0.0).all():
        dead = int(np.flatnonzero(~(total > 0.0))[0])
        raise DegeneratePosterior(f"game {dead}: posterior wiped out at round {n_played}")


def _bets(ubar: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Turn posterior means of u into bets, overwriting ``ubar``.

    Each bet is (ubar - mu)/(mu*(1 - mu)), clipped into I_mu exactly: the
    game checks bets against I_mu with no tolerance, and rounding can put the
    affine image of an extreme mean one ulp outside.
    """
    lo, hi = bet_bounds(mus)
    bets = ubar
    bets -= mus[:, None]
    bets /= (mus * (1.0 - mus))[:, None]
    np.clip(bets, lo[:, None], hi[:, None], out=bets)
    return bets


def _log_wealth(payoffs: np.ndarray) -> np.ndarray:
    """Running log-wealth from the mixture's per-round payoffs, overwriting them.

    A zero payoff gives -inf from that round on.
    """
    with np.errstate(divide="ignore"):
        np.log(payoffs, out=payoffs)
    np.cumsum(payoffs, axis=1, out=payoffs)
    return payoffs
