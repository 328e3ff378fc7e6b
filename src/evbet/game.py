"""The sequential testing game: bet, observe, accumulate log-wealth.

Each round the strategy commits a fraction before seeing the observation; the
round's e-value is the coin-bet payoff ``1 + lam*(x - mu)`` and log-wealth is
the running sum of log e-values. Crossing ``log(1/delta)`` is recorded as a
rejection of the mean-``mu`` hypothesis, but play continues: full-horizon
ledgers are what the confidence-sequence layer consumes. A zero e-value
(betting the boundary against an endpoint observation) saturates the wealth
at -inf; the game goes on but can never reject.

A ledger is a fixed function of its bets, so it has one scorer,
``score_bets``: ``run_game`` collects a strategy's bets round by round and
hands them to it, and the CLI hands it the bets of the batch kernel.
"""

from __future__ import annotations

import itertools
import math

from ._lazy import np
from ._record import Record
from . import kernels
from .domain import bet_bounds, check_batch, check_bet, check_delta, check_mu, check_node_count
from .domain import check_observation, check_observations, rejection_threshold


def parse_strategy(literal: str) -> tuple[str, float | int]:
    """The one reader of strategy literals: ``constant:<lambda>`` as ``("constant", lam)``,
    ``up[:K]`` as ``("up", K)`` with K defaulting to ``kernels.DEFAULT_UP_NODES``."""
    kind, _, arg = literal.partition(":")
    if kind not in ("constant", "up"):
        raise ValueError(f"unknown strategy kind {kind!r}")
    try:
        if kind == "constant":
            return kind, float(arg)
        n_nodes = int(arg) if arg else kernels.DEFAULT_UP_NODES
    except ValueError as exc:
        raise ValueError(f"bad strategy literal {literal!r}: {exc}") from exc
    check_node_count(n_nodes)
    return kind, n_nodes


def check_strategy(literal: str, mus: np.ndarray) -> tuple[str, float | int]:
    """``parse_strategy``, with every mean and a constant fraction checked against each I_mu."""
    kind, arg = parse_strategy(literal)
    check_mu(mus)
    if kind == "constant":
        for mu in np.unique(mus):
            check_bet(arg, mu)
    return kind, arg


class LedgerRow(Record):
    t: int
    x: float
    lam: float
    e_value: float
    log_wealth: float


class WealthLedger(Record):
    """A game's ledger as columns, one entry per round (round t at index t - 1)."""

    mu: float
    delta: float
    x: tuple[float, ...] = ()
    lam: tuple[float, ...] = ()
    e_value: tuple[float, ...] = ()
    log_wealth: tuple[float, ...] = ()
    rejected_at: int | None = None

    def __post_init__(self):
        check_delta(self.delta)

    @property
    def threshold(self) -> float:
        return rejection_threshold(self.delta)

    @property
    def final_log_wealth(self) -> float:
        return self.log_wealth[-1] if self.log_wealth else 0.0

    @property
    def rows(self) -> tuple[LedgerRow, ...]:
        """One ``LedgerRow`` per round, built from the columns on each access."""
        return tuple(
            itertools.starmap(
                LedgerRow,
                zip(itertools.count(1), self.x, self.lam, self.e_value, self.log_wealth),
            )
        )

    def log_wealth_series(self) -> np.ndarray:
        return np.array(self.log_wealth)


def score_bets(mu: float, delta: float, bets, xs) -> WealthLedger:
    """The ledger of a game that bet ``bets[t]`` before observing ``xs[t]``.

    Round t pays the e-value ``max(1 + bets[t]*(xs[t] - mu), 0)``; log-wealth
    is ``recompute_log_wealth`` of the e-values, so a stored ledger recomputes
    bit for bit. Raises at the first round whose observation lies outside
    [0, 1] (``ValueError``) or whose bet lies outside ``I_mu``
    (``OutOfRange``), the observation checked first, as ``run_game`` does.
    """
    threshold = rejection_threshold(delta)
    lo, hi = bet_bounds(mu)
    bets = np.asarray(bets, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if bets.ndim != 1 or bets.shape != xs.shape:
        raise ValueError("bets and xs must be 1-D and of one length")
    bad = np.flatnonzero(~((xs >= 0.0) & (xs <= 1.0) & (bets >= lo) & (bets <= hi)))
    if bad.size:
        t = bad[0]
        check_observation(xs[t].item())
        check_bet(bets[t].item(), mu, t + 1)
    e_value = np.maximum(1.0 + bets * (xs - mu), 0.0).tolist()
    log_wealth = recompute_log_wealth(e_value)
    crossed = np.flatnonzero(np.array(log_wealth) > threshold)
    return WealthLedger(
        mu=mu,
        delta=delta,
        x=tuple(xs.tolist()),
        lam=tuple(bets.tolist()),
        e_value=tuple(e_value),
        log_wealth=tuple(log_wealth),
        rejected_at=int(crossed[0]) + 1 if crossed.size else None,
    )


def run_game(mu: float, delta: float, strategy, xs) -> WealthLedger:
    """Play a full game over ``xs`` and return the complete ledger.

    Each round checks the observation, asks the strategy for its bet, checks
    the bet against ``I_mu`` and only then reveals the observation to the
    strategy; the collected bets are scored by ``score_bets``.
    """
    check_delta(delta)
    check_mu(mu)
    played, bets = [], []
    for t, x in enumerate(xs, start=1):
        check_observation(x)
        lam = float(strategy.bet())
        check_bet(lam, mu, t)
        strategy.observe(x)
        played.append(x)
        bets.append(lam)
    return score_bets(mu, delta, bets, played)


def recompute_log_wealth(e_values) -> list[float]:
    """Log-wealth series of the e-values: the left fold ``w += log(e)`` from 0.

    Every ledger's log-wealth is this fold, so a persisted ledger recomputes
    bit for bit from its e-values. A zero e-value makes the wealth -inf from
    that round on.
    """
    if not isinstance(e_values, (list, tuple)):  # a sequence is read in place, not copied
        e_values = list(e_values)
    zero = e_values.index(0.0) if 0.0 in e_values else len(e_values)
    out = list(itertools.accumulate(map(math.log, itertools.islice(e_values, zero)), initial=0.0))
    del out[0]
    out.extend(itertools.repeat(-math.inf, len(e_values) - zero))
    return out


# Bytes of the bool block run_games_batch compares against the threshold at a
# time: one block for 99 games of up to 2,600 rounds, 5 games at 50,000 rounds.
_CROSSING_BYTES = 2**18


class BatchGameResult(Record):
    """Per-game bets, wealth trajectories and first rejection rounds."""

    bets: np.ndarray
    log_wealth: np.ndarray
    rejected_at: np.ndarray  # 0 where never rejected, else 1-based round

    def ever_rejected(self) -> np.ndarray:
        return self.rejected_at > 0


def run_games_batch(mus, xs, strategy: str, delta: float) -> BatchGameResult:
    """Run one game per row of ``xs``, each with the strategy of the literal ``strategy``.

    The universal portfolio goes to ``kernels.up_game_batch``, whose argument
    boundary checks ``xs`` and ``mus``; a constant fraction's batch is
    checked here, so every batch is checked once. ``xs`` may be a broadcast
    view (one stream shared by every game); it is not copied.
    """
    threshold = rejection_threshold(delta)
    kind, arg = parse_strategy(strategy)
    if kind == "up":
        bets, log_wealth = kernels.up_game_batch(xs, mus, arg)
    else:  # arg is the constant fraction
        xs, mus = check_batch(xs, mus)
        check_observations(xs)
        check_strategy(strategy, mus)  # the fraction against each I_mu
        bets = np.full_like(xs, arg)
        payoffs = np.maximum(1.0 + arg * (xs - mus[:, None]), 0.0)
        with np.errstate(divide="ignore"):
            log_wealth = np.cumsum(np.log(payoffs), axis=1)
        # cumsum propagates -inf forward on its own (-inf + anything = -inf)

    # First crossings a block of games at a time, so no (G, n) array is built
    # beside the outputs.
    rejected_at = np.zeros(len(log_wealth), dtype=np.intp)
    if log_wealth.size:
        step = max(1, _CROSSING_BYTES // log_wealth.shape[1])
        for g in range(0, len(log_wealth), step):
            crossed = log_wealth[g : g + step] > threshold
            rejected_at[g : g + step] = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, 0)
    return BatchGameResult(bets=bets, log_wealth=log_wealth, rejected_at=rejected_at)
