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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .betting import DEFAULT_UP_NODES, constant_bet
from .domain import check_batch, check_delta, check_mu, check_node_count
from .domain import check_observation, check_observations
from .evariables import bet_bounds, check_bet


def parse_strategy(literal: str) -> tuple[str, float | int]:
    """The one reader of strategy literals: ``constant:<lambda>`` as ``("constant", lam)``,
    ``up[:K]`` as ``("up", K)`` with K defaulting to ``DEFAULT_UP_NODES``."""
    kind, _, arg = literal.partition(":")
    if kind not in ("constant", "up"):
        raise ValueError(f"unknown strategy kind {kind!r}")
    try:
        if kind == "constant":
            return kind, float(arg)
        n_nodes = int(arg) if arg else DEFAULT_UP_NODES
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
            constant_bet(arg, mu)
    return kind, arg


@dataclass(frozen=True)
class LedgerRow:
    t: int
    x: float
    lam: float
    e_value: float
    log_wealth: float


@dataclass(frozen=True)
class WealthLedger:
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
        return math.log(1.0 / self.delta)

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
    check_delta(delta)
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
    crossed = np.flatnonzero(np.array(log_wealth) > math.log(1.0 / delta))
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


@dataclass(frozen=True)
class BatchGameResult:
    """Per-game bets, wealth trajectories and first rejection rounds."""

    bets: np.ndarray
    log_wealth: np.ndarray
    rejected_at: np.ndarray  # 0 where never rejected, else 1-based round

    def ever_rejected(self) -> np.ndarray:
        return self.rejected_at > 0


def run_games_batch(mus, xs, strategy: str, delta: float) -> BatchGameResult:
    """Run one game per row of ``xs``, each with the strategy of the literal ``strategy``.

    The universal portfolio goes to ``kernels.up_game_batch``. ``xs`` may be a
    broadcast view (one stream shared by every game); it is not copied.
    """
    check_delta(delta)
    xs, mus = check_batch(xs, mus)
    check_observations(xs)
    kind, arg = check_strategy(strategy, mus)
    if kind == "up":
        bets, log_wealth = kernels.up_game_batch(xs, mus, arg)
    else:  # arg is the constant fraction
        bets = np.full_like(xs, arg)
        payoffs = np.maximum(1.0 + arg * (xs - mus[:, None]), 0.0)
        with np.errstate(divide="ignore"):
            log_wealth = np.cumsum(np.log(payoffs), axis=1)
        # cumsum propagates -inf forward on its own (-inf + anything = -inf)

    crossed = log_wealth > math.log(1.0 / delta)
    rejected_at = np.zeros(len(mus), dtype=np.intp)
    if crossed.size:  # argmax needs a round to look at
        rejected_at = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, 0)
    return BatchGameResult(bets=bets, log_wealth=log_wealth, rejected_at=rejected_at)


LEDGER_HEADER = ("t", "x", "lambda", "e_value", "log_wealth", "rejected")
# Rows per write of the block-built CSV writers.
CSV_BLOCK_ROWS = 4096


def ledger_rows(ledger: WealthLedger) -> Iterator[tuple]:
    """One ``LEDGER_HEADER`` tuple per round; ``rejected`` is 1 from the rejection on."""
    n = len(ledger.x)
    before = n if ledger.rejected_at is None else ledger.rejected_at - 1
    rejected = itertools.chain(itertools.repeat(0, before), itertools.repeat(1, n - before))
    return zip(range(1, n + 1), ledger.x, ledger.lam, ledger.e_value, ledger.log_wealth, rejected)


def ledger_to_csv(ledger: WealthLedger, fh) -> None:
    """Write the ledger as ``LEDGER_HEADER`` CSV, byte for byte as ``csv.writer`` would.

    Floats are written by ``repr`` and lines end in CRLF; the text is joined
    in blocks of ``CSV_BLOCK_ROWS`` rows, one write each.
    """
    fh.write(",".join(LEDGER_HEADER) + "\r\n")
    rows = ledger_rows(ledger)
    while block := "".join(
        [
            f"{t},{x!r},{lam!r},{e!r},{w!r},{rejected}\r\n"
            for t, x, lam, e, w, rejected in itertools.islice(rows, CSV_BLOCK_ROWS)
        ]
    ):
        fh.write(block)
