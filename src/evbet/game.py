"""The sequential testing game: bet, observe, accumulate log-wealth.

Each round the strategy commits a fraction before seeing the observation; the
round's e-value is the coin-bet payoff ``1 + lam*(x - mu)`` and log-wealth is
the running sum of log e-values. Crossing ``log(1/delta)`` is recorded as a
rejection of the mean-``mu`` hypothesis, but play continues: full-horizon
ledgers are what the confidence-sequence layer consumes. A zero e-value
(betting the boundary against an endpoint observation) saturates the wealth
at -inf; the game goes on but can never reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .betting import DEFAULT_UP_NODES
from .errors import OutOfRange
from .evariables import bet_bounds


def _check_delta(delta: float) -> None:
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


@dataclass(frozen=True)
class LedgerRow:
    t: int
    x: float
    lam: float
    e_value: float
    log_wealth: float


@dataclass(frozen=True)
class WealthLedger:
    mu: float
    delta: float
    rows: tuple[LedgerRow, ...] = ()
    rejected_at: int | None = None

    def __post_init__(self):
        _check_delta(self.delta)

    @property
    def threshold(self) -> float:
        return math.log(1.0 / self.delta)

    @property
    def final_log_wealth(self) -> float:
        return self.rows[-1].log_wealth if self.rows else 0.0

    def log_wealth_series(self) -> np.ndarray:
        return np.array([r.log_wealth for r in self.rows])


def _score_round(mu: float, prev_wealth: float, lam: float, x: float) -> tuple[float, float]:
    lo, hi = bet_bounds(mu)
    if not lo <= lam <= hi:
        raise OutOfRange(f"strategy emitted lambda={lam} outside I_mu=[{lo}, {hi}]")
    e_value = max(1.0 + float(lam) * (float(x) - mu), 0.0)
    if e_value == 0.0:
        return 0.0, -math.inf
    if prev_wealth == -math.inf:
        return e_value, -math.inf
    return e_value, prev_wealth + math.log(e_value)


def play_round(ledger: WealthLedger, strategy, x: float) -> WealthLedger:
    """Advance one round: query the strategy, then reveal ``x`` to it."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    lam = float(strategy.bet())
    e_value, wealth = _score_round(ledger.mu, ledger.final_log_wealth, lam, x)
    strategy.observe(x)
    t = len(ledger.rows) + 1
    rejected = ledger.rejected_at
    if rejected is None and wealth > ledger.threshold:
        rejected = t
    row = LedgerRow(t=t, x=x, lam=lam, e_value=e_value, log_wealth=wealth)
    return replace(ledger, rows=ledger.rows + (row,), rejected_at=rejected)


def run_game(mu: float, delta: float, strategy, xs) -> WealthLedger:
    """Play a full game over ``xs`` and return the complete ledger."""
    ledger = WealthLedger(mu=mu, delta=delta)
    threshold = ledger.threshold
    rows = []
    wealth = 0.0
    rejected_at = None
    for t, x in enumerate(xs, start=1):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x={x} outside [0, 1]")
        lam = float(strategy.bet())
        e_value, wealth = _score_round(mu, wealth, lam, x)
        strategy.observe(x)
        if rejected_at is None and wealth > threshold:
            rejected_at = t
        rows.append(LedgerRow(t=t, x=float(x), lam=lam, e_value=e_value, log_wealth=wealth))
    return WealthLedger(mu=mu, delta=delta, rows=tuple(rows), rejected_at=rejected_at)


def recompute_log_wealth(e_values) -> list[float]:
    """Left-fold recomputation of the wealth series from raw e-values.

    Matches the incremental ledger bit for bit (same additions in the same
    order), which is the reproducibility contract for persisted ledgers.
    """
    out = []
    wealth = 0.0
    for e in e_values:
        if e == 0.0:
            wealth = -math.inf
        elif wealth != -math.inf:
            wealth += math.log(e)
        out.append(wealth)
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
    """Run one game per row of ``xs`` with a fresh strategy instance each.

    ``strategy`` is a CLI literal (``constant:<lambda>`` or ``up[:K]``); the
    universal-portfolio case goes to ``kernels.up_game_batch``. ``xs`` may be
    a broadcast view (one stream shared by every game); it is not copied.
    """
    _check_delta(delta)
    xs = np.asarray(xs, dtype=float)
    mus = np.ascontiguousarray(mus, dtype=float)
    if xs.ndim != 2 or mus.shape != (xs.shape[0],):
        raise ValueError("xs must be (games, rounds) with one mu per game")
    if not ((xs >= 0.0) & (xs <= 1.0)).all():
        raise ValueError("observations must be finite and lie in [0, 1]")

    kind, _, arg = strategy.partition(":")
    if kind == "constant":
        lam = float(arg)
        for mu in np.unique(mus):
            lo, hi = bet_bounds(mu)
            if not lo <= lam <= hi:
                raise OutOfRange(f"lambda={lam} outside I_mu=[{lo}, {hi}] for mu={mu}")
        bets = np.full_like(xs, lam)
        payoffs = np.maximum(1.0 + lam * (xs - mus[:, None]), 0.0)
        with np.errstate(divide="ignore"):
            log_wealth = np.cumsum(np.log(payoffs), axis=1)
        # cumsum propagates -inf forward on its own (-inf + anything = -inf)
    elif kind == "up":
        n_nodes = int(arg) if arg else DEFAULT_UP_NODES
        bets, log_wealth = kernels.up_game_batch(xs, mus, n_nodes)
    else:
        raise ValueError(f"unknown strategy kind {kind!r}")

    threshold = math.log(1.0 / delta)
    crossed = log_wealth > threshold
    any_cross = crossed.any(axis=1)
    first = crossed.argmax(axis=1) + 1
    rejected_at = np.where(any_cross, first, 0)
    return BatchGameResult(bets=bets, log_wealth=log_wealth, rejected_at=rejected_at)


LEDGER_HEADER = ("t", "x", "lambda", "e_value", "log_wealth", "rejected")
# Rows per write of the block-built CSV writers.
CSV_BLOCK_ROWS = 4096


def ledger_rows(ledger: WealthLedger) -> list[tuple]:
    """One ``LEDGER_HEADER`` tuple per round; ``rejected`` is 1 from the rejection on."""
    first = ledger.rejected_at
    return [
        (r.t, r.x, r.lam, r.e_value, r.log_wealth, int(first is not None and r.t >= first))
        for r in ledger.rows
    ]


def ledger_to_csv(ledger: WealthLedger, fh) -> None:
    """Write the ledger as ``LEDGER_HEADER`` CSV, byte for byte as ``csv.writer`` would.

    Floats are written by ``repr`` and lines end in CRLF; the text is joined
    in blocks of ``CSV_BLOCK_ROWS`` rows, one write each.
    """
    fh.write(",".join(LEDGER_HEADER) + "\r\n")
    rows = ledger_rows(ledger)
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        fh.write(
            "".join(
                f"{t},{x!r},{lam!r},{e!r},{w!r},{rejected}\r\n"
                for t, x, lam, e, w, rejected in rows[start : start + CSV_BLOCK_ROWS]
            )
        )
