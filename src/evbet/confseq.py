"""Confidence sequences for the mean by gridwise sequential testing.

One independent game per candidate mean on a grid; after each observation the
confidence set collects the grid points whose game wealth has not crossed
``log(1/delta)``. The headline output is the interval hull of the surviving
points. For both strategies each round's set of means is one interval: the
universal portfolio's wealth is a sum of terms ``C_j mu**-j (1-mu)**-(t-j)``
with ``C_j >= 0``, so it is log-convex in the mean, and a constant bet's
wealth is monotone in it. The grid hull lies inside that interval, so it can
drop an off-grid mean that the set keeps. With running intersection enabled
the reported sets are the intersection over all rounds so far, hence nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .domain import rejection_threshold
from .game import BatchGameResult, run_games_batch


def default_mu_grid(m: int = 99) -> np.ndarray:
    """``m`` equispaced candidate means strictly inside (0, 1)."""
    if m < 1:
        raise ValueError("grid needs at least one point")
    return np.arange(1, m + 1) / (m + 1.0)


@dataclass(frozen=True)
class CsResult:
    """Full confidence-sequence trace over a data stream."""

    mu_grid: np.ndarray
    delta: float
    running_intersect: bool
    games: BatchGameResult
    in_set: np.ndarray  # (rounds, M) booleans

    def interval(self, n: int) -> tuple[float, float, int]:
        mask = self.in_set[n - 1] if n >= 1 else np.ones(len(self.mu_grid), dtype=bool)
        alive = int(mask.sum())
        if alive == 0:
            return math.nan, math.nan, 0
        pts = self.mu_grid[mask]
        return float(pts.min()), float(pts.max()), alive

    def intervals(self) -> list[tuple[int, float, float, int]]:
        """``(n, *interval(n))`` for every round n >= 1, in one masked pass."""
        grid = np.broadcast_to(self.mu_grid, self.in_set.shape)
        lower = grid.min(axis=1, where=self.in_set, initial=math.inf)
        upper = grid.max(axis=1, where=self.in_set, initial=-math.inf)
        alive = self.in_set.sum(axis=1)
        lower[alive == 0] = upper[alive == 0] = math.nan
        rounds = range(1, len(alive) + 1)
        return list(zip(rounds, lower.tolist(), upper.tolist(), alive.tolist()))


def run_cs_batch(
    mu_grid,
    xs,
    strategy: str,
    delta: float,
    running_intersect: bool = False,
) -> CsResult:
    """Run the whole grid of games over one stream via the batch kernel."""
    mu_grid = np.asarray(mu_grid, dtype=float)
    xs = np.asarray(xs, dtype=float)
    tiled = np.broadcast_to(xs, (len(mu_grid), len(xs)))
    games = run_games_batch(mu_grid, tiled, strategy, delta)
    threshold = rejection_threshold(delta)
    in_set = (games.log_wealth <= threshold).T.copy()
    if running_intersect:
        np.logical_and.accumulate(in_set, axis=0, out=in_set)
    return CsResult(
        mu_grid=mu_grid,
        delta=delta,
        running_intersect=running_intersect,
        games=games,
        in_set=in_set,
    )
