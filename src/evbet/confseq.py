"""Confidence sequences for the mean by gridwise sequential testing.

One independent game per candidate mean on a grid; after each observation the
confidence set collects the grid points whose game wealth has not crossed
``log(1/delta)``. For both strategies each round's set of means is one
interval: the universal portfolio's wealth is a sum of terms
``C_j mu**-j (1-mu)**-(t-j)`` with ``C_j >= 0``, so it is log-convex in the
mean, and a constant bet's wealth is monotone in it. The headline output is
therefore the outer bracket of the surviving grid points, from the largest
rejected grid mean below them (or 0) to the smallest rejected one above them
(or 1). It contains every mean, on the grid or off it, whose game has not
crossed; the hull of the surviving points lies inside the set and can drop
an off-grid mean that the set keeps. With running intersection enabled the
reported sets are the intersection over all rounds so far, hence nested, and
so are their brackets.
"""

from __future__ import annotations

import math

from ._lazy import np
from ._record import Record
from .domain import rejection_threshold
from .game import BatchGameResult, run_games_batch


def default_mu_grid(m: int = 99) -> np.ndarray:
    """``m`` equispaced candidate means strictly inside (0, 1)."""
    if m < 1:
        raise ValueError("grid needs at least one point")
    return np.arange(1, m + 1) / (m + 1.0)


class CsResult(Record):
    """Full confidence-sequence trace over a data stream."""

    mu_grid: np.ndarray
    delta: float
    running_intersect: bool
    games: BatchGameResult
    in_set: np.ndarray  # (rounds, M) booleans

    def intervals(self) -> list[tuple[int, float, float, int]]:
        """``(t, lower, upper, alive)`` for every round t >= 1, in one masked pass.

        ``[lower, upper]`` is the outer bracket of the round's set: ``lower``
        is the largest grid mean below every alive one (0.0 if there is
        none), ``upper`` the smallest grid mean above every alive one (1.0 if
        there is none). Both are NaN when no grid mean is alive.
        """
        grid = np.broadcast_to(self.mu_grid, self.in_set.shape)
        first = grid.min(axis=1, where=self.in_set, initial=math.inf)
        last = grid.max(axis=1, where=self.in_set, initial=-math.inf)
        alive = self.in_set.sum(axis=1)
        means = np.sort(self.mu_grid)
        outer = np.concatenate(([0.0], means, [1.0]))  # means with 0.0 and 1.0 on either side
        lower = outer[means.searchsorted(first, side="left")]
        upper = outer[means.searchsorted(last, side="right") + 1]
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
