"""The worked i.i.d. characterisation on the grid {0, 1/2, 1} at mean 1/2.

A two-draw i.i.d. mean-1/2 measure on this grid is parametrised by the mass
``q`` on 1/2 (the remainder splits evenly between 0 and 1), so the expectation
of any 3x3 table reduces to a quadratic in ``q`` through three cell averages:

    xi0 = E(1/2, 1/2)
    xi1 = mean of the four cells with exactly one 1/2
    xi2 = mean of the four corner cells

The table is a valid two-draw i.i.d. e-variable iff the quadratic stays at or
below 1 on [0, 1], which reduces to the closed form
``xi0 <= 1``, ``xi2 <= 1``, ``xi1 <= 1 + sqrt((1-xi0)(1-xi2))``. The
brute-force maximiser is kept as the independent oracle for that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import check_table, square_table_from_csv

GRID = (0.0, 0.5, 1.0)
MU = 0.5

# Cells grouped by their number of 1/2 coordinates.
_XI1_CELLS = ((2, 1), (1, 2), (1, 0), (0, 1))
_XI2_CELLS = ((2, 2), (2, 0), (0, 2), (0, 0))


@dataclass(frozen=True)
class XiStats:
    xi0: float
    xi1: float
    xi2: float

    def __post_init__(self):
        if not all(0.0 <= v < math.inf for v in (self.xi0, self.xi1, self.xi2)):
            raise ValueError(
                f"xi statistics must be finite and non-negative, got "
                f"({self.xi0}, {self.xi1}, {self.xi2})"
            )


@dataclass(frozen=True)
class BruteForceResult:
    max_expectation: float
    argmax_q: float


def xi_stats(table) -> XiStats:
    """Collapse a 3x3 table (rows/cols ordered 0, 1/2, 1) to its cell averages.

    Each average of four cells is summed left to right from 0.0, as
    ``np.mean`` sums four values, then divided by 4: four ``-0.0`` cells
    average to ``0.0``.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != (3, 3):
        raise ValueError("expected a 3x3 table over {0, 1/2, 1}^2")
    check_table(t)
    cells = t.tolist()
    a, b, c, d = (cells[i][j] for i, j in _XI1_CELLS)
    xi1 = ((((0.0 + a) + b) + c) + d) / 4.0
    a, b, c, d = (cells[i][j] for i, j in _XI2_CELLS)
    xi2 = ((((0.0 + a) + b) + c) + d) / 4.0
    return XiStats(cells[1][1], xi1, xi2)


def iid_expectation(s: XiStats, q):
    """Expectation of the table under the i.i.d. measure with mass ``q`` on 1/2.

    ``q`` may be an array of masses, giving one expectation per mass.
    """
    return q * q * s.xi0 + 2.0 * q * (1.0 - q) * s.xi1 + (1.0 - q) ** 2 * s.xi2


def check_iid_closed_form(s: XiStats, tol: float = 1e-12) -> bool:
    """The three-inequality characterisation of two-draw i.i.d. validity."""
    if s.xi0 > 1.0 + tol or s.xi2 > 1.0 + tol:
        return False
    slack = math.sqrt(max(1.0 - s.xi0, 0.0) * max(1.0 - s.xi2, 0.0))
    return s.xi1 <= 1.0 + slack + tol


def interior_maximum(s: XiStats) -> tuple[float, float] | None:
    """Critical point of the expectation quadratic, when it is an interior max.

    The quadratic ``q^2*xi0 + 2q(1-q)*xi1 + (1-q)^2*xi2`` is concave iff
    ``xi0 + xi2 < 2*xi1``; its critical point is then
    ``q* = (xi2 - xi1) / (xi0 + xi2 - 2*xi1)`` with value
    ``xi2 + (xi1 - xi2)^2 / (2*xi1 - xi0 - xi2) = xi2 + (xi1 - xi2)*q*``.
    The second form is the one computed: as ``0 < q* < 1`` and the xi are
    non-negative, none of its terms exceeds the largest xi, so it cannot
    overflow where the square can.
    """
    curvature = s.xi0 + s.xi2 - 2.0 * s.xi1
    if curvature >= 0.0:
        return None
    q_star = (s.xi2 - s.xi1) / curvature
    if not 0.0 < q_star < 1.0:
        return None
    value = s.xi2 + (s.xi1 - s.xi2) * q_star
    return q_star, value


def check_iid_bruteforce(s: XiStats, q_steps: int = 10_000) -> BruteForceResult:
    """Maximise the expectation quadratic over ``q`` in [0, 1].

    A dense grid guards against sign and branch mistakes; the analytic
    interior critical point refines the concave case. The table is a valid
    e-variable iff the returned maximum is at most 1.
    """
    if q_steps < 2:
        raise ValueError("need at least 2 grid steps")
    qs = np.linspace(0.0, 1.0, q_steps)
    vals = iid_expectation(s, qs)
    k = int(vals.argmax())
    best_q, best_val = float(qs[k]), float(vals[k])
    interior = interior_maximum(s)
    if interior is not None and interior[1] > best_val:
        best_q, best_val = interior[0], interior[1]
    return BruteForceResult(max_expectation=best_val, argmax_q=best_q)


def table_from_csv(path: str) -> np.ndarray:
    """Load a 9-row ``x1,x2,value`` CSV over ``GRID`` into a 3x3 table."""
    return square_table_from_csv(path, GRID)[1]


def separation_table() -> np.ndarray:
    """The table equal to 4 at (1, 1/2) and 0 elsewhere.

    It is a (maximal) two-draw i.i.d. e-variable but not a two-round
    conditional-mean e-variable: the coin-bet classes for the two hypotheses
    genuinely differ on this grid.
    """
    t = np.zeros((3, 3))
    t[2, 1] = 4.0
    return t
