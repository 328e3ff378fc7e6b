"""Single-round e-variables for the mean-``mu`` hypothesis.

An e-variable here is a non-negative function on the sample space whose
expectation is at most 1 under every distribution with mean ``mu``. The
coin-bet family ``x -> 1 + lam*(x - mu)`` with ``lam`` in
``I_mu = [1/(mu-1), 1/mu]`` is the distinguished class: it is exact (every
mean-``mu`` expectation equals 1) and every valid e-variable is pointwise
dominated by one of its members. ``check_evariable`` certifies validity by
enumerating the two-point extreme measures of the hypothesis, and
``beta_interval`` constructs the dominating coin-bet explicitly.

Both run on one private core, ``_certify``. It takes the grid's split around
mu (``_split_grid``) and a 2-D array of tables, one per row. Per row it
returns the validity report and either the certificate or the
``NotAnEVariable`` that ``beta_interval`` raises. ``multiround.dominate_T2``
certifies its first-round envelope with one call and all its second-round
rows with another. A row goes through the same elementwise operations as a
table checked on its own, so batching changes no result.

The split depends only on the grid and mu, never on a table, so
``_space_split`` builds it once per space and keeps the last 8, as the
kernel keeps its Bernstein bases (an ``lru_cache`` keyed by the space, whose
mean is always a float). Its pair weights ``w`` and ``1 - w`` are shared by
every later call and read-only. A kept split holds the two weight arrays,
at most ``4 n**2`` bytes for an n-point grid (under 2 KB on 21 points),
and the first space seen with that grid and mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import np
# bet_bounds and check_bet live in domain, shared with the game; they stay names here.
from .domain import SampleSpace, TwoPointMeasure, bet_bounds, check_bet, check_mu, check_table
from .domain import read_table, straddle_weights, write_table
from .errors import NotAnEVariable

# Additive slack on two-point expectations when certifying validity.
VALIDITY_TOL = 1e-12
# Grid points within this distance of mu are handled as point masses, by
# e(p) <= eval_majorizer(mu, p), instead of by the slope ratios, whose
# denominators would blow up.
MU_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class CoinBetEVariable:
    """Affine payoff ``x -> 1 + lam*(x - mu)``; the exact e-variable family."""

    mu: float
    lam: float

    def __post_init__(self):
        check_bet(self.lam, self.mu)

    def value(self, x):
        if np.ndim(x):
            return 1.0 + self.lam * (np.asarray(x, dtype=float) - self.mu)
        return 1.0 + self.lam * (x - self.mu)

    __call__ = value


@dataclass(frozen=True)
class HoeffdingEVariable:
    """Sub-Gaussian payoff ``x -> exp(alpha*(x - mu) - alpha^2/8)``."""

    mu: float
    alpha: float

    def value(self, x):
        if np.ndim(x):
            return np.exp(self.alpha * (np.asarray(x, dtype=float) - self.mu) - self.alpha**2 / 8.0)
        return math.exp(self.alpha * (x - self.mu) - self.alpha**2 / 8.0)

    __call__ = value


@dataclass(frozen=True)
class TabulatedEVariable:
    """Arbitrary non-negative values on the grid of a sample space."""

    space: SampleSpace
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.space.points):
            raise ValueError("one value per grid point required")
        check_table(vals)

    @classmethod
    def tabulate(cls, space: SampleSpace, fn) -> "TabulatedEVariable":
        return cls(space, tuple(float(fn(x)) for x in space.points))

    def value(self, x: float) -> float:
        return self.values[self.space.points.index(x)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class DominationCertificate:
    """Slope interval ``[beta1, beta0]`` of coin-bets dominating a table.

    Any ``lam`` in the interval works; ``lambda_hat`` is the midpoint.
    """

    beta0: float
    beta1: float
    lambda_hat: float

    def as_dict(self) -> dict:
        return {"beta0": self.beta0, "beta1": self.beta1, "lambda_hat": self.lambda_hat}


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    witness: TwoPointMeasure | None = None
    expectation: float | None = None


_VALID = ValidityReport(valid=True)


def eval_majorizer(mu: float, x):
    """Pointwise upper envelope ``F_mu`` of all e-variables for mean ``mu``.

    ``x/mu`` above the mean, ``(1-x)/(1-mu)`` below it; not itself an
    e-variable, but no valid table may exceed it anywhere.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= mu, 1.0 + (x - mu) / mu, 1.0 + (x - mu) / (mu - 1.0))
    return float(out) if out.ndim == 0 else out


def dominating_lambda(mu: float, alpha: float) -> float:
    """Slope of the cheapest coin-bet dominating the Hoeffding payoff.

    The secant of the (convex) Hoeffding payoff through x=0 and x=1 lies above
    it on [0, 1], and the coin-bet with the same slope lies above the secant,
    so ``lam_alpha = E_alpha(1) - E_alpha(0)`` dominates pointwise.
    """
    check_mu(mu)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"alpha={alpha} is too large: its square overflows")
    return math.exp(alpha * (1.0 - mu) - alpha**2 / 8.0) - math.exp(-alpha * mu - alpha**2 / 8.0)


class _Split(NamedTuple):
    """A sorted grid cut around mu: ``pts[:i]`` below, ``pts[i:j]`` at, ``pts[j:]`` above.

    A point is at mu when it lies within ``MU_SNAP_TOL`` of it. ``w[k, l]`` is
    the mass on ``pts[k]`` of the mean-mu measure on ``{pts[k], pts[j + l]}``
    and ``omw`` is ``1 - w``. ``excess[k]`` is ``eval_majorizer(mu, p) - 1``
    at the point ``p = pts[i + k]`` at mu: the most a coin-bet pays there, less
    1, which is 0 at mu itself.
    """

    i: int
    j: int
    w: np.ndarray
    omw: np.ndarray
    excess: tuple[float, ...]


def _split_grid(pts: np.ndarray, mu: float) -> _Split:
    """Cut the increasing grid ``pts`` around mu (see ``_Split``)."""
    # pts - mu is non-decreasing, so below (pts - mu < -tol), at and above
    # (pts - mu > tol) are a prefix, a middle run and a suffix of the grid.
    d = pts - mu
    i = int(d.searchsorted(-MU_SNAP_TOL, side="left"))
    j = int(d.searchsorted(MU_SNAP_TOL, side="right"))
    w = straddle_weights(pts[:i], pts[j:], mu)
    excess = tuple(max(x / mu, x / (mu - 1.0)) for x in d[i:j].tolist())
    return _Split(i, j, w, 1.0 - w, excess)


@functools.lru_cache(maxsize=8)
def _space_split(space: SampleSpace) -> _Split:
    """``_split_grid`` of a space's grid around its mean, built once and kept.

    The split depends only on the grid and mu, never on a table, so the
    certification calls share it; its ``w`` and ``omw`` are read-only.
    """
    split = _split_grid(space.as_array(), space.mu)
    split.w.flags.writeable = False
    split.omw.flags.writeable = False
    return split


def _row_maxima(block: np.ndarray):
    """``(first maximiser, maximum)`` of each row of a 2-D array."""
    return zip(block.argmax(axis=1).tolist(), block.max(axis=1).tolist())


def _worst_measures(pts: np.ndarray, split: _Split, rows: np.ndarray, floor: float):
    """Per row of ``rows``, the two-point mean-mu measure of largest expectation.

    The point masses at mu come first, then the straddling pairs in row-major
    ``(a, b)`` order; a measure replaces the current one only when its
    expectation is strictly larger, starting from ``floor``. A point at mu
    but not equal to it counts only where its value exceeds ``floor`` by more
    than its ``excess``: a coin-bet may pay up to ``1 + excess`` there, so
    with ``floor = 1 + tol`` no exact coin-bet is refuted by a point that is
    not quite mu. Returns the measures (None where nothing exceeds
    ``floor``) and their expectations.
    """
    i, j, w, omw, excess = split
    n_rows = len(rows)
    worst: list[TwoPointMeasure | None] = [None] * n_rows
    worst_exp = [floor] * n_rows
    if j > i:
        at = rows[:, i:j]
        if any(excess):  # at mu itself the bar is floor
            at = np.where(at > floor + np.array(excess), at, -np.inf)
        for r, (k, v) in enumerate(_row_maxima(at)):
            if v > worst_exp[r]:
                x = float(pts[i + k])
                worst[r], worst_exp[r] = TwoPointMeasure(x, x, 1.0), v
    if w.size:
        expect = (w * rows[:, :i, None] + omw * rows[:, None, j:]).reshape(n_rows, -1)
        for r, (k, v) in enumerate(_row_maxima(expect)):
            if v > worst_exp[r]:
                ka, kb = divmod(k, w.shape[1])
                worst[r] = TwoPointMeasure(float(pts[ka]), float(pts[j + kb]), float(w[ka, kb]))
                worst_exp[r] = v
    return worst, worst_exp


def _certify(
    pts: np.ndarray, mu: float, split: _Split, rows: np.ndarray, tol: float = VALIDITY_TOL
):
    """Validity report and dominating coin-bet of each row of ``rows``.

    Each row is a table on the grid ``pts``, and ``split`` is
    ``_split_grid(pts, mu)``. Returns one ``(report, certificate)`` pair per
    row; ``certificate`` is the ``NotAnEVariable`` that ``beta_interval``
    raises, unraised, when the row is invalid or its slope interval is
    inverted beyond rounding noise. Where a grid point snapped to mu is not
    mu itself, the slope interval is narrowed towards what that point asks
    (``_snapped_slopes``); grids that hold mu exactly skip this. Each row
    goes through the same elementwise operations, and the same first-maximum
    tie-breaks, as a table checked on its own, so the results do not depend
    on the batch.
    """
    i, j = split.i, split.j
    lo, hi = bet_bounds(mu)
    n_rows = len(rows)
    worst, worst_exp = _worst_measures(pts, split, rows, 1.0 + tol)
    beta0, beta1 = [hi] * n_rows, [lo] * n_rows
    snapped = [None] * n_rows
    if any(m is None for m in worst):  # slopes are needed for valid rows only
        if i:
            beta0 = np.minimum(hi, ((rows[:, :i] - 1.0) / (pts[:i] - mu)).min(axis=1)).tolist()
        if j < len(pts):
            beta1 = np.maximum(lo, ((rows[:, j:] - 1.0) / (pts[j:] - mu)).max(axis=1)).tolist()
        if any(split.excess):  # a grid point snapped to mu is not mu itself
            snapped = _snapped_slopes(pts[i:j] - mu, rows[:, i:j])
    return [_certificate(lo, hi, *row) for row in zip(worst, worst_exp, beta0, beta1, snapped)]


def _snapped_slopes(d: np.ndarray, at: np.ndarray) -> list[tuple[float, float]]:
    """Per row, the slopes ``(low, high)`` a coin-bet needs to dominate the
    row at the grid points snapped to mu: ``at`` holds the row's values there
    and ``d`` the points less mu. A point above mu asks for
    ``lam >= (e - 1)/d``, one below for ``lam <= (e - 1)/d``; a point at mu
    itself asks nothing, as a coin-bet pays 1 there."""
    low = np.full(len(at), -math.inf)
    high = np.full(len(at), math.inf)
    above, below = d > 0.0, d < 0.0
    if above.any():
        low = ((at[:, above] - 1.0) / d[above]).max(axis=1)
    if below.any():
        high = ((at[:, below] - 1.0) / d[below]).min(axis=1)
    return list(zip(low.tolist(), high.tolist()))


def _certificate(lo, hi, witness, expectation, beta0, beta1, snapped):
    """The ``(report, certificate)`` pair of one row of ``_certify``.

    ``snapped`` is None, or the row's ``_snapped_slopes``: the interval is
    then narrowed to its intersection with them, or to its end nearest them
    when they miss it, so it never inverts.
    """
    if witness is not None:
        report = ValidityReport(valid=False, witness=witness, expectation=expectation)
        return report, NotAnEVariable(
            f"table is not an e-variable (two-point expectation {expectation})",
            witness=witness,
            expectation=expectation,
        )
    beta0 = max(beta0, lo)
    beta1 = min(beta1, hi)
    if beta1 > beta0:
        # Validity bounds the inversion to rounding noise; collapse it.
        if beta1 - beta0 > 1e-9:
            return _VALID, NotAnEVariable(
                f"slope interval inverted beyond tolerance: beta1={beta1} > beta0={beta0}"
            )
        beta0 = beta1 = 0.5 * (beta0 + beta1)
    if snapped is not None:
        low, high = snapped
        if low > beta1:
            beta1 = min(low, beta0)
        if high < beta0:
            beta0 = max(high, beta1)
    return _VALID, DominationCertificate(beta0, beta1, 0.5 * (beta0 + beta1))


def _certify_table(e: TabulatedEVariable, tol: float = VALIDITY_TOL):
    space = e.space
    return _certify(space.as_array(), space.mu, _space_split(space), e.as_array()[None, :], tol)[0]


def check_evariable(e: TabulatedEVariable, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Certify a table against every two-point mean-``mu`` measure on its grid.

    Valid iff the value at each point ``p`` within ``MU_SNAP_TOL`` of mu is
    at most ``eval_majorizer(mu, p) + tol`` (``1 + tol`` at mu itself) and
    every pair ``a < mu < b`` satisfies ``W*e(a) + (1-W)*e(b) <= 1 + tol``.
    On failure the report carries the worst violating measure and its
    expectation.
    """
    return _certify_table(e, tol)[0]


def beta_interval(e: TabulatedEVariable) -> DominationCertificate:
    """Construct the interval of coin-bet slopes dominating a valid table.

    ``beta0`` is the tightest slope admissible from the points below mu,
    ``beta1`` from the points above; validity of the table guarantees
    ``beta1 <= beta0``, and any slope in between (we return the midpoint as
    ``lambda_hat``) majorises the table on the whole grid. A grid point
    within ``MU_SNAP_TOL`` of mu but not at it narrows the interval towards
    the slopes it asks for, to their intersection with it or to its end
    nearest them. An invalid table raises ``NotAnEVariable`` with the
    witness ``check_evariable`` reports.
    """
    cert = _certify_table(e)[1]
    if isinstance(cert, NotAnEVariable):
        raise cert
    return cert


def tabulated_from_csv(path: str, mu: float) -> TabulatedEVariable:
    """Load a ``point,value`` CSV, each point given once, as a tabulated e-variable candidate."""
    table = read_table(path, {"point": float, "value": float}, lambda key: f"point {key[0]!r}")
    rows = sorted((p, v) for (p,), v in table.items())
    space = SampleSpace(tuple(p for p, _ in rows), mu)
    return TabulatedEVariable(space, tuple(v for _, v in rows))


def tabulated_to_csv(e: TabulatedEVariable, path: str) -> None:
    """Write a ``point,value`` CSV that ``tabulated_from_csv`` reads back."""
    with open(path, "w", newline="") as fh:
        write_table(
            (path, fh), ("point", "value"), zip(e.space.points, e.values), "csv",
            lambda rows: [f"{p!r},{v!r}\r\n" for p, v in rows],
        )
