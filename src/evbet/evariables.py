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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import SampleSpace, TwoPointMeasure, check_mu, check_table
from .errors import NotAnEVariable, OutOfRange

# Additive slack on two-point expectations when certifying validity.
VALIDITY_TOL = 1e-12
# Grid points within this distance of mu are handled by the e(mu) <= 1
# constraint instead of the slope ratios, whose denominators would blow up.
MU_SNAP_TOL = 1e-9


def bet_bounds(mu: float) -> tuple[float, float]:
    """The closed interval ``I_mu`` of bet fractions keeping payoffs >= 0 on [0, 1]."""
    check_mu(mu)
    return 1.0 / (mu - 1.0), 1.0 / mu


def check_bet(lam: float, mu: float, t: int | None = None) -> None:
    """Reject a bet fraction outside ``I_mu`` with ``OutOfRange``; ``t`` names its round."""
    lo, hi = bet_bounds(mu)
    if not lo <= lam <= hi:
        at = "" if t is None else f" at round {t}"
        raise OutOfRange(f"lambda={lam} outside I_mu=[{lo}, {hi}] for mu={mu}{at}")


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
    and ``omw`` is ``1 - w``.
    """

    i: int
    j: int
    w: np.ndarray
    omw: np.ndarray


def _split_grid(pts: np.ndarray, mu: float) -> _Split:
    """Cut the increasing grid ``pts`` around mu (see ``_Split``)."""
    # pts - mu is non-decreasing, so below (pts - mu < -tol), at and above
    # (pts - mu > tol) are a prefix, a middle run and a suffix of the grid.
    d = pts - mu
    i = int(d.searchsorted(-MU_SNAP_TOL, side="left"))
    j = int(d.searchsorted(MU_SNAP_TOL, side="right"))
    b = pts[None, j:]
    w = (b - mu) / (b - pts[:i, None])
    return _Split(i, j, w, 1.0 - w)


def _row_maxima(block: np.ndarray):
    """``(first maximiser, maximum)`` of each row of a 2-D array."""
    return zip(block.argmax(axis=1).tolist(), block.max(axis=1).tolist())


def _worst_measures(pts: np.ndarray, split: _Split, rows: np.ndarray, floor: float):
    """Per row of ``rows``, the two-point mean-mu measure of largest expectation.

    The point masses at mu come first, then the straddling pairs in row-major
    ``(a, b)`` order; a measure replaces the current one only when its
    expectation is strictly larger, starting from ``floor``. Returns the
    measures (None where nothing exceeds ``floor``) and their expectations.
    """
    i, j, w, omw = split
    n_rows = len(rows)
    worst: list[TwoPointMeasure | None] = [None] * n_rows
    worst_exp = [floor] * n_rows
    if j > i:
        for r, (k, v) in enumerate(_row_maxima(rows[:, i:j])):
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
    inverted beyond rounding noise. Each row goes through the same
    elementwise operations, and the same first-maximum tie-breaks, as a
    table checked on its own, so the results do not depend on the batch.
    """
    i, j = split.i, split.j
    lo, hi = bet_bounds(mu)
    n_rows = len(rows)
    worst, worst_exp = _worst_measures(pts, split, rows, 1.0 + tol)
    beta0, beta1 = [hi] * n_rows, [lo] * n_rows
    if any(m is None for m in worst):  # slopes are needed for valid rows only
        if i:
            beta0 = np.minimum(hi, ((rows[:, :i] - 1.0) / (pts[:i] - mu)).min(axis=1)).tolist()
        if j < len(pts):
            beta1 = np.maximum(lo, ((rows[:, j:] - 1.0) / (pts[j:] - mu)).max(axis=1)).tolist()
    return [_certificate(lo, hi, *row) for row in zip(worst, worst_exp, beta0, beta1)]


def _certificate(lo, hi, witness, expectation, beta0, beta1):
    """The ``(report, certificate)`` pair of one row of ``_certify``."""
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
    return _VALID, DominationCertificate(beta0, beta1, 0.5 * (beta0 + beta1))


def _certify_table(e: TabulatedEVariable, tol: float = VALIDITY_TOL):
    pts, mu = e.space.as_array(), e.space.mu
    return _certify(pts, mu, _split_grid(pts, mu), e.as_array()[None, :], tol)[0]


def check_evariable(e: TabulatedEVariable, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Certify a table against every two-point mean-``mu`` measure on its grid.

    Valid iff the value at mu (when on the grid) is at most 1 and every pair
    ``a < mu < b`` satisfies ``W*e(a) + (1-W)*e(b) <= 1 + tol``. On failure the
    report carries the worst violating measure and its expectation.
    """
    return _certify_table(e, tol)[0]


def beta_interval(e: TabulatedEVariable) -> DominationCertificate:
    """Construct the interval of coin-bet slopes dominating a valid table.

    ``beta0`` is the tightest slope admissible from the points below mu,
    ``beta1`` from the points above; validity of the table guarantees
    ``beta1 <= beta0``, and any slope in between (we return the midpoint as
    ``lambda_hat``) majorises the table on the whole grid. An invalid table
    raises ``NotAnEVariable`` with the witness ``check_evariable`` reports.
    """
    cert = _certify_table(e)[1]
    if isinstance(cert, NotAnEVariable):
        raise cert
    return cert


def tabulated_from_csv(path: str, mu: float) -> TabulatedEVariable:
    """Load a ``point,value`` CSV as a tabulated e-variable candidate."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"point", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected CSV columns point,value")
        rows = [(float(r["point"]), float(r["value"])) for r in reader]
    rows.sort()
    space = SampleSpace(tuple(p for p, _ in rows), mu)
    return TabulatedEVariable(space, tuple(v for _, v in rows))


def tabulated_to_csv(e: TabulatedEVariable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "value"])
        for p, v in zip(e.space.points, e.values):
            writer.writerow([repr(p), repr(v)])
