"""Single-round e-variables for the mean-``mu`` hypothesis.

An e-variable here is a non-negative function on the sample space whose
expectation is at most 1 under every distribution with mean ``mu``. The
coin-bet family ``x -> 1 + lam*(x - mu)`` with ``lam`` in
``I_mu = [1/(mu-1), 1/mu]`` is the distinguished class: it is exact (every
mean-``mu`` expectation equals 1) and every valid e-variable is pointwise
dominated by one of its members. ``check_evariable`` certifies validity by
enumerating the two-point extreme measures of the hypothesis, and
``beta_interval`` constructs the dominating coin-bet explicitly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import SampleSpace, TwoPointMeasure
from .errors import NotAnEVariable, OutOfRange

# Additive slack on two-point expectations when certifying validity.
VALIDITY_TOL = 1e-12
# Grid points within this distance of mu are handled by the e(mu) <= 1
# constraint instead of the slope ratios, whose denominators would blow up.
MU_SNAP_TOL = 1e-9


def bet_bounds(mu: float) -> tuple[float, float]:
    """The closed interval ``I_mu`` of bet fractions keeping payoffs >= 0 on [0, 1]."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return 1.0 / (mu - 1.0), 1.0 / mu


@dataclass(frozen=True)
class CoinBetEVariable:
    """Affine payoff ``x -> 1 + lam*(x - mu)``; the exact e-variable family."""

    mu: float
    lam: float

    def __post_init__(self):
        lo, hi = bet_bounds(self.mu)
        if not lo <= self.lam <= hi:
            raise OutOfRange(f"lambda={self.lam} outside I_mu=[{lo}, {hi}]")

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
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("values must be finite and non-negative")

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


def eval_coinbet(e: CoinBetEVariable, x):
    return e.value(x)


def eval_hoeffding(e: HoeffdingEVariable, x):
    return e.value(x)


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
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"alpha={alpha} is too large: its square overflows")
    return math.exp(alpha * (1.0 - mu) - alpha**2 / 8.0) - math.exp(-alpha * mu - alpha**2 / 8.0)


def _split_grid(space: SampleSpace):
    """Indices of grid points below, at (within snap tolerance), above mu."""
    pts = space.as_array()
    at = np.abs(pts - space.mu) <= MU_SNAP_TOL
    below = (pts < space.mu) & ~at
    above = (pts > space.mu) & ~at
    return pts, below, at, above


def check_evariable(e: TabulatedEVariable, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Certify a table against every two-point mean-``mu`` measure on its grid.

    Valid iff the value at mu (when on the grid) is at most 1 and every pair
    ``a < mu < b`` satisfies ``W*e(a) + (1-W)*e(b) <= 1 + tol``. On failure the
    report carries the worst violating measure and its expectation.
    """
    pts, below, at, above = _split_grid(e.space)
    vals = e.as_array()
    mu = e.space.mu

    worst: TwoPointMeasure | None = None
    worst_exp = 1.0 + tol
    if at.any():
        v_mu = float(vals[at].max())
        if v_mu > worst_exp:
            x_mu = float(pts[at][np.argmax(vals[at])])
            worst = TwoPointMeasure(x_mu, x_mu, 1.0)
            worst_exp = v_mu

    if below.any() and above.any():
        a = pts[below][:, None]
        b = pts[above][None, :]
        w = (b - mu) / (b - a)
        expect = w * vals[below][:, None] + (1.0 - w) * vals[above][None, :]
        i, j = np.unravel_index(np.argmax(expect), expect.shape)
        if expect[i, j] > worst_exp:
            worst = TwoPointMeasure(float(a[i, 0]), float(b[0, j]), float(w[i, j]))
            worst_exp = float(expect[i, j])

    if worst is None:
        return ValidityReport(valid=True)
    return ValidityReport(valid=False, witness=worst, expectation=worst_exp)


def beta_interval(e: TabulatedEVariable) -> DominationCertificate:
    """Construct the interval of coin-bet slopes dominating a valid table.

    ``beta0`` is the tightest slope admissible from the points below mu,
    ``beta1`` from the points above; validity of the table guarantees
    ``beta1 <= beta0``, and any slope in between (we return the midpoint as
    ``lambda_hat``) majorises the table on the whole grid.
    """
    report = check_evariable(e)
    if not report.valid:
        raise NotAnEVariable(
            f"table is not an e-variable (two-point expectation {report.expectation})",
            witness=report.witness,
            expectation=report.expectation,
        )
    pts, below, at, above = _split_grid(e.space)
    vals = e.as_array()
    mu = e.space.mu
    lo, hi = bet_bounds(mu)

    beta0 = hi
    if below.any():
        ratios = (vals[below] - 1.0) / (pts[below] - mu)
        beta0 = min(hi, float(ratios.min()))
    beta1 = lo
    if above.any():
        ratios = (vals[above] - 1.0) / (pts[above] - mu)
        beta1 = max(lo, float(ratios.max()))
    beta0 = max(beta0, lo)
    beta1 = min(beta1, hi)

    if beta1 > beta0:
        # Validity bounds the inversion to rounding noise; collapse it.
        if beta1 - beta0 > 1e-9:
            raise NotAnEVariable(
                f"slope interval inverted beyond tolerance: beta1={beta1} > beta0={beta0}"
            )
        beta0 = beta1 = 0.5 * (beta0 + beta1)
    return DominationCertificate(beta0=beta0, beta1=beta1, lambda_hat=0.5 * (beta0 + beta1))


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
