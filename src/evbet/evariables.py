"""Single-round e-variables for the mean-``mu`` hypothesis.

An e-variable here is a non-negative function on the sample space whose
expectation is at most 1 under every distribution with mean ``mu``. The
coin-bet family ``x -> 1 + lam*(x - mu)`` with ``lam`` in
``I_mu = [1/(mu-1), 1/mu]`` is the distinguished class: it is exact (every
mean-``mu`` expectation equals 1) and every valid e-variable is pointwise
dominated by one of its members. ``check_evariable`` certifies validity by
enumerating the two-point extreme measures of the hypothesis, and
``beta_interval`` constructs the dominating coin-bet explicitly.

The extreme measures are ``domain``'s two-point laws, held in one tuple of
``(i, j, wa, wb)``: the point mass at mu as ``(i, i, 1.0, 0.0)``, when mu is
a grid point, and every pair ``a < mu < b`` with both masses computed
directly. A grid point near mu is checked in its pairs like any other, so a
table is valid exactly when no mean-mu law on the grid gives it an
expectation above ``1 + tol``, by default ``1 + VALIDITY_TOL``: the one
slack of every table verdict, kept in ``domain`` and still a name here.
``MU_SNAP_TOL`` acts only in the slope step of the certificate, whose
ratios divide by ``p - mu``. ``TabulatedEVariable`` reads its values
through ``domain.float_rows``, the one reader of in-memory tables, so a
value that is not a number, or a count other than one per grid point,
raises ``one value per grid point required``.

Both run on two private steps in plain Python, each taking a sample space
and one table, a sequence of floats. ``_scan`` gives the validity report:
its worst law comes from ``domain.worst_law``, the one scan of every
validity verdict, over the space's cached law list
(``domain.mean_mu_laws``), and a witness reads its points from the space's
own grid. ``_slopes`` gives the certificate of a table found valid, from
one pass over the grid. ``check_evariable`` runs the scan alone, and
``beta_interval`` runs ``_certify``: the scan, then the slopes. Both steps
raise ``NotAnEVariable``: ``_certify`` with the scan's witness for an
invalid table, ``_slopes`` without one for a slope interval inverted beyond
rounding. ``multiround._dominating_bet``, the forward pass behind
``dominate_eprocess`` and ``dominate_T2``, certifies one table per reached
prefix the same way: the root's through the slope step alone, since the
backward induction has scanned it, and every other through ``_certify``. So
``evbet check`` and ``evbet dominate`` run no numpy: only the array forms
here do (``value`` on an array, ``eval_majorizer`` and
``TabulatedEVariable.as_array``).
"""

from __future__ import annotations

import math

from ._lazy import np
from ._record import Record
# bet_bounds, check_bet and VALIDITY_TOL live in domain, shared with the game and
# every table verdict; they stay names here.
from .domain import VALIDITY_TOL, SampleSpace, TwoPointMeasure, bet_bounds, check_bet, check_mu
from .domain import float_rows, mean_mu_laws, read_table, worst_law, write_table
from .errors import NotAnEVariable

# Grid points within this distance of mu are left out of the certificate's
# slope ratios, whose denominators p - mu would blow up; they only narrow it.
MU_SNAP_TOL = 1e-9


class CoinBetEVariable(Record):
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


class HoeffdingEVariable(Record):
    """Sub-Gaussian payoff ``x -> exp(alpha*(x - mu) - alpha^2/8)``."""

    mu: float
    alpha: float

    def __post_init__(self):
        check_mu(self.mu)
        _check_alpha(self.alpha)

    def value(self, x):
        if np.ndim(x):
            return np.exp(self.alpha * (np.asarray(x, dtype=float) - self.mu) - self.alpha**2 / 8.0)
        return math.exp(self.alpha * (x - self.mu) - self.alpha**2 / 8.0)

    __call__ = value


class TabulatedEVariable(Record):
    """Arbitrary non-negative values on the grid of a sample space."""

    space: SampleSpace
    values: tuple[float, ...]

    def __post_init__(self):
        n = len(self.space.points)
        (vals,) = float_rows((self.values,), 1, n, "one value per grid point required")
        object.__setattr__(self, "values", vals)

    @classmethod
    def tabulate(cls, space: SampleSpace, fn) -> "TabulatedEVariable":
        return cls(space, tuple(float(fn(x)) for x in space.points))

    def value(self, x: float) -> float:
        try:
            return self.values[self.space.points.index(x)]
        except ValueError:
            raise ValueError(f"x={x} is not a point of the grid {self.space.points}") from None

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


class DominationCertificate(Record):
    """Slope interval ``[beta1, beta0]`` of coin-bets dominating a table.

    Any ``lam`` in the interval works; ``lambda_hat`` is the midpoint.
    """

    beta0: float
    beta1: float
    lambda_hat: float

    def as_dict(self) -> dict:
        return {"beta0": self.beta0, "beta1": self.beta1, "lambda_hat": self.lambda_hat}


class ValidityReport(Record):
    valid: bool
    witness: TwoPointMeasure | None = None
    expectation: float | None = None


_VALID = ValidityReport(valid=True)


def eval_majorizer(mu: float, x):
    """Pointwise upper envelope ``F_mu`` of all e-variables for mean ``mu``.

    ``x/mu`` above the mean, ``(1-x)/(1-mu)`` below it; not itself an
    e-variable, but no valid table may exceed it anywhere.
    """
    check_mu(mu)
    x = np.asarray(x, dtype=float)
    out = np.where(x >= mu, 1.0 + (x - mu) / mu, 1.0 + (x - mu) / (mu - 1.0))
    return float(out) if out.ndim == 0 else out


def _check_alpha(alpha) -> float:
    """``alpha`` as a float; rejects one that is not finite or whose square overflows."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"alpha={alpha} is too large: its square overflows")
    return alpha


def dominating_lambda(mu: float, alpha: float) -> float:
    """Slope of the cheapest coin-bet dominating the Hoeffding payoff.

    The secant of the (convex) Hoeffding payoff through x=0 and x=1 lies above
    it on [0, 1], and the coin-bet with the same slope lies above the secant,
    so ``lam_alpha = E_alpha(1) - E_alpha(0)`` dominates pointwise.
    """
    check_mu(mu)
    alpha = _check_alpha(alpha)
    return math.exp(alpha * (1.0 - mu) - alpha**2 / 8.0) - math.exp(-alpha * mu - alpha**2 / 8.0)


def _scan(space: SampleSpace, values, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Validity report of one table on the grid of ``space``.

    ``values`` is a sequence of floats, one per grid point. The table is
    invalid when ``domain.worst_law`` finds a law whose expectation exceeds
    ``1 + tol``; the report then carries that law as its witness. Plain
    Python: no numpy runs.
    """
    points = space.points
    law, top = worst_law(mean_mu_laws(points, space.mu), values, 1.0 + tol)
    if law is None:
        return _VALID
    i, j, wa, wb = law
    witness = TwoPointMeasure(points[i], points[j], wa, wb)
    return ValidityReport(valid=False, witness=witness, expectation=top)


def _slopes(space: SampleSpace, values) -> DominationCertificate:
    """Dominating coin-bet of one table that ``_scan`` has found valid.

    One pass over the grid takes the slope ``(e - 1)/(p - mu)`` of each
    point ``p`` but mu itself. The points farther than ``MU_SNAP_TOL`` from
    mu bound the interval: those below from above (``beta0``, from ``hi``),
    those above from below (``beta1``, from ``lo``). Validity bounds an
    inversion ``beta1 > beta0`` to rounding noise, which grows with the
    slopes (up to ``1/mu`` and ``1/(1 - mu)``), so an inversion of at most
    ``1e-9`` times the larger of 1 and the two slopes' sizes collapses to
    its midpoint; a wider one raises ``NotAnEVariable``. A nearer point
    above mu asks ``lam`` to be at least its slope, one below at most; the
    interval is then narrowed to its intersection with what they ask, or to
    its end nearest it. Plain Python: no numpy runs.
    """
    mu = space.mu
    lo, hi = bet_bounds(mu)
    beta0, beta1, low, high = hi, lo, -math.inf, math.inf
    for p, e in zip(space.points, values):
        d = p - mu
        if d < -MU_SNAP_TOL:
            beta0 = min(beta0, (e - 1.0) / d)
        elif d > MU_SNAP_TOL:
            beta1 = max(beta1, (e - 1.0) / d)
        elif d > 0.0:
            low = max(low, (e - 1.0) / d)
        elif d < 0.0:
            high = min(high, (e - 1.0) / d)
    beta0 = max(beta0, lo)
    beta1 = min(beta1, hi)
    if beta1 > beta0:
        # Validity bounds the inversion to rounding noise, relative to the slopes.
        if beta1 - beta0 > 1e-9 * max(1.0, abs(beta0), abs(beta1)):
            raise NotAnEVariable(
                f"slope interval inverted beyond tolerance: beta1={beta1} > beta0={beta0}"
            )
        beta0 = beta1 = 0.5 * (beta0 + beta1)
    if low > beta1:
        beta1 = min(low, beta0)
    if high < beta0:
        beta0 = max(high, beta1)
    return DominationCertificate(beta0, beta1, 0.5 * (beta0 + beta1))


def _certify(space: SampleSpace, values) -> DominationCertificate:
    """``_scan``, then ``_slopes`` on a valid table: the table's certificate.

    An invalid table raises the ``NotAnEVariable`` carrying the scan's
    witness and expectation.
    """
    report = _scan(space, values)
    if not report.valid:
        raise NotAnEVariable(
            f"table is not an e-variable (two-point expectation {report.expectation})",
            witness=report.witness,
            expectation=report.expectation,
        )
    return _slopes(space, values)


def check_evariable(e: TabulatedEVariable, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Certify a table against every two-point mean-``mu`` measure on its grid.

    Valid iff the value at mu, when mu is a grid point, is at most
    ``1 + tol`` and every pair ``a < mu < b`` satisfies
    ``W*e(a) + V*e(b) <= 1 + tol``, with ``W`` and ``V`` the masses of
    ``domain.two_point_masses``. A point however near mu is checked in its
    pairs. On failure the report carries the worst violating measure and its
    expectation.
    """
    return _scan(e.space, e.values, tol)


def beta_interval(e: TabulatedEVariable) -> DominationCertificate:
    """Construct the interval of coin-bet slopes dominating a valid table.

    ``beta0`` is the tightest slope admissible from the points below mu,
    ``beta1`` from the points above; validity of the table guarantees
    ``beta1 <= beta0``, and any slope in between (we return the midpoint as
    ``lambda_hat``) majorises the table on the whole grid. A grid point
    within ``MU_SNAP_TOL`` of mu but not at it is left out of both and
    narrows the interval towards the slopes it asks for, to their
    intersection with it or to its end nearest them. An invalid table
    raises ``NotAnEVariable`` with the witness ``check_evariable`` reports.
    """
    return _certify(e.space, e.values)


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
