"""Sample spaces, discrete distributions, two-point measures and argument checks.

Everything downstream evaluates on a finite grid ``X`` inside [0, 1] that
contains both endpoints, together with a target mean ``mu`` in (0, 1). The
extreme points of the set of mean-``mu`` distributions on such a grid are the
measures supported on at most two points straddling ``mu``; they are what the
validity oracles enumerate.

The ``check_*`` functions are the one implementation of each argument check
of a testing game; each raises ``ValueError`` with a fixed message.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeanOutsideSpan

# Absolute tolerance for measure-level invariants (masses, means). Derived
# quantities elsewhere use 1e-9.
MEASURE_TOL = 1e-12


def check_mu(mu) -> None:
    """Reject a mean, or an array of per-game means, outside (0, 1); NaN fails."""
    if isinstance(mu, np.ndarray):
        bad = mu[~((mu > 0.0) & (mu < 1.0))]
        if not bad.size:
            return
        mu = bad[0].item()
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")


def check_delta(delta: float) -> None:
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_observation(x: float) -> None:
    """Reject one round's observation unless it is a finite value in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")


def check_observations(xs: np.ndarray) -> None:
    """Reject an array of observations unless all are finite values in [0, 1].

    A stream broadcast to every row is read once (``unbroadcast_rows``).
    """
    xs = unbroadcast_rows(xs)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):  # NaN fails both
        raise ValueError("observations must be finite and lie in [0, 1]")


def unbroadcast_rows(xs: np.ndarray) -> np.ndarray:
    """``xs``, or its first row alone where its rows are one broadcast stream.

    A stream shared by G games (stride 0 along the first axis) is then read
    once rather than G times.
    """
    return xs[:1] if xs.ndim and xs.strides[0] == 0 else xs


def check_table(values) -> None:
    """Reject a table of e-variable values unless every one is finite and non-negative."""
    values = np.asarray(values, dtype=float)
    if values.size and not (values.min() >= 0.0 and values.max() < math.inf):  # NaN fails both
        raise ValueError("values must be finite and non-negative")


def check_node_count(n_nodes: int) -> None:
    """Reject a universal-portfolio grid of fewer than 3 nodes."""
    if n_nodes < 3:
        raise ValueError("need at least 3 quadrature nodes")


def check_batch(xs, mus) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` as a float (games, rounds) array, not copied, and ``mus`` as one
    contiguous float mean in (0, 1) per game; observations are not checked."""
    xs = np.asarray(xs, dtype=float)
    mus = np.ascontiguousarray(mus, dtype=float)
    if xs.ndim != 2 or mus.shape != (xs.shape[0],):
        raise ValueError("xs must be (games, rounds) with one mu per game")
    check_mu(mus)
    return xs, mus


@dataclass(frozen=True)
class SampleSpace:
    """A finite grid in [0, 1] (containing 0 and 1) plus a target mean."""

    points: tuple[float, ...]
    mu: float

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("sample space needs at least two points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must contain 0 and 1 as its endpoints")
        check_mu(self.mu)
        arr = np.array(pts, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)  # not a field: eq and hash ignore it

    @classmethod
    def uniform(cls, n: int, mu: float) -> "SampleSpace":
        """Equispaced grid of ``n`` points from 0 to 1."""
        return cls(tuple(np.linspace(0.0, 1.0, n)), mu)

    def as_array(self) -> np.ndarray:
        """The grid as a read-only float array, built once per space."""
        return self._array

    def __reduce__(self):
        # Copies and pickles rebuild the read-only array through __post_init__.
        return SampleSpace, (self.points, self.mu)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported probability measure on [0, 1]."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(p), float(m)) for p, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        total = 0.0
        for p, m in atoms:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"support point {p} outside [0, 1]")
            if not math.isfinite(m):
                raise ValueError(f"non-finite mass {m} at {p}")
            if m < -MEASURE_TOL:
                raise ValueError(f"negative mass {m} at {p}")
            total += m
        if not abs(total - 1.0) <= MEASURE_TOL:  # a non-finite total fails too
            raise ValueError(f"masses sum to {total}, expected 1")

    @classmethod
    def point(cls, v: float) -> "DiscreteDistribution":
        return cls(((v, 1.0),))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteDistribution":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli parameter {p} outside [0, 1]")
        return cls(((0.0, 1.0 - p), (1.0, p)))

    @classmethod
    def uniform_grid(cls, k: int) -> "DiscreteDistribution":
        if k < 2:
            raise ValueError("uniform grid needs at least 2 points")
        pts = np.linspace(0.0, 1.0, k)
        return cls(tuple((float(p), 1.0 / k) for p in pts))

    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms])

    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    def mean(self) -> float:
        return float(sum(p * m for p, m in self.atoms))


@dataclass(frozen=True)
class TwoPointMeasure:
    """Mean-``mu`` measure on two points: mass ``w`` on ``a``, ``1-w`` on ``b``."""

    a: float
    b: float
    w: float

    def mean(self) -> float:
        return self.w * self.a + (1.0 - self.w) * self.b

    def expectation(self, value_a: float, value_b: float) -> float:
        return self.w * value_a + (1.0 - self.w) * value_b

    def as_distribution(self) -> DiscreteDistribution:
        if self.a == self.b:
            return DiscreteDistribution(((self.a, 1.0),))
        return DiscreteDistribution(((self.a, self.w), (self.b, 1.0 - self.w)))


def two_point_weight(a: float, b: float, mu: float) -> float:
    """Mass on ``a`` of the unique mean-``mu`` measure on {a, b}.

    ``(b - mu) / (b - a)``, with the 0/0 convention that a point pair
    (mu, mu) carries weight 1. Requires ``mu`` to lie between ``a`` and ``b``.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    if not lo <= mu <= hi:
        raise MeanOutsideSpan(f"mu={mu} outside span [{lo}, {hi}]")
    if a == b:
        return 1.0
    return (b - mu) / (b - a)


def two_point_measure(a: float, b: float, mu: float) -> TwoPointMeasure:
    """The unique mean-``mu`` measure supported on {a, b}."""
    return TwoPointMeasure(a, b, two_point_weight(a, b, mu))


def anchored_two_point(x: float, mu: float) -> TwoPointMeasure:
    """The mean-``mu`` two-point measure putting maximal mass on ``x``.

    Pairs ``x`` with 0 when ``x >= mu`` and with 1 when ``x < mu``; the mass
    landing on ``x`` is exactly ``1 / F_mu(x)`` where ``F_mu`` is the pointwise
    upper envelope of all e-variables for the mean-``mu`` hypothesis.
    """
    check_observation(x)
    if x >= mu:
        return two_point_measure(0.0, x, mu)
    return two_point_measure(x, 1.0, mu)


def sample_stream(dist: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from ``dist``, reproducible from ``seed``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    masses = dist.masses()
    masses = masses / masses.sum()
    return rng.choice(dist.points(), size=n, p=masses)


def replicate_seed(master: int, index: int) -> int:
    """Derive the seed of replicate ``index`` from a master seed.

    One splitmix64 step applied to ``master + index * golden_gamma``, so
    replicates can be generated independently and in parallel while the whole
    batch stays a pure function of the master seed.
    """
    mask = (1 << 64) - 1
    z = (master + index * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def parse_distribution(literal: str) -> DiscreteDistribution:
    """Parse a CLI distribution literal.

    Supported forms: ``bernoulli:p``, ``point:v``, ``uniform-grid:k`` and
    ``table:path.csv`` (CSV columns ``point,mass``).
    """
    kind, _, arg = literal.partition(":")
    try:
        if kind == "bernoulli":
            return DiscreteDistribution.bernoulli(float(arg))
        if kind == "point":
            return DiscreteDistribution.point(float(arg))
        if kind == "uniform-grid":
            return DiscreteDistribution.uniform_grid(int(arg))
        if kind == "table":
            return distribution_from_csv(arg)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad distribution literal {literal!r}: {exc}") from exc
    raise ValueError(f"unknown distribution kind {kind!r}")


def distribution_from_csv(path: str) -> DiscreteDistribution:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"point", "mass"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected CSV columns point,mass")
        atoms = [(float(row["point"]), float(row["mass"])) for row in reader]
    return DiscreteDistribution(tuple(atoms))


def square_table_from_csv(path: str, grid=None) -> tuple[tuple[float, ...], np.ndarray]:
    """Load an ``x1,x2,value`` CSV as a table over a grid square.

    Returns the grid and the table, ``table[i, j]`` being the value at
    ``(grid[i], grid[j])``. With ``grid`` None the grid is the sorted set of
    coordinates in the file; otherwise every coordinate must come from
    ``grid``. Every cell is required; a repeated cell keeps its last value.
    Values are parsed, not checked.
    """
    allowed = None if grid is None else set(map(float, grid))
    cells = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x1", "x2", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected CSV columns x1,x2,value")
        for row in reader:
            key = float(row["x1"]), float(row["x2"])
            if allowed is not None and not allowed.issuperset(key):
                listed = ", ".join(f"{p:g}" for p in grid)
                raise ValueError(f"{path}: coordinates must come from {{{listed}}}")
            cells[key] = float(row["value"])
    if grid is None:
        grid = sorted({x for x, _ in cells} | {y for _, y in cells})
    grid = tuple(map(float, grid))
    table = np.zeros((len(grid), len(grid)))
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            if (x, y) not in cells:
                raise ValueError(f"{path}: missing cell ({x}, {y})")
            table[i, j] = cells[x, y]
    return grid, table
