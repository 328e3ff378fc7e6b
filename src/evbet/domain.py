"""Sample spaces, discrete distributions, two-point measures and argument checks.

Everything downstream evaluates on a finite grid ``X`` inside [0, 1] that
contains both endpoints, together with a target mean ``mu`` in (0, 1). The
extreme points of the set of mean-``mu`` distributions on such a grid are the
measures supported on at most two points straddling ``mu``; they are what the
validity oracles enumerate.

The ``check_*`` functions are the one implementation of each argument check
of a testing game; each raises ``ValueError`` with a fixed message. The
decisions that the game and the certification oracles share live here too:
the bet interval ``I_mu`` (``bet_bounds``), the rejection threshold
``log(1/delta)`` (``rejection_threshold``) and the masses of a two-point
mean-``mu`` law (``two_point_masses``). That law is the one near-mu rule of
every validity verdict: a pair straddles mu exactly (``a <= mu <= b``), the
only point mass is at mu itself, and both masses are computed directly, so
neither loses the digits that ``1 - w`` loses when mu lies near a point.
So do the one reader of table files (``read_table``) and the one writer
(``write_table``), which every CLI table and every library table file goes
through.

Every worst-law search runs one scan, ``worst_law``, over one list of laws
per grid and mean, ``mean_mu_laws``: the point mass at mu, when mu is a grid
point, then every pair ``a < mu < b`` in row-major order with both masses.
The list depends only on the grid and mu, so it is built once and the last
8 are kept; it holds indices and masses, never points. Every single-round
validity scan (``evariables._scan``) runs it, and so does
``multiround._snell_envelope``, the one backward induction, which the audit,
``dominate_eprocess`` and ``dominate_T2`` share; the forward pass that builds
their coin-bets scans each row it certifies through ``evariables._scan``.
The scan is plain Python, and so are ``check_table`` and the table loaders,
so certifying or auditing a table file runs no numpy.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math

from ._lazy import np
from ._record import Record
from .errors import MeanOutsideSpan, OutOfRange

# Absolute tolerance for measure-level invariants (masses, means). Derived
# quantities elsewhere use 1e-9.
MEASURE_TOL = 1e-12


def check_mu(mu) -> None:
    """Reject a mean, or an array of per-game means, outside (0, 1); NaN fails."""
    # A Python number is never an array; asking would load numpy on the audit path.
    if not isinstance(mu, (float, int)) and isinstance(mu, np.ndarray):
        bad = mu[~((mu > 0.0) & (mu < 1.0))]
        if not bad.size:
            return
        mu = bad[0].item()
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")


def check_scalar_mu(mu) -> None:
    """Reject a mean outside (0, 1) (``check_mu``), or an array of means of any shape."""
    # A Python number is never an array; asking would load numpy on the audit path.
    if not isinstance(mu, (float, int)) and np.ndim(mu):
        raise ValueError(f"mu must be a scalar, got an array of shape {np.shape(mu)}")
    check_mu(mu)


def bet_bounds(mu: float) -> tuple[float, float]:
    """The closed interval ``I_mu`` of bet fractions keeping payoffs >= 0 on [0, 1].

    An array of per-game means gives the arrays of their bounds.
    """
    check_mu(mu)
    return 1.0 / (mu - 1.0), 1.0 / mu


def check_bet(lam: float, mu: float, t: int | None = None) -> None:
    """Reject a bet fraction outside ``I_mu`` with ``OutOfRange``; ``t`` names its round."""
    lo, hi = bet_bounds(mu)
    if not lo <= lam <= hi:
        at = "" if t is None else f" at round {t}"
        raise OutOfRange(f"lambda={lam} outside I_mu=[{lo}, {hi}] for mu={mu}{at}")


def check_delta(delta: float) -> None:
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def rejection_threshold(delta: float) -> float:
    """``log(1/delta)``, the log-wealth a game must exceed to reject; ``delta`` is checked."""
    check_delta(delta)
    return math.log(1.0 / delta)


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
    """Reject e-variable values unless every one is finite and non-negative.

    ``values`` is an iterable of numbers, such as a table's cells; plain
    Python, so no numpy runs.
    """
    if not all(0.0 <= v < math.inf for v in values):  # NaN fails both
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


class SampleSpace(Record):
    """A finite grid in [0, 1] (containing 0 and 1) plus a target mean.

    The mean is kept as a Python float, so equal means give equal spaces
    that compute alike whatever their type (``0.5``, ``np.float32(0.5)``,
    a 0-d array); an array of means is rejected.
    """

    points: tuple[float, ...]
    mu: float

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("sample space needs at least two points")
        if not all(a < b for a, b in zip(pts, pts[1:])):  # NaN fails too
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must contain 0 and 1 as its endpoints")
        check_scalar_mu(self.mu)
        object.__setattr__(self, "mu", float(self.mu))

    @classmethod
    def uniform(cls, n: int, mu: float) -> "SampleSpace":
        """Equispaced grid of ``n`` points from 0 to 1."""
        return cls(tuple(np.linspace(0.0, 1.0, n)), mu)

    def as_array(self) -> np.ndarray:
        """The grid as a new float array."""
        return np.array(self.points, dtype=float)


class DiscreteDistribution(Record):
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


class TwoPointMeasure(Record):
    """Mean-``mu`` measure on two points: mass ``w`` on ``a`` and ``wb`` on ``b``.

    Both masses are kept as ``two_point_masses`` computes them, so the
    measure replays its mean and expectations without taking one as 1 minus
    the other.
    """

    a: float
    b: float
    w: float
    wb: float

    def mean(self) -> float:
        return self.w * self.a + self.wb * self.b

    def expectation(self, value_a: float, value_b: float) -> float:
        return self.w * value_a + self.wb * value_b


def two_point_masses(a: float, b: float, mu: float) -> tuple[float, float]:
    """Masses on ``a`` and on ``b`` of the unique mean-``mu`` law on {a, b}.

    ``(b - mu) / (b - a)`` and ``(mu - a) / (b - a)``, each computed
    directly; the point pair (mu, mu) gets (1, 0). Requires ``mu`` to lie
    between ``a`` and ``b``.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    if not lo <= mu <= hi:
        raise MeanOutsideSpan(f"mu={mu} outside span [{lo}, {hi}]")
    if a == b:
        return 1.0, 0.0
    return (b - mu) / (b - a), (mu - a) / (b - a)


@functools.lru_cache(maxsize=8)
def mean_mu_laws(points: tuple[float, ...], mu: float):
    """The extreme mean-``mu`` laws on the increasing grid ``points``, built once and kept.

    ``(at, pairs)``. ``at`` is the point mass at mu as the law
    ``(i, i, 1.0, 0.0)``, with ``points[i] == mu``, or None when mu is not a
    grid point. ``pairs`` holds the law ``(i, j, wa, wb)`` of every pair
    ``points[i] < mu < points[j]``, in row-major order, with ``wa, wb`` its
    ``two_point_masses``. A law holds indices and masses only, never points:
    grids that compare equal (one starting at -0.0, one at 0.0) share an
    entry, and each caller reads the points from its own grid. ``points``
    and ``mu`` must be floats, so that every entry's masses are floats.
    """
    at = next(((i, i, 1.0, 0.0) for i, p in enumerate(points) if p == mu), None)
    below = [i for i, p in enumerate(points) if p < mu]
    above = [j for j, p in enumerate(points) if p > mu]
    pairs = tuple(
        (i, j, *two_point_masses(points[i], points[j], mu)) for i in below for j in above
    )
    return at, pairs


def worst_law(laws, values, floor: float):
    """The mean-mu law of ``laws`` (``mean_mu_laws``) giving ``values`` the largest
    expectation above ``floor``, and that expectation: ``(None, floor)`` when
    none exceeds it.

    ``values[i]`` is the value at grid point ``i``. The point mass's
    expectation is that value, a pair's is ``wa*values[i] + wb*values[j]``.
    Laws are taken in order, from the point mass on, and one replaces the
    current one only when its expectation is strictly larger, so ties go to
    the first. Plain Python: no numpy runs.
    """
    at, pairs = laws
    worst, top = None, floor
    if at is not None and values[at[0]] > top:
        worst, top = at, values[at[0]]
    for law in pairs:
        i, j, wa, wb = law
        expectation = wa * values[i] + wb * values[j]
        if expectation > top:
            worst, top = law, expectation
    return worst, top


def two_point_measure(a: float, b: float, mu: float) -> TwoPointMeasure:
    """The unique mean-``mu`` measure supported on {a, b}."""
    return TwoPointMeasure(a, b, *two_point_masses(a, b, mu))


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
    if masses.min() < 0.0:  # a mass within MEASURE_TOL below 0, refused as rng.choice did
        raise ValueError("Probabilities are not non-negative")
    # The inverse CDF that rng.choice(points, size=n, p=masses) computes: the same draws.
    cdf = masses.cumsum()
    cdf /= cdf[-1]
    return dist.points()[cdf.searchsorted(rng.random(n), side="right")]


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


def _parsed(path: str, line: int, parse, text: str):
    """``parse(text)``; a ``ValueError`` is prefixed ``<path>: line <line>:``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from exc


def read_table(path: str, columns: dict, name) -> dict:
    """The one reader of table files: ``{key: value}`` in file order.

    ``columns`` maps each column the file must have, in schema order, to the
    parser of its fields; other columns and blank lines are ignored. A row's
    last column is its value, the others its key (a tuple). Each error is a
    ``ValueError`` naming ``path``: a missing column, a field that does not
    parse (with its line) and a key given twice (named by ``name(key)``).
    """
    table = {}
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh, restval="")  # a short row's missing fields read as ""
        try:
            if not columns.keys() <= set(rows.fieldnames or ()):
                raise ValueError(f"{path}: expected CSV columns {','.join(columns)}")
            for row in rows:
                *key, value = [
                    _parsed(path, rows.line_num, parse, row[col]) for col, parse in columns.items()
                ]
                key = tuple(key)
                if key in table:
                    raise ValueError(f"{path}: {name(key)} appears twice")
                table[key] = value
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return table


@contextlib.contextmanager
def naming(name):
    """Re-raise an ``OSError`` on output ``name`` as one that names it; a broken pipe passes."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise OSError(f"cannot write {name}: {exc.strerror}") from exc


# Rows joined per write of a table.
_BLOCK_ROWS = 4096


def write_table(out, header, rows, fmt, csv_lines) -> None:
    """The one writer of table files: the tuples ``rows`` to a ``(name, handle)`` output.

    Both formats write one block of ``_BLOCK_ROWS`` rows at a time, so no table
    is held whole, and a failed write names the output. JSON is a list of
    records, byte for byte what ``json.dumps(records, indent=2)`` writes: each
    block is dumped as a list and written without its brackets. CSV is the
    header, then the CRLF-ended lines ``csv_lines`` makes of a block of rows;
    an f-string per line writes what ``csv.writer`` writes as long as it
    quotes exactly the fields that hold a comma.
    """
    name, fh = out
    rows = iter(rows)
    with naming(name):
        if fmt == "json":
            import json  # here, so that importing domain loads no json

            fh.write("[")
            separator = ""
            while block := [dict(zip(header, row)) for row in itertools.islice(rows, _BLOCK_ROWS)]:
                fh.write(separator + json.dumps(block, indent=2)[1:-2])  # "\n  {...},\n  {...}"
                separator = ","
            fh.write("\n]\n" if separator else "]\n")
            return
        fh.write(",".join(header) + "\r\n")
        while block := "".join(csv_lines(itertools.islice(rows, _BLOCK_ROWS))):
            fh.write(block)


def read_numbers(path: str) -> list[float]:
    """The numbers of a file, one per line, blank lines skipped; a bad one names its line."""
    with open(path) as fh:
        return [_parsed(path, n, float, line) for n, line in enumerate(fh, start=1) if line.strip()]


def distribution_from_csv(path: str) -> DiscreteDistribution:
    """Load a ``point,mass`` CSV, each point given once, as a distribution."""
    table = read_table(path, {"point": float, "mass": float}, lambda key: f"point {key[0]!r}")
    return DiscreteDistribution(tuple((p, m) for (p,), m in table.items()))


def square_table_from_csv(path: str, grid=None) -> tuple[tuple[float, ...], tuple]:
    """Load an ``x1,x2,value`` CSV as a table over a grid square.

    Returns the grid and the table as a tuple of row tuples, ``table[i][j]``
    being the value at ``(grid[i], grid[j])``. With ``grid`` None the grid is
    the sorted set of coordinates in the file; otherwise every coordinate
    must come from ``grid``. Every cell is required, and given once. Values
    are parsed, not checked.
    """
    cells = read_table(path, {"x1": float, "x2": float, "value": float}, lambda key: f"cell {key}")
    if grid is None:
        grid = sorted({x for x, _ in cells} | {y for _, y in cells})
    elif not set(map(float, grid)).issuperset(x for cell in cells for x in cell):
        listed = ", ".join(f"{p:g}" for p in grid)
        raise ValueError(f"{path}: coordinates must come from {{{listed}}}")
    grid = tuple(map(float, grid))
    for x, y in itertools.product(grid, repeat=2):
        if (x, y) not in cells:
            raise ValueError(f"{path}: missing cell ({x}, {y})")
    return grid, tuple(tuple(cells[x, y] for y in grid) for x in grid)
