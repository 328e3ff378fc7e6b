"""Multi-round coin-bets, e-processes, and the tree-based validity auditor.

The sequential mean hypothesis has a finite skeleton: measures whose
conditional laws are two-point mean-``mu`` measures. A depth-``T`` instance is
a full binary tree with one straddling pair per node; a bounded stopping time
acts on it as a pruned-tree mask. The stopped expectation of a payoff
sequence is a weighted sum over the mask's frontier, with the branch masses
``W_a = (b-mu)/(b-a)`` on ``a`` and ``W_b = (mu-a)/(b-a)`` on ``b``
(``domain.two_point_masses``, each computed directly).

On a finite grid the mean-``mu`` laws are mixtures of the two-point laws that
straddle mu, so the largest stopped expectation of a process over every
mean-``mu`` sequential law on the grid, up to depth ``T``, is a maximum over
those trees and masks. Each node picks its pair and each prefix stops or
branches on its own, so the maximum below a prefix ``p`` obeys the backward
induction (the Snell envelope of the process)

    V(p) = max(e(p), max over pairs (a, b) of W_a*V(p + (a,)) + W_b*V(p + (b,)))

with ``V(p) = e(p)`` at depth ``T``: one value per distinct prefix, and no
tree is ever listed. ``audit_eprocess`` runs it over every pair of one
grid, so its verdict is exact there; a value above 1 is a concrete
refutation. At each prefix it evaluates every child once and takes the
largest branch with ``domain.worst_law``, the scan of ``check_evariable``
and ``dominate_T2``, over the same cached laws (``domain.mean_mu_laws``):
the point mass at mu, when mu is a grid point, then every pair
``a < mu < b`` with both masses computed directly. A pair ``(a, mu)`` or
``(mu, b)`` puts all its mass on mu, so the point mass stands for it. The
grid is the points of the process's ``SampleSpace`` (a process loaded by
``eprocess_from_csv`` always has one), or of ``SampleSpace((0, mu, 1), mu)``
for a process built without one.

``dominate_T2`` works on rows of floats: one ``worst_law`` per row gives the
conditional envelope, one ``evariables._certify`` call certifies it, and
one more certifies each reached row divided by the first round's payoff.
Nothing in this module runs numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .domain import SampleSpace, check_bet, check_mu, check_table, mean_mu_laws, read_table
from .domain import two_point_masses, two_point_weight, worst_law, write_table
from .errors import DepthTooLarge, NotAnEVariable
# check_evariable and beta_interval are not called here, but stay module names:
# perfbench/tracing.py patches its spans in under them.
from .evariables import _certify
from .evariables import beta_interval, check_evariable  # noqa: F401

MAX_MASK_DEPTH = 5
MAX_AUDIT_DEPTH = 4
# An audit passes when its largest stopped expectation is at most 1 + AUDIT_TOL.
AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class MultiRoundCoinBet:
    """Product of per-round coin-bets with history-dependent fractions.

    ``tables[t-1]`` maps each (t-1)-tuple of grid points to the fraction bet
    at round ``t``; the empty tuple keys the first round.
    """

    mu: float
    tables: tuple

    def __post_init__(self):
        for t, table in enumerate(self.tables, start=1):
            for prefix, lam in table.items():
                if len(prefix) != t - 1:
                    raise ValueError(f"round {t} table keyed by {len(prefix)}-tuples")
                check_bet(lam, self.mu, t)

    @property
    def horizon(self) -> int:
        return len(self.tables)

    def lam(self, t: int, prefix) -> float:
        try:
            return self.tables[t - 1][tuple(prefix)]
        except (IndexError, KeyError):  # a try costs nothing when the lookup hits
            raise ValueError(f"round {t} has no bet for prefix {tuple(prefix)}") from None

    def value(self, xs) -> float:
        xs = tuple(xs)
        if len(xs) != self.horizon:
            raise ValueError(f"expected {self.horizon} observations, got {len(xs)}")
        return self.wealth(xs)

    def wealth(self, prefix) -> float:
        """Wealth after the rounds of ``prefix``, any prefix up to the horizon."""
        prefix = tuple(prefix)
        out = 1.0
        for t, x in enumerate(prefix, start=1):
            out *= max(1.0 + self.lam(t, prefix[: t - 1]) * (x - self.mu), 0.0)
        return out


@dataclass(frozen=True)
class StoppingMask:
    """Pruned binary tree: ``children`` is None at a stopped node."""

    children: tuple["StoppingMask", "StoppingMask"] | None = None

    @property
    def is_stop(self) -> bool:
        return self.children is None

    @property
    def depth(self) -> int:
        if self.children is None:
            return 0
        return 1 + max(c.depth for c in self.children)

    def label(self) -> str:
        if self.children is None:
            return "s"
        return "(" + self.children[0].label() + self.children[1].label() + ")"


STOP = StoppingMask()


def full_mask(depth: int) -> StoppingMask:
    if depth == 0:
        return STOP
    child = full_mask(depth - 1)
    return StoppingMask((child, child))


def enumerate_masks(depth: int) -> list[StoppingMask]:
    """All pruned trees of depth at most ``depth``; grows as f(T)=1+f(T-1)^2."""
    if depth > MAX_MASK_DEPTH:
        raise DepthTooLarge(f"mask enumeration capped at depth {MAX_MASK_DEPTH}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    masks = [STOP]
    for _ in range(depth):
        masks = [STOP] + [StoppingMask((l, r)) for l in masks for r in masks]
    return masks


@dataclass(frozen=True)
class TreeHypothesis:
    """Heap-ordered straddling pairs defining one two-point branching tree."""

    mu: float
    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        n = len(self.pairs)
        if n == 0 or n & (n + 1):  # must be 2^depth - 1
            raise ValueError(f"{n} pairs do not form a full binary tree")
        for a, b in self.pairs:
            if not a <= self.mu <= b:
                raise ValueError(f"pair ({a}, {b}) does not straddle mu={self.mu}")

    @property
    def depth(self) -> int:
        return (len(self.pairs) + 1).bit_length() - 1

    def weight(self, node: int) -> float:
        return two_point_weight(*self.pairs[node], self.mu)


def _payoff_fn(payoffs):
    """Normalise payoff input: an e-process-like object or per-depth callables."""
    if hasattr(payoffs, "value"):
        return payoffs.value
    seq = list(payoffs)
    return lambda prefix: seq[len(prefix)](prefix)


def tree_expectation(d: TreeHypothesis, mask: StoppingMask, payoffs) -> float:
    """Stopped expectation ``E_Q[f_tau]`` of the pruned tree ``(d, mask)``.

    ``payoffs`` is either an object with ``.value(prefix)`` or a sequence of
    per-depth callables ``f_t``. Mass-zero branches are never evaluated, so
    a degenerate ``(mu, mu)`` node routes all mass to its first child.
    """
    if mask.depth > d.depth:
        raise ValueError(f"mask depth {mask.depth} exceeds tree depth {d.depth}")
    value = _payoff_fn(payoffs)

    def walk(node: int, prefix: tuple, m: StoppingMask) -> float:
        if m.is_stop:
            return float(value(prefix))
        a, b = d.pairs[node]
        wa, wb = two_point_masses(a, b, d.mu)
        out = 0.0
        if wa > 0.0:
            out += wa * walk(2 * node + 1, prefix + (a,), m.children[0])
        if wb > 0.0:
            out += wb * walk(2 * node + 2, prefix + (b,), m.children[1])
        return out

    return walk(0, (), mask)


@dataclass(frozen=True)
class EProcess:
    """Rule assigning a non-negative value to every prefix up to ``max_depth``.

    ``mu`` must lie in (0, 1), and a ``space`` must have the same mean.
    """

    mu: float
    evaluator: object  # callable, tuple -> float
    max_depth: int
    space: SampleSpace | None = None

    def __post_init__(self):
        check_mu(self.mu)
        if self.space is not None and self.space.mu != float(self.mu):
            raise ValueError(f"sample space mean {self.space.mu} differs from mu={self.mu}")
        e0 = self.value(())
        if e0 > 1.0 + 1e-12:
            raise ValueError(f"initial value {e0} exceeds 1")

    def value(self, prefix) -> float:
        prefix = tuple(prefix)
        if len(prefix) > self.max_depth:
            raise ValueError(f"prefix longer than max depth {self.max_depth}")
        v = float(self.evaluator(prefix))
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"e-process value {v} at {prefix} is not finite and non-negative")
        return v

    def scale_at(self, depth: int, factor: float) -> "EProcess":
        base = self.evaluator
        return EProcess(
            mu=self.mu,
            evaluator=lambda p: (factor if len(p) == depth else 1.0) * base(p),
            max_depth=self.max_depth,
            space=self.space,
        )


def coinbet_eprocess(bet: MultiRoundCoinBet, space: SampleSpace | None = None) -> EProcess:
    """Wealth process of a multi-round coin-bet (a martingale, hence an e-process)."""
    return EProcess(mu=bet.mu, evaluator=bet.wealth, max_depth=bet.horizon, space=space)


def constant_eprocess(mu: float, level: float = 1.0, max_depth: int = 8) -> EProcess:
    return EProcess(mu=mu, evaluator=lambda p: level, max_depth=max_depth)


def eprocess_from_tables(mu: float, tables: dict, space: SampleSpace | None = None) -> EProcess:
    """E-process given by explicit per-prefix values.

    ``tables`` maps tuples of grid points (the empty tuple included) to
    values; the maximum key length sets the depth.
    """
    values = {tuple(k): float(v) for k, v in tables.items()}
    if () not in values:
        raise ValueError("tables must include the empty prefix")
    max_depth = max(len(k) for k in values)

    def evaluate(prefix):
        try:
            return values[prefix]
        except KeyError:
            raise ValueError(f"e-process table has no entry for prefix {prefix}") from None

    return EProcess(mu=mu, evaluator=evaluate, max_depth=max_depth, space=space)


def eprocess_from_csv(path: str, mu: float) -> EProcess:
    """Load a ``depth,path,value`` CSV (path = comma-joined grid points).

    The process's sample space is the set of points its paths use, so that
    set must include 0 and 1 (``SampleSpace`` rejects it otherwise). A path
    given twice is rejected.
    """

    def parse_path(text):
        return tuple(float(p) for p in text.split(",")) if text else ()

    def name(key):
        return f"path {','.join(map(repr, key[1]))!r}"

    rows = read_table(path, {"depth": int, "path": parse_path, "value": float}, name)
    for depth, prefix in rows:
        if len(prefix) != depth:
            raise ValueError(f"{path}: {name((depth, prefix))} does not have depth {depth}")
    tables = {prefix: value for (_, prefix), value in rows.items()}
    points = {p for prefix in tables for p in prefix}
    return eprocess_from_tables(mu, tables, space=SampleSpace(tuple(sorted(points)), mu))


def eprocess_to_csv(e: EProcess, space: SampleSpace, depth: int, fh) -> None:
    """Tabulate an e-process on all grid prefixes up to ``depth`` as a
    ``depth,path,value`` CSV on the open handle ``fh``.

    A path of two or more points holds commas, so it is quoted, as
    ``csv.writer`` quotes it.
    """
    prefixes = (p for t in range(depth + 1) for p in itertools.product(space.points, repeat=t))
    rows = ((len(p), ",".join(map(repr, p)), e.value(p)) for p in prefixes)
    write_table(
        (getattr(fh, "name", "the e-process table"), fh), ("depth", "path", "value"), rows, "csv",
        lambda rows: [
            f'{t},"{path}",{v!r}\r\n' if "," in path else f"{t},{path},{v!r}\r\n"
            for t, path, v in rows
        ],
    )


@dataclass(frozen=True)
class AuditReport:
    max_expectation: float
    argmax_tree: TreeHypothesis
    argmax_mask: StoppingMask
    passed: bool
    n_trees: int
    exhaustive_complete: bool

    def as_dict(self) -> dict:
        return {
            "max": self.max_expectation,
            "d": [list(p) for p in self.argmax_tree.pairs],
            "mask": self.argmax_mask.label(),
            "pass": self.passed,
            "n_trees": self.n_trees,
            "exhaustive_complete": self.exhaustive_complete,
        }


def _snell_envelope(value, grid, mu: float, first, depth: int):
    """Largest stopped expectation up to ``depth`` over every tree on ``grid``.

    ``grid`` is increasing and ``mu`` a float; every node may take any law
    of ``mean_mu_laws(grid, mu)``. The backward induction of the module
    docstring runs once per reached prefix, so ``value`` is called once per
    prefix. Returns ``(V(()), tree, mask)``: the heap-ordered pairs and the
    stopping mask of a tree reaching ``V(())``. A prefix branches on
    ``worst_law``'s law, the first with the largest branch value, and only
    when that value exceeds ``value(prefix)``; the point mass at mu is the
    pair ``(mu, mu)``. A mass-zero branch is not reached. A node that stops,
    lies under a stop or is never reached carries the pair ``first``.
    """
    laws = mean_mu_laws(grid, mu)
    choices = {}  # prefix -> the chosen law, or None to stop

    def envelope(prefix: tuple) -> float:
        v, choice = value(prefix), None
        if len(prefix) < depth:
            below = [envelope(prefix + (x,)) for x in grid]
            choice, v = worst_law(laws, below, v)
        choices[prefix] = choice
        return v

    tree = [None] * (2**depth - 1)

    def witness(node: int, prefix) -> StoppingMask:
        """Fills ``tree`` below ``node`` (``prefix`` None if not reached); returns its mask."""
        if node >= len(tree):
            return STOP
        choice = None if prefix is None else choices[prefix]
        if choice is None:
            tree[node] = first
            witness(2 * node + 1, None)
            witness(2 * node + 2, None)
            return STOP
        i, j, wa, wb = choice
        a, b = grid[i], grid[j]
        tree[node] = (a, b)
        left = witness(2 * node + 1, prefix + (a,) if wa > 0.0 else None)
        right = witness(2 * node + 2, prefix + (b,) if wb > 0.0 else None)
        return StoppingMask((left, right))

    top = envelope(())
    mask = witness(0, ())
    return top, tuple(tree), mask


def audit_eprocess(e: EProcess, depth: int) -> AuditReport:
    """Largest stopped expectation of ``e`` over two-point trees and masks on one grid.

    Every node may take any pair ``a <= mu <= b`` of the grid, and every
    prefix may stop, so the report is exact for every mean-``mu`` sequential
    law on that grid up to ``depth``. The grid is the points of the
    process's sample space when it has one (every one ``eprocess_from_csv``
    loads, and so every audit the CLI runs); the report then says
    ``exhaustive_complete``. A process without one is searched on
    {0, mu, 1}; a pass then holds on that grid only, and
    ``exhaustive_complete`` is false. The report passes when its maximum is
    at most ``1 + AUDIT_TOL``. A reported violation is always real, and
    ``tree_expectation`` replays the reported tree and mask.

    ``n_trees`` is the size of the family searched,
    ``pairs**(2**depth - 1)``, with ``pairs`` the number of grid pairs
    ``a <= mu <= b``; the search never lists it. The process is
    evaluated once per distinct prefix, and every prefix shorter than
    ``depth`` scans every law: a grid of ``g`` points costs about
    ``g**(depth - 1)`` prefixes times ``pairs`` branches. On one 2-vCPU VM,
    for a process tabulated on its grid, that took under 1 ms for 5 points
    at depth 3, 0.02-0.04 s for 21 points at depth 3 and 0.5-0.9 s for 21
    points at depth 4. No numpy runs.
    Raises ``ValueError`` for a depth outside [1, ``MAX_AUDIT_DEPTH``]
    (``DepthTooLarge`` above it) or beyond the process's ``max_depth``.
    """
    if depth > MAX_AUDIT_DEPTH:
        raise DepthTooLarge(f"audit capped at depth {MAX_AUDIT_DEPTH}")
    if depth < 1:
        raise ValueError(f"audit depth must be at least 1, got {depth}")
    if depth > e.max_depth:
        raise ValueError(f"e-process only defined to depth {e.max_depth}")
    mu = float(e.mu)  # the laws and the reported tree use one float mean
    grid = (e.space or SampleSpace((0.0, mu, 1.0), mu)).points
    high = next(p for p in grid if p >= mu)
    pairs = sum(p <= mu for p in grid) * sum(p >= mu for p in grid)

    best_val, best_pairs, best_mask = _snell_envelope(e.value, grid, mu, (grid[0], high), depth)
    return AuditReport(
        max_expectation=best_val,
        argmax_tree=TreeHypothesis(mu=mu, pairs=best_pairs),
        argmax_mask=best_mask,
        passed=best_val <= 1.0 + AUDIT_TOL,
        n_trees=pairs ** (2**depth - 1),
        exhaustive_complete=e.space is not None,
    )


@dataclass(frozen=True)
class T2Refutation:
    """Depth-2 tree whose stopped expectation of the table exceeds 1."""

    tree: TreeHypothesis
    expectation: float


@dataclass(frozen=True)
class T2DominationResult:
    certified: bool
    coinbet: MultiRoundCoinBet | None = None
    refutation: T2Refutation | None = None


def dominate_T2(values, space: SampleSpace) -> T2DominationResult:
    """Dominate a two-round table by a coin-bet pair, or refute it.

    ``values`` holds one row of numbers per first observation, ``values[i][j]``
    being the value at ``(x_i, x_j)``. For each first observation ``x`` the
    conditional worst-case expectation ``m(x) = max_Q E_Q[e(x, .)]`` over
    two-point mean-``mu`` measures must be dominated by a first-round
    coin-bet; dividing it out leaves per-``x`` single-round tables for the
    second fraction. If ``m`` itself fails the single-round validity check,
    its witness pair plus the conditional maximisers assemble a depth-2 tree
    with expectation above 1. Plain Python: no numpy runs.
    """
    points, mu = space.points, space.mu
    n = len(points)
    try:
        rows = [tuple(map(float, row)) for row in values]
    except TypeError:  # a row that is a number, or a cell that is a sequence
        rows = []
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n}x{n} table")
    check_table(v for row in rows for v in row)

    # Conditional envelope m(x) with, per row, the maximising law.
    laws = mean_mu_laws(points, mu)
    worst = [worst_law(laws, row, -math.inf) for row in rows]
    report, cert = _certify(space, [top for _, top in worst])
    if not report.valid:
        root = report.witness
        left = worst[points.index(root.a)][0]
        right = worst[points.index(root.b)][0]
        tree = TreeHypothesis(
            mu=mu,
            pairs=(
                (root.a, root.b),
                (points[left[0]], points[left[1]]),
                (points[right[0]], points[right[1]]),
            ),
        )
        return T2DominationResult(
            certified=False,
            refutation=T2Refutation(tree=tree, expectation=report.expectation),
        )

    if isinstance(cert, NotAnEVariable):
        raise cert
    lam1 = cert.lambda_hat
    # Second round: row i divided by the first-round payoff at x_i, certified
    # on its own; a row whose payoff is 0 is never reached.
    lam2 = {}
    for x, row in zip(points, rows):
        payoff = 1.0 + lam1 * (x - mu)
        if payoff <= 0.0:
            lam2[(x,)] = 0.0
            continue
        row = [v / payoff for v in row]
        check_table(row)  # a row can overflow when mu is within 1e-9 of 0 or 1
        row_cert = _certify(space, row)[1]
        if isinstance(row_cert, NotAnEVariable):
            raise row_cert
        lam2[(x,)] = row_cert.lambda_hat
    coinbet = MultiRoundCoinBet(mu=mu, tables=({(): lam1}, lam2))
    return T2DominationResult(certified=True, coinbet=coinbet)
