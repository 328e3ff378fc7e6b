"""Multi-round coin-bets, e-processes, and the tree-based validity auditor.

The sequential mean hypothesis has a finite skeleton: measures whose
conditional laws are two-point mean-``mu`` measures. A depth-``T`` instance is
a full binary tree with one straddling pair per node; a bounded stopping time
acts on it as a pruned-tree mask. The stopped expectation of a payoff
sequence is a weighted sum over the mask's frontier, with the branch weights
``W(a,b) = (b-mu)/(b-a)``. Auditing an e-process means maximising that
stopped expectation over trees and masks: any value above 1 is a concrete
refutation; staying at or below 1 over the searched family is heuristic
certification.

The exhaustive part of that search never lists the trees. Each heap node picks
its pair on its own, so the best stopped expectation below a prefix ``p`` obeys
the backward induction (the Snell envelope of the process over the coarse
pairs)

    V(p) = max(e(p), max over pairs (a, b) of W*V(p + (a,)) + (1-W)*V(p + (b,)))

with ``V(p) = e(p)`` at full depth, and one value per distinct prefix
replaces one walk per tree. Rounding to nearest is monotone, so ``V(())`` is
bit for bit the largest value the enumeration of every tree would find. The
reported tree is the enumeration's first maximiser in
``itertools.product`` order, recovered node by node in heap order: each node
takes the first pair with which the recursion still reaches ``V(())``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import SampleSpace, check_table, two_point_weight
from .errors import DepthTooLarge, NotAnEVariable
# check_evariable and beta_interval are not called here, but stay module names:
# perfbench/tracing.py patches its spans in under them.
from .evariables import (  # noqa: F401
    MU_SNAP_TOL,
    _certify,
    _split_grid,
    _worst_measures,
    beta_interval,
    check_bet,
    check_evariable,
)

MAX_MASK_DEPTH = 5
MAX_AUDIT_DEPTH = 4
MAX_EXHAUSTIVE = 200_000
# One tolerance for every split of a grid around mu: pairs straddle mu up to
# it, and dominate_T2 splits its grid with evariables._split_grid.
STRADDLE_TOL = MU_SNAP_TOL


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
        return self.tables[t - 1][tuple(prefix)]

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
            if not (a - STRADDLE_TOL <= self.mu <= b + STRADDLE_TOL):
                raise ValueError(f"pair ({a}, {b}) does not straddle mu={self.mu}")

    @property
    def depth(self) -> int:
        return (len(self.pairs) + 1).bit_length() - 1

    def weight(self, node: int) -> float:
        a, b = self.pairs[node]
        return two_point_weight(a, b, self.mu)


def _payoff_fn(payoffs):
    """Normalise payoff input: an e-process-like object or per-depth callables."""
    if hasattr(payoffs, "value"):
        return payoffs.value
    seq = list(payoffs)
    return lambda prefix: seq[len(prefix)](prefix)


def tree_expectation(d: TreeHypothesis, mask: StoppingMask, payoffs) -> float:
    """Stopped expectation ``E_Q[f_tau]`` of the pruned tree ``(d, mask)``.

    ``payoffs`` is either an object with ``.value(prefix)`` or a sequence of
    per-depth callables ``f_t``. Weight-zero branches are never evaluated, so
    a degenerate ``(mu, mu)`` node routes all mass to its first child.
    """
    if mask.depth > d.depth:
        raise ValueError(f"mask depth {mask.depth} exceeds tree depth {d.depth}")
    value = _payoff_fn(payoffs)

    def walk(node: int, prefix: tuple, m: StoppingMask) -> float:
        if m.is_stop:
            return float(value(prefix))
        a, b = d.pairs[node]
        w = d.weight(node)
        out = 0.0
        if w > 0.0:
            out += w * walk(2 * node + 1, prefix + (a,), m.children[0])
        if w < 1.0:
            out += (1.0 - w) * walk(2 * node + 2, prefix + (b,), m.children[1])
        return out

    return walk(0, (), mask)


@dataclass(frozen=True)
class EProcess:
    """Rule assigning a non-negative value to every prefix up to ``max_depth``."""

    mu: float
    evaluator: object  # callable, tuple -> float
    max_depth: int
    space: SampleSpace | None = None

    def __post_init__(self):
        e0 = self.value(())
        if e0 > 1.0 + 1e-12:
            raise ValueError(f"initial value {e0} exceeds 1")

    def value(self, prefix) -> float:
        prefix = tuple(prefix)
        if len(prefix) > self.max_depth:
            raise ValueError(f"prefix longer than max depth {self.max_depth}")
        v = float(self.evaluator(prefix))
        if v < 0.0 or math.isnan(v):
            raise ValueError(f"e-process value {v} at {prefix} is not non-negative")
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
    """Load a ``depth,path,value`` CSV (path = comma-joined grid points)."""
    tables = {}
    points = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"depth", "path", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected CSV columns depth,path,value")
        for row in reader:
            depth = int(row["depth"])
            prefix = tuple(float(p) for p in row["path"].split(",")) if row["path"] else ()
            if len(prefix) != depth:
                raise ValueError(f"{path}: path {row['path']!r} does not have depth {depth}")
            points.update(prefix)
            tables[prefix] = float(row["value"])
    space = None
    if {0.0, 1.0} <= points:
        space = SampleSpace(tuple(sorted(points)), mu)
    return eprocess_from_tables(mu, tables, space=space)


def eprocess_to_csv(e: EProcess, space: SampleSpace, depth: int, fh) -> None:
    """Tabulate an e-process on all grid prefixes up to ``depth``."""
    writer = csv.writer(fh)
    writer.writerow(["depth", "path", "value"])
    for t in range(depth + 1):
        for prefix in itertools.product(space.points, repeat=t):
            writer.writerow([t, ",".join(repr(p) for p in prefix), repr(e.value(prefix))])


@dataclass(frozen=True)
class AuditReport:
    max_expectation: float
    argmax_tree: TreeHypothesis
    argmax_mask: StoppingMask
    passed: bool
    n_trees: int
    exhaustive_complete: bool
    tol: float = 1e-9

    def as_dict(self) -> dict:
        return {
            "max": self.max_expectation,
            "d": [list(p) for p in self.argmax_tree.pairs],
            "mask": self.argmax_mask.label(),
            "pass": self.passed,
            "n_trees": self.n_trees,
            "exhaustive_complete": self.exhaustive_complete,
        }


def _straddling_pairs(points, mu) -> list[tuple[float, float]]:
    pts = sorted(set(float(p) for p in points))
    lows = [p for p in pts if p <= mu + STRADDLE_TOL]
    highs = [p for p in pts if p >= mu - STRADDLE_TOL]
    return [(a, b) for a in lows for b in highs if a <= b]


def _max_over_masks(d: TreeHypothesis, value, budget: int):
    """Maximum stopped expectation over all masks of depth <= budget, with argmax.

    ``value`` maps a prefix to the process's value there. Masks decide
    stop/branch per node independently and the branch weights are
    non-negative, so the maximum distributes over the recursion. Unreachable
    (weight-zero) subtrees are treated as stopped.
    """

    def walk(node: int, prefix: tuple, budget: int):
        stop_val = value(prefix)
        if budget == 0 or node >= len(d.pairs):
            return stop_val, STOP
        a, b = d.pairs[node]
        w = d.weight(node)
        branch_val = 0.0
        left_mask = right_mask = STOP
        if w > 0.0:
            v, left_mask = walk(2 * node + 1, prefix + (a,), budget - 1)
            branch_val += w * v
        if w < 1.0:
            v, right_mask = walk(2 * node + 2, prefix + (b,), budget - 1)
            branch_val += (1.0 - w) * v
        if branch_val > stop_val:
            return branch_val, StoppingMask((left_mask, right_mask))
        return stop_val, STOP

    return walk(0, (), budget)


def _memoised(fn):
    """``fn`` called once per distinct argument; exceptions are not stored."""
    memo = {}

    def call(arg):
        try:
            return memo[arg]
        except KeyError:
            out = memo[arg] = fn(arg)
            return out

    return call


def _first_best_pairs(value, pairs, mu: float, depth: int) -> tuple:
    """Heap-ordered pairs of the first best tree over ``pairs`` at every node.

    "First" is ``itertools.product(pairs, repeat=2**depth - 1)`` order and
    "best" the largest maximum over masks, found by backward induction over
    prefixes (see the module docstring) instead of one walk per tree.
    """
    weighted = [(a, b, two_point_weight(a, b, mu)) for a, b in pairs]
    fixed = []  # pairs of heap nodes 0..len(fixed)-1; the rest range over all pairs
    envelope = {}  # prefix -> V(prefix), valid below a free node

    def walk(node: int, prefix: tuple) -> float:
        free = node >= len(fixed)
        if free and prefix in envelope:
            return envelope[prefix]
        best = value(prefix)
        if len(prefix) < depth:
            for a, b, w in weighted if free else fixed[node : node + 1]:
                # Same operations, in the same order, as _max_over_masks.
                branch = 0.0
                if w > 0.0:
                    branch += w * walk(2 * node + 1, prefix + (a,))
                if w < 1.0:
                    branch += (1.0 - w) * walk(2 * node + 2, prefix + (b,))
                if branch > best:
                    best = branch
        if free:
            envelope[prefix] = best
        return best

    top = walk(0, ())
    # A free node's descendants are free, so with nodes 0..i fixed the walk
    # is the best over every completion; some pair of node i keeps it at top.
    for _ in range(2**depth - 1):
        for pair in weighted:
            fixed.append(pair)
            if walk(0, ()) == top:
                break
            fixed.pop()
    return tuple((a, b) for a, b, _ in fixed)


def audit_eprocess(
    e: EProcess,
    depth: int,
    coarse_grid=None,
    n_random: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AuditReport:
    """Search trees x masks for a stopped expectation above 1.

    The tree coefficients range over an exhaustive grid of straddling pairs
    built from ``coarse_grid`` (default {0, mu, 1}), when its
    ``pairs**(2**depth - 1)`` tuples number at most ``MAX_EXHAUSTIVE``, plus
    ``n_random`` tuples sampled uniformly from the e-process's sample space
    (or from [0,1] if it has none). A reported violation is always real; a
    pass certifies only the searched family.

    The exhaustive family is searched by backward induction over prefixes,
    not tree by tree (see the module docstring); the report, tie-breaks
    included, is the one a walk over every tree in ``itertools.product``
    order followed by the random trees would give: the first tree reaching
    the largest value. The process is evaluated once per distinct prefix.
    Raises ``ValueError`` for a depth outside [1, ``MAX_AUDIT_DEPTH``]
    (``DepthTooLarge`` above it), a negative ``n_random``, coarse-grid
    points outside [0, 1] and a search with no tree in it.
    """
    if depth > MAX_AUDIT_DEPTH:
        raise DepthTooLarge(f"audit capped at depth {MAX_AUDIT_DEPTH}")
    if depth < 1:
        raise ValueError(f"audit depth must be at least 1, got {depth}")
    if n_random < 0:
        raise ValueError(f"number of random trees must be non-negative, got {n_random}")
    if depth > e.max_depth:
        raise ValueError(f"e-process only defined to depth {e.max_depth}")
    mu = e.mu
    coarse_grid = (0.0, mu, 1.0) if coarse_grid is None else tuple(map(float, coarse_grid))
    if not all(0.0 <= p <= 1.0 for p in coarse_grid):
        raise ValueError(f"coarse grid points must lie in [0, 1], got {coarse_grid}")
    pairs = _straddling_pairs(coarse_grid, mu)
    if not pairs:
        raise ValueError("coarse grid has no pairs straddling mu")
    n_nodes = 2**depth - 1
    n_exhaustive = len(pairs) ** n_nodes
    exhaustive_complete = n_exhaustive <= MAX_EXHAUSTIVE
    if not exhaustive_complete and n_random == 0:
        raise ValueError(
            f"nothing to search: the {n_exhaustive} coarse trees exceed "
            f"MAX_EXHAUSTIVE={MAX_EXHAUSTIVE} and no random trees were asked for"
        )

    rng = np.random.default_rng(seed)
    if e.space is not None:
        pts = np.asarray(e.space.points)
        lows = pts[pts <= mu + STRADDLE_TOL]
        highs = pts[pts >= mu - STRADDLE_TOL]
        a_draws = rng.choice(lows, size=(n_random, n_nodes))
        b_draws = rng.choice(highs, size=(n_random, n_nodes))
    else:
        a_draws = rng.uniform(0.0, mu, size=(n_random, n_nodes))
        b_draws = rng.uniform(mu, 1.0, size=(n_random, n_nodes))

    value = _memoised(e.value)
    best_val = -math.inf
    best_tree = best_mask = None
    if exhaustive_complete:
        best_tree = TreeHypothesis(mu=mu, pairs=_first_best_pairs(value, pairs, mu, depth))
        best_val, best_mask = _max_over_masks(best_tree, value, depth)
    for a_row, b_row in zip(a_draws.tolist(), b_draws.tolist()):
        drawn = tuple((min(a, b), max(a, b)) for a, b in zip(a_row, b_row))
        tree = TreeHypothesis(mu=mu, pairs=drawn)
        val, mask = _max_over_masks(tree, value, depth)
        if val > best_val:
            best_val, best_tree, best_mask = val, tree, mask

    return AuditReport(
        max_expectation=best_val,
        argmax_tree=best_tree,
        argmax_mask=best_mask,
        passed=best_val <= 1.0 + tol,
        n_trees=(n_exhaustive if exhaustive_complete else 0) + n_random,
        exhaustive_complete=exhaustive_complete,
        tol=tol,
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

    For each first observation ``x`` the conditional worst-case expectation
    ``m(x) = max_Q E_Q[e(x, .)]`` over two-point mean-``mu`` measures must be
    dominated by a first-round coin-bet; dividing it out leaves per-``x``
    single-round tables for the second fraction. If ``m`` itself fails the
    single-round validity check, its witness pair plus the conditional
    maximisers assemble a depth-2 tree with expectation above 1.
    """
    pts = space.as_array()
    mu = space.mu
    vals = np.asarray(values, dtype=float)
    n = len(pts)
    if vals.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} table")
    check_table(vals)

    split = _split_grid(pts, mu)
    # Conditional envelope m(x) with, per row, the maximising two-point measure.
    arg_measure, m = _worst_measures(pts, split, vals, -math.inf)
    report, cert = _certify(pts, mu, split, np.array([m]))[0]
    if not report.valid:
        root = report.witness
        idx = {float(p): i for i, p in enumerate(pts)}
        left = arg_measure[idx[root.a]]
        right = arg_measure[idx[root.b]]
        tree = TreeHypothesis(
            mu=mu,
            pairs=(
                (min(root.a, root.b), max(root.a, root.b)),
                (min(left.a, left.b), max(left.a, left.b)),
                (min(right.a, right.b), max(right.a, right.b)),
            ),
        )
        return T2DominationResult(
            certified=False,
            refutation=T2Refutation(tree=tree, expectation=report.expectation),
        )

    if isinstance(cert, NotAnEVariable):
        raise cert
    lam1 = cert.lambda_hat
    # Second round: row i divided by the first-round payoff at x_i, all rows
    # certified in one batch; a row whose payoff is 0 is never reached.
    denom = 1.0 + lam1 * (pts - mu)
    live = denom > 0.0
    rows = vals[live] / denom[live, None]
    checked = zip(rows, _certify(pts, mu, split, rows))
    lam2 = {}
    for x, reached in zip(pts.tolist(), live.tolist()):
        if not reached:
            lam2[(x,)] = 0.0
            continue
        row, (_, row_cert) = next(checked)
        check_table(row)  # a row can overflow when mu is within 1e-9 of 0 or 1
        if isinstance(row_cert, NotAnEVariable):
            raise row_cert
        lam2[(x,)] = row_cert.lambda_hat
    coinbet = MultiRoundCoinBet(mu=mu, tables=({(): lam1}, lam2))
    return T2DominationResult(certified=True, coinbet=coinbet)
