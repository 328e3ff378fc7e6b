"""Multi-round coin-bets, e-processes, the tree-based validity auditor and domination.

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
tree is ever listed. ``_snell_envelope`` is the one copy of that induction.
It runs level by level over per-level value lists: ``levels[t]`` holds a
value for every length-``t`` prefix of a grid of ``g`` points, in
``itertools.product`` order, so the children of entry ``k`` of level ``t``
are entries ``k*g .. k*g+g-1`` of level ``t + 1``. Each entry above the last
level becomes the ``domain.worst_law`` value of its children, floored at its
own value (the option to stop), over the grid's cached laws
(``domain.mean_mu_laws``): the point mass at mu, when mu is a grid point,
then every pair ``a < mu < b`` with both masses computed directly. A pair
``(a, mu)`` or ``(mu, b)`` puts all its mass on mu, so the point mass stands
for it.

``audit_eprocess`` fills the levels with the process's values, depth first,
and runs the induction over every pair of one grid, so its verdict is exact
there; a value above 1 is a concrete refutation. The grid is the points of
the process's ``SampleSpace`` (a process loaded by ``eprocess_from_csv``
always has one), or of ``SampleSpace((0, mu, 1), mu)`` for a process built
without one.

The paper's central result is the other half: every valid e-process is
dominated by a product of coin-bets with predictable fractions in ``I_mu``.
``_dominating_bet`` is the one construction of that product, a forward pass
over the induction's levels in the same order. With ``W`` the product's
wealth, started at 1, the children of a prefix ``p`` divided by ``W(p)``
form a single-round table whose worst expectation is at most
``V(p)/W(p) <= 1``, so that table's certificate (``evariables._certify``) is
the fraction bet at ``p``, and keeps ``W`` at or above ``V``, and so above
the process, one level down. The root's table, which the induction has
scanned, takes only the certificate's slope step (``evariables._slopes``).
``dominate_eprocess`` runs the audit, then the pass on a passing process:
the theorem on the audit's grid, at any depth. ``dominate_T2`` runs the
induction at depth 2 with no stop option, so level 1 is a two-round table's
conditional envelope ``m(x)`` and level 0 its worst expectation, and then
the same pass. Nothing in this module runs numpy.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._record import Record
from .domain import SampleSpace, check_bet, check_scalar_mu, check_table, mean_mu_laws, read_table
from .domain import two_point_masses, worst_law, write_table
from .errors import DepthTooLarge
# check_evariable and beta_interval are not called here, but stay module names:
# perfbench/tracing.py patches its spans in under them.
from .evariables import VALIDITY_TOL, _certify, _slopes
from .evariables import beta_interval, check_evariable  # noqa: F401

MAX_MASK_DEPTH = 5
MAX_AUDIT_DEPTH = 4
# An audit passes when its largest stopped expectation is at most 1 + AUDIT_TOL.
AUDIT_TOL = 1e-9


class MultiRoundCoinBet(Record):
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
            if t >= 1:  # round 0 would read tables[-1]
                return self.tables[t - 1][tuple(prefix)]
        except (IndexError, KeyError):  # a try costs nothing when the lookup hits
            pass
        raise ValueError(f"round {t} has no bet for prefix {tuple(prefix)}")

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


class StoppingMask(Record):
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


def _check_depth(depth, least: int = 0, name: str = "depth") -> int:
    """``depth`` as an int (``np.int64`` too); ``ValueError`` unless an integer >= ``least``."""
    try:
        depth = operator.index(depth)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {depth!r}") from None
    if depth < least:
        raise ValueError(f"{name} must be at least {least}, got {depth}")
    return depth


def full_mask(depth: int) -> StoppingMask:
    """The mask that branches at every node above ``depth``."""
    mask = STOP
    for _ in range(_check_depth(depth)):
        mask = StoppingMask((mask, mask))
    return mask


def enumerate_masks(depth: int) -> list[StoppingMask]:
    """All pruned trees of depth at most ``depth``; grows as f(T)=1+f(T-1)^2."""
    depth = _check_depth(depth)
    if depth > MAX_MASK_DEPTH:
        raise DepthTooLarge(f"mask enumeration capped at depth {MAX_MASK_DEPTH}")
    masks = [STOP]
    for _ in range(depth):
        masks = [STOP] + [StoppingMask((l, r)) for l in masks for r in masks]
    return masks


class TreeHypothesis(Record):
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


class EProcess(Record):
    """Rule assigning a non-negative value to every prefix up to ``max_depth``.

    ``mu`` must be one number in (0, 1), and a ``space`` must have the same mean.
    """

    mu: float
    evaluator: object  # callable, tuple -> float
    max_depth: int
    space: SampleSpace | None = None

    def __post_init__(self):
        check_scalar_mu(self.mu)
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


class AuditReport(Record):
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


def _snell_envelope(levels, laws) -> list:
    """Backward induction, in place, over per-level value lists; returns each level's laws.

    ``levels[t]`` holds a value for every length-``t`` prefix of a grid of
    ``g`` points, in ``itertools.product`` order, so the children of entry
    ``k`` of level ``t`` are entries ``k*g .. k*g+g-1`` of level ``t + 1``.
    From the last level but one up, each entry becomes the ``worst_law``
    value of ``laws`` (``mean_mu_laws``) over its children, floored at its
    own value: the law that branches, the first with the largest branch
    value, only when that value exceeds the entry's. Returns, for every
    level but the last, the chosen law of each entry, None where the prefix
    stops; ``levels[0][0]`` is then the largest stopped expectation.
    """
    chosen = []
    for t in range(len(levels) - 2, -1, -1):
        row, below = levels[t], levels[t + 1]
        g = len(below) // len(row)
        picks = [None] * len(row)
        for k, v in enumerate(row):
            picks[k], row[k] = worst_law(laws, below[k * g : k * g + g], v)
        chosen.insert(0, picks)
    return chosen


def _dominating_bet(levels, space: SampleSpace) -> MultiRoundCoinBet:
    """The product of coin-bets whose wealth dominates ``levels``, ``_snell_envelope``'s values.

    One forward pass over the levels, in ``itertools.product`` order. The
    wealth ``W`` starts at 1 at the root. At each prefix ``p`` of level
    ``t``, the row of its children's values ``V(p + (x,))``, divided by
    ``W(p)``, has worst expectation at most ``V(p)/W(p)``, at most 1 by
    induction; so that row's certificate ``lam_p`` (``evariables._certify``)
    keeps ``W(p + (x,)) = W(p)*(1 + lam_p*(x - mu))`` at or above
    ``V(p + (x,))``, and so above the process there. The root's row needs
    only the slope step (``evariables._slopes``) when ``V(())`` is at most
    ``1 + VALIDITY_TOL``, since the induction has then scanned it. A prefix
    with ``W(p) <= 0`` bets 0, and ``W`` is grown only for a level still to
    come, the same products ``MultiRoundCoinBet.wealth`` takes. A row that
    no fraction in ``I_mu`` dominates raises ``NotAnEVariable``. Plain
    Python: no numpy runs.
    """
    points, mu = space.points, space.mu
    g, depth = len(points), len(levels) - 1
    tables, wealth = [], [1.0]
    for t in range(depth):
        below, table, grown = levels[t + 1], {}, []
        for k, prefix in enumerate(itertools.product(points, repeat=t)):
            w, lam = wealth[k], 0.0
            if t == 0 and levels[0][0] <= 1.0 + VALIDITY_TOL:
                lam = _slopes(space, below).lambda_hat
            elif w > 0.0:
                row = [v / w for v in below[k * g : k * g + g]]
                check_table(row)  # a row can overflow when mu is within 1e-9 of 0 or 1
                lam = _certify(space, row).lambda_hat
            table[prefix] = lam
            if t + 1 < depth:
                grown += [w * max(1.0 + lam * (x - mu), 0.0) for x in points]
        tables.append(table)
        wealth = grown
    return MultiRoundCoinBet(mu=mu, tables=tuple(tables))


def _audit(e: EProcess, depth: int):
    """``audit_eprocess``'s report, with its grid's sample space and its levels of ``V``."""
    depth = _check_depth(depth, 1, "audit depth")
    if depth > MAX_AUDIT_DEPTH:
        raise DepthTooLarge(f"audit capped at depth {MAX_AUDIT_DEPTH}")
    if depth > e.max_depth:
        raise ValueError(f"e-process only defined to depth {e.max_depth}")
    mu = float(e.mu)  # the laws and the reported tree use one float mean
    space = e.space or SampleSpace((0.0, mu, 1.0), mu)
    grid = space.points
    g = len(grid)
    high = next(p for p in grid if p >= mu)
    pairs = sum(p <= mu for p in grid) * sum(p >= mu for p in grid)

    levels = [[] for _ in range(depth + 1)]

    def fill(prefix: tuple) -> None:
        """Values of ``prefix`` and of every prefix below it, depth first."""
        levels[len(prefix)].append(e.value(prefix))
        if len(prefix) < depth:
            for x in grid:
                fill(prefix + (x,))

    fill(())
    chosen = _snell_envelope(levels, mean_mu_laws(grid, mu))
    tree = [(grid[0], high)] * (2**depth - 1)  # a node that is not reached keeps this pair

    def witness(node: int, t: int, k: int) -> StoppingMask:
        """Fills ``tree`` below ``node``, entry ``k`` of level ``t``; returns its mask."""
        if t == depth or chosen[t][k] is None:
            return STOP
        i, j, wa, wb = chosen[t][k]
        tree[node] = (grid[i], grid[j])
        left = witness(2 * node + 1, t + 1, k * g + i) if wa > 0.0 else STOP
        right = witness(2 * node + 2, t + 1, k * g + j) if wb > 0.0 else STOP
        return StoppingMask((left, right))

    mask = witness(0, 0, 0)
    top = levels[0][0]
    return AuditReport(
        max_expectation=top,
        argmax_tree=TreeHypothesis(mu=mu, pairs=tuple(tree)),
        argmax_mask=mask,
        passed=top <= 1.0 + AUDIT_TOL,
        n_trees=pairs ** (2**depth - 1),
        exhaustive_complete=e.space is not None,
    ), space, levels


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
    ``a <= mu <= b``; the search never lists it. The process is evaluated
    once per distinct prefix, depth first, so the first bad prefix named in
    an error is the first in that order; then ``_snell_envelope`` scans every
    law at every prefix shorter than ``depth``: a grid of ``g`` points costs
    about ``g**(depth - 1)`` prefixes times ``pairs`` branches, and holds one
    value per prefix. On one 2-vCPU VM, for a process tabulated on its
    equispaced grid at mu = 0.5, that took 0.08-0.09 ms for 5 points at
    depth 3, 6-7 ms for 21 points at depth 3 and 0.15-0.18 s for 21 points
    at depth 4. No numpy runs.
    Raises ``ValueError`` for a depth that is not an integer in
    [1, ``MAX_AUDIT_DEPTH``] (``DepthTooLarge`` above it) or beyond the
    process's ``max_depth``.
    """
    return _audit(e, depth)[0]


def dominate_eprocess(e: EProcess, depth: int) -> MultiRoundCoinBet | AuditReport:
    """A product of coin-bets dominating ``e`` up to ``depth``, or the audit's refutation.

    The paper's theorem on a grid: every valid e-process for the
    conditional mean ``mu`` is dominated by a product of coin-bets with
    predictable fractions in ``I_mu``. The audit (``audit_eprocess``, with
    its grid, errors and tolerance) runs first; a report that does not pass
    is returned as it is. On a pass, ``_dominating_bet`` reads the
    induction's values and returns the ``MultiRoundCoinBet`` whose wealth is
    at least ``e`` at every prefix of the audit's grid up to ``depth``,
    within rounding: each step may fall short by the slope step's collapse
    bar, 1e-9 of the fraction's size times the wealth. It holds on that grid
    only: an observation off it has no bet. A process that passes the audit
    only within ``AUDIT_TOL``, with a maximum above ``1 + VALIDITY_TOL``,
    raises ``NotAnEVariable`` rather than get a certificate that falls short
    of it; so does a process with no slack (a martingale) when rounding
    leaves one of its rows above that bar.
    """
    report, space, levels = _audit(e, depth)
    return _dominating_bet(levels, space) if report.passed else report


class T2Refutation(Record):
    """Depth-2 tree whose stopped expectation of the table exceeds 1."""

    tree: TreeHypothesis
    expectation: float


class T2DominationResult(Record):
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
    second fraction. ``m`` and its worst expectation are ``_snell_envelope``
    at depth 2 with no stop option. If that expectation exceeds
    ``1 + VALIDITY_TOL``, its law at the root plus the laws of the two rows
    it reaches form a depth-2 tree with that expectation. Otherwise the
    forward pass ``_dominating_bet`` builds the coin-bet pair, as
    ``dominate_eprocess`` does at any depth: ``m`` takes the slope step
    alone, and each reached row, divided by its first-round payoff, is
    scanned and certified. Plain Python: no numpy runs.
    """
    points, mu = space.points, space.mu
    n = len(points)
    try:
        rows = [tuple(map(float, row)) for row in values]
    except TypeError:  # a row that is a number, or a cell that is a sequence
        rows = []
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n}x{n} table")
    cells = [v for row in rows for v in row]
    check_table(cells)

    # The depth-2 induction with no stop option: level 1 is the conditional
    # envelope m(x) of each row, level 0 its worst expectation.
    levels = [[-math.inf], [-math.inf] * n, cells]
    (root,), row_laws = _snell_envelope(levels, mean_mu_laws(points, mu))
    if levels[0][0] > 1.0 + VALIDITY_TOL:
        i, j = root[:2]
        tree = TreeHypothesis(
            mu=mu,
            pairs=tuple((points[a], points[b]) for a, b, _, _ in (root, row_laws[i], row_laws[j])),
        )
        return T2DominationResult(
            certified=False,
            refutation=T2Refutation(tree=tree, expectation=levels[0][0]),
        )

    return T2DominationResult(certified=True, coinbet=_dominating_bet(levels, space))
