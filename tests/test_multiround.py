import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evbet.betting import lambda_grid
from evbet.cli import main
from evbet.domain import SampleSpace, mean_mu_laws, two_point_masses, worst_law
from evbet.errors import DepthTooLarge, NotAnEVariable, OutOfRange
from evbet.evariables import MU_SNAP_TOL, VALIDITY_TOL, TabulatedEVariable, beta_interval
from evbet.iid_case import separation_table
from evbet.multiround import (
    AUDIT_TOL,
    MAX_AUDIT_DEPTH,
    STOP,
    AuditReport,
    EProcess,
    MultiRoundCoinBet,
    StoppingMask,
    TreeHypothesis,
    audit_eprocess,
    coinbet_eprocess,
    constant_eprocess,
    dominate_T2,
    dominate_eprocess,
    enumerate_masks,
    eprocess_from_csv,
    eprocess_from_tables,
    eprocess_to_csv,
    full_mask,
    tree_expectation,
)

GRID3 = SampleSpace((0.0, 0.5, 1.0), 0.5)
GRID5 = SampleSpace((0.0, 0.25, 0.5, 0.75, 1.0), 0.5)


def random_coinbet(space, depth, rng):
    tables = []
    for t in range(1, depth + 1):
        tables.append(
            {
                prefix: float(rng.uniform(-2, 2))
                for prefix in itertools.product(space.points, repeat=t - 1)
            }
        )
    return MultiRoundCoinBet(space.mu, tuple(tables))


class TestEvalMultiround:
    def test_all_observations_at_mean(self, rng):
        bet = random_coinbet(GRID3, 3, rng)
        assert bet.value((0.5, 0.5, 0.5)) == 1.0

    def test_two_round_product(self):
        bet = MultiRoundCoinBet(
            0.5, ({(): 2.0}, {(0.0,): -2.0, (0.5,): -2.0, (1.0,): -2.0})
        )
        assert bet.value((1.0, 0.0)) == pytest.approx(4.0)

    def test_zero_fractions_are_identity(self):
        bet = MultiRoundCoinBet(
            0.5, ({(): 0.0}, {(x,): 0.0 for x in GRID3.points})
        )
        for xs in itertools.product(GRID3.points, repeat=2):
            assert bet.value(xs) == 1.0

    def test_fraction_outside_interval_rejected(self):
        with pytest.raises(OutOfRange):
            MultiRoundCoinBet(0.5, ({(): 2.5},))


class TestMasks:
    @pytest.mark.parametrize("depth,count", [(1, 2), (2, 5), (3, 26), (4, 677)])
    def test_counts(self, depth, count):
        masks = enumerate_masks(depth)
        assert len(masks) == count
        assert len({m.label() for m in masks}) == count

    def test_depth_one_masks(self):
        masks = enumerate_masks(1)
        assert {m.label() for m in masks} == {"s", "(ss)"}

    def test_guard(self):
        with pytest.raises(DepthTooLarge):
            enumerate_masks(6)

    def test_full_mask_depth(self):
        assert full_mask(3).depth == 3
        assert STOP.depth == 0


class TestTreeExpectation:
    def test_stop_at_root_returns_initial_level(self, rng):
        d = TreeHypothesis(0.5, ((0.1, 0.9),))
        payoffs = [lambda p: 0.75, lambda p: rng.uniform(0, 5)]
        assert tree_expectation(d, STOP, payoffs) == 0.75

    def test_depth_one_symmetric(self):
        d = TreeHypothesis(0.5, ((0.0, 1.0),))
        v0, v1 = 3.0, 5.0
        payoffs = [lambda p: 0.0, lambda p: v0 if p[0] == 0.0 else v1]
        assert tree_expectation(d, full_mask(1), payoffs) == pytest.approx((v0 + v1) / 2.0)

    def test_pruned_depth_three_expansion(self):
        # Depth-3 tree, mask stopping at (a1), at (a2,b4), continuing at (a2,b3):
        # manual expansion with the per-node weights as the oracle.
        mu = 0.4
        a = (0.1, 0.9)
        b_left, b_right = (0.2, 0.8), (0.3, 0.7)
        c = [(0.0, 1.0), (0.05, 0.95), (0.15, 0.85), (0.25, 0.75)]
        d = TreeHypothesis(mu, (a, b_left, b_right) + tuple(c))
        mask = StoppingMask(
            (
                STOP,
                StoppingMask((StoppingMask((STOP, STOP)), STOP)),
            )
        )
        rng = np.random.default_rng(8)
        values = {}

        def payoff(prefix):
            return values.setdefault(prefix, float(rng.uniform(0.0, 2.0)))

        payoffs = [payoff] * 4
        got = tree_expectation(d, mask, payoffs)

        w_a = two_point_masses(*a, mu)[0]
        w_b = two_point_masses(*b_right, mu)[0]
        w_c = two_point_masses(*c[2], mu)[0]
        a1, a2 = a
        b3, b4 = b_right
        c5, c6 = c[2]
        expected = (
            w_a * payoff((a1,))
            + (1 - w_a) * (1 - w_b) * payoff((a2, b4))
            + (1 - w_a)
            * w_b
            * (w_c * payoff((a2, b3, c5)) + (1 - w_c) * payoff((a2, b3, c6)))
        )
        assert got == pytest.approx(expected, abs=1e-15)

    def test_unit_payoff_masses_conserve(self, rng):
        ones = [lambda p: 1.0] * 4
        pts = np.array(GRID3.points)
        for _ in range(200):
            pairs = tuple(
                (float(rng.choice(pts[pts <= 0.5])), float(rng.choice(pts[pts >= 0.5])))
                for _ in range(7)
            )
            d = TreeHypothesis(0.5, pairs)
            for mask in (STOP, full_mask(1), full_mask(3)):
                assert tree_expectation(d, mask, ones) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_pair_routes_to_single_child(self):
        # A (mu, mu) node gives weight 1 to its first child; the other side
        # must never be evaluated.
        d = TreeHypothesis(0.5, ((0.5, 0.5),))

        def leaf(prefix):
            assert prefix == (0.5,)
            return 7.0

        payoffs = [lambda p: 1.0, leaf]
        assert tree_expectation(d, full_mask(1), payoffs) == 7.0

    def test_mask_deeper_than_tree_rejected(self):
        d = TreeHypothesis(0.5, ((0.0, 1.0),))
        with pytest.raises(ValueError):
            tree_expectation(d, full_mask(2), [lambda p: 1.0] * 3)


class TestEProcess:
    def test_initial_value_capped(self):
        with pytest.raises(ValueError):
            constant_eprocess(0.5, level=1.5)

    def test_coinbet_eprocess_is_martingale_on_trees(self, rng):
        bet = random_coinbet(GRID3, 3, rng)
        process = coinbet_eprocess(bet, GRID3)
        pts = np.array(GRID3.points)
        for _ in range(100):
            pairs = tuple(
                (float(rng.choice(pts[pts <= 0.5])), float(rng.choice(pts[pts >= 0.5])))
                for _ in range(7)
            )
            d = TreeHypothesis(0.5, pairs)
            for mask in enumerate_masks(2):
                padded = tree_expectation(d, mask, process)
                assert padded == pytest.approx(1.0, abs=1e-9)


class TestMissingPrefix:
    BET = MultiRoundCoinBet(0.5, ({(): 0.5}, {(0.3,): 0.1}))

    @pytest.mark.parametrize(
        "call",
        [
            lambda bet: bet.lam(2, (0.0,)),
            lambda bet: bet.wealth((0.0, 0.0)),
            lambda bet: bet.value((0.0, 0.0)),
        ],
        ids=["lam", "wealth", "value"],
    )
    def test_names_the_round_and_the_prefix(self, call):
        with pytest.raises(ValueError, match=r"^round 2 has no bet for prefix \(0\.0,\)$"):
            call(self.BET)

    def test_a_round_past_the_horizon(self):
        with pytest.raises(ValueError, match=r"^round 3 has no bet for prefix \(0\.3, 0\.0\)$"):
            self.BET.wealth((0.3, 0.0, 1.0))

    @pytest.mark.parametrize("t", [0, -1])
    def test_no_round_before_the_first(self, t):
        # tables[0 - 1] is the last round's table, so round 0 must not index it.
        bet = MultiRoundCoinBet(0.5, ({(): 0.5},))
        with pytest.raises(ValueError, match=rf"^round {t} has no bet for prefix \(\)$"):
            bet.lam(t, ())


class TestEProcessMean:
    def test_bad_mean_fails_when_built(self):
        with pytest.raises(ValueError, match=r"^mu must lie in \(0, 1\), got 2\.0$"):
            constant_eprocess(2.0)

    def test_space_with_another_mean_is_rejected(self):
        with pytest.raises(ValueError, match=r"^sample space mean 0\.5 differs from mu=0\.4$"):
            EProcess(mu=0.4, evaluator=lambda p: 1.0, max_depth=1, space=GRID3)


class TestMartingaleExactness:
    def test_all_masks_all_coarse_trees_depth_three(self, rng):
        # Every stopped expectation of a coin-bet wealth process equals 1:
        # exhaustively over the coarse pair grid built from {0, mu, 1}, all 26
        # depth-3 masks, plus 1000 random trees from the full 5-point grid.
        bet = random_coinbet(GRID5, 3, rng)
        process = coinbet_eprocess(bet, GRID5)
        masks = enumerate_masks(3)
        coarse_pairs = [(a, b) for a in (0.0, 0.5) for b in (0.5, 1.0)]
        for d_pairs in itertools.product(coarse_pairs, repeat=7):
            d = TreeHypothesis(0.5, d_pairs)
            for mask in masks:
                assert abs(tree_expectation(d, mask, process) - 1.0) <= 1e-9
        pts = np.array(GRID5.points)
        lows, highs = pts[pts <= 0.5], pts[pts >= 0.5]
        for _ in range(1000):
            pairs = tuple(
                (float(rng.choice(lows)), float(rng.choice(highs))) for _ in range(7)
            )
            d = TreeHypothesis(0.5, pairs)
            mask = masks[int(rng.integers(len(masks)))]
            assert abs(tree_expectation(d, mask, process) - 1.0) <= 1e-9


class TestAudit:
    def test_coinbet_process_passes_with_max_one(self, rng):
        bet = random_coinbet(GRID3, 3, rng)
        report = audit_eprocess(coinbet_eprocess(bet, GRID3), 3)
        assert report.passed
        assert report.exhaustive_complete
        assert report.max_expectation == pytest.approx(1.0, abs=1e-9)

    def test_scaled_process_refuted_with_witness(self, rng):
        bet = random_coinbet(GRID3, 2, rng)
        scaled = coinbet_eprocess(bet, GRID3).scale_at(2, 1.5)
        report = audit_eprocess(scaled, 2)
        assert not report.passed
        # replaying the witness reproduces the violation
        replay = tree_expectation(report.argmax_tree, report.argmax_mask, scaled)
        assert replay == pytest.approx(report.max_expectation, abs=1e-12)
        assert replay > 1.0 + 1e-9

    def test_constant_one_passes_exactly(self):
        report = audit_eprocess(constant_eprocess(0.5), 3)
        assert report.passed
        assert report.max_expectation == 1.0

    def test_depth_guard(self):
        with pytest.raises(DepthTooLarge):
            audit_eprocess(constant_eprocess(0.5), 5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"depth": 5}, "audit capped at depth 4"),
            ({"depth": 0}, "audit depth must be at least 1, got 0"),
            ({"depth": -1}, "audit depth must be at least 1, got -1"),
        ],
        ids=["depth-5", "depth-0", "depth-negative"],
    )
    def test_bad_arguments_raise_value_error(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            audit_eprocess(constant_eprocess(0.5), **kwargs)

    def test_report_dict_shape(self):
        report = audit_eprocess(constant_eprocess(0.5), 1)
        d = report.as_dict()
        assert set(d) == {"max", "d", "mask", "pass", "n_trees", "exhaustive_complete"}
        assert d["n_trees"] == report.n_trees
        assert d["exhaustive_complete"] is report.exhaustive_complete

    def test_float32_mean_tree_replays_the_max(self, rng):
        # The scan's laws and the reported tree share one float mean, so
        # tree_expectation replays the max bit for bit.
        mu = np.float32(0.3)
        space = SampleSpace((0.0, 0.1, 0.7, 1.0), mu)
        for _ in range(20):
            tables = {(): 1.0}
            for t in (1, 2):
                for prefix in itertools.product(space.points, repeat=t):
                    tables[prefix] = float(rng.uniform(0.0, 2.0))
            e = eprocess_from_tables(mu, tables, space)
            report = audit_eprocess(e, 2)
            assert type(report.argmax_tree.mu) is float
            replay = tree_expectation(report.argmax_tree, report.argmax_mask, e)
            assert replay == report.max_expectation

    def test_near_mu_grid_point_weighs_its_pairs(self):
        # 0.5000000005 lies within MU_SNAP_TOL of mu = 0.5. The audit pairs it
        # only with 0, below mu: each pair is a mean-mu law, so an honest
        # coin-bet is a martingale on every tree searched.
        near = 0.5 + MU_SNAP_TOL / 2
        space = SampleSpace((0.0, near, 1.0), 0.5)
        for seed in range(6):
            e = coinbet_eprocess(random_coinbet(space, 2, np.random.default_rng(seed)), space)
            report = audit_eprocess(e, 2)
            assert report.passed
            assert report.n_trees == 2**3
            assert abs(report.max_expectation - 1.0) <= 1e-12
            replay = tree_expectation(report.argmax_tree, report.argmax_mask, e)
            assert replay == report.max_expectation

    @pytest.mark.parametrize("mu", [5e-10, 1e-12, 1.0 - 5e-10, 1.0 - 1e-11, 3e-8])
    def test_honest_coinbets_pass_near_an_end(self, mu):
        # Constant-fraction coin-bets on {0, 0.2, 0.8, 1}, mu within 3e-8 of
        # an end. Taken as 1 - w, the mass on a pair's far point keeps few
        # correct digits there, and the audit read 98 of these 210
        # martingales as above 1 + 1e-9, up to 1 + 1.65e-7.
        space = SampleSpace((0.0, 0.2, 0.8, 1.0), mu)
        for lam in lambda_grid(mu, 21):
            for depth in (1, 2):
                tables = tuple(
                    {p: float(lam) for p in itertools.product(space.points, repeat=t)}
                    for t in range(depth)
                )
                process = coinbet_eprocess(MultiRoundCoinBet(mu, tables), space)
                report = audit_eprocess(process, depth)
                assert report.passed
                assert abs(report.max_expectation - 1.0) <= 1e-12


# The enumeration oracle's own cap on the number of trees it walks.
ENUMERATION_CAP = 200_000


def _oracle_max_over_masks(d, e, budget):
    """The audit's mask search as it was when trees were enumerated one by one."""

    def walk(node, prefix, budget):
        stop_val = e.value(prefix)
        if budget == 0 or node >= len(d.pairs):
            return stop_val, STOP
        a, b = d.pairs[node]
        # Both masses computed directly; the point pair (mu, mu) is (1, 0).
        wa, wb = ((b - d.mu) / (b - a), (d.mu - a) / (b - a)) if a != b else (1.0, 0.0)
        branch_val = 0.0
        left_mask = right_mask = STOP
        if wa > 0.0:
            v, left_mask = walk(2 * node + 1, prefix + (a,), budget - 1)
            branch_val += wa * v
        if wb > 0.0:
            v, right_mask = walk(2 * node + 2, prefix + (b,), budget - 1)
            branch_val += wb * v
        if branch_val > stop_val:
            return branch_val, StoppingMask((left_mask, right_mask))
        return stop_val, STOP

    return walk(0, (), budget)


def straddling_pairs(points, mu):
    """Every pair ``a <= mu <= b`` of ``points``, in product order."""
    return [(a, b) for a in points if a <= mu for b in points if b >= mu]


def audit_by_enumeration(e, depth, grid):
    """Reference audit: every tree of straddling pairs from ``grid``, in product order.

    With the process's own points it walks every tree on that grid, the
    full-grid oracle. ``exhaustive_complete`` says whether the process has a
    grid, as the audit's does.
    """
    if depth > MAX_AUDIT_DEPTH:
        raise DepthTooLarge(f"audit capped at depth {MAX_AUDIT_DEPTH}")
    if depth > e.max_depth:
        raise ValueError(f"e-process only defined to depth {e.max_depth}")
    mu = e.mu
    pairs = straddling_pairs(grid, mu)
    n_nodes = 2**depth - 1
    n_trees = len(pairs) ** n_nodes
    if n_trees > ENUMERATION_CAP:
        raise ValueError(f"{n_trees} trees exceed the enumeration cap {ENUMERATION_CAP}")

    best_val = -math.inf
    best_tree = best_mask = None
    for cand in itertools.product(pairs, repeat=n_nodes):
        tree = TreeHypothesis(mu=mu, pairs=cand)
        val, mask = _oracle_max_over_masks(tree, e, depth)
        if val > best_val:
            best_val, best_tree, best_mask = val, tree, mask

    return AuditReport(
        max_expectation=best_val,
        argmax_tree=best_tree,
        argmax_mask=best_mask,
        passed=best_val <= 1.0 + 1e-9,
        n_trees=n_trees,
        exhaustive_complete=e.space is not None,
    )


def recursive_snell_envelope(value, grid, mu, first, depth):
    """The audit's backward induction as a recursion over prefix tuples.

    Returns ``(V(()), tree, mask)``. Each prefix branches on ``worst_law``'s
    law only when its value exceeds ``value(prefix)``; the point mass at mu is
    the pair ``(mu, mu)``, a mass-zero branch is not reached, and a node that
    stops, lies under a stop or is never reached carries the pair ``first``.
    """
    laws = mean_mu_laws(grid, mu)
    choices = {}  # prefix -> the chosen law, or None to stop

    def envelope(prefix):
        v, choice = value(prefix), None
        if len(prefix) < depth:
            below = [envelope(prefix + (x,)) for x in grid]
            choice, v = worst_law(laws, below, v)
        choices[prefix] = choice
        return v

    tree = [None] * (2**depth - 1)

    def witness(node, prefix):
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


def recursive_audit(e, depth):
    """``audit_eprocess`` on ``recursive_snell_envelope``."""
    mu = float(e.mu)
    grid = (e.space or SampleSpace((0.0, mu, 1.0), mu)).points
    high = next(p for p in grid if p >= mu)
    pairs = sum(p <= mu for p in grid) * sum(p >= mu for p in grid)
    top, tree, mask = recursive_snell_envelope(e.value, grid, mu, (grid[0], high), depth)
    return AuditReport(
        max_expectation=top,
        argmax_tree=TreeHypothesis(mu=mu, pairs=tree),
        argmax_mask=mask,
        passed=top <= 1.0 + AUDIT_TOL,
        n_trees=pairs ** (2**depth - 1),
        exhaustive_complete=e.space is not None,
    )


def branching_nodes(mask, node=0):
    """Heap indices of the nodes where ``mask`` branches."""
    if mask.is_stop:
        return set()
    left, right = mask.children
    return {node} | branching_nodes(left, 2 * node + 1) | branching_nodes(right, 2 * node + 2)


def assert_exact_on(e, depth, grid):
    """The audit is exact against the enumeration of every tree on ``grid``.

    Max, verdict, tree count and completeness are equal, and so is their
    JSON. Trees that tie can be ranked differently by the two searches:
    where the point mass at mu wins, the audit reports the pair (mu, mu)
    and the enumeration its first pair that puts all its mass on mu, such
    as (0, mu); and rounding can rank exact ties. So the reported tree need
    not be the enumeration's first maximiser; it must be a maximiser, with
    the enumeration's mask for it, and every node where that mask does not
    branch carries the grid's first pair.
    """
    expected = audit_by_enumeration(e, depth, grid)
    got = audit_eprocess(e, depth)
    fields = ("max_expectation", "passed", "n_trees", "exhaustive_complete")
    assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]
    keys = ("max", "pass", "n_trees", "exhaustive_complete")
    assert json.dumps([got.as_dict()[k] for k in keys]) == json.dumps(
        [expected.as_dict()[k] for k in keys]
    )
    mask_search = _oracle_max_over_masks(got.argmax_tree, e, depth)
    assert mask_search == (got.max_expectation, got.argmax_mask)
    first = straddling_pairs(grid, e.mu)[0]
    branching = branching_nodes(got.argmax_mask)
    assert all(pair == first for i, pair in enumerate(got.argmax_tree.pairs) if i not in branching)
    return got


def assert_full_grid_exact(e, depth):
    """``assert_exact_on`` the process's own grid."""
    return assert_exact_on(e, depth, e.space.points)


@st.composite
def lattice_processes(draw, space=None, max_points=6, max_depth=3):
    """Tie-heavy e-processes: every value on the 0.5 lattice, the root at most 1.

    ``space`` True or False fixes whether the process has a sample space;
    a space has at most ``max_points`` points.
    """
    mu = draw(st.sampled_from((0.25, 0.4, 0.5)))
    depth = draw(st.integers(1, max_depth))
    inner = set(draw(st.sets(st.sampled_from((0.25, 0.4, 0.5, 0.75)), max_size=3))) - {mu}
    if draw(st.booleans()):
        inner.add(mu)
    points = tuple(sorted({0.0, 1.0} | inner))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def lattice(size):
        return (0.5 * rng.integers(0, 5, size=size)).tolist()

    root = float(draw(st.sampled_from((0.0, 0.5, 1.0))))
    if draw(st.booleans()) if space is None else not space:
        # No sample space: a value for every prefix, from its length and its
        # number of points below mu.
        rows = [lattice(t + 1) for t in range(depth + 1)]
        rows[0][0] = root

        def evaluate(prefix):
            return rows[len(prefix)][sum(x < mu for x in prefix)]

        return EProcess(mu=mu, evaluator=evaluate, max_depth=depth), depth
    assume(len(points) <= max_points)
    tables = {(): root}
    for t in range(1, depth + 1):
        prefixes = list(itertools.product(points, repeat=t))
        tables.update(zip(prefixes, lattice(len(prefixes))))
    return eprocess_from_tables(mu, tables, space=SampleSpace(points, mu)), depth


def coinbet_in_interval(space, depth, rng):
    """A coin-bet on ``space`` whose fractions are drawn from all of I_mu."""
    lo, hi = 1.0 / (space.mu - 1.0), 1.0 / space.mu
    tables = tuple(
        {p: float(rng.uniform(lo, hi)) for p in itertools.product(space.points, repeat=t)}
        for t in range(depth)
    )
    return MultiRoundCoinBet(space.mu, tables)


@st.composite
def drawn_processes(draw):
    """Lattice, random or coin-bet processes up to depth 3, each possibly scaled at one depth.

    A process with a sample space has up to 11 points; one without is
    tabulated on {0, mu, 1}, the grid its audit searches.
    """
    mu = draw(st.sampled_from((0.5, 0.3, 0.1)) | st.floats(0.01, 0.99))
    depth = draw(st.integers(1, 3))
    inner = draw(st.sets(st.sampled_from([k / 10 for k in range(1, 10)] + [mu]), max_size=9))
    spaced = draw(st.booleans())
    grid = SampleSpace(tuple(sorted({0.0, 1.0} | inner)) if spaced else (0.0, mu, 1.0), mu)
    space = grid if spaced else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("lattice", "random", "coinbet")))
    if kind == "coinbet":
        e = coinbet_eprocess(coinbet_in_interval(grid, depth, rng), space)
    else:
        tables = {(): float(draw(st.sampled_from((0.0, 0.5, 1.0))))}
        for t in range(1, depth + 1):
            prefixes = list(itertools.product(grid.points, repeat=t))
            if kind == "lattice":
                cells = (0.5 * rng.integers(0, 5, size=len(prefixes))).tolist()
            else:
                cells = rng.uniform(0.0, 2.0, size=len(prefixes)).tolist()
            tables.update(zip(prefixes, cells))
        e = eprocess_from_tables(mu, tables, space=space)
    if draw(st.booleans()):
        e = e.scale_at(draw(st.integers(1, depth)), draw(st.sampled_from((0.9, 1.05, 1.5))))
    return e, depth


def false_pass_process():
    """A coin-bet on 21 points whose depth-3 values under (0.25, 0.75) are x1.3 at 0.1 and 0.9.

    A search of coarse pairs plus 1000 random trees drawn on its grid misses
    the violation at every seed; the largest stopped expectation on the grid
    is 1.1273.
    """
    space = SampleSpace.uniform(21, 0.5)
    base = coinbet_eprocess(random_coinbet(space, 3, np.random.default_rng(0)), space)

    def evaluate(prefix):
        hit = len(prefix) == 3 and prefix[:2] == (0.25, 0.75) and prefix[2] in (0.1, 0.9)
        return (1.3 if hit else 1.0) * base.value(prefix)

    return EProcess(mu=0.5, evaluator=evaluate, max_depth=3, space=space)


class TestAuditMatchesEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(lattice_processes())
    def test_same_report_as_enumeration(self, process_depth):
        e, depth = process_depth
        if e.space is not None:
            if len(straddling_pairs(e.space.points, e.mu)) ** (2**depth - 1) <= 5000:
                assert_full_grid_exact(e, depth)
            return
        assert_exact_on(e, depth, (0.0, e.mu, 1.0))

    def test_depth_four_on_two_pairs(self, rng):
        # (0, 0.8, 1) at mu = 0.5 straddles as (0, 0.8) and (0, 1): 2**15 trees.
        space = SampleSpace((0.0, 0.8, 1.0), 0.5)
        tables = {(): 1.0}
        for t in range(1, 5):
            for prefix in itertools.product(space.points, repeat=t):
                tables[prefix] = 0.5 * float(rng.integers(0, 5))
        e = eprocess_from_tables(0.5, tables, space=space)
        report = audit_eprocess(e, 4)
        assert report.exhaustive_complete
        assert report.n_trees == 2**15
        assert_full_grid_exact(e, 4)

    def test_coinbet_processes_and_scaled(self, rng):
        bet = random_coinbet(GRID5, 3, rng)
        honest = coinbet_eprocess(bet, GRID5)
        scaled = honest.scale_at(2, 1.5)
        for e in (honest, scaled):
            assert_full_grid_exact(e, 2)
            report = audit_eprocess(e, 3)
            assert report.passed is (e is honest)
            assert report.n_trees == 9**7
            replay = tree_expectation(report.argmax_tree, report.argmax_mask, e)
            assert replay == report.max_expectation

    def test_missing_prefix_raises(self):
        tables = {(): 1.0, (0.0,): 1.0, (1.0,): 1.0}
        e = eprocess_from_tables(0.5, tables, space=GRID3)
        with pytest.raises(ValueError, match="no entry for prefix \\(0.5,\\)"):
            audit_eprocess(e, 1)

    def test_evaluates_each_prefix_once(self):
        calls = []

        def evaluate(prefix):
            calls.append(prefix)
            return 1.0

        for space in (GRID5, None):
            e = EProcess(mu=0.5, evaluator=evaluate, max_depth=3, space=space)
            calls.clear()
            audit_eprocess(e, 3)
            assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("passes", [True, False], ids=["pass", "fail"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cli_json_matches_enumeration(self, tmp_path, passes, seed):
        # The benchmark's audit inputs: coin-bet wealth on {0, .25, .5, .75, 1},
        # and the same scaled x1.5 at depth 2.
        rng = np.random.default_rng(seed)
        tables = tuple(
            {p: rng.uniform(-1.8, 1.8) for p in itertools.product(GRID5.points, repeat=t)}
            for t in range(3)
        )
        e = coinbet_eprocess(MultiRoundCoinBet(0.5, tables), GRID5)
        if not passes:
            e = e.scale_at(2, 1.5)
        path = tmp_path / "ep.csv"
        with open(path, "w", newline="") as fh:
            eprocess_to_csv(e, GRID5, 3, fh)
        args = ["audit", "--table", str(path), "--mu", "0.5", "--seed", "7"]
        result = CliRunner().invoke(main, args + ["--depth", "2"])
        assert result.exit_code == 0
        report = assert_full_grid_exact(eprocess_from_csv(str(path), 0.5), 2)
        assert report.passed is passes
        assert result.output == json.dumps(report.as_dict(), indent=2) + "\n"
        result = CliRunner().invoke(main, args + ["--depth", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is passes


class TestAuditExactOnGrid:
    @settings(max_examples=60, deadline=None)
    @given(lattice_processes(space=True, max_points=4, max_depth=2))
    def test_equals_full_grid_enumeration(self, process_depth):
        e, depth = process_depth
        assert_full_grid_exact(e, depth)

    @pytest.mark.parametrize("seed", range(5))
    def test_coarse_and_random_false_pass_fails(self, seed):
        # The process has a grid, so all of it is searched: the audit fails it,
        # and no tree drawn at random on that grid reaches above its maximum.
        e = false_pass_process()
        report = audit_eprocess(e, 3)
        assert not report.passed
        assert report.exhaustive_complete
        assert report.max_expectation == pytest.approx(1.1273, abs=1e-4)
        rng = np.random.default_rng(seed)
        pairs = straddling_pairs(e.space.points, e.mu)
        d = TreeHypothesis(e.mu, tuple(pairs[i] for i in rng.integers(len(pairs), size=7)))
        for mask in enumerate_masks(3):
            assert tree_expectation(d, mask, e) <= report.max_expectation + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(lattice_processes())
    def test_witness_replays_the_max(self, process_depth):
        e, depth = process_depth
        report = audit_eprocess(e, depth)
        replay = tree_expectation(report.argmax_tree, report.argmax_mask, e)
        assert abs(replay - report.max_expectation) <= 1e-12


class TestAuditMatchesRecursion:
    @settings(max_examples=200, deadline=None)
    @given(drawn_processes())
    def test_same_report_as_the_recursion(self, process_depth):
        e, depth = process_depth
        got, expected = audit_eprocess(e, depth), recursive_audit(e, depth)
        assert got == expected
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "depth, message",
        [
            (1, "e-process table has no entry for prefix (1.0,)"),
            (2, "e-process value nan at (0.5, 0.5) is not finite and non-negative"),
            (3, "e-process table has no entry for prefix (0.0, 0.5, 1.0)"),
        ],
    )
    def test_names_the_first_bad_prefix_depth_first(self, depth, message):
        tables = {p: 1.0 for t in range(4) for p in itertools.product(GRID3.points, repeat=t)}
        del tables[(1.0,)], tables[(0.0, 0.5, 1.0)]
        tables[(0.5, 0.5)] = math.nan
        e = eprocess_from_tables(0.5, tables, space=GRID3)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            audit_eprocess(e, depth)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            recursive_audit(e, depth)

    def test_depth_four_audit_keeps_one_value_per_prefix(self):
        # A tabulated coin-bet on 11 points: 16,105 prefixes. The level lists
        # share the table's floats (about 0.18 MB traced); a dict keyed by
        # every prefix tuple, as a recursion keeps, peaks at 1.74 MB.
        space = SampleSpace.uniform(11, 0.5)
        bet = random_coinbet(space, 4, np.random.default_rng(0))
        prefixes = (p for t in range(5) for p in itertools.product(space.points, repeat=t))
        tables = {p: bet.wealth(p) for p in prefixes}
        e = eprocess_from_tables(0.5, tables, space=space)
        tracemalloc.start()
        try:
            report = audit_eprocess(e, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 0.6e6


class TestEProcessCsv:
    def test_round_trip(self, tmp_path, rng):
        bet = random_coinbet(GRID3, 2, rng)
        process = coinbet_eprocess(bet, GRID3)
        path = tmp_path / "ep.csv"
        with open(path, "w", newline="") as fh:
            eprocess_to_csv(process, GRID3, 2, fh)
        reloaded = eprocess_from_csv(str(path), 0.5)
        assert reloaded.max_depth == 2
        for t in range(3):
            for prefix in itertools.product(GRID3.points, repeat=t):
                assert reloaded.value(prefix) == process.value(prefix)

    def test_tables_require_root(self):
        with pytest.raises(ValueError):
            eprocess_from_tables(0.5, {(0.0,): 1.0})

    @pytest.mark.parametrize("points", [(0.0, 0.25, 0.5, 0.75), (0.25, 0.5, 1.0), ()])
    def test_points_without_both_endpoints_rejected(self, tmp_path, points):
        # The points of a table's paths are its grid, so they must include 0 and 1.
        path = tmp_path / "ep.csv"
        rows = ["depth,path,value", "0,,1.0"] + [f"1,{p!r},1.0" for p in points]
        path.write_text("\n".join(rows) + "\n")
        message = "grid must contain 0 and 1" if points else "needs at least two points"
        with pytest.raises(ValueError, match=message):
            eprocess_from_csv(str(path), 0.5)


class TestDominateT2:
    def test_constant_one_gives_zero_fractions(self):
        res = dominate_T2(np.ones((3, 3)), GRID3)
        assert res.certified
        assert res.coinbet.tables[0][()] == 0.0
        assert all(v == 0.0 for v in res.coinbet.tables[1].values())

    def test_self_recovery(self, rng):
        for _ in range(20):
            bet = random_coinbet(GRID5, 2, rng)
            vals = np.array(
                [[bet.value((x, y)) for y in GRID5.points] for x in GRID5.points]
            )
            res = dominate_T2(vals, GRID5)
            assert res.certified
            assert res.coinbet.tables[0][()] == pytest.approx(bet.tables[0][()], abs=1e-9)
            recovered = np.array(
                [[res.coinbet.value((x, y)) for y in GRID5.points] for x in GRID5.points]
            )
            assert np.allclose(recovered, vals, atol=1e-9)
            assert (recovered >= vals - 1e-9).all()

    def test_separation_table_refuted(self):
        res = dominate_T2(separation_table(), GRID3)
        assert not res.certified
        assert res.refutation.expectation == pytest.approx(2.0, abs=1e-12)
        # witness: fair root on {0,1}, then the conditional point mass at 1/2
        assert res.refutation.tree.pairs[0] == (0.0, 1.0)
        assert res.refutation.tree.pairs[2] == (0.5, 0.5)
        # replay the witness against the table itself
        payoffs = [
            lambda p: 0.0,
            lambda p: 0.0,
            lambda p: separation_table()[
                GRID3.points.index(p[0]), GRID3.points.index(p[1])
            ],
        ]
        replay = tree_expectation(res.refutation.tree, full_mask(2), payoffs)
        assert replay == pytest.approx(2.0, abs=1e-12)

    def test_majorisation_of_scaled_tables(self, rng):
        for _ in range(20):
            bet = random_coinbet(GRID5, 2, rng)
            scale = rng.uniform(0.3, 1.0)
            vals = scale * np.array(
                [[bet.value((x, y)) for y in GRID5.points] for x in GRID5.points]
            )
            res = dominate_T2(vals, GRID5)
            assert res.certified
            recovered = np.array(
                [[res.coinbet.value((x, y)) for y in GRID5.points] for x in GRID5.points]
            )
            assert (recovered >= vals - 1e-9).all()


def random_fraction(mu, rng):
    """A fraction of I_mu: one of its ends one time in five, else uniform on it."""
    lo, hi = 1.0 / (mu - 1.0), 1.0 / mu
    u = rng.uniform()
    return lo if u < 0.1 else hi if u < 0.2 else float(rng.uniform(lo, hi))


def predictable_coinbet(space, depth, rng):
    """A coin-bet on ``space`` with one drawn fraction per prefix (``random_fraction``)."""
    return MultiRoundCoinBet(space.mu, tuple(
        {p: random_fraction(space.mu, rng) for p in itertools.product(space.points, repeat=t)}
        for t in range(depth)
    ))


@st.composite
def valid_processes(draw):
    """Valid e-processes on grids of 3-11 points, at depths 1-3: each a mixture or a minimum
    of two predictable coin-bets, one coin-bet capped and scaled by 0.9, or a constant <= 1."""
    mu = draw(st.sampled_from((0.5, 0.3, 1e-3, 1e-6, 1.0 - 1e-6)) | st.floats(1e-6, 1.0 - 1e-6))
    inner = draw(st.sets(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.just(mu),
                         min_size=1, max_size=9))
    space = SampleSpace(tuple(sorted({0.0, 1.0} | inner)), mu)
    assume(len(space.points) >= 3)
    depth = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one, two = predictable_coinbet(space, depth, rng), predictable_coinbet(space, depth, rng)
    kind = draw(st.sampled_from(("mixture", "minimum", "capped", "constant")))
    if kind == "mixture":
        def evaluate(p):
            return 0.5 * one.wealth(p) + 0.5 * two.wealth(p)
    elif kind == "minimum":
        def evaluate(p):
            return min(one.wealth(p), two.wealth(p))
    elif kind == "capped":
        cap = draw(st.floats(1.0, 4.0))

        def evaluate(p):
            return 0.9 * min(one.wealth(p), cap)
    else:
        level = draw(st.floats(0.0, 1.0))

        def evaluate(p):
            return level
    return EProcess(mu=mu, evaluator=evaluate, max_depth=depth, space=space), depth


def coinbet_tables(n, depth, seed):
    """``n`` coin-bet tables of ``depth`` rounds, honest or scaled by U(0.8, 1), each with its
    sample space: the values at the grid's prefixes of length ``depth``, in product order.

    Grids of 2-11 points, equispaced or random, with mu off the grid, on it,
    or 1e-6 from an end.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        g = int(rng.integers(2, 12))
        if rng.uniform() < 0.5:
            points = tuple(np.linspace(0.0, 1.0, g).tolist())
        else:
            points = tuple(sorted({0.0, 1.0, *rng.uniform(0.0, 1.0, g - 2).tolist()}))
        mu = float(rng.choice([1e-6, 1.0 - 1e-6, 0.5, rng.uniform(0.01, 0.99)]))
        if len(points) > 2 and rng.uniform() < 0.2:
            mu = points[int(rng.integers(1, len(points) - 1))]
        space = SampleSpace(points, mu)
        scale = 1.0 if rng.uniform() < 0.5 else float(rng.uniform(0.8, 1.0))
        bet = predictable_coinbet(space, depth, rng)
        yield space, [scale * bet.wealth(p) for p in itertools.product(points, repeat=depth)]


class TestDominateEProcess:
    @settings(max_examples=150, deadline=None)
    @given(valid_processes())
    def test_wealth_dominates_valid_processes_at_every_prefix(self, process_depth):
        # Within 1e-12 of e where the process leaves slack, its audit maximum
        # at most 0.99 (capped x 0.9, or a constant below 0.99). A tight
        # process (its maximum 1: a mixture or a minimum of coin-bets, or the
        # constant 1) is dominated step by step only within the slope step's
        # collapse bar, 1e-9 of the fraction's size, times the largest wealth
        # on the path (a wealth rounded to 0 bets 0 below it); and rounding
        # can leave one of its rows above 1 + VALIDITY_TOL, or its slope
        # interval inverted beyond that bar, so that the pass refuses it.
        e, depth = process_depth
        tight = audit_eprocess(e, depth).max_expectation > 0.99
        try:
            bet = dominate_eprocess(e, depth)
        except NotAnEVariable:
            assert tight
            return
        assert isinstance(bet, MultiRoundCoinBet) and bet.horizon == depth
        lo, hi = 1.0 / (e.mu - 1.0), 1.0 / e.mu
        assert all(lo <= lam <= hi for table in bet.tables for lam in table.values())
        assert bet.wealth(()) >= e.value(()) * (1.0 - 1e-12)
        for t in range(1, depth + 1):
            for prefix in itertools.product(e.space.points, repeat=t):
                value = e.value(prefix)
                if tight:
                    path = max(bet.wealth(prefix[:k]) for k in range(t))
                    slack = 1e-9 * max(1.0, abs(bet.lam(t, prefix[:-1]))) * path
                else:
                    slack = 1e-12 * value
                assert bet.wealth(prefix) >= value - slack

    @settings(max_examples=150, deadline=None)
    @given(valid_processes())
    def test_scaled_processes_get_the_audit_report(self, process_depth):
        e, depth = process_depth
        scaled = e.scale_at(depth, 1.5)
        report = audit_eprocess(scaled, depth)
        if report.passed:  # a minimum, capped or constant process can stay valid
            return
        got = dominate_eprocess(scaled, depth)
        assert got == report and repr(got) == repr(report)
        assert tree_expectation(got.argmax_tree, got.argmax_mask, scaled) > 1.0

    def test_depth_one_is_beta_interval(self):
        for space, table in coinbet_tables(400, 1, 1):
            tables = {(): 1.0, **{(x,): v for x, v in zip(space.points, table)}}
            bet = dominate_eprocess(eprocess_from_tables(space.mu, tables, space), 1)
            lam = beta_interval(TabulatedEVariable(space, tuple(table))).lambda_hat
            assert repr(bet.tables[0][()]) == repr(lam)

    def test_depth_two_without_stopping_values_is_dominate_T2(self):
        for space, values in coinbet_tables(400, 2, 2):
            g = len(space.points)
            rows = [values[k * g : k * g + g] for k in range(g)]
            tables = {p: 0.0 for t in range(2) for p in itertools.product(space.points, repeat=t)}
            tables.update(zip(itertools.product(space.points, repeat=2), values))
            bet = dominate_eprocess(eprocess_from_tables(space.mu, tables, space), 2)
            coinbet = dominate_T2(rows, space).coinbet
            assert bet == coinbet and repr(bet) == repr(coinbet)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_a_pass_within_the_audit_slack_raises(self, depth, rng):
        # Every mean-mu law gives the process 1 + 5e-10 at its last level:
        # the audit passes it, but no coin-bet dominates it within VALIDITY_TOL.
        e = coinbet_eprocess(coinbet_in_interval(GRID5, depth, rng), GRID5)
        e = e.scale_at(depth, 1.0 + 5e-10)
        report = audit_eprocess(e, depth)
        assert report.passed and report.max_expectation > 1.0 + VALIDITY_TOL
        with pytest.raises(NotAnEVariable):
            dominate_eprocess(e, depth)

    def test_a_pass_within_the_audit_slack_at_mu_raises_with_its_witness(self, rng):
        # Only the value at mu exceeds the coin-bet's, by 5e-10: the slope
        # step leaves mu out and would certify the coin-bet, which falls short
        # there; the root is scanned instead, and the point mass at mu refutes.
        honest = coinbet_eprocess(coinbet_in_interval(GRID5, 1, rng), GRID5)
        e = EProcess(0.5, lambda p: honest.value(p) + (5e-10 if p == (0.5,) else 0.0), 1, GRID5)
        assert audit_eprocess(e, 1).passed
        with pytest.raises(NotAnEVariable) as err:
            dominate_eprocess(e, 1)
        assert (err.value.witness.a, err.value.witness.b) == (0.5, 0.5)
        assert err.value.expectation == e.value((0.5,))
