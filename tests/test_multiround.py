import itertools

import numpy as np
import pytest

from evbet.domain import SampleSpace, two_point_weight
from evbet.errors import DepthTooLarge, OutOfRange
from evbet.iid_case import separation_table
from evbet.multiround import (
    STOP,
    EProcess,
    MultiRoundCoinBet,
    StoppingMask,
    TreeHypothesis,
    audit_eprocess,
    coinbet_eprocess,
    constant_eprocess,
    dominate_T2,
    enumerate_masks,
    eprocess_from_csv,
    eprocess_from_tables,
    eprocess_to_csv,
    eval_multiround,
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
        assert eval_multiround(bet, (0.5, 0.5, 0.5)) == 1.0

    def test_two_round_product(self):
        bet = MultiRoundCoinBet(
            0.5, ({(): 2.0}, {(0.0,): -2.0, (0.5,): -2.0, (1.0,): -2.0})
        )
        assert eval_multiround(bet, (1.0, 0.0)) == pytest.approx(4.0)

    def test_zero_fractions_are_identity(self):
        bet = MultiRoundCoinBet(
            0.5, ({(): 0.0}, {(x,): 0.0 for x in GRID3.points})
        )
        for xs in itertools.product(GRID3.points, repeat=2):
            assert eval_multiround(bet, xs) == 1.0

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

        w_a = two_point_weight(*a, mu)
        w_b = two_point_weight(*b_right, mu)
        w_c = two_point_weight(*c[2], mu)
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
        report = audit_eprocess(coinbet_eprocess(bet, GRID3), 3, n_random=1000, seed=11)
        assert report.passed
        assert report.exhaustive_complete
        assert report.max_expectation == pytest.approx(1.0, abs=1e-9)

    def test_scaled_process_refuted_with_witness(self, rng):
        bet = random_coinbet(GRID3, 2, rng)
        scaled = coinbet_eprocess(bet, GRID3).scale_at(2, 1.5)
        report = audit_eprocess(scaled, 2, n_random=100, seed=1)
        assert not report.passed
        # replaying the witness reproduces the violation
        replay = tree_expectation(report.argmax_tree, report.argmax_mask, scaled)
        assert replay == pytest.approx(report.max_expectation, abs=1e-12)
        assert replay > 1.0 + 1e-9

    def test_constant_one_passes_exactly(self):
        report = audit_eprocess(constant_eprocess(0.5), 3, n_random=200, seed=2)
        assert report.passed
        assert report.max_expectation == 1.0

    def test_depth_guard(self):
        with pytest.raises(DepthTooLarge):
            audit_eprocess(constant_eprocess(0.5), 5, n_random=1)

    def test_report_dict_shape(self):
        report = audit_eprocess(constant_eprocess(0.5), 1, n_random=10, seed=0)
        d = report.as_dict()
        assert set(d) == {"max", "d", "mask", "pass", "n_trees", "exhaustive_complete"}
        assert d["n_trees"] == report.n_trees
        assert d["exhaustive_complete"] is report.exhaustive_complete


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
