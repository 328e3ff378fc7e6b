"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines interleaved with the test names.
"""

import csv
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from evbet.betting import lambda_grid
from evbet.cli import main as cli_main
from evbet.confseq import default_mu_grid
from evbet.domain import (
    DiscreteDistribution,
    SampleSpace,
    replicate_seed,
    sample_stream,
)
from evbet.evariables import (
    CoinBetEVariable,
    HoeffdingEVariable,
    TabulatedEVariable,
    bet_bounds,
    beta_interval,
    check_evariable,
    dominating_lambda,
)
from evbet.game import run_games_batch
from evbet.iid_case import (
    XiStats,
    check_iid_bruteforce,
    check_iid_closed_form,
    separation_table,
    xi_stats,
)
from evbet.multiround import (
    MultiRoundCoinBet,
    TreeHypothesis,
    audit_eprocess,
    coinbet_eprocess,
    dominate_T2,
    enumerate_masks,
    tree_expectation,
)

MASTER_SEED = 20260809


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {name}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {name}", flush=True)


def random_multiround_t2(space, rng):
    lam1 = float(rng.uniform(-2, 2))
    lam2 = {(float(x),): float(rng.uniform(-2, 2)) for x in space.points}
    return MultiRoundCoinBet(space.mu, ({(): lam1}, lam2))


def test_criterion_1_hoeffding_domination():
    with criterion(1, "coin-bet secants dominate every Hoeffding payoff"):
        start = time.perf_counter()
        xs = np.linspace(0.0, 1.0, 10_000)
        alphas = np.linspace(-10.0, 10.0, 41)
        for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
            lo, hi = bet_bounds(mu)
            for alpha in alphas:
                lam = dominating_lambda(mu, float(alpha))
                assert lo <= lam <= hi
                cb = CoinBetEVariable(mu, lam).value(xs)
                hoeff = HoeffdingEVariable(mu, float(alpha)).value(xs)
                assert (cb >= hoeff - 1e-12).all()
                if lam != 0.0:
                    if alpha != 0.0:
                        # strict witness at the mean
                        assert math.exp(-alpha * alpha / 8.0) < 1.0
                    else:
                        assert max(1.0 - lam * mu, 1.0 + lam * (1 - mu)) > 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_coinbet_exactness_and_maximality():
    with criterion(2, "coin-bets are exact and are their own certificates"):
        for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
            space = SampleSpace.uniform(101, mu)
            pts = space.as_array()
            below, above = pts < mu, pts > mu
            a, b = pts[below][:, None], pts[above][None, :]
            w = (b - mu) / (b - a)
            for lam in lambda_grid(mu, 21):
                lam = float(lam)
                table = TabulatedEVariable.tabulate(space, CoinBetEVariable(mu, lam).value)
                vals = table.as_array()
                expect = w * vals[below][:, None] + (1 - w) * vals[above][None, :]
                assert np.abs(expect - 1.0).max() <= 1e-12
                cert = beta_interval(table)
                assert abs(cert.beta0 - lam) <= 1e-9
                assert abs(cert.beta1 - lam) <= 1e-9


def test_criterion_3_certificate_soundness():
    with criterion(3, "certificates dominate 1000 random valid e-variables"):
        rng = np.random.default_rng(replicate_seed(MASTER_SEED, 3))
        failures = 0
        for _ in range(1000):
            mu = float(rng.uniform(0.1, 0.9))
            space = SampleSpace.uniform(51, mu)
            lo, hi = bet_bounds(mu)
            k = int(rng.integers(1, 5))
            lams = rng.uniform(lo, hi, size=k)
            weights = rng.dirichlet(np.ones(k))
            scale = 1.0 if rng.uniform() < 0.25 else float(rng.uniform(0.3, 1.0))
            xs = space.as_array()
            vals = scale * sum(
                wgt * (1.0 + lam * (xs - mu)) for wgt, lam in zip(weights, lams)
            )
            table = TabulatedEVariable(space, tuple(float(v) for v in vals))
            assert check_evariable(table).valid
            cert = beta_interval(table)
            dominator = 1.0 + cert.lambda_hat * (xs - mu)
            if cert.beta1 > cert.beta0 or (dominator < vals - 1e-12).any():
                failures += 1
        assert failures == 0


def test_criterion_4_ville_type_one_control():
    with criterion(4, "ever-rejection rate under the null stays below 0.065"):
        start = time.perf_counter()
        reps, horizon, delta = 2000, 500, 0.05
        dist = DiscreteDistribution.bernoulli(0.5)
        xs = np.empty((reps, horizon))
        for i in range(reps):
            xs[i] = sample_stream(dist, horizon, replicate_seed(MASTER_SEED, i))
        result = run_games_batch(np.full(reps, 0.5), xs, "up", delta)
        rate = result.ever_rejected().mean()
        elapsed = time.perf_counter() - start
        print(f"  ever-rejection rate {rate:.4f} over {reps} replicates ({elapsed:.1f}s)")
        assert rate <= 0.065
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_confidence_sequence_coverage():
    with criterion(5, "time-uniform coverage of the true mean at the 93% bar"):
        reps, horizon, delta, chunk = 500, 1000, 0.05, 50
        grid = default_mu_grid(99)
        target = int(np.argmin(np.abs(grid - 0.3)))
        threshold = math.log(1.0 / delta)
        dist = DiscreteDistribution.bernoulli(0.3)
        covered = 0
        monotone = 0
        # UP over a 101-node fraction grid: the mixture grid is a cost dial
        # and the coverage guarantee is strategy-independent.
        for lo_rep in range(0, reps, chunk):
            n_chunk = min(chunk, reps - lo_rep)
            xs = np.empty((n_chunk * 99, horizon))
            for j in range(n_chunk):
                stream = sample_stream(
                    dist, horizon, replicate_seed(MASTER_SEED, 10_000 + lo_rep + j)
                )
                xs[j * 99 : (j + 1) * 99] = stream
            mus = np.tile(grid, n_chunk)
            result = run_games_batch(mus, xs, "up:101", delta)
            for j in range(n_chunk):
                logw = result.log_wealth[j * 99 : (j + 1) * 99]  # (99, horizon)
                covered += int((logw[target] <= threshold).all())
                in_set = np.logical_and.accumulate(logw <= threshold, axis=1)
                alive = in_set.any(axis=0)
                lowers = np.where(alive, grid[np.argmax(in_set, axis=0)], 0.0)
                uppers = np.where(
                    alive, grid[98 - np.argmax(in_set[::-1], axis=0)], 0.0
                )
                widths = uppers - lowers
                monotone += int((np.diff(widths) <= 1e-15).all())
        print(f"  coverage {covered / reps:.4f}, nested widths {monotone / reps:.4f}")
        assert covered / reps >= 0.93
        assert monotone == reps


def test_criterion_6_pathwise_class_comparison(tmp_path):
    with criterion(6, "wealth comparison gap is never negative"):
        runner = CliRunner()
        rng = np.random.default_rng(replicate_seed(MASTER_SEED, 6))
        for i in range(100):
            dist = ("bernoulli:%s" % round(float(rng.uniform(0.1, 0.9)), 3)
                    if rng.uniform() < 0.5 else "uniform-grid:%d" % rng.integers(2, 7))
            mu = round(float(rng.uniform(0.15, 0.85)), 3)
            alpha = round(float(rng.uniform(-4.0, 4.0)), 3)
            out = tmp_path / f"cmp_{i}.csv"
            result = runner.invoke(
                cli_main,
                ["compare", "--mu", str(mu), "--dist", dist, "--n", "200",
                 "--alpha", str(alpha), "--seed", str(int(rng.integers(0, 2**31))),
                 "--out", str(out)],
                catch_exceptions=False,
            )
            assert result.exit_code == 0
            gaps = [float(r["gap"]) for r in csv.DictReader(out.open())]
            assert len(gaps) == 200
            assert min(gaps) >= -1e-12


def test_criterion_7_iid_characterisation():
    with criterion(7, "closed-form and brute-force i.i.d. checks agree"):
        rng = np.random.default_rng(replicate_seed(MASTER_SEED, 7))
        disagreements = 0
        for _ in range(10_000):
            s = XiStats(*rng.uniform(0.0, 2.5, size=3))
            closed = check_iid_closed_form(s, tol=1e-9)
            brute = check_iid_bruteforce(s).max_expectation <= 1.0 + 1e-9
            disagreements += int(closed != brute)
        assert disagreements == 0

        table = separation_table()
        stats = xi_stats(table)
        assert check_iid_closed_form(stats)
        assert check_iid_bruteforce(stats).max_expectation <= 1.0
        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        res = dominate_T2(table, space)
        assert not res.certified
        assert abs(res.refutation.expectation - 2.0) <= 1e-12


def test_criterion_8_tree_oracle():
    with criterion(8, "tree/mask oracle: counts, mass, martingale audit, refutation"):
        assert [len(enumerate_masks(t)) for t in (1, 2, 3, 4)] == [2, 5, 26, 677]

        rng = np.random.default_rng(replicate_seed(MASTER_SEED, 8))
        masks3 = enumerate_masks(3)
        ones = [lambda p: 1.0] * 4
        for _ in range(1000):
            pairs = tuple(
                (float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0)))
                for _ in range(7)
            )
            d = TreeHypothesis(0.5, pairs)
            mask = masks3[int(rng.integers(len(masks3)))]
            assert abs(tree_expectation(d, mask, ones) - 1.0) <= 1e-12

        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        tables = []
        for t in range(1, 4):
            tables.append(
                {
                    prefix: float(rng.uniform(-2, 2))
                    for prefix in itertools.product(space.points, repeat=t - 1)
                }
            )
        process = coinbet_eprocess(MultiRoundCoinBet(0.5, tuple(tables)), space)
        report = audit_eprocess(process, 3)
        assert report.passed
        assert abs(report.max_expectation - 1.0) <= 1e-9

        scaled = process.scale_at(2, 1.5)
        bad = audit_eprocess(scaled, 3)
        assert not bad.passed
        replay = tree_expectation(bad.argmax_tree, bad.argmax_mask, scaled)
        assert replay > 1.0 + 1e-9
        assert abs(replay - bad.max_expectation) <= 1e-12


def test_criterion_9_two_round_domination():
    with criterion(9, "two-round self-recovery and counterexample refutation"):
        rng = np.random.default_rng(replicate_seed(MASTER_SEED, 9))
        space = SampleSpace((0.0, 0.25, 0.5, 0.75, 1.0), 0.5)
        for _ in range(100):
            bet = random_multiround_t2(space, rng)
            vals = np.array(
                [[bet.value((x, y)) for y in space.points] for x in space.points]
            )
            res = dominate_T2(vals, space)
            assert res.certified
            assert abs(res.coinbet.tables[0][()] - bet.tables[0][()]) <= 1e-9
            recovered = np.array(
                [[res.coinbet.value((x, y)) for y in space.points] for x in space.points]
            )
            assert (recovered >= vals - 1e-9).all()
            assert np.abs(recovered - vals).max() <= 1e-9

        res = dominate_T2(separation_table(), SampleSpace((0.0, 0.5, 1.0), 0.5))
        assert not res.certified
        assert abs(res.refutation.expectation - 2.0) <= 1e-12
