import csv
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import reference_table

import evbet
from evbet import cli, domain, kernels
from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.cli import main
from evbet.confseq import default_mu_grid, run_cs_batch
from evbet.domain import SampleSpace, parse_distribution, sample_stream
from evbet.evariables import dominating_lambda
from evbet.game import parse_strategy, recompute_log_wealth, run_game
from evbet.multiround import (
    MultiRoundCoinBet,
    coinbet_eprocess,
    constant_eprocess,
    eprocess_to_csv,
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def write_separation_table(path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "value"])
        for x1, x2 in itertools.product((0.0, 0.5, 1.0), repeat=2):
            w.writerow([x1, x2, 4.0 if (x1, x2) == (1.0, 0.5) else 0.0])


def read_ledger(path):
    rows = list(csv.DictReader(path.open()))
    return {k: [float(r[k]) for r in rows] for k in ("x", "lambda", "e_value", "log_wealth")}


@pytest.mark.parametrize("delta", ["0", "1.5"])
@pytest.mark.parametrize(
    "command",
    [
        ["cs", "--dist", "bernoulli:0.5", "--n", "5", "--grid", "9"],
        ["simulate", "--mu", "0.5", "--dist", "bernoulli:0.5", "--n", "5"],
    ],
    ids=["cs", "simulate"],
)
def test_delta_outside_unit_interval_exit_2(command, delta):
    result = CliRunner().invoke(main, command + ["--strategy", "up:11", "--delta", delta])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "delta must lie in (0, 1)" in result.output
    assert "Traceback" not in result.output


def write_contract_inputs(d):
    """Input files of the CLI contract cases: one good file per schema, then bad ones."""
    square = "x1,x2,value\n" + "".join(
        f"{x1},{x2},1.0\n" for x1, x2 in itertools.product((0.0, 0.5, 1.0), repeat=2)
    )
    files = {
        "dist-nan.csv": "point,mass\n0.0,nan\n1.0,1.0\n",
        "t1.csv": "point,value\n0.0,1.0\n0.5,1.0\n1.0,1.0\n",
        "t1-neg.csv": "point,value\n0.0,-1.0\n0.5,1.0\n1.0,1.0\n",
        "t1-nan.csv": "point,value\n0.0,nan\n0.5,1.0\n1.0,1.0\n",
        "t1-bad.csv": "point,value\n0.0,abc\n0.5,1.0\n1.0,1.0\n",
        # Valid to 1e-12, but its slope interval is inverted by more than 1e-9.
        "t1-inverted.csv": "point,value\n0.0,1.7086613301353941\n0.499999997,1.0000000042519739\n"
        "0.500000003,0.9999999957480281\n1.0,0.2913386698646016\n",
        "sq.csv": square,
        "sq-neg.csv": square.replace("1.0,1.0,1.0", "1.0,1.0,-2.0"),
        "sq-nan.csv": square.replace("1.0,1.0,1.0", "1.0,1.0,nan"),
        "sq-bad.csv": square.replace("1.0,1.0,1.0", "1.0,1.0,x"),
        # Cell (1, 1) twice: read last-wins, it would be refuted with expectation 3.0.
        "sq-repeat.csv": square + "1.0,1.0,9.0\n",
        "t1-repeat.csv": "point,value\n0.0,1.0\n0.5,1.0\n0.5,1.0\n1.0,1.0\n",
        "dist-repeat.csv": "point,mass\n0.0,0.5\n1.0,0.25\n1.0,0.25\n",
        "ep.csv": "depth,path,value\n0,,1.0\n1,0.0,1.0\n1,0.5,1.0\n1,1.0,1.0\n",
        "ep-nan.csv": "depth,path,value\n0,,1.0\n1,0.0,nan\n1,0.5,1.0\n1,1.0,1.0\n",
        "ep-inf.csv": "depth,path,value\n0,,1.0\n1,0.0,inf\n1,0.5,1.0\n1,1.0,1.0\n",
        "ep-bad.csv": "depth,path,value\n0,,1.0\n1,0.0,x\n1,0.5,1.0\n1,1.0,1.0\n",
        "ep-no-one.csv": "depth,path,value\n0,,1.0\n1,0.0,1.0\n1,0.5,1.0\n1,0.75,1.0\n",
        "ep-outside.csv": "depth,path,value\n0,,1.0\n1,0.0,1.0\n1,1.0,1.0\n1,1.5,1.0\n",
        "ep-nan-root.csv": "depth,path,value\n0,,nan\n1,0.0,1.0\n1,0.5,1.0\n1,1.0,1.0\n",
        "ep-bad-path.csv": "depth,path,value\n0,,1.0\n1,0.0,1.0\n1,x,1.0\n1,1.0,1.0\n",
        # Path 1.0 twice: read last-wins, it would pass at depth 1 with max 3.0.
        "ep-repeat.csv": "depth,path,value\n0,,1.0\n1,0.0,1.0\n1,0.5,1.0\n1,1.0,1.0\n1,1.0,5.0\n",
        "alpha-nan.txt": "0.5\nnan\n0.5\n0.5\n0.5\n",
        "alpha-bad.txt": "0.5\nx\n0.5\n0.5\n0.5\n",
    }
    for name, text in files.items():
        (d / name).write_text(text)
    with open(d / "ep3.csv", "w", newline="") as fh:
        eprocess_to_csv(constant_eprocess(0.5), SampleSpace.uniform(5, 0.5), 3, fh)


SIM = ["simulate", "--mu", "0.5", "--dist", "bernoulli:0.5", "--n", "5"]
CS = ["cs", "--dist", "bernoulli:0.5", "--n", "5", "--grid", "9"]
CMP = ["compare", "--mu", "0.5", "--dist", "bernoulli:0.4", "--n", "5"]
AUDIT = ["audit", "--table", "{d}/ep.csv", "--mu", "0.5", "--depth", "1"]
NO_FILE = "No such file or directory"
HUGE = str(10**17)  # elements: 711 PiB of float64

# (bad-input class, arguments with {d} for the input directory, message on stderr)
CONTRACT_CASES = {
    "simulate": [
        ("range", ["simulate", "--mu", "1.5", "--dist", "bernoulli:0.5", "--n", "5"],
         "mu must lie in (0, 1)"),
        ("range", SIM[:-1] + ["0"], "n must be at least 1"),
        ("nan", SIM + ["--delta", "nan"], "delta must lie in (0, 1)"),
        ("nan", ["simulate", "--mu", "0.5", "--dist", "table:{d}/dist-nan.csv", "--n", "5"],
         "non-finite mass nan"),
        ("missing-file", ["simulate", "--mu", "0.5", "--dist", "table:{d}/none.csv", "--n", "5"],
         NO_FILE),
        ("literal", ["simulate", "--mu", "0.5", "--dist", "gauss:1", "--n", "5"],
         "unknown distribution kind"),
        ("literal", SIM + ["--strategy", "up:x"], "bad strategy literal"),
        # Sizes far past any address space: the allocation fails at once.
        ("range", SIM[:-1] + [HUGE], "Unable to allocate"),
        # The strategy is checked before the stream is drawn.
        ("range", SIM[:-1] + [HUGE, "--strategy", "constant:5"], "lambda=5.0 outside I_mu"),
        # An output path that cannot be opened fails before the stream is drawn.
        ("missing-file", SIM + ["--out", "{d}/none/ledger.csv"],
         "none/ledger.csv: No such file or directory"),
        ("literal", ["simulate", "--mu", "0.5", "--dist", "table:{d}/dist-repeat.csv", "--n", "5"],
         "dist-repeat.csv: point 1.0 appears twice"),
    ],
    "cs": [
        ("range", CS[:-1] + ["0"], "n and grid must be at least 1"),
        ("range", CS + ["--strategy", "constant:5"], "outside I_mu"),
        ("nan", CS + ["--delta", "nan"], "delta must lie in (0, 1)"),
        ("nan", ["cs", "--dist", "bernoulli:nan", "--n", "5"], "bernoulli parameter nan"),
        ("missing-file", ["cs", "--dist", "table:{d}/none.csv", "--n", "5"], NO_FILE),
        ("literal", CS + ["--strategy", "up:abc"], "bad strategy literal"),
        ("range", CS + ["--strategy", f"up:{HUGE}"], "Unable to allocate"),
        ("range", CS[:-1] + [HUGE], "Unable to allocate"),
        ("range", CS[:3] + ["--n", HUGE, "--strategy", "constant:5"], "lambda=5.0 outside I_mu"),
        ("missing-file", CS + ["--out", "{d}/none/cs.csv"], "none/cs.csv: No such file or directory"),
        ("missing-file", CS + ["--membership", "{d}"], "Is a directory"),
    ],
    "compare": [
        ("range", ["compare", "--mu", "1.5", "--dist", "bernoulli:0.4", "--n", "5",
                   "--alpha", "1"], "mu must lie in (0, 1)"),
        ("range", CMP[:-1] + ["0", "--alpha", "1"], "n must be at least 1"),
        ("nan", CMP + ["--alpha", "nan"], "alpha must be finite"),
        ("nan", CMP + ["--alpha", "inf"], "alpha must be finite"),
        ("nan", CMP + ["--alpha-file", "{d}/alpha-nan.txt"], "alpha must be finite"),
        ("missing-file", CMP + ["--alpha-file", "{d}/none.txt"], NO_FILE),
        ("literal", CMP + ["--alpha-file", "{d}/alpha-bad.txt"], "could not convert"),
        ("range", CMP + ["--alpha", "1e300"], "alpha=1e+300 is too large: its square overflows"),
        ("range", CMP[:-1] + ["20", "--alpha", "1e154"],
         "alpha is too large: the Hoeffding log-wealth overflows at round 15"),
        ("range", CMP[:-1] + [HUGE, "--alpha", "0.1"], "Unable to allocate"),
        ("missing-file", CMP + ["--alpha", "1", "--out", "{d}/none/cmp.csv"],
         "none/cmp.csv: No such file or directory"),
        ("literal", CMP + ["--alpha-file", "{d}/alpha-bad.txt"],
         "alpha-bad.txt: line 2: could not convert"),
        ("literal", CMP, "provide exactly one of --alpha / --alpha-file"),
        ("literal", CMP + ["--alpha", "1", "--alpha-file", "{d}/alpha-bad.txt"],
         "provide exactly one of --alpha / --alpha-file"),
    ],
    "check": [
        ("range", ["check", "--table", "{d}/t1.csv", "--mu", "1.5"], "mu must lie in (0, 1)"),
        ("range", ["check", "--table", "{d}/t1-neg.csv", "--mu", "0.5"], "non-negative"),
        ("nan", ["check", "--table", "{d}/t1-nan.csv", "--mu", "0.5"], "finite"),
        ("nan", ["check", "--table", "{d}/t1.csv", "--mu", "nan"], "mu must lie in (0, 1)"),
        ("missing-file", ["check", "--table", "{d}/none.csv", "--mu", "0.5"], NO_FILE),
        ("literal", ["check", "--table", "{d}/t1-bad.csv", "--mu", "0.5"], "could not convert"),
        ("literal", ["check", "--table", "{d}/sq.csv", "--mu", "0.5"],
         "expected CSV columns point,value"),
        ("range", ["check", "--table", "{d}/t1-inverted.csv", "--mu", "0.5"],
         "slope interval inverted beyond tolerance"),
        ("literal", ["check", "--table", "{d}/t1-repeat.csv", "--mu", "0.5"],
         "t1-repeat.csv: point 0.5 appears twice"),
    ],
    "dominate": [
        ("range", ["dominate", "--table", "{d}/t1.csv", "--mu", "1.5"], "mu must lie in (0, 1)"),
        ("range", ["dominate", "--table", "{d}/sq-neg.csv", "--mu", "0.5", "--t2"],
         "non-negative"),
        ("nan", ["dominate", "--table", "{d}/t1-nan.csv", "--mu", "0.5"], "finite"),
        ("nan", ["dominate", "--table", "{d}/sq-nan.csv", "--mu", "0.5", "--t2"], "finite"),
        ("missing-file", ["dominate", "--table", "{d}/none.csv", "--mu", "0.5", "--t2"],
         NO_FILE),
        ("literal", ["dominate", "--table", "{d}/sq-bad.csv", "--mu", "0.5", "--t2"],
         "could not convert"),
        ("literal", ["dominate", "--table", "{d}/t1.csv", "--mu", "0.5", "--t2"],
         "expected CSV columns x1,x2,value"),
        ("range", ["dominate", "--table", "{d}/t1-inverted.csv", "--mu", "0.5"],
         "slope interval inverted beyond tolerance"),
        ("literal", ["dominate", "--table", "{d}/t1-repeat.csv", "--mu", "0.5"],
         "t1-repeat.csv: point 0.5 appears twice"),
        ("literal", ["dominate", "--table", "{d}/sq-repeat.csv", "--mu", "0.5", "--t2"],
         "sq-repeat.csv: cell (1.0, 1.0) appears twice"),
    ],
    "audit": [
        ("range", AUDIT[:-1] + ["-1"], "audit depth must be at least 1, got -1"),
        ("range", AUDIT[:-1] + ["0"], "audit depth must be at least 1, got 0"),
        ("range", AUDIT[:-1] + ["5"], "audit capped at depth 4"),
        # The table's points are its grid, so they must include 0 and 1.
        ("range", ["audit", "--table", "{d}/ep-no-one.csv", "--mu", "0.5", "--depth", "1"],
         "grid must contain 0 and 1 as its endpoints"),
        ("range", AUDIT[:-1] + ["2"], "e-process only defined to depth 1"),
        ("range", ["audit", "--table", "{d}/ep-outside.csv", "--mu", "0.5", "--depth", "1"],
         "grid must contain 0 and 1 as its endpoints"),
        ("nan", ["audit", "--table", "{d}/ep-nan-root.csv", "--mu", "0.5", "--depth", "1"],
         "e-process value nan at ()"),
        ("nan", ["audit", "--table", "{d}/ep-nan.csv", "--mu", "0.5", "--depth", "1"],
         "e-process value nan"),
        ("nan", ["audit", "--table", "{d}/ep.csv", "--mu", "nan"], "mu must lie in (0, 1)"),
        ("missing-file", ["audit", "--table", "{d}/none.csv", "--mu", "0.5"], NO_FILE),
        ("literal", ["audit", "--table", "{d}/ep-bad-path.csv", "--mu", "0.5", "--depth", "1"],
         "could not convert"),
        ("literal", ["audit", "--table", "{d}/ep-bad.csv", "--mu", "0.5", "--depth", "1"],
         "could not convert"),
        ("nan", ["audit", "--table", "{d}/ep-inf.csv", "--mu", "0.5", "--depth", "1"],
         "e-process value inf at (0.0,) is not finite and non-negative"),
        ("literal", ["audit", "--table", "{d}/ep-repeat.csv", "--mu", "0.5", "--depth", "1"],
         "ep-repeat.csv: path '1.0' appears twice"),
    ],
    "iid-check": [
        ("range", ["iid-check", "--xi", "-1,0,0"], "finite and non-negative"),
        ("range", ["iid-check"], "provide exactly one of --table / --xi"),
        ("range", ["iid-check", "--xi", "1,1"], "exactly three values"),
        ("nan", ["iid-check", "--xi", "nan,0,0"], "finite and non-negative"),
        ("nan", ["iid-check", "--xi", "inf,0,0"], "finite and non-negative"),
        ("nan", ["iid-check", "--table", "{d}/sq-nan.csv"], "finite"),
        ("missing-file", ["iid-check", "--table", "{d}/none.csv"], NO_FILE),
        ("literal", ["iid-check", "--xi", "a,b,c"], "could not convert"),
        ("literal", ["iid-check", "--table", "{d}/t1.csv"], "expected CSV columns x1,x2,value"),
        ("range", ["iid-check", "--xi", "0,0,1,1"], "exactly three values"),
        ("literal", ["iid-check", "--table", "{d}/sq-repeat.csv"],
         "sq-repeat.csv: cell (1.0, 1.0) appears twice"),
    ],
}


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(args, message, id=f"{command}-{kind}-{i}")
        for command, cases in CONTRACT_CASES.items()
        for i, (kind, args, message) in enumerate(cases)
    ],
)
def test_bad_input_exit_2_with_message(tmp_path, args, message):
    write_contract_inputs(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, [a.format(d=tmp_path) for a in args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.stderr
    assert "Traceback" not in result.output
    assert [str(w.message) for w in caught] == []


def test_huge_valid_input_exit_0_without_warning():
    # A valid input, unlike the contract cases: (xi1 - xi2)^2 overflows a
    # float, the maximum does not.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["iid-check", "--xi", "0,1e300,0"])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output
    brute = json.loads(result.stdout)["brute_force"]
    assert brute == {"max_expectation": 5e299, "argmax_q": 0.5, "valid": False}
    assert [str(w.message) for w in caught] == []


def test_contract_covers_every_command_and_class():
    assert set(CONTRACT_CASES) == set(main.commands)
    for cases in CONTRACT_CASES.values():
        assert {kind for kind, _, _ in cases} == {"range", "nan", "missing-file", "literal"}


def kernel_or_constant(strategy, mu, xs, replay):
    """The strategy ``simulate`` plays: the kernel's bets on ``xs`` replayed, or the constant."""
    kind, arg = parse_strategy(strategy)
    if kind == "constant":
        return ConstantStrategy(mu, arg)
    return replay(kernels.up_game_batch(xs[None, :], np.array([mu]), arg)[0][0])


class TestSimulate:
    def test_sure_rejection_example(self, runner, tmp_path):
        out = tmp_path / "ledger.csv"
        result = invoke(
            runner,
            ["simulate", "--mu", "0.1", "--dist", "point:1", "--strategy", "constant:10",
             "--n", "5", "--delta", "0.05", "--out", str(out)],
        )
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["rejected_at"] == 2
        rows = list(csv.DictReader(out.open()))
        assert [r["rejected"] for r in rows] == ["0", "1", "1", "1", "1"]
        assert float(rows[-1]["log_wealth"]) == pytest.approx(5 * np.log(10.0))

    def test_point_mass_at_mean_never_rejects(self, runner, tmp_path):
        out = tmp_path / "ledger.csv"
        result = invoke(
            runner,
            ["simulate", "--mu", "0.5", "--dist", "point:0.5", "--strategy", "up",
             "--n", "100", "--delta", "0.05", "--seed", "1", "--out", str(out)],
        )
        summary = json.loads(result.output)
        assert summary["rejected_at"] is None
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["log_wealth"]) <= 1e-12 for r in rows)

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["simulate", "--mu", "0.4", "--dist", "bernoulli:0.6", "--strategy", "up:101",
                "--n", "50", "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = invoke(runner, args + ["--out", str(out1)])
        r2 = invoke(runner, args + ["--out", str(out2)])
        assert r1.output == r2.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_ledger_round_trip(self, runner, tmp_path):
        out = tmp_path / "ledger.csv"
        invoke(runner, ["simulate", "--mu", "0.3", "--dist", "uniform-grid:5",
                        "--strategy", "up:51", "--n", "30", "--seed", "4", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        wealth = 0.0
        for row in rows:
            e = float(row["e_value"])
            wealth = -np.inf if e == 0 else wealth + np.log(e)
            assert float(row["log_wealth"]) == wealth

    def test_config_error_exit_2(self, runner):
        result = CliRunner().invoke(
            main, ["simulate", "--mu", "0.5", "--dist", "gauss:1", "--n", "5"]
        )
        assert result.exit_code == 2

    def test_bad_strategy_exit_2(self, runner):
        result = CliRunner().invoke(
            main, ["simulate", "--mu", "0.5", "--dist", "point:0.5", "--strategy",
                   "constant:9", "--n", "5"]
        )
        assert result.exit_code == 2

    def test_kernel_fed_ledger_matches_object_path(self, runner, tmp_path):
        mu, dist, n, seed = 0.4, "bernoulli:0.55", 2000, 6
        out = tmp_path / "ledger.csv"
        invoke(runner, ["simulate", "--mu", str(mu), "--dist", dist, "--strategy", "up:101",
                        "--n", str(n), "--seed", str(seed), "--out", str(out)])
        ledger = read_ledger(out)
        xs = sample_stream(parse_distribution(dist), n, seed)
        assert ledger["x"] == xs.tolist()
        kernel_bets, _ = kernels.up_game_batch(xs[None, :], np.array([mu]), 101)
        assert ledger["lambda"] == kernel_bets[0].tolist()
        reference = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, 101), xs)
        np.testing.assert_allclose(
            ledger["lambda"], [r.lam for r in reference.rows], rtol=0.0, atol=1e-9
        )
        assert recompute_log_wealth(ledger["e_value"]) == ledger["log_wealth"]

    def test_constant_stream_bets_stay_in_interval(self, runner, tmp_path):
        # The kernel's bet for this stream once rounded to 1/mu + 1 ulp, which
        # the game refused with exit 2.
        mu = 0.01
        out = tmp_path / "ledger.csv"
        result = invoke(
            runner,
            ["simulate", "--mu", str(mu), "--dist", "point:0.05", "--strategy", "up:11",
             "--n", "1000", "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        bets = np.array(read_ledger(out)["lambda"])
        assert len(bets) == 1000
        assert ((bets >= 1.0 / (mu - 1.0)) & (bets <= 1.0 / mu)).all()

    def test_long_first_run_of_zeros_matches_object_path(self, runner, tmp_path):
        # Seed 8 draws 1451 zeros before its first one: more than a three-node
        # posterior survives outside log space.
        mu, dist, n, seed = 0.5, "bernoulli:0.001", 3000, 8
        xs = sample_stream(parse_distribution(dist), n, seed)
        assert np.flatnonzero(xs)[0] == 1451
        out = tmp_path / "ledger.csv"
        invoke(runner, ["simulate", "--mu", str(mu), "--dist", dist, "--strategy", "up:3",
                        "--n", str(n), "--seed", str(seed), "--out", str(out)])
        ledger = read_ledger(out)
        reference = run_game(mu, 0.05, UniversalPortfolioStrategy(mu, 3), xs)
        np.testing.assert_allclose(
            ledger["lambda"], [r.lam for r in reference.rows], rtol=0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            ledger["log_wealth"], [r.log_wealth for r in reference.rows], rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize(
        "mu, dist, strategy, n, seed",
        [
            (0.1, "point:1", "constant:10", 5, 0),  # rejected from round 2 on
            # Rejected at round 5; the zero e-value at round 10 puts -inf after it.
            (0.5, "bernoulli:0.7", "constant:2", 30, 6),
            (0.4, "bernoulli:0.6", "up:101", 300, 9),
        ],
        ids=["rejected", "minus-inf", "up"],
    )
    def test_ledger_csv_bytes_match_csv_writer(
        self, runner, tmp_path, replay, mu, dist, strategy, n, seed, to_stdout
    ):
        out = tmp_path / "ledger.csv"
        result = invoke(runner, ["simulate", "--mu", str(mu), "--dist", dist, "--strategy",
                                 strategy, "--n", str(n), "--seed", str(seed),
                                 "--out", "-" if to_stdout else str(out)])
        xs = sample_stream(parse_distribution(dist), n, seed)
        ledger = run_game(mu, 0.05, kernel_or_constant(strategy, mu, xs, replay), xs)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "x", "lambda", "e_value", "log_wealth", "rejected"])
        writer.writerows(
            (r.t, r.x, r.lam, r.e_value, r.log_wealth,
             int(ledger.rejected_at is not None and r.t >= ledger.rejected_at))
            for r in ledger.rows
        )
        expected = buf.getvalue()
        assert ",1\r\n" in expected
        if strategy == "constant:2":
            assert ",-inf,1\r\n" in expected
        summary = {
            "rejected_at": ledger.rejected_at,
            "final_log_wealth": ledger.final_log_wealth,
            "threshold": ledger.threshold,
        }
        if to_stdout:
            assert result.stdout_bytes == (expected + json.dumps(summary, indent=2) + "\n").encode()
        else:
            assert out.read_bytes() == expected.encode()
            assert json.loads(result.output) == summary

    @pytest.mark.parametrize("strategy", ["up:101", "constant:2"], ids=["up", "constant"])
    def test_ledger_json_bytes_match_round_loop(
        self, runner, tmp_path, loop_game, replay, strategy
    ):
        # Rejected, then a zero e-value for constant:2 (as in the CSV test's minus-inf case).
        mu, dist, n, seed = 0.5, "bernoulli:0.7", 300, 6
        out = tmp_path / "ledger.json"
        args = ["simulate", "--mu", str(mu), "--dist", dist, "--strategy", strategy, "--n",
                str(n), "--seed", str(seed), "--format", "json", "--out", str(out)]
        result = invoke(runner, args)
        xs = sample_stream(parse_distribution(dist), n, seed)
        rows, rejected_at = loop_game(mu, 0.05, kernel_or_constant(strategy, mu, xs, replay), xs)
        assert rejected_at is not None
        if strategy == "constant:2":
            assert rows[-1].log_wealth == -math.inf
        header = ["t", "x", "lambda", "e_value", "log_wealth", "rejected"]
        expected = [
            dict(zip(header, (r.t, r.x, r.lam, r.e_value, r.log_wealth, int(r.t >= rejected_at))))
            for r in rows
        ]
        assert out.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode()
        assert json.loads(result.output)["rejected_at"] == rejected_at


class TestCs:
    def test_interval_schema_and_coverage(self, runner, tmp_path):
        out = tmp_path / "cs.csv"
        result = invoke(
            runner,
            ["cs", "--dist", "bernoulli:0.5", "--strategy", "up:101", "--n", "400",
             "--grid", "99", "--seed", "12", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 400
        final = rows[-1]
        assert float(final["lower"]) <= 0.5 <= float(final["upper"])
        assert 0 < int(final["alive"]) <= 99

    def test_seeded_golden_interval(self, runner, tmp_path):
        # Frozen from the first computation of this exact run: the alive means
        # are 0.46-0.56, so the outer bracket is 0.45-0.57; it must contain 0.5.
        out = tmp_path / "cs.csv"
        result = invoke(
            runner,
            ["cs", "--dist", "bernoulli:0.5", "--strategy", "up:101", "--n", "1000",
             "--grid", "99", "--seed", "2024", "--out", str(out)],
        )
        assert result.exit_code == 0
        final = list(csv.DictReader(out.open()))[-1]
        assert (final["t"], int(final["alive"])) == ("1000", 11)
        assert float(final["lower"]) == pytest.approx(0.45)
        assert float(final["upper"]) == pytest.approx(0.57)
        assert float(final["lower"]) <= 0.5 <= float(final["upper"])

    def test_running_intersect_widths_non_increasing(self, runner, tmp_path):
        out = tmp_path / "cs.csv"
        invoke(
            runner,
            ["cs", "--dist", "bernoulli:0.7", "--strategy", "up:101", "--n", "300",
             "--grid", "49", "--seed", "3", "--running-intersect", "--out", str(out)],
        )
        widths = []
        for row in csv.DictReader(out.open()):
            if int(row["alive"]) == 0:
                widths.append(0.0)
            else:
                widths.append(float(row["upper"]) - float(row["lower"]))
        assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))

    def test_membership_matrix(self, runner, tmp_path):
        out = tmp_path / "cs.csv"
        member = tmp_path / "m.csv"
        invoke(
            runner,
            ["cs", "--dist", "bernoulli:0.5", "--strategy", "constant:0.5", "--n", "10",
             "--grid", "5", "--seed", "1", "--out", str(out), "--membership", str(member)],
        )
        rows = list(csv.DictReader(member.open()))
        assert len(rows) == 50
        alive_from_matrix = sum(int(r["in_set"]) for r in rows if r["t"] == "10")
        cs_rows = list(csv.DictReader(out.open()))
        assert alive_from_matrix == int(cs_rows[-1]["alive"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("strategy, grid", [("up:101", 7), ("constant:2.0", 1)])
    def test_membership_bytes_match_cell_by_cell_reference(
        self, runner, tmp_path, strategy, grid, fmt
    ):
        dist, n, seed = "bernoulli:0.4", 30, 5
        member = tmp_path / "m.out"
        invoke(runner, ["cs", "--dist", dist, "--strategy", strategy, "--n", str(n),
                        "--grid", str(grid), "--seed", str(seed), "--running-intersect",
                        "--format", fmt, "--out", str(tmp_path / "cs.out"),
                        "--membership", str(member)])
        xs = sample_stream(parse_distribution(dist), n, seed)
        mu_grid = default_mu_grid(grid)
        result = run_cs_batch(mu_grid, xs, strategy, 0.05, running_intersect=True)
        rows = []
        for t in range(1, n + 1):
            for j, mu in enumerate(mu_grid):
                rows.append((t, float(mu), float(result.games.log_wealth[j, t - 1]),
                             int(result.in_set[t - 1, j])))
        header = ["t", "mu", "log_wealth", "in_set"]
        if fmt == "json":
            expected = json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            expected = buf.getvalue()
        assert member.read_bytes() == expected.encode()

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "dist, strategy, grid, running_intersect",
        [
            ("bernoulli:0.4", "up:101", 7, True),
            # Every candidate is rejected by round 14, so the later sets are empty.
            ("point:1", "constant:1", 3, False),
        ],
        ids=["up", "empty-set"],
    )
    def test_interval_bytes_match_csv_writer(
        self, runner, tmp_path, dist, strategy, grid, running_intersect, fmt, to_stdout
    ):
        n, seed = 30, 5
        out = tmp_path / "cs.out"
        args = ["cs", "--dist", dist, "--strategy", strategy, "--n", str(n), "--grid", str(grid),
                "--seed", str(seed), "--format", fmt, "--out", "-" if to_stdout else str(out)]
        result = invoke(runner, args + ["--running-intersect"] * running_intersect)
        xs = sample_stream(parse_distribution(dist), n, seed)
        cs = run_cs_batch(default_mu_grid(grid), xs, strategy, 0.05, running_intersect)
        rows = cs.intervals()
        if strategy == "constant:1":
            assert math.isnan(rows[-1][1]) and rows[-1][3] == 0
        expected = reference_table(["t", "lower", "upper", "alive"], rows, fmt)
        assert (result.stdout_bytes if to_stdout else out.read_bytes()) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
    def test_two_tables_refuse_one_stdout(self, monkeypatch, tmp_path, out, fmt):
        monkeypatch.chdir(tmp_path)
        sampled = []
        monkeypatch.setattr(domain, "sample_stream", lambda *args: sampled.append(args))
        args = ["cs", "--dist", "bernoulli:0.3", "--n", "3", "--grid", "2", "--format", fmt,
                "--membership", "-"]
        result = CliRunner().invoke(main, args + out)
        assert result.exit_code == 2
        assert "only one output can go to stdout" in result.stderr
        assert result.stdout == "" and "Traceback" not in result.output
        assert sampled == [] and list(tmp_path.iterdir()) == []

    def test_nan_mass_in_table_exit_2(self, tmp_path):
        table = tmp_path / "dist.csv"
        table.write_text("point,mass\n0.0,nan\n1.0,1.0\n")
        result = CliRunner().invoke(
            main, ["cs", "--dist", f"table:{table}", "--n", "5", "--grid", "9"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "non-finite mass nan at 0.0" in result.output
        assert "Traceback" not in result.output

    def test_constant_fraction_invalid_somewhere_on_grid_exit_2(self, runner):
        # constant:1.9 is fine at mu=0.5 but outside I_mu at mu=0.9
        result = CliRunner().invoke(
            main, ["cs", "--dist", "bernoulli:0.5", "--strategy", "constant:1.9",
                   "--n", "5", "--grid", "9"]
        )
        assert result.exit_code == 2

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "cs.json"
        invoke(
            runner,
            ["cs", "--dist", "point:0.5", "--strategy", "constant:0.0", "--n", "3",
             "--grid", "9", "--seed", "1", "--format", "json", "--out", str(out)],
        )
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert (rows[0]["lower"], rows[0]["upper"], rows[0]["alive"]) == (0.0, 1.0, 9)

    def test_trivial_strategy_full_span(self, runner, tmp_path):
        out = tmp_path / "cs.csv"
        invoke(
            runner,
            ["cs", "--dist", "bernoulli:0.9", "--strategy", "constant:0.0", "--n", "20",
             "--grid", "9", "--seed", "1", "--out", str(out)],
        )
        for row in csv.DictReader(out.open()):
            # Every grid mean is alive, so the outer bracket is all of [0, 1].
            assert (float(row["lower"]), float(row["upper"])) == (0.0, 1.0)
            assert int(row["alive"]) == 9


class TestCompare:
    def test_zero_schedule_all_zero(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        invoke(
            runner,
            ["compare", "--mu", "0.5", "--dist", "bernoulli:0.5", "--n", "25",
             "--alpha", "0", "--seed", "5", "--out", str(out)],
        )
        for row in csv.DictReader(out.open()):
            assert float(row["logW_hoeffding"]) == 0.0
            assert float(row["logW_coinbet"]) == 0.0
            assert float(row["gap"]) == 0.0

    def test_gap_nonnegative_and_grows_on_binary_data(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        invoke(
            runner,
            ["compare", "--mu", "0.5", "--dist", "bernoulli:0.4", "--n", "200",
             "--alpha", "1.0", "--seed", "6", "--out", str(out)],
        )
        gaps = [float(r["gap"]) for r in csv.DictReader(out.open())]
        assert min(gaps) >= -1e-12
        assert gaps[-1] > 0.0

    def test_alpha_file_schedule(self, runner, tmp_path):
        sched = tmp_path / "alphas.txt"
        sched.write_text("\n".join(["0.5"] * 10))
        out = tmp_path / "cmp.csv"
        result = invoke(
            runner,
            ["compare", "--mu", "0.3", "--dist", "bernoulli:0.3", "--n", "10",
             "--alpha-file", str(sched), "--seed", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert len(list(csv.DictReader(out.open()))) == 10

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("from_file", [False, True], ids=["alpha", "alpha-file"])
    def test_bytes_match_csv_writer(self, runner, tmp_path, from_file, fmt, to_stdout):
        mu, dist, n, seed = 0.5, "bernoulli:0.4", 40, 6
        alphas = [0.1 + 0.05 * (t % 7) for t in range(n)] if from_file else [1.0] * n
        sched = tmp_path / "alphas.txt"
        sched.write_text("\n".join(map(repr, alphas)) + "\n")
        out = tmp_path / "cmp.out"
        schedule = ["--alpha-file", str(sched)] if from_file else ["--alpha", "1.0"]
        result = invoke(runner, ["compare", "--mu", str(mu), "--dist", dist, "--n", str(n),
                                 "--seed", str(seed), "--format", fmt, *schedule,
                                 "--out", "-" if to_stdout else str(out)])
        xs = sample_stream(parse_distribution(dist), n, seed)
        a = np.array(alphas)
        log_h = np.cumsum(a * (xs - mu) - a**2 / 8.0)
        lams = np.array([dominating_lambda(mu, alpha) for alpha in alphas])
        log_cb = np.cumsum(np.log1p(lams * (xs - mu)))
        rows = [(t + 1, float(log_h[t]), float(log_cb[t]), float(log_cb[t] - log_h[t]))
                for t in range(n)]
        expected = reference_table(["t", "logW_hoeffding", "logW_coinbet", "gap"], rows, fmt)
        assert (result.stdout_bytes if to_stdout else out.read_bytes()) == expected

    def test_short_alpha_file_exit_2(self, runner, tmp_path):
        sched = tmp_path / "alphas.txt"
        sched.write_text("0.5\n")
        result = CliRunner().invoke(
            main, ["compare", "--mu", "0.3", "--dist", "point:0.3", "--n", "10",
                   "--alpha-file", str(sched)]
        )
        assert result.exit_code == 2


class TestWriteTable:
    """``domain.write_table``, the writer of every CLI table, writes a table a block of rows
    at a time, in either format."""

    HEADER = ("t", "x", "w", "flag")

    @staticmethod
    def csv_lines(rows):
        return [f"{t},{x!r},{w!r},{flag}\r\n" for t, x, w, flag in rows]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "n", [0, 1, domain._BLOCK_ROWS, domain._BLOCK_ROWS + 1, 2 * domain._BLOCK_ROWS + 3]
    )
    def test_bytes_match_the_whole_table_reference(self, n, fmt):
        rows = [(t, t / 7.0, math.nan if t % 5 == 0 else -t / 3.0, t % 2) for t in range(1, n + 1)]
        buf = io.StringIO()
        domain.write_table(("buf", buf), self.HEADER, iter(rows), fmt, self.csv_lines)
        assert buf.getvalue().encode() == reference_table(self.HEADER, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_holds_one_block_of_rows(self, fmt):
        # Four blocks of JSON records held whole take about 18 MB; one takes about 4.5.
        sink = type("Sink", (), {"write": lambda self, text: None})()
        rows = ((t, t / 7.0, -t / 3.0, t % 2) for t in range(4 * domain._BLOCK_ROWS))
        tracemalloc.start()
        try:
            domain.write_table(("sink", sink), self.HEADER, rows, fmt, self.csv_lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_failed_write_names_the_output(self):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="cannot write out.csv: No space left on device"):
            domain.write_table(("out.csv", Full()), self.HEADER, [(1, 0.5, 0.25, 0)], "csv",
                               self.csv_lines)


class TestOutputsOpenedFirst:
    """``simulate``, ``cs`` and ``compare`` open their outputs before they compute,
    and an exit 2 leaves no file the run created."""

    COMMANDS = {"simulate": SIM, "cs": CS, "compare": CMP + ["--alpha", "1"]}

    @staticmethod
    def refuse(calls):
        def call(*args, **kwargs):
            calls.append(args)
            raise AssertionError("computed before the outputs were opened")

        return call

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_out_exits_before_sampling(self, tmp_path, monkeypatch, command):
        from evbet import confseq, domain

        calls = []
        monkeypatch.setattr(domain, "sample_stream", self.refuse(calls))
        monkeypatch.setattr(confseq, "run_cs_batch", self.refuse(calls))
        bad = tmp_path / "none" / "out.csv"
        result = CliRunner().invoke(main, self.COMMANDS[command] + ["--out", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"cannot write {bad}: No such file or directory" in result.stderr
        assert calls == []

    def test_failed_membership_leaves_no_out(self, tmp_path, monkeypatch):
        from evbet import confseq

        calls = []
        monkeypatch.setattr(confseq, "run_cs_batch", self.refuse(calls))
        out = tmp_path / "cs.csv"
        result = CliRunner().invoke(main, CS + ["--out", str(out), "--membership", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"cannot write {tmp_path}: Is a directory" in result.stderr
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    # Runs that fail after their outputs are open: a stream of 10^17 rounds
    # cannot be allocated, and a Hoeffding log-wealth that overflows.
    FAIL_LATE = {
        "simulate": (SIM[:-1] + [HUGE], "Unable to allocate"),
        "cs": (CS[:3] + ["--n", HUGE], "Unable to allocate"),
        "compare": (CMP[:-1] + ["20", "--alpha", "1e154"], "overflows at round 15"),
    }

    @pytest.mark.parametrize("command", sorted(FAIL_LATE))
    def test_failure_after_opening_removes_created_files(self, tmp_path, command):
        args, message = self.FAIL_LATE[command]
        args = args + ["--out", str(tmp_path / "out.csv")]
        if command == "cs":
            args += ["--membership", str(tmp_path / "m.csv")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_a_file_that_existed(self, tmp_path):
        out = tmp_path / "cs.csv"
        out.write_text("kept\n")
        args, _ = self.FAIL_LATE["cs"]
        result = CliRunner().invoke(
            main, args + ["--out", str(out), "--membership", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2, result.output
        assert [p.name for p in tmp_path.iterdir()] == ["cs.csv"]
        assert out.read_text() == ""  # truncated, as shell redirection leaves it

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_full_device_exit_2(self, command):
        # Every write to /dev/full fails with ENOSPC, here when the output is closed.
        result = CliRunner().invoke(main, self.COMMANDS[command] + ["--out", "/dev/full"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cannot write /dev/full: No space left on device" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_write_removes_created_files(self, tmp_path, monkeypatch, command):
        class FullFile:
            """An output file whose writes fail as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def close(self):
                self.fh.close()

        monkeypatch.setattr(cli, "open", FullFile, raising=False)
        args = self.COMMANDS[command] + ["--out", str(tmp_path / "out.csv")]
        if command == "cs":
            args += ["--membership", str(tmp_path / "m.csv")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "No space left on device" in result.stderr
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    def test_failed_membership_write_names_its_file(self, tmp_path, monkeypatch):
        member = tmp_path / "m.csv"

        def full_membership(path, *args, **kwargs):
            """Open ``path``; the membership file's writes fail as on a full disk."""
            fh = open(path, *args, **kwargs)
            if path == str(member):
                def write(text):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", full_membership, raising=False)
        result = CliRunner().invoke(
            main, CS + ["--out", str(tmp_path / "cs.csv"), "--membership", str(member)]
        )
        assert result.exit_code == 2, result.output
        assert f"cannot write {member}: No space left on device" in result.stderr
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_pipe_exits_1_quietly(self):
        # Python ignores SIGPIPE, so a write to a pipe with no reader raises
        # BrokenPipeError; click exits 1 without a message, as `| head -1` expects.
        src = str(Path(evbet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "evbet.cli", *CS[:3], "--n", "2000", "--grid", "9"],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                text=True,
                timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestCheckAndDominate:
    def test_constant_one_valid(self, runner, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("point,value\n0.0,1.0\n0.5,1.0\n1.0,1.0\n")
        result = invoke(runner, ["check", "--table", str(table), "--mu", "0.5"])
        verdict = json.loads(result.output)
        assert verdict["valid"] is True
        assert verdict["certificate"]["lambda_hat"] == 0.0

    def test_envelope_refuted_with_witness(self, runner, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("point,value\n0.0,2.0\n0.5,1.0\n1.0,2.0\n")
        result = invoke(runner, ["check", "--table", str(table), "--mu", "0.5"])
        verdict = json.loads(result.output)
        assert verdict["valid"] is False
        assert (verdict["witness"]["a"], verdict["witness"]["b"]) == (0.0, 1.0)
        assert verdict["witness"]["expectation"] == pytest.approx(2.0)
        strict = CliRunner().invoke(
            main, ["check", "--table", str(table), "--mu", "0.5", "--strict"]
        )
        assert strict.exit_code == 3

    def test_dominate_single_round(self, runner, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("point,value\n0.0,0.5\n0.5,1.0\n1.0,1.5\n")
        result = invoke(runner, ["dominate", "--table", str(table), "--mu", "0.5"])
        verdict = json.loads(result.output)
        assert verdict["certified"] is True
        assert verdict["lambda_hat"] == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["check", "dominate"])
    @pytest.mark.parametrize(
        "values", ["1.0\n0.5,1.0\n1.0,1.0", "2.0\n0.5,1.0\n1.0,2.0"], ids=["valid", "invalid"]
    )
    def test_table_certified_once(self, tmp_path, monkeypatch, command, values):
        from evbet import evariables

        calls = []
        certify = evariables._certify

        def spy(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(evariables, "_certify", spy)
        table = tmp_path / "t.csv"
        table.write_text(f"point,value\n0.0,{values}\n")
        result = CliRunner().invoke(main, [command, "--table", str(table), "--mu", "0.5"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_dominate_t2_refutes_separation_table(self, runner, tmp_path):
        table = tmp_path / "sep.csv"
        write_separation_table(table)
        result = invoke(runner, ["dominate", "--table", str(table), "--mu", "0.5", "--t2"])
        verdict = json.loads(result.output)
        assert verdict["certified"] is False
        assert verdict["witness"]["expectation"] == pytest.approx(2.0)
        strict = CliRunner().invoke(
            main, ["dominate", "--table", str(table), "--mu", "0.5", "--t2", "--strict"]
        )
        assert strict.exit_code == 3

    def test_dominate_t2_certifies_constant(self, runner, tmp_path):
        table = tmp_path / "ones.csv"
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "value"])
            for x1, x2 in itertools.product((0.0, 0.5, 1.0), repeat=2):
                w.writerow([x1, x2, 1.0])
        result = invoke(runner, ["dominate", "--table", str(table), "--mu", "0.5", "--t2"])
        verdict = json.loads(result.output)
        assert verdict["certified"] is True
        assert verdict["lambda1"] == 0.0

    @pytest.mark.parametrize("mu", ["1e-12", "0.99999999999"])
    def test_ones_certify_at_a_mean_snapped_to_an_end(self, runner, tmp_path, mu):
        # mu lies within the snap of the grid end 0 or 1. A certificate that
        # leaves that point out bets 5e11 or -5e10, which pays 0.5 there, and
        # dominate --t2 then refutes the ones and exits 2.
        square = tmp_path / "ones2.csv"
        square.write_text("x1,x2,value\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n")
        result = invoke(runner, ["dominate", "--table", str(square), "--mu", mu, "--t2"])
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)
        assert verdict["certified"] is True
        assert verdict["lambda1"] == 0.0
        assert list(verdict["lambda2"].values()) == [0.0, 0.0]
        single = tmp_path / "ones1.csv"
        single.write_text("point,value\n0.0,1.0\n1.0,1.0\n")
        result = invoke(runner, ["check", "--table", str(single), "--mu", mu])
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)
        assert verdict["valid"] is True
        assert verdict["certificate"]["lambda_hat"] == 0.0


    def test_oracles_agree_on_a_scaled_coinbet_near_an_end(self, runner, tmp_path):
        # The coin-bet with lam = 5e10 on {0, 0.5, 1} at mu = 1e-12, scaled by
        # 1.05. The mean-mu law with mass 2e-12 on 0.5 gives it 1.05, and
        # check, dominate --t2 and audit must all say so.
        mu, points = 1e-12, (0.0, 0.5, 1.0)
        values = [1.05 * (1.0 + 5e10 * (x - mu)) for x in points]
        single = tmp_path / "scaled.csv"
        single.write_text(
            "point,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(points, values)))
        result = invoke(runner, ["check", "--table", str(single), "--mu", repr(mu)])
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)
        assert verdict["valid"] is False
        witness = verdict["witness"]
        assert witness["a"] <= mu <= witness["b"]
        assert abs(witness["w"] * witness["a"] + (1.0 - witness["w"]) * witness["b"] - mu) <= 1e-12
        assert witness["expectation"] == pytest.approx(1.05, rel=1e-12)
        # Both masses are given, so the witness replays its mean and expectation.
        assert witness["w"] * witness["a"] + witness["wb"] * witness["b"] == pytest.approx(
            mu, rel=1e-15)
        at = dict(zip(points, values))
        replay = witness["w"] * at[witness["a"]] + witness["wb"] * at[witness["b"]]
        assert replay == witness["expectation"]

        square = tmp_path / "scaled2.csv"
        square.write_text("x1,x2,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n" for x, v in zip(points, values) for y in points))
        args = ["dominate", "--table", str(square), "--mu", repr(mu), "--t2"]
        result = invoke(runner, args)
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)
        assert verdict["certified"] is False
        assert verdict["witness"]["expectation"] == pytest.approx(1.05, rel=1e-12)
        assert all(a <= mu <= b for a, b in verdict["witness"]["d"])
        assert CliRunner().invoke(main, args + ["--strict"]).exit_code == 3

        process = tmp_path / "scaled-ep.csv"
        process.write_text("depth,path,value\n0,,1.0\n" + "".join(
            f"1,{x!r},{v!r}\n" for x, v in zip(points, values)))
        args = ["audit", "--table", str(process), "--mu", repr(mu), "--depth", "1"]
        result = invoke(runner, args)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["pass"] is False
        assert report["max"] == pytest.approx(1.05, rel=1e-12)


class TestAudit:
    @pytest.fixture
    def coinbet_csv(self, tmp_path, rng):
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
        path = tmp_path / "ep.csv"
        with open(path, "w", newline="") as fh:
            eprocess_to_csv(process, space, 3, fh)
        return path

    def test_coinbet_process_passes(self, runner, coinbet_csv):
        result = invoke(
            runner,
            ["audit", "--table", str(coinbet_csv), "--mu", "0.5", "--depth", "3", "--seed", "7"],
        )
        report = json.loads(result.output)
        assert report["pass"] is True
        assert report["max"] == pytest.approx(1.0, abs=1e-9)
        assert set(report) == {"max", "d", "mask", "pass", "n_trees", "exhaustive_complete"}
        assert report["exhaustive_complete"] is True
        assert report["n_trees"] > 0

    def test_options_are_those_of_the_grid_search(self, runner, coinbet_csv):
        # --seed stays, hidden, for scripts that pass it; nothing in the search is random.
        options = {opt for param in main.commands["audit"].params for opt in param.opts}
        assert options == {"--table", "--mu", "--depth", "--seed", "--strict"}
        assert "--seed" not in invoke(runner, ["audit", "--help"]).output
        args = ["audit", "--table", str(coinbet_csv), "--mu", "0.5", "--depth", "2"]
        seeded, plain = invoke(runner, args + ["--seed", "7"]), invoke(runner, args)
        assert seeded.exit_code == plain.exit_code == 0
        assert seeded.stdout_bytes == plain.stdout_bytes

    def test_strict_refutation_exit_3(self, runner, tmp_path, coinbet_csv):
        # scale the depth-2 values by 1.5 in the CSV to break the process
        rows = list(csv.DictReader(open(coinbet_csv)))
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["depth", "path", "value"])
            for r in rows:
                v = float(r["value"])
                if int(r["depth"]) == 2:
                    v *= 1.5
                w.writerow([r["depth"], r["path"], repr(v)])
        result = CliRunner().invoke(
            main, ["audit", "--table", str(bad), "--mu", "0.5", "--depth", "2", "--strict"]
        )
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["pass"] is False
        assert report["max"] >= 1.5 - 1e-9

    @pytest.mark.parametrize(
        "points, mu",
        [
            # The grid lacks mu: every pair straddles it strictly.
            ((0.0, 0.25, 0.5, 0.75, 1.0), 0.3),
            # 1/3 lies 3e-10 above mu, so it pairs only with the points below mu.
            ((0.0, 1 / 3, 2 / 3, 1.0), 0.333333333),
        ],
        ids=["grid-without-mu", "near-mu"],
    )
    def test_grid_table_audited_on_its_own_points(self, tmp_path, points, mu):
        space = SampleSpace(points, mu)
        path = tmp_path / "ep.csv"
        with open(path, "w", newline="") as fh:
            eprocess_to_csv(constant_eprocess(mu), space, 2, fh)
        result = CliRunner().invoke(
            main, ["audit", "--table", str(path), "--mu", repr(mu), "--depth", "2"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["pass"] is True
        assert report["max"] == 1.0
        assert report["exhaustive_complete"] is True
        assert all(a in points and b in points for a, b in report["d"])


class TestIidCheck:
    def test_separation_table_verdicts(self, runner, tmp_path):
        table = tmp_path / "sep.csv"
        write_separation_table(table)
        result = invoke(runner, ["iid-check", "--table", str(table)])
        verdict = json.loads(result.output)
        assert verdict["iid_valid"] is True
        assert verdict["brute_force"]["valid"] is True
        assert verdict["conditional_valid"] is False
        assert verdict["conditional_witness"]["expectation"] == pytest.approx(2.0)

    def test_xi_literal(self, runner):
        result = invoke(runner, ["iid-check", "--xi", "1,1,1"])
        verdict = json.loads(result.output)
        assert verdict["iid_valid"] is True
        assert verdict["brute_force"]["max_expectation"] == pytest.approx(1.0)

    @pytest.mark.parametrize("xi", ["1,1,1.0000000005", "1.0000000005,1,1"])
    def test_both_verdicts_share_one_slack(self, runner, xi):
        # The maximum lies above 1 + VALIDITY_TOL but within 1e-9 of 1.
        verdict = json.loads(invoke(runner, ["iid-check", "--xi", xi]).output)
        assert verdict["brute_force"]["valid"] is verdict["closed_form_valid"] is False

    def test_invalid_xi_strict_exit_3(self, runner):
        result = CliRunner().invoke(main, ["iid-check", "--xi", "1,1.01,1", "--strict"])
        assert result.exit_code == 3

    def test_conflicting_inputs_exit_2(self, runner):
        result = CliRunner().invoke(main, ["iid-check", "--xi", "1,1,1", "--table", "x.csv"])
        assert result.exit_code == 2
