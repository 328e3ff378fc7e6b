"""The three benchmark workloads: inputs, one operation, and its output check.

Every workload is a closed loop with one client: the harness starts the next
operation when the previous one has ended and its output has been checked.
Inputs come from the workload seed; operation ``i`` draws its own seed as
``replicate_seed(seed, i)``. A check returns a list of problems (empty when
the output is right) and the counters the output shows.

- ``cli-bernoulli`` spawns ``python -m evbet.cli`` once per operation, cycling
  through ``simulate``, ``cs`` and ``audit`` on binary data: the user-facing
  path, from interpreter start-up to CSV writing.
- ``mc-grid`` runs Monte Carlo batches in process on non-binary data: the
  batch UP kernel, with no process start and no CSV.
- ``certify`` runs single-round, two-round and i.i.d. certification requests
  in process: the validity oracles, with no kernel.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evbet import cli, confseq, domain, evariables, game, iid_case, multiround
from evbet.betting import UniversalPortfolioStrategy
from evbet.domain import SampleSpace, replicate_seed

# Seed indices at or above this offset feed set-up inputs, below it operations.
SETUP_STREAM = 1 << 40
DELTA = 0.05


@dataclass(frozen=True)
class Sizes:
    sim_n: int = 20_000
    cs_n: int = 1000
    grid: int = 99
    nodes: int = 1001
    games: int = 99
    rounds: int = 1000
    requests: int = 100  # certify pool: requests per kind and per verdict


FULL = Sizes()
TINY = Sizes(sim_n=200, cs_n=40, grid=9, nodes=31, games=6, rounds=40, requests=3)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    seed: int


def bet_bounds(mu):
    """``I_mu``, computed here rather than taken from the program under test."""
    mu = np.asarray(mu, dtype=float)
    return 1.0 / (mu - 1.0), 1.0 / mu


def bets_outside(bets, mus) -> int:
    lo, hi = bet_bounds(np.asarray(mus, dtype=float)[:, None])
    return int(np.count_nonzero(~((bets >= lo) & (bets <= hi))))


def nested_problems(lower, upper, alive) -> list[str]:
    """Running-intersection hulls never widen while the set is non-empty."""
    live = np.flatnonzero(np.asarray(alive) > 0)
    if len(live) and live[-1] != len(live) - 1:
        return ["confidence set revived after becoming empty"]
    lo, up = np.asarray(lower)[live], np.asarray(upper)[live]
    if (np.diff(lo) < 0).any() or (np.diff(up) > 0).any():
        return ["interval hulls are not nested"]
    return []


def coinbet_table(rng, points, mu, factors):
    """Two-round product coin-bet on ``points`` times per-cell ``factors``."""
    lo, hi = bet_bounds(mu)
    x = np.asarray(points) - mu
    lam1 = rng.uniform(0.9 * lo, 0.9 * hi)
    lam2 = rng.uniform(0.9 * lo, 0.9 * hi, size=len(x))
    return np.outer(1.0 + lam1 * x, np.ones(len(x))) * (1.0 + lam2[:, None] * x[None, :]) * factors


class Workload:
    name: str
    kinds: tuple[str, ...]
    imports: tuple[str, ...]  # what a fresh interpreter imports for setup_s
    latency: dict[str, str]  # op kind -> end-to-end latency metric it feeds
    spawns = False

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL, env: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.env = env  # environment of child processes

    def op(self, i: int) -> Op:
        return Op(i, self.kinds[i % len(self.kinds)], replicate_seed(self.seed, i))

    def setup_rng(self, j: int = 0):
        return np.random.default_rng(replicate_seed(self.seed, SETUP_STREAM + j))

    def run(self, op: Op):
        raise NotImplementedError

    def run_inproc(self, op: Op):
        """The same operation inside this process, as the traced run needs it."""
        return self.run(op)

    def check(self, op: Op, out) -> tuple[list[str], dict]:
        raise NotImplementedError

    def final_check(self) -> list[str] | None:
        """Problems found by a once-per-run check; None when there is none."""
        return None

    def extra_metrics(self, samples: dict) -> dict:
        """Workload-specific end-to-end metrics from the per-kind wall times."""
        return {}


class CliBernoulli(Workload):
    name = "cli-bernoulli"
    kinds = ("simulate", "cs", "audit")
    imports = ("evbet.cli",)
    latency = {"simulate": "simulate_s", "cs": "cs_s", "audit": "audit_s"}
    spawns = True

    SIM_MU, SIM_DIST = 0.5, "bernoulli:0.4"
    CS_MEAN, CS_DIST = 0.3, "bernoulli:0.3"
    AUDIT_MU, AUDIT_DEPTH = 0.5, 3
    AUDIT_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, seed, workdir, sizes=FULL, env=None):
        super().__init__(seed, workdir, sizes, env)
        self.peak_rss_kb = 0
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"
        self.eprocesses = self._write_eprocesses()

    def _write_eprocesses(self, count: int = 2):
        """Coin-bet wealth processes (valid) and the same scaled x1.5 at depth 2."""
        space = SampleSpace(self.AUDIT_POINTS, self.AUDIT_MU)
        lo, hi = bet_bounds(self.AUDIT_MU)
        files = []
        for j in range(count):
            rng = self.setup_rng(j)
            tables = tuple(
                {p: rng.uniform(0.9 * lo, 0.9 * hi) for p in itertools.product(space.points, repeat=t)}
                for t in range(self.AUDIT_DEPTH)
            )
            bet = multiround.MultiRoundCoinBet(self.AUDIT_MU, tables)
            process = multiround.coinbet_eprocess(bet, space)
            for passes, e in ((True, process), (False, process.scale_at(2, 1.5))):
                path = self.workdir / f"eprocess-{j}-{'pass' if passes else 'fail'}.csv"
                with open(path, "w", newline="") as fh:
                    multiround.eprocess_to_csv(e, space, self.AUDIT_DEPTH, fh)
                files.append((path, passes))
        return files

    def eprocess(self, op: Op):
        """The (CSV path, expected verdict) an audit operation uses: pass and fail alternate."""
        return self.eprocesses[(op.index // len(self.kinds)) % len(self.eprocesses)]

    def args(self, op: Op) -> list[str]:
        s = self.sizes
        strategy = f"up:{s.nodes}"
        if op.kind == "simulate":
            return ["simulate", "--mu", str(self.SIM_MU), "--dist", self.SIM_DIST,
                    "--strategy", strategy, "--n", str(s.sim_n), "--seed", str(op.seed),
                    "--out", str(self.workdir / "ledger.csv")]
        if op.kind == "cs":
            return ["cs", "--dist", self.CS_DIST, "--strategy", strategy, "--n", str(s.cs_n),
                    "--grid", str(s.grid), "--seed", str(op.seed), "--running-intersect",
                    "--out", str(self.workdir / "cs.csv"),
                    "--membership", str(self.workdir / "membership.csv")]
        path, _ = self.eprocess(op)
        return ["audit", "--table", str(path), "--mu", str(self.AUDIT_MU),
                "--depth", str(self.AUDIT_DEPTH), "--seed", str(op.seed)]

    def run(self, op):
        cmd = [sys.executable, "-m", "evbet.cli", *self.args(op)]
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
        # Reaped here for its rusage; tell the Popen object so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run_inproc(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(self.args(op), standalone_mode=False)
        self.stdout.write_text(buf.getvalue())
        return 0

    def check(self, op, returncode):
        if returncode != 0:
            tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            return [f"{op.kind} exited {returncode}: {' '.join(tail)}"], {}
        stdout = self.stdout.read_text()
        if op.kind == "simulate":
            return self._check_simulate(json.loads(stdout))
        if op.kind == "cs":
            return self._check_cs()
        return self._check_audit(op, json.loads(stdout))

    def _check_simulate(self, summary):
        path = self.workdir / "ledger.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != self.sizes.sim_n:
            problems.append(f"ledger has {len(rows)} rows, expected {self.sizes.sim_n}")
        lams = np.array([float(r["lambda"]) for r in rows])
        if bets_outside(lams[None, :], [self.SIM_MU]):
            problems.append("ledger bet outside I_mu")
        e_values = [float(r["e_value"]) for r in rows]
        log_wealth = [float(r["log_wealth"]) for r in rows]
        if game.recompute_log_wealth(e_values) != log_wealth:
            problems.append("log_wealth does not recompute from e_value")
        if rows and summary["final_log_wealth"] != log_wealth[-1]:
            problems.append("summary final_log_wealth differs from the last ledger row")
        counts = {"cli.rows_written": len(rows), "cli.bytes_written": path.stat().st_size}
        return problems, counts

    def _check_cs(self):
        n, m = self.sizes.cs_n, self.sizes.grid
        cs_path, mem_path = self.workdir / "cs.csv", self.workdir / "membership.csv"
        hull = np.loadtxt(cs_path, delimiter=",", skiprows=1, ndmin=2)
        mem = np.loadtxt(mem_path, delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if hull.shape != (n, 4) or mem.shape != (n * m, 4):
            return [f"cs outputs have shapes {hull.shape} and {mem.shape}"], {}
        alive = hull[:, 3]
        problems += nested_problems(hull[:, 1], hull[:, 2], alive)
        in_set = mem[:, 3].reshape(n, m)
        if (mem[:, 0] != np.repeat(np.arange(1, n + 1), m)).any():
            problems.append("membership rows are not ordered by round")
        if (in_set.sum(axis=1) != alive).any():
            problems.append("membership in_set sums differ from alive")
        mus = mem[:m, 1]
        covered = bool(in_set[:, np.argmin(np.abs(mus - self.CS_MEAN))].all())
        counts = {
            "cli.rows_written": n + n * m,
            "cli.bytes_written": cs_path.stat().st_size + mem_path.stat().st_size,
            "confseq.sequences": 1,
            "confseq.covered": int(covered),
        }
        return problems, counts

    def _check_audit(self, op, report):
        _, passes = self.eprocess(op)
        if report["pass"] != passes:
            return [f"audit verdict {report['pass']}, expected {passes}"], {}
        if passes != (report["max"] <= 1.0 + 1e-9):
            return [f"audit max {report['max']} contradicts its verdict"], {}
        return [], {}

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


class McGrid(Workload):
    name = "mc-grid"
    kinds = ("cs-replicate", "null-batch")
    imports = ("evbet.confseq", "evbet.game", "evbet.domain")
    latency = {"cs-replicate": "batch_s", "null-batch": "batch_s"}

    DIST, MEAN = "uniform-grid:11", 0.5
    OBJECT_PATH_CANDIDATES = 5

    def __init__(self, seed, workdir, sizes=FULL, env=None):
        super().__init__(seed, workdir, sizes, env)
        self.mu_grid = confseq.default_mu_grid(sizes.grid)
        self.strategy = f"up:{sizes.nodes}"

    def run(self, op):
        s = self.sizes
        dist = domain.parse_distribution(self.DIST)
        if op.kind == "cs-replicate":
            xs = domain.sample_stream(dist, s.rounds, op.seed)
            result = confseq.run_cs_batch(self.mu_grid, xs, self.strategy, DELTA, running_intersect=True)
            return xs, result, result.intervals()
        xs = np.stack(
            [domain.sample_stream(dist, s.rounds, replicate_seed(op.seed, g)) for g in range(s.games)]
        )
        return xs, game.run_games_batch(np.full(s.games, self.MEAN), xs, self.strategy, DELTA)

    def check(self, op, out):
        if op.kind == "cs-replicate":
            _, result, intervals = out
            problems = []
            if bets_outside(result.games.bets, self.mu_grid):
                problems.append("batch bet outside I_mu")
            if (result.in_set[1:] > result.in_set[:-1]).any():
                problems.append("in_set is not nested under running intersection")
            _, lower, upper, alive = np.array(intervals).T
            problems += nested_problems(lower, upper, alive)
            j = int(np.argmin(np.abs(self.mu_grid - self.MEAN)))
            return problems, {"confseq.sequences": 1, "confseq.covered": int(result.in_set[:, j].all())}
        _, batch = out
        problems = ["batch bet outside I_mu"] if bets_outside(batch.bets, np.full(len(batch.bets), self.MEAN)) else []
        return problems, {"game.null_rejections": int(batch.ever_rejected().sum())}

    def extra_metrics(self, samples):
        s = self.sizes
        games = {"cs-replicate": s.grid, "null-batch": s.games}
        rounds = sum(games[k] * s.rounds * len(v) for k, v in samples.items())
        wall = sum(sum(v) for v in samples.values())
        return {"rounds_per_s": {"value": rounds / wall, "unit": "game-rounds/s"}}

    def final_check(self):
        """Compare a few candidates of one replicate against the object path."""
        xs, result, _ = self.run(self.op(0))
        picks = np.linspace(0, len(self.mu_grid) - 1, self.OBJECT_PATH_CANDIDATES).astype(int)
        problems = []
        for j in picks:
            mu = float(self.mu_grid[j])
            ledger = game.run_game(mu, DELTA, UniversalPortfolioStrategy(mu, self.sizes.nodes), xs)
            bets = np.array([r.lam for r in ledger.rows])
            wealth = ledger.log_wealth_series()
            batch_wealth = result.games.log_wealth[j]
            finite = np.isfinite(wealth)
            if (
                np.max(np.abs(bets - result.games.bets[j])) > 1e-9
                or (finite != np.isfinite(batch_wealth)).any()
                or np.max(np.abs(wealth[finite] - batch_wealth[finite]), initial=0.0) > 1e-9
            ):
                problems.append(f"batch and object paths differ at mu={mu}")
        return problems


class Certify(Workload):
    name = "certify"
    kinds = ("single", "t2", "iid")
    imports = ("evbet.evariables", "evbet.multiround", "evbet.iid_case")
    latency = {"single": "certify_s", "t2": "certify_s", "iid": "certify_s"}

    SINGLE = SampleSpace.uniform(21, 0.4)
    T2 = SampleSpace.uniform(5, 0.5)
    IID = SampleSpace(iid_case.GRID, iid_case.MU)
    INVALID_SCALE = 1.05

    def __init__(self, seed, workdir, sizes=FULL, env=None):
        super().__init__(seed, workdir, sizes, env)
        # Blocks of one request per kind and verdict, shuffled within the
        # block, so every prefix of the loop keeps the mix balanced.
        self.pool = []
        for b in range(sizes.requests):
            block = [(kind, valid) for kind in self.kinds for valid in (True, False)]
            for k in self.setup_rng(b).permutation(len(block)):
                rng = self.setup_rng(sizes.requests + len(self.pool))
                self.pool.append(self._request(rng, *block[k]))

    def _request(self, rng, kind, valid):
        if kind == "single":
            space = self.SINGLE
            lo, hi = bet_bounds(space.mu)
            payoff = 1.0 + rng.uniform(0.9 * lo, 0.9 * hi) * (space.as_array() - space.mu)
            values = payoff * rng.uniform(0.8, 1.0, size=len(payoff)) if valid else payoff * self.INVALID_SCALE
            return kind, valid, evariables.TabulatedEVariable(space, tuple(values))
        space = self.T2 if kind == "t2" else self.IID
        n = len(space.points)
        factors = rng.uniform(0.8, 1.0, size=(n, n)) if valid else self.INVALID_SCALE
        return kind, valid, coinbet_table(rng, space.points, space.mu, factors)

    def op(self, i):
        kind, _, _ = self.pool[i % len(self.pool)]
        return Op(i, kind, replicate_seed(self.seed, i))

    def run(self, op):
        _, _, table = self.pool[op.index % len(self.pool)]
        if op.kind == "single":
            report = evariables.check_evariable(table)
            return report, evariables.beta_interval(table) if report.valid else None
        if op.kind == "t2":
            return multiround.dominate_T2(table, self.T2)
        stats = iid_case.xi_stats(table)
        return iid_case.check_iid_closed_form(stats), iid_case.check_iid_bruteforce(stats)

    def check(self, op, out):
        _, valid, table = self.pool[op.index % len(self.pool)]
        if op.kind == "single":
            return self._check_single(valid, table, *out), {}
        if op.kind == "t2":
            return self._check_t2(valid, table, out), {}
        closed, brute = out
        if closed != (brute.max_expectation <= 1.0 + 1e-9):
            return ["closed-form and brute-force i.i.d. verdicts differ"], {}
        return ([] if closed == valid else [f"i.i.d. verdict {closed}, expected {valid}"]), {}

    def _check_single(self, valid, table, report, cert):
        space = table.space
        x, v, mu = space.as_array(), table.as_array(), space.mu
        if valid:
            if not report.valid:
                return ["valid single-round table refuted"]
            lo, hi = bet_bounds(mu)
            lam = cert.lambda_hat
            if not lo <= lam <= hi or (1.0 + lam * (x - mu) < v - 1e-9).any():
                return ["certificate does not majorise the table"]
            return []
        if report.valid:
            return ["invalid single-round table certified"]
        w = report.witness
        ea, eb = v[space.points.index(w.a)], v[space.points.index(w.b)]
        weight = 1.0 if w.a == w.b else (w.b - mu) / (w.b - w.a)
        if weight * ea + (1.0 - weight) * eb <= 1.0:
            return ["single-round witness expectation is not above 1"]
        return []

    def _check_t2(self, valid, table, result):
        pts = self.T2.points
        if valid:
            if not result.certified:
                return ["valid two-round table refuted"]
            dominated = all(
                result.coinbet.value((x, y)) >= table[i, j] - 1e-9
                for i, x in enumerate(pts)
                for j, y in enumerate(pts)
            )
            return [] if dominated else ["two-round coin-bet does not majorise the table"]
        if result.certified:
            return ["invalid two-round table certified"]
        cells = {(x, y): table[i, j] for i, x in enumerate(pts) for j, y in enumerate(pts)}
        payoff = [None, None, lambda prefix: cells[prefix]]
        value = multiround.tree_expectation(result.refutation.tree, multiround.full_mask(2), payoff)
        return [] if value > 1.0 else ["two-round refutation expectation is not above 1"]


WORKLOADS = {w.name: w for w in (CliBernoulli, McGrid, Certify)}
