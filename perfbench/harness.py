"""Measurement loops, statistics and metric definitions of the benchmark.

An untraced run (``--trace 0``) gives the end-to-end metrics: operations run
the way a user runs them, with nothing patched. A traced run (``--trace 1``)
gives the per-layer split: each operation runs in this process twice, once
plain and once inside a traced operation with the wrappers of ``tracing``
installed, alternating which goes first; the ratio of the two is the tracing
overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict

import numpy as np

import evbet
from evbet import kernels
from tracing import Tracer, install
from workloads import FULL, WORKLOADS, Sizes, Workload

# Metrics of BENCHMARK.json's end_to_end list, printed by every untraced run.
# op_s averages, over the workload's operation kinds, each kind's mean wall
# time, so every kind weighs once whatever its share of the samples. It is a
# mean, not a median: on a shared machine one operation's wall time swings by
# a fifth within a run, and the mean of a run's samples is the steadier
# estimate. Medians and tails per kind are in the report.
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: unit, better, the end-to-end metric the
# layer should move, and the workload it should move it on. Times and counts
# are per traced operation of the workload.
PER_LAYER = {
    "import.numpy_s": ("s", "lower", "setup_s, cs_s, simulate_s, audit_s; not batch_s", "cli-bernoulli"),
    "import.click_s": ("s", "lower", "setup_s, cs_s, simulate_s, audit_s", "cli-bernoulli"),
    "import.evbet_s": ("s", "lower", "setup_s, cs_s, simulate_s, audit_s", "cli-bernoulli"),
    "cli.self_s": ("s/op", "lower", "cs_s, simulate_s, peak_rss_mb", "cli-bernoulli"),
    "cli.rows_written": ("rows/op", "lower", "cs_s, simulate_s", "cli-bernoulli"),
    "cli.bytes_written": ("B/op", "lower", "cs_s, simulate_s", "cli-bernoulli"),
    "domain.parse_s": ("s/op", "lower", "cs_s, batch_s (small)", "cli-bernoulli, mc-grid"),
    "domain.sample_s": ("s/op", "lower", "cs_s, batch_s (small)", "cli-bernoulli, mc-grid"),
    "domain.draws": ("count/op", "lower", "cs_s, batch_s (small)", "cli-bernoulli, mc-grid"),
    "domain.binary_stream_share": ("ratio", "higher", "whether a binary-data shortcut applies", "1 on cli-bernoulli, 0 on mc-grid"),
    "betting.up_update_s": ("s/op", "lower", "simulate_s", "cli-bernoulli"),
    "betting.up_bet_s": ("s/op", "lower", "simulate_s", "cli-bernoulli"),
    "betting.calls": ("count/op", "lower", "simulate_s", "cli-bernoulli"),
    "kernels.up_game_batch_s": ("s/op", "lower", "batch_s, rounds_per_s; cs_s", "mc-grid; cli-bernoulli"),
    "kernels.node_updates": ("count/op", "lower", "batch_s, rounds_per_s; cs_s", "mc-grid; cli-bernoulli"),
    "kernels.node_updates_per_s": ("1/s", "higher", "batch_s, rounds_per_s; cs_s", "mc-grid; cli-bernoulli"),
    "kernels.bytes_computed": ("B/op", "lower", "batch_s, rounds_per_s; cs_s", "mc-grid; cli-bernoulli"),
    "game.run_game_self_s": ("s/op", "lower", "simulate_s", "cli-bernoulli"),
    "game.run_games_batch_self_s": ("s/op", "lower", "batch_s", "mc-grid"),
    "game.rounds": ("count/op", "lower", "simulate_s, batch_s", "cli-bernoulli, mc-grid"),
    "game.null_rejections": ("count/op", "lower", "none (type-I errors of null-batch)", "mc-grid"),
    "confseq.run_cs_batch_self_s": ("s/op", "lower", "cs_s, batch_s, peak_rss_mb", "cli-bernoulli, mc-grid"),
    "confseq.intervals_s": ("s/op", "lower", "cs_s, batch_s", "cli-bernoulli, mc-grid"),
    "confseq.coverage": ("ratio", "higher", "none (correctness of the sequences)", "cli-bernoulli, mc-grid"),
    "evariables.check_s": ("s/op", "lower", "certify_s", "certify"),
    "evariables.checks": ("count/op", "lower", "certify_s", "certify"),
    "evariables.valid_ratio": ("ratio", "higher", "certify_s (certify and refute paths)", "certify"),
    "evariables.beta_interval_s": ("s/op", "lower", "certify_s", "certify"),
    "multiround.eprocess_load_s": ("s/op", "lower", "audit_s", "cli-bernoulli"),
    "multiround.audit_s": ("s/op", "lower", "audit_s", "cli-bernoulli"),
    "multiround.trees": ("count/op", "higher", "audit_s", "cli-bernoulli"),
    "multiround.trees_per_s": ("1/s", "higher", "audit_s", "cli-bernoulli"),
    "multiround.exhaustive_share": ("ratio", "higher", "audit_s", "cli-bernoulli"),
    "multiround.dominate_T2_s": ("s/op", "lower", "certify_s", "certify"),
    "multiround.certified_ratio": ("ratio", "higher", "certify_s", "certify"),
    "iid_case.check_s": ("s/op", "lower", "certify_s", "certify"),
    "iid_case.checks": ("count/op", "lower", "certify_s", "certify"),
    "machine.ref_s": ("s", "lower", "nothing: machine drift diagnostic", "all"),
    "trace.overhead_ratio": ("ratio", "lower", "nothing: tracing cost diagnostic", "all"),
}

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
MAX_PROBLEMS = 20
MAX_WALLS = 1000  # per-operation wall times kept in the results file, per kind


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    pct = max((p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10), default=50.0)
    return float(np.percentile(samples, pct)), pct


def machine_ref(repeats: int = 3) -> float:
    """Fixed numpy and pure-Python work; reported, never used to normalise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        np.sort(np.random.default_rng(0).random(200_000))
        best = min(best, time.perf_counter() - start)
    return best


def setup_times(modules, env) -> list[float]:
    """Wall times of fresh interpreters importing ``modules``, after one warm-up."""
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]


def import_split(modules, env) -> dict[str, float]:
    """numpy, click and evbet's own share of import time, from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(modules)]
    runs = []
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stderr
        cumulative, top_evbet = {}, 0.0
        for line in err.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or not fields[1].strip().isdigit():
                continue
            seconds, name = int(fields[1]) * 1e-6, fields[2][1:]
            cumulative.setdefault(name.strip(), seconds)
            if name.startswith("evbet"):  # not indented: imported at top level
                top_evbet += seconds
        numpy_s, click_s = cumulative.get("numpy", 0.0), cumulative.get("click", 0.0)
        runs.append((numpy_s, click_s, max(top_evbet - numpy_s - click_s, 0.0)))
    numpy_s, click_s, evbet_s = np.median(runs, axis=0)
    return {"numpy": float(numpy_s), "click": float(click_s), "evbet": float(evbet_s)}


def manifest(w: Workload, seconds: int, traced: bool) -> dict:
    return {
        "evbet_version": evbet.__version__,
        "backend": kernels.BACKEND,
        "kernel_threads": kernels.n_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": w.name,
        "seed": w.seed,
        "seconds": seconds,
        "trace": int(traced),
        "sizes": asdict(w.sizes),
        "evbet_env": "EVBET_* unset: default backend selection",
    }


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def execute(w: Workload, op, run, tally: Tally):
    """Run one operation through ``run``, check it; returns (wall, counts)."""
    start = time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # a raising operation is a failed one; keep measuring
        tally.add([f"{op.kind}#{op.index}: {type(exc).__name__}: {exc}"])
        return time.perf_counter() - start, {}
    wall = time.perf_counter() - start
    try:
        problems, counts = w.check(op, out)
    except Exception as exc:  # an output the checker cannot read is wrong
        problems, counts = [f"{op.kind}#{op.index}: unreadable output: {type(exc).__name__}: {exc}"], {}
    tally.add([f"{op.kind}#{op.index}: {p}" for p in problems])
    return wall, counts


def warm_up(w: Workload, run, tally: Tally) -> int:
    """One operation of each kind, so lazy set-up and caches are done; returns next index."""
    seen, i = set(), 0
    while len(seen) < len(w.kinds):
        op = w.op(i)
        if op.kind not in seen:
            execute(w, op, run, tally)
            seen.add(op.kind)
        i += 1
    return i


def final_check(w: Workload, tally: Tally):
    """The workload's once-per-run check, counted as one more operation."""
    try:
        problems = w.final_check()
    except Exception as exc:
        problems = [f"final check: {type(exc).__name__}: {exc}"]
    if problems is not None:
        tally.add(problems)


def run_untraced(w: Workload, seconds: float):
    ref_start = machine_ref()
    setup = setup_times(w.imports, w.env)
    tally = Tally()
    i = 0 if w.spawns else warm_up(w, w.run, tally)
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < len(w.kinds):
        op = w.op(i)
        wall, _ = execute(w, op, w.run, tally)
        samples[op.kind].append(wall)
        i += 1
    final_check(w, tally)
    ref_end = machine_ref()

    peak_mb = w.peak_rss_mb() if w.spawns else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": float(np.median(setup)),
        "op_s": float(np.mean([np.mean(v) for v in samples.values()])),
        "peak_rss_mb": peak_mb,
    }
    report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    pooled = defaultdict(list)
    for kind, walls in samples.items():
        pooled[w.latency[kind]].extend(walls)
    for name, walls in pooled.items():
        value, pct = tail(walls)
        report[name] = {"value": float(np.median(walls)), "unit": "s", "samples": len(walls)}
        report[name + ".tail"] = {"value": value, "unit": "s", "percentile": pct, "samples": len(walls)}
    report.update(w.extra_metrics(samples))
    report["failed_ratio"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    detail = {
        "metrics": report,
        "setup_s_samples": setup,
        "op_kinds": {
            k: {"samples": len(v), "mean_s": float(np.mean(v)), "median_s": float(np.median(v)), "walls_s": v[:MAX_WALLS]}
            for k, v in samples.items()
        },
        "machine.ref_s": {"start": ref_start, "end": ref_end},
    }
    return tally, values, detail, []


def layer_values(t: Tracer, ops: int, imports: dict, ref_s: float, overhead: float) -> dict:
    s, c, n = t.self_s, t.counts, t.calls

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_s, audit_s = s["kernels.up_game_batch"], s["multiround.audit_eprocess"]
    iid_s = s["iid_case.xi_stats"] + s["iid_case.check_iid_closed_form"] + s["iid_case.check_iid_bruteforce"]
    return {
        "import.numpy_s": imports["numpy"],
        "import.click_s": imports["click"],
        "import.evbet_s": imports["evbet"],
        "cli.self_s": per_op(s["cli.main"]),
        "cli.rows_written": per_op(c["cli.rows_written"]),
        "cli.bytes_written": per_op(c["cli.bytes_written"]),
        "domain.parse_s": per_op(s["domain.parse_distribution"]),
        "domain.sample_s": per_op(s["domain.sample_stream"]),
        "domain.draws": per_op(c["domain.draws"]),
        "domain.binary_stream_share": ratio(c["domain.binary_streams"], c["domain.streams"]),
        "betting.up_update_s": per_op(s["betting.up_update"]),
        "betting.up_bet_s": per_op(s["betting.up_bet"]),
        "betting.calls": per_op(n["betting.up_update"] + n["betting.up_bet"]),
        "kernels.up_game_batch_s": per_op(kernel_s),
        "kernels.node_updates": per_op(c["kernels.node_updates"]),
        "kernels.node_updates_per_s": ratio(c["kernels.node_updates"], kernel_s),
        # Computed from array sizes, not measured: one float64 weight and one
        # float64 node value per node-update.
        "kernels.bytes_computed": per_op(16 * c["kernels.node_updates"]),
        "game.run_game_self_s": per_op(s["game.run_game"]),
        "game.run_games_batch_self_s": per_op(s["game.run_games_batch"]),
        "game.rounds": per_op(c["game.rounds"]),
        "game.null_rejections": per_op(c["game.null_rejections"]),
        "confseq.run_cs_batch_self_s": per_op(s["confseq.run_cs_batch"]),
        "confseq.intervals_s": per_op(s["confseq.intervals"]),
        "confseq.coverage": ratio(c["confseq.covered"], c["confseq.sequences"]),
        "evariables.check_s": per_op(s["evariables.check_evariable"]),
        "evariables.checks": per_op(c["evariables.checks"]),
        "evariables.valid_ratio": ratio(c["evariables.valid"], c["evariables.checks"]),
        "evariables.beta_interval_s": per_op(s["evariables.beta_interval"]),
        "multiround.eprocess_load_s": per_op(s["multiround.eprocess_from_csv"]),
        "multiround.audit_s": per_op(audit_s),
        "multiround.trees": per_op(c["multiround.trees"]),
        "multiround.trees_per_s": ratio(c["multiround.trees"], audit_s),
        "multiround.exhaustive_share": ratio(c["multiround.exhaustive_trees"], c["multiround.trees"]),
        "multiround.dominate_T2_s": per_op(s["multiround.dominate_T2"]),
        "multiround.certified_ratio": ratio(c["multiround.certified"], c["multiround.t2_calls"]),
        "iid_case.check_s": per_op(iid_s),
        "iid_case.checks": per_op(c["iid_case.checks"]),
        "machine.ref_s": ref_s,
        "trace.overhead_ratio": overhead,
    }


def run_traced(w: Workload, seconds: float):
    ref_start = machine_ref()
    imports = import_split(w.imports, w.env)
    tracer, tally = Tracer(), Tally()
    i = warm_up(w, w.run_inproc, tally)

    def traced(op):
        errors = len(tracer.sum_errors)
        out = tracer.operation(op.index, op.kind, lambda: w.run_inproc(op))
        if len(tracer.sum_errors) > errors:
            raise RuntimeError(tracer.sum_errors[-1])
        return out

    walls = {"plain": 0.0, "traced": 0.0}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(tracer.kind_ops) < len(w.kinds):
        op = w.op(i)
        for mode in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if mode == "plain":
                walls[mode] += execute(w, op, w.run_inproc, tally)[0]
                continue
            restore = install(tracer)
            try:
                wall, counts = execute(w, op, traced, tally)
            finally:
                restore()
            walls[mode] += wall
            tracer.counts.update(counts)
        i += 1
    final_check(w, tally)
    ref_end = machine_ref()

    ops = sum(tracer.kind_ops.values())
    values = layer_values(tracer, ops, imports, (ref_start + ref_end) / 2, walls["traced"] / walls["plain"])
    report = {
        "traced_ops": dict(tracer.kind_ops),
        "split_s_per_op": {
            kind: {name: t / tracer.kind_ops[kind] for name, t in sorted(spans.items())}
            for kind, spans in tracer.kind_self_s.items()
        },
        "import_s": imports,
        "machine.ref_s": {"start": ref_start, "end": ref_end},
        "failed_ratio": tally.failed / tally.attempted,
    }
    return tally, values, report, tracer.kept_spans()


def run(name: str, seed: int, seconds: float, traced: bool, workdir, env, sizes: Sizes = FULL):
    """Run one workload; returns (manifest and report, spans, final result line)."""
    w = WORKLOADS[name](seed, workdir, sizes, env)
    if traced:
        tally, values, report, spans = run_traced(w, seconds)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        tally, values, report, spans = run_untraced(w, seconds)
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    summary = {"manifest": manifest(w, seconds, traced), "report": report, "problems": tally.problems}
    return summary, spans, result
