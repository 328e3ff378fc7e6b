#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every run prints exactly the metrics BENCHMARK.json names, with
their units, and no failure on the program as it is; that a deliberately
corrupted output of each workload is counted as failed; and that the
benchmark exits non-zero without a result when the package source is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SECONDS = 0.5
# The property a binary-data shortcut depends on: every stream binary on the
# CLI workload, none on the Monte Carlo one.
BINARY_SHARE = {"cli-bernoulli": 1.0, "mc-grid": 0.0}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_definitions(bench, harness):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(e2e == harness.END_TO_END, f"end_to_end differs from the harness: {e2e}")
    expect(layer == {k: v[:2] for k, v in harness.PER_LAYER.items()}, "per_layer differs from the harness")
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(run.WORKLOAD_NAMES) == list(harness.WORKLOADS), "workload names differ")


def run_tiny(harness, workloads, name, traced):
    workdir = Path(tempfile.mkdtemp(prefix=".work-selftest-", dir=run.HERE))
    try:
        return harness.run(name, 7, SECONDS, traced, workdir, run.child_env(), workloads.TINY)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_clean_runs(bench, harness, workloads):
    for name in run.WORKLOAD_NAMES:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            summary, _, result = run_tiny(harness, workloads, name, traced)
            label = f"{name} trace={int(traced)}"
            expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{label}: {summary['problems']}")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            for k, v in result["metrics"].items():
                expect(math.isfinite(v["value"]), f"{label}: {k} = {v['value']}")
            json.dumps(result, allow_nan=False)
            if traced and name in BINARY_SHARE:
                share = result["metrics"]["domain.binary_stream_share"]["value"]
                expect(share == BINARY_SHARE[name], f"{label}: binary stream share {share}")
            print(f"selftest: {label} ok, {result['attempted']} operations")


def corrupt_ledger(w, op, out):
    """Perturb one bet of the simulate ledger out of I_mu."""
    if op.kind == "simulate" and out == 0:
        path = w.workdir / "ledger.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "5.0"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return out


def corrupt_bets(w, op, out):
    games = out[1].games if op.kind == "cs-replicate" else out[1]
    games.bets[0, -1] = 1e3
    return out


def corrupt_verdict(w, op, out):
    if op.kind == "iid":
        closed, brute = out
        return not closed, brute
    return out


CORRUPTIONS = {"cli-bernoulli": ("simulate", corrupt_ledger), "mc-grid": (None, corrupt_bets), "certify": ("iid", corrupt_verdict)}


def check_corruption(harness, workloads):
    for name, (kind, corrupt) in CORRUPTIONS.items():
        base = workloads.WORKLOADS[name]

        class Corrupted(base):
            def run(self, op):
                return corrupt(self, op, super().run(op))

        workloads.WORKLOADS[name] = Corrupted
        try:
            summary, _, result = run_tiny(harness, workloads, name, False)
        finally:
            workloads.WORKLOADS[name] = base
        ratio = summary["report"]["metrics"]["failed_ratio"]["value"]
        expect(not result["correct"] and result["failed"] > 0 and ratio > 0, f"{name}: corruption not counted")
        counted = summary["report"]["op_kinds"]
        corrupted = sum(v["samples"] for k, v in counted.items() if kind in (None, k))
        expect(result["failed"] >= corrupted, f"{name}: {result['failed']} failed of {corrupted} corrupted")
        print(f"selftest: {name} corruption counted, failed_ratio {ratio:.3f}")


def check_missing_program():
    """Only BENCHMARK.json and the benchmark directory: exit non-zero, no result."""
    bare = Path(tempfile.mkdtemp(prefix=".work-selftest-bare-", dir=run.HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".work-*", "results", "__pycache__"))
        cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), f"bare checkout: exit {proc.returncode}, {proc.stdout!r}")
    print("selftest: bare checkout exits", proc.returncode, "without a result")


def main():
    run.load_program()
    import harness
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_definitions(bench, harness)
    check_clean_runs(bench, harness, workloads)
    check_corruption(harness, workloads)
    check_missing_program()
    print("selftest: ok")


if __name__ == "__main__":
    main()
