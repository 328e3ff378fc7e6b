#!/usr/bin/env python3
"""Benchmark of evbet: the CLI, Monte Carlo batches and certification requests.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload cli-bernoulli --seed 1 --seconds 30 --trace 0

Workloads: ``cli-bernoulli``, ``mc-grid``, ``certify`` (see workloads.py).
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
split. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run manifest and the full report, which is also written, with the
spans of a traced run, to ``perfbench/results/``. Exits 2 without a result
when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-bernoulli", "mc-grid", "certify")


def child_env() -> dict:
    """Environment of child interpreters: this one's (after ``load_program``), src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_program() -> None:
    """Import evbet from this checkout's ``src``, with the default backend selection."""
    if not (SRC / "evbet" / "__init__.py").is_file():
        raise ImportError(f"no evbet package under {SRC}")
    for key in [k for k in os.environ if k.startswith("EVBET_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import evbet

    if Path(evbet.__file__).resolve().parent != SRC / "evbet":
        raise ImportError(f"evbet imported from {evbet.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import harness

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        summary, spans, result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, child_env()
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump({**summary, "result": result, "spans": spans}, fh)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
