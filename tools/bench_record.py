#!/usr/bin/env python3
"""Append benchmark results to the committed trajectory ``BENCH_<workload>.json``.

Each untraced result file that ``perfbench/run.py`` writes
(``perfbench/results/<workload>-seed<n>-trace0.json``) becomes one record,

    {commit, side, seed, op_s, setup_s, peak_rss_mb, failed, attempted},

appended to ``BENCH_<workload>.json`` at the repository root, a JSON list with
one record per line. ``side`` says which commit of a parent/change pair ran:

    python3 tools/bench_record.py --commit abc1234 --side change \\
        perfbench/results/mc-grid-seed801-trace0.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
METRICS = ("op_s", "setup_s", "peak_rss_mb")


def read_record(path: Path, commit: str, side: str) -> tuple[str, dict]:
    """The workload and the trajectory record of one untraced result file."""
    with open(path) as fh:
        run = json.load(fh)
    manifest, result = run["manifest"], run["result"]
    if manifest["trace"] != 0:
        raise ValueError(f"{path}: a traced run; its timings include the tracing")
    record = {"commit": commit, "side": side, "seed": manifest["seed"]}
    record.update({name: result["metrics"][name]["value"] for name in METRICS})
    record.update(failed=result["failed"], attempted=result["attempted"])
    return manifest["workload"], record


def record(paths, commit: str, side: str, out_dir: Path = ROOT) -> dict[str, int]:
    """Append one record per result file; returns the records added per workload."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    added: dict[str, list[dict]] = {}
    for path in paths:  # read every file before writing any
        workload, entry = read_record(Path(path), commit, side)
        added.setdefault(workload, []).append(entry)
    for workload, entries in added.items():
        target = Path(out_dir) / f"BENCH_{workload}.json"
        rows = json.loads(target.read_text()) if target.exists() else []
        rows += entries
        target.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    return {workload: len(entries) for workload, entries in added.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--commit", required=True, help="the commit the results were measured on")
    parser.add_argument("--side", required=True, choices=SIDES)
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        added = record(args.results, args.commit, args.side)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_record: {exc!r}", file=sys.stderr)
        return 2
    for workload, count in added.items():
        print(f"BENCH_{workload}.json: {count} record(s) added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
