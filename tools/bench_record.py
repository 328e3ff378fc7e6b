#!/usr/bin/env python3
"""Append benchmark results to the committed trajectory ``BENCH_<workload>.json``.

Each untraced result file that ``perfbench/run.py`` writes
(``perfbench/results/<workload>-seed<n>-trace0.json``) becomes one record,

    {commit, side, seed, op_s, setup_s, peak_rss_mb, failed, attempted},

appended to ``BENCH_<workload>.json`` at the repository root, a JSON list with
one record per line. ``side`` says which commit of a parent/change pair ran:

    python3 tools/bench_record.py --commit abc1234 --side change \\
        perfbench/results/mc-grid-seed801-trace0.json ...

It then prints, for each workload it appended to, the median of each metric
per (commit, side) over the whole trajectory, with the first and third
quartiles (``statistics.quantiles``, ``n=4``) of every group of two or more
runs, and for each change commit how many of its seed pairs it won on each
metric. A seed pair is the parent and the change record of one seed; every
metric is better lower, and a tie wins for neither side.
"""

from __future__ import annotations

import argparse
import json
import statistics
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


def summarize(rows: list[dict]) -> list[str]:
    """Lines of per-(commit, side) medians and quartiles and per-change seed-pair wins of ``rows``."""
    groups: dict[tuple[str, str], list[dict]] = {}
    pairs: dict[int, dict[str, dict]] = {}
    for row in rows:
        groups.setdefault((row["commit"], row["side"]), []).append(row)
        pairs.setdefault(row["seed"], {})[row["side"]] = row  # the last record of each side
    lines = []
    for (commit, side), group in groups.items():
        medians = "  ".join(f"{name} {statistics.median(r[name] for r in group):.4g}" for name in METRICS)
        line = f"  {commit} {side}: {len(group)} run(s), medians {medians}"
        if len(group) >= 2:
            quartiles = []
            for name in METRICS:
                q1, _, q3 = statistics.quantiles([r[name] for r in group], n=4)
                quartiles.append(f"{name} {q1:.4g}..{q3:.4g}")
            line += ", quartiles " + "  ".join(quartiles)
        lines.append(line)
    won: dict[tuple[str, str], list[tuple[dict, dict]]] = {}
    for sides in pairs.values():
        if len(sides) == 2:
            won.setdefault((sides["change"]["commit"], sides["parent"]["commit"]), []).append(
                (sides["parent"], sides["change"])
            )
    for (change, parent), matched in won.items():
        wins = "  ".join(f"{name} {sum(c[name] < p[name] for p, c in matched)}" for name in METRICS)
        lines.append(f"  {change} against {parent}: {len(matched)} seed pair(s), won {wins}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--commit", required=True, help="the commit the results were measured on")
    parser.add_argument("--side", required=True, choices=SIDES)
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        added = record(args.results, args.commit, args.side, ROOT)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_record: {exc!r}", file=sys.stderr)
        return 2
    for workload, count in added.items():
        target = ROOT / f"BENCH_{workload}.json"
        print(f"{target.name}: {count} record(s) added")
        print("\n".join(summarize(json.loads(target.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
