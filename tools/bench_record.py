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
metric. A seed pair is a change record and the latest parent record of the
same seed written before it, so a seed reused by a later change pairs with
that change's own parent runs. A tie wins for neither side.

For each metric of each change it then applies the claim rule: the pairs won
out of n and whether that is at least 9 in 10; the gap between the parent's
and the change's median over those pairs (positive when the change is
better) against the distance between the parent's quartiles; and whether the
change's median stays within the metric's bound, read from the ``better``
and ``bound`` of ``BENCHMARK.json``'s ``end_to_end`` list. Next to
``peak_rss_mb`` it prints the ratio of the change's operations attempted to
the parent's over those pairs: on the in-process workloads peak RSS grows
with the operations a run completes, so a reader can tell an RSS move that
more operations caused from one the program caused. Last, it prints each
side's share of failed operations over those pairs (failed over attempted,
summed) and flags a change whose share is above its parent's, which the
acceptance rule rejects.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
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


def read_bounds(path: Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics of ``BENCHMARK.json``."""
    with open(path) as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def seed_pairs(rows: list[dict]) -> dict[tuple[str, str], list[tuple[dict, dict]]]:
    """``(parent, change)`` record pairs per (change commit, parent commit), in file order.

    Each change record pairs with the latest parent record of its seed
    written before it; a change record with no such parent is left out.
    """
    latest_parent: dict[int, dict] = {}
    pairs: dict[tuple[str, str], list[tuple[dict, dict]]] = {}
    for row in rows:
        if row["side"] == "parent":
            latest_parent[row["seed"]] = row
        elif row["seed"] in latest_parent:
            parent = latest_parent[row["seed"]]
            pairs.setdefault((row["commit"], parent["commit"]), []).append((parent, row))
    return pairs


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _sign(better: str) -> float:
    """+1 where lower is better, -1 where higher is: a signed gap is positive when the change is better."""
    return 1.0 if better == "lower" else -1.0


def won(matched: list[tuple[dict, dict]], name: str, better: str) -> int:
    """Seed pairs in which the change beats the parent on ``name``; a tie wins for neither."""
    return sum(_sign(better) * (p[name] - c[name]) > 0 for p, c in matched)


def claim_line(name: str, matched: list[tuple[dict, dict]], better: str, bound: float) -> str:
    """The claim rule on one metric over the seed pairs ``matched``."""
    parent = [p[name] for p, _ in matched]
    p_med = statistics.median(parent)
    gap = _sign(better) * (p_med - statistics.median(c[name] for _, c in matched))
    n, wins = len(matched), won(matched, name, better)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = f"{q3 - q1:.4g}: {_yes(gap > q3 - q1)}"
    else:
        spread = "n/a (one pair)"
    return (
        f"    {name}: won {wins}/{n}, at least 9/10: {_yes(10 * wins >= 9 * n)};"
        f" median gap {gap:.4g} > parent quartile spread {spread};"
        f" within the {bound:.0%} bound: {_yes(-gap <= bound * abs(p_med))}"
    )


def attempted_ratio(matched: list[tuple[dict, dict]]) -> str:
    """The change's operations attempted over the parent's, summed over the seed pairs ``matched``."""
    parent, change = (sum(pair[i]["attempted"] for pair in matched) for i in range(2))
    return f"{change / parent:.4g}" if parent else "n/a"


def failed_line(matched: list[tuple[dict, dict]]) -> str:
    """Each side's failed/attempted share over the seed pairs ``matched``, flagging a rise."""
    shares = {}
    for i, side in enumerate(SIDES):
        failed = sum(pair[i]["failed"] for pair in matched)
        attempted = sum(pair[i]["attempted"] for pair in matched)
        shares[side] = (failed, attempted, failed / attempted if attempted else 0.0)
    listed = ", ".join(f"{side} {f}/{a} = {share:.4g}" for side, (f, a, share) in shares.items())
    rose = shares["change"][2] > shares["parent"][2]
    return f"    failed share: {listed}; above the parent's: {_yes(rose)}"


def summarize(rows: list[dict], bounds: dict[str, tuple[str, float]]) -> list[str]:
    """Per-(commit, side) medians and quartiles of ``rows``, then each change's seed pairs and claim rule."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["commit"], row["side"]), []).append(row)
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
    for (change, parent), matched in seed_pairs(rows).items():
        wins = "  ".join(f"{name} {won(matched, name, bounds[name][0])}" for name in METRICS)
        lines.append(f"  {change} against {parent}: {len(matched)} seed pair(s), won {wins}")
        for name in METRICS:
            line = claim_line(name, matched, *bounds[name])
            if name == "peak_rss_mb":
                line += f"; attempted change/parent: {attempted_ratio(matched)}"
            lines.append(line)
        lines.append(failed_line(matched))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--commit", required=True, help="the commit the results were measured on")
    parser.add_argument("--side", required=True, choices=SIDES)
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        bounds = read_bounds()
        added = record(args.results, args.commit, args.side, ROOT)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_record: {exc!r}", file=sys.stderr)
        return 2
    for workload, count in added.items():
        target = ROOT / f"BENCH_{workload}.json"
        print(f"{target.name}: {count} record(s) added")
        print("\n".join(summarize(json.loads(target.read_text()), bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
