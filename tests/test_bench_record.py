import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "mc-grid-seed7-trace0.json"

spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

EXPECTED = {
    "commit": "abc1234",
    "side": "parent",
    "seed": 7,
    "op_s": 0.14094969902776533,
    "setup_s": 0.20457916800114617,
    "peak_rss_mb": 42.96875,
    "failed": 0,
    "attempted": 39,
}


def test_appends_one_record_per_result(tmp_path):
    assert bench_record.record([FIXTURE], "abc1234", "parent", tmp_path) == {"mc-grid": 1}
    bench_record.record([FIXTURE, FIXTURE], "def5678", "change", tmp_path)
    rows = json.loads((tmp_path / "BENCH_mc-grid.json").read_text())
    assert rows[0] == EXPECTED
    assert rows[1:] == 2 * [{**EXPECTED, "commit": "def5678", "side": "change"}]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_mc-grid.json"]


def test_rejects_traced_runs_and_unknown_sides(tmp_path):
    traced = tmp_path / "mc-grid-seed7-trace1.json"
    run = json.loads(FIXTURE.read_text())
    run["manifest"]["trace"] = 1
    traced.write_text(json.dumps(run))
    with pytest.raises(ValueError, match="traced"):
        bench_record.record([FIXTURE, traced], "abc1234", "change", tmp_path)
    with pytest.raises(ValueError, match="side"):
        bench_record.record([FIXTURE], "abc1234", "baseline", tmp_path)
    assert not list(tmp_path.glob("BENCH_*"))  # nothing written when any file is bad


def test_command_line_reports_bad_input(capsys):
    assert bench_record.main(["--commit", "abc1234", "--side", "change", str(FIXTURE.with_name("missing.json"))]) == 2
    assert "bench_record:" in capsys.readouterr().err


def result_file(tmp_path, seed, op_s):
    """The fixture with its seed and ``op_s`` replaced, written under ``tmp_path``."""
    run = json.loads(FIXTURE.read_text())
    run["manifest"]["seed"] = seed
    run["result"]["metrics"]["op_s"]["value"] = op_s
    path = tmp_path / f"mc-grid-seed{seed}-op{op_s}-trace0.json"
    path.write_text(json.dumps(run))
    return str(path)


def test_prints_medians_and_seed_pair_wins(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    parent = [result_file(tmp_path, 1, 0.2), result_file(tmp_path, 2, 0.4)]
    change = [result_file(tmp_path, 1, 0.1), result_file(tmp_path, 2, 0.4)]  # a win and a tie
    assert bench_record.main(["--commit", "abc1234", "--side", "parent", *parent]) == 0
    capsys.readouterr()
    assert bench_record.main(["--commit", "def5678", "--side", "change", *change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_mc-grid.json: 2 record(s) added",
        "  abc1234 parent: 2 run(s), medians op_s 0.3  setup_s 0.2046  peak_rss_mb 42.97,"
        " quartiles op_s 0.15..0.45  setup_s 0.2046..0.2046  peak_rss_mb 42.97..42.97",
        "  def5678 change: 2 run(s), medians op_s 0.25  setup_s 0.2046  peak_rss_mb 42.97,"
        " quartiles op_s 0.025..0.475  setup_s 0.2046..0.2046  peak_rss_mb 42.97..42.97",
        "  def5678 against abc1234: 2 seed pair(s), won op_s 1  setup_s 0  peak_rss_mb 0",
        "    op_s: won 1/2, at least 9/10: no; median gap 0.05 > parent quartile spread 0.3: no;"
        " within the 25% bound: yes",
        "    setup_s: won 0/2, at least 9/10: no; median gap 0 > parent quartile spread 0: no;"
        " within the 25% bound: yes",
        "    peak_rss_mb: won 0/2, at least 9/10: no; median gap 0 > parent quartile spread 0: no;"
        " within the 10% bound: yes; attempted change/parent: 1",
        "    failed share: parent 0/78 = 0, change 0/78 = 0; above the parent's: no",
    ]


def records(commit, side, op_s_by_seed):
    """Trajectory records of one side: the fixture's metrics with the given ``op_s``."""
    base = {k: v for k, v in EXPECTED.items() if k not in ("commit", "side", "seed", "op_s")}
    return [
        {"commit": commit, "side": side, "seed": seed, "op_s": op_s, **base}
        for seed, op_s in op_s_by_seed.items()
    ]


BOUNDS = {"op_s": ("lower", 0.25), "setup_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)}


def test_a_reused_seed_pairs_with_the_latest_earlier_parent():
    seeds = {1: 0.4, 2: 0.5}
    rows = (
        records("p1", "parent", seeds)
        + records("c1", "change", {1: 0.3, 2: 0.6})
        + records("p2", "parent", {1: 0.2})  # the next change reuses seed 1
        + records("c2", "change", {1: 0.1})
    )
    pairs = bench_record.seed_pairs(rows)
    assert list(pairs) == [("c1", "p1"), ("c2", "p2")]
    assert [(p["op_s"], c["op_s"]) for p, c in pairs[("c1", "p1")]] == [(0.4, 0.3), (0.5, 0.6)]
    assert [(p["op_s"], c["op_s"]) for p, c in pairs[("c2", "p2")]] == [(0.2, 0.1)]
    lines = bench_record.summarize(rows, BOUNDS)
    assert "  c1 against p1: 2 seed pair(s), won op_s 1  setup_s 0  peak_rss_mb 0" in lines
    assert "  c2 against p2: 1 seed pair(s), won op_s 1  setup_s 0  peak_rss_mb 0" in lines
    assert (
        "    op_s: won 1/1, at least 9/10: yes; median gap 0.1 > parent quartile spread n/a"
        " (one pair); within the 25% bound: yes"
    ) in lines


def test_claim_rule_needs_nine_of_ten_and_a_gap_beyond_the_spread():
    parent = {seed: 1.0 + 0.01 * seed for seed in range(10)}  # median 1.045, quartiles 1.0175..1.0725
    faster = {seed: v - 0.1 for seed, v in parent.items()}
    one_loss = {**faster, 0: 2.0}
    two_losses = {**one_loss, 1: 2.0}
    cases = [
        (faster, "won 10/10, at least 9/10: yes; median gap 0.1 > parent quartile spread 0.055: yes"),
        (one_loss, "won 9/10, at least 9/10: yes; median gap 0.09 > parent quartile spread 0.055: yes"),
        (two_losses, "won 8/10, at least 9/10: no; median gap 0.08 > parent quartile spread 0.055: yes"),
        ({seed: v - 0.05 for seed, v in parent.items()},
         "won 10/10, at least 9/10: yes; median gap 0.05 > parent quartile spread 0.055: no"),
        ({seed: 1.2 * v for seed, v in parent.items()},
         "won 0/10, at least 9/10: no; median gap -0.209 > parent quartile spread 0.055: no"),
    ]
    for change, expected in cases:
        matched = list(zip(records("p", "parent", parent), records("c", "change", change)))
        line = bench_record.claim_line("op_s", matched, "lower", 0.25)
        assert line == f"    op_s: {expected}; within the 25% bound: yes"
    slower = {seed: 1.3 * v for seed, v in parent.items()}
    matched = list(zip(records("p", "parent", parent), records("c", "change", slower)))
    assert bench_record.claim_line("op_s", matched, "lower", 0.25).endswith(
        "median gap -0.3135 > parent quartile spread 0.055: no; within the 25% bound: no"
    )
    # A higher-is-better metric counts the other way.
    assert bench_record.claim_line("op_s", matched, "higher", 0.25) == (
        "    op_s: won 10/10, at least 9/10: yes; median gap 0.3135 > parent quartile spread 0.055:"
        " yes; within the 25% bound: yes"
    )


def test_bounds_come_from_the_benchmark_file_which_is_left_unchanged(tmp_path, monkeypatch, capsys):
    before = bench_record.BENCHMARK.read_bytes()
    declared = {m["name"]: (m["better"], m["bound"]) for m in json.loads(before)["end_to_end"]}
    assert bench_record.read_bounds() == declared
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--commit", "abc1234", "--side", "parent", str(FIXTURE)]) == 0
    assert bench_record.BENCHMARK.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_mc-grid.json"]


def test_failed_share_per_side_flags_a_rise():
    parent = records("p", "parent", {1: 0.4, 2: 0.5})
    change = records("c", "change", {1: 0.3, 2: 0.4})
    parent[0].update(failed=1, attempted=40)
    change[0].update(failed=1, attempted=20)
    matched = list(zip(parent, change))
    assert bench_record.failed_line(matched) == (
        "    failed share: parent 1/79 = 0.01266, change 1/59 = 0.01695; above the parent's: yes"
    )
    change[0].update(failed=0)
    assert bench_record.failed_line(matched).endswith("change 0/59 = 0; above the parent's: no")
    assert bench_record.summarize(parent + change, BOUNDS)[-1] == bench_record.failed_line(matched)
    none = [({**p, "failed": 0, "attempted": 0}, {**c, "attempted": 0}) for p, c in matched]
    assert bench_record.failed_line(none) == (
        "    failed share: parent 0/0 = 0, change 0/0 = 0; above the parent's: no"
    )


def test_attempted_ratio_is_printed_next_to_peak_rss():
    parent = records("p", "parent", {1: 0.4, 2: 0.5})
    change = records("c", "change", {1: 0.3, 2: 0.4})
    change[0].update(attempted=59)  # 59 + 39 against 39 + 39
    matched = list(zip(parent, change))
    assert bench_record.attempted_ratio(matched) == "1.256"
    rss = [line for line in bench_record.summarize(parent + change, BOUNDS) if "peak_rss_mb:" in line]
    assert rss[0].endswith("within the 10% bound: yes; attempted change/parent: 1.256")
    none = [({**p, "attempted": 0}, c) for p, c in matched]
    assert bench_record.attempted_ratio(none) == "n/a"
