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
        "  abc1234 parent: 2 run(s), medians op_s 0.3  setup_s 0.2046  peak_rss_mb 42.97",
        "  def5678 change: 2 run(s), medians op_s 0.25  setup_s 0.2046  peak_rss_mb 42.97",
        "  def5678 against abc1234: 2 seed pair(s), won op_s 1  setup_s 0  peak_rss_mb 0",
    ]
