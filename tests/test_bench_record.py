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
