"""The benchmark's output checks, run on the program as it is.

Each workload of ``BENCHMARK.json`` runs untraced for half a second at the
tiny sizes, as ``perfbench/selftest.py`` runs it, and every operation must
pass its check: a change that breaks a workload's output contract (a column
added to ``cs``, a bet outside ``I_mu``) fails here rather than only in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``harness``, ``run`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))  # they import one another by plain name
    try:
        import harness
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return harness, run, workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_operation_passes_its_check(perfbench, tmp_path, name):
    harness, run, workloads = perfbench
    summary, _, result = harness.run(name, 7, 0.5, False, tmp_path, run.child_env(), workloads.TINY)
    assert result["attempted"] > 0
    assert result["correct"] and result["failed"] == 0, summary["problems"]
