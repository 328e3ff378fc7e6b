"""The benchmark's output checks, run on the program as it is.

Each workload of ``BENCHMARK.json`` runs for half a second at the tiny
sizes, untraced and traced, as ``perfbench/selftest.py`` runs it, and every
operation must pass its check: a change that breaks a workload's output
contract (a column added to ``cs``, a bet outside ``I_mu``) fails here rather
than only in a benchmark run. The traced run patches every name of
``perfbench/tracing.PATCHES`` in, so a change that removes or renames one
fails here too.
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


@pytest.mark.parametrize(
    "name, traced",
    [pytest.param(name, False, id=name) for name in WORKLOADS]
    + [pytest.param(name, True, id=f"{name}-traced") for name in WORKLOADS],
)
def test_every_operation_passes_its_check(perfbench, tmp_path, name, traced):
    harness, run, workloads = perfbench
    summary, _, result = harness.run(name, 7, 0.5, traced, tmp_path, run.child_env(), workloads.TINY)
    assert result["attempted"] > 0
    assert result["correct"] and result["failed"] == 0, summary["problems"]
