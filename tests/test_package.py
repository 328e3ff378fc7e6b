import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evbet
from evbet import errors

SRC = str(Path(evbet.__file__).resolve().parents[1])

# The package's top-level names, by the module that defines each.
TOP_LEVEL = {
    "domain": ["DiscreteDistribution", "SampleSpace", "TwoPointMeasure", "anchored_two_point",
               "sample_stream", "two_point_weight"],
    "evariables": ["CoinBetEVariable", "DominationCertificate", "HoeffdingEVariable",
                   "TabulatedEVariable", "bet_bounds", "beta_interval", "check_evariable",
                   "dominating_lambda", "eval_majorizer"],
    "betting": ["ConstantStrategy", "PortfolioPosterior", "UniversalPortfolioStrategy", "up_bet",
                "up_update"],
    "game": ["WealthLedger", "run_game", "run_games_batch", "score_bets"],
    "confseq": ["default_mu_grid", "run_cs_batch"],
    "multiround": ["EProcess", "MultiRoundCoinBet", "StoppingMask", "TreeHypothesis",
                   "audit_eprocess", "dominate_T2", "enumerate_masks", "tree_expectation"],
    "iid_case": ["XiStats", "check_iid_bruteforce", "check_iid_closed_form", "xi_stats"],
}


def run_fresh(code, **env):
    """What a fresh interpreter prints running ``code``, with ``env`` added to its environment."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def loaded_after(statement):
    """The evbet modules a fresh interpreter holds after running ``statement``."""
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'evbet'))"
    return run_fresh(f"import sys; {statement}; {listing}").split()


def test_cli_import_loads_no_command_module():
    loaded = loaded_after("import evbet.cli")
    assert loaded == ["evbet", "evbet.cli", "evbet.errors"]
    for module in ("multiround", "iid_case", "confseq", "game"):
        assert f"evbet.{module}" not in loaded


@pytest.mark.parametrize("module", ["game", "confseq"])
def test_kernel_path_loads_no_reference_path(module):
    # The object path (betting) is the tests' reference; the kernels do not need it.
    assert "evbet.betting" not in loaded_after(f"import evbet.{module}")


def test_package_import_loads_nothing_else():
    assert loaded_after("import evbet") == ["evbet"]


def test_no_environment_variable_selects_the_kernel():
    code = "import evbet.kernels as k; print(k.BACKEND, k.n_threads())"
    assert run_fresh(code, EVBET_BACKEND="cython", EVBET_THREADS="4").split() == ["python", "1"]


@pytest.mark.parametrize("module", sorted(TOP_LEVEL))
def test_top_level_names_are_the_module_objects(module):
    mod = importlib.import_module(f"evbet.{module}")
    for name in TOP_LEVEL[module]:
        assert getattr(evbet, name) is getattr(mod, name)
        assert name in evbet.__all__


def test_all_lists_exactly_the_top_level_names():
    assert sorted(evbet.__all__) == sorted(n for names in TOP_LEVEL.values() for n in names)
    assert evbet.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'play_round'"):
        evbet.play_round


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: evbet.CoinBetEVariable(0.5, 2.5), "OutOfRange"),
        (lambda: evbet.MultiRoundCoinBet(0.5, ({(): 3.0},)), "OutOfRange"),
        (lambda: evbet.two_point_weight(0.6, 0.9, 0.5), "MeanOutsideSpan"),
        (lambda: evbet.enumerate_masks(6), "DepthTooLarge"),
    ],
)
def test_validation_errors_are_value_errors(call, error):
    """A caller that catches ValueError catches every bad-argument error of the library."""
    try:
        call()
    except ValueError as exc:
        assert type(exc) is getattr(errors, error)
    else:
        pytest.fail("the call raised nothing")
