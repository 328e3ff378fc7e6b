"""Anytime-valid testing and confidence sequences for bounded means via coin-betting.

The public names below are resolved on first access (PEP 562), so importing
the package, or ``evbet.cli``, loads none of the modules a caller does not use.
The immutable records (spaces, witnesses, certificates, e-processes, reports)
subclass ``evbet._record.Record``, so no module loads ``dataclasses``.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "domain": (
        "DiscreteDistribution",
        "SampleSpace",
        "TwoPointMeasure",
        "anchored_two_point",
        "bet_bounds",
        "sample_stream",
    ),
    "evariables": (
        "CoinBetEVariable",
        "DominationCertificate",
        "HoeffdingEVariable",
        "TabulatedEVariable",
        "beta_interval",
        "check_evariable",
        "dominating_lambda",
        "eval_majorizer",
    ),
    "betting": (
        "ConstantStrategy",
        "PortfolioPosterior",
        "UniversalPortfolioStrategy",
        "up_bet",
        "up_update",
    ),
    "game": ("WealthLedger", "run_game", "run_games_batch", "score_bets"),
    "confseq": ("default_mu_grid", "run_cs_batch"),
    "multiround": (
        "EProcess",
        "MultiRoundCoinBet",
        "StoppingMask",
        "TreeHypothesis",
        "audit_eprocess",
        "dominate_T2",
        "dominate_eprocess",
        "enumerate_masks",
        "tree_expectation",
    ),
    "iid_case": ("XiStats", "check_iid_bruteforce", "check_iid_closed_form", "xi_stats"),
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
