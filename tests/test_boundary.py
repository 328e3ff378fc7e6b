"""The library's argument checks, entry point by bad-input class.

The library twin of ``test_cli.py::CONTRACT_CASES``: every entry point that
takes a mean, a level, observations, a node count or a strategy literal
rejects a bad one with a ``ValueError`` carrying the one message of the
check in ``domain`` (or of ``game.parse_strategy``) that it shares with the
others.
"""

import math
import re

import numpy as np
import pytest

from evbet import kernels
from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.confseq import run_cs_batch
from evbet.domain import SampleSpace
from evbet.evariables import bet_bounds, dominating_lambda
from evbet.game import check_strategy, parse_strategy, run_game, run_games_batch, score_bets

NAN = math.nan
OBSERVATIONS = "observations must be finite and lie in [0, 1]"

# class -> (the bad keyword, the message); a round's observation is named in its message.
CLASSES = {
    "mu-range": ({"mu": 1.5}, "mu must lie in (0, 1), got 1.5"),
    "mu-nan": ({"mu": NAN}, "mu must lie in (0, 1), got nan"),
    "delta": ({"delta": 1.5}, "delta must lie in (0, 1), got 1.5"),
    "x-nan": ({"x": NAN}, OBSERVATIONS),
    "x-range": ({"x": 1.5}, OBSERVATIONS),
    "nodes": ({"n_nodes": 2}, "need at least 3 quadrature nodes"),
    "literal": (
        {"literal": "up:x"},
        "bad strategy literal 'up:x': invalid literal for int() with base 10: 'x'",
    ),
}
ROUND_MESSAGES = {"x-nan": "x=nan outside [0, 1]", "x-range": "x=1.5 outside [0, 1]"}


def stream(x, games=1):
    """Four rounds at 0.5 per game, the third round of the last game replaced by ``x``."""
    xs = np.full((games, 4), 0.5)
    xs[-1, 2] = x
    return xs


def strategy(n_nodes, literal):
    return literal or f"up:{n_nodes}"


def batch(mu=0.5, delta=0.05, x=0.5, n_nodes=11, literal=None):
    run_games_batch(np.array([0.5, mu]), stream(x, 2), strategy(n_nodes, literal), delta)


def cs_batch(mu=0.5, delta=0.05, x=0.5, n_nodes=11, literal=None):
    run_cs_batch([0.5, mu], stream(x)[0], strategy(n_nodes, literal), delta)


def scored(mu=0.5, delta=0.05, x=0.5):
    score_bets(mu, delta, np.zeros(4), stream(x)[0])


def played(mu=0.5, delta=0.05, x=0.5):
    run_game(mu, delta, ConstantStrategy(0.5, 0.0), stream(x)[0])


def kernel(mu=0.5, x=0.5, n_nodes=11):
    kernels.up_game_batch(stream(x, 2), np.array([0.5, mu]), n_nodes)


def portfolio(mu=0.5, x=0.5, n_nodes=11):
    UniversalPortfolioStrategy(mu, n_nodes).observe(x)


ALL = set(CLASSES)
MU = {"mu-range", "mu-nan"}
# entry point -> (its call, the classes it checks, whether it checks observations round by round)
ROWS = {
    "run_games_batch": (batch, ALL, False),
    "run_cs_batch": (cs_batch, ALL, False),
    "score_bets": (scored, MU | {"delta", "x-nan", "x-range"}, True),
    "run_game": (played, MU | {"delta", "x-nan", "x-range"}, True),
    # The general kernel lets NaN through, to raise DegeneratePosterior at its
    # own round (test_kernels.py::test_nan_raises_at_its_own_round).
    "kernels.up_game_batch": (kernel, MU | {"x-range", "nodes"}, False),
    "UniversalPortfolioStrategy": (portfolio, MU | {"x-nan", "x-range", "nodes"}, True),
    "SampleSpace": (lambda mu=0.5: SampleSpace((0.0, 0.5, 1.0), mu), MU, False),
    "bet_bounds": (lambda mu=0.5: bet_bounds(mu), MU, False),
    "dominating_lambda": (lambda mu=0.5: dominating_lambda(mu, 1.0), MU, False),
    "check_strategy": (
        lambda mu=0.5, n_nodes=11, literal=None: check_strategy(
            strategy(n_nodes, literal), np.array([0.5, mu])
        ),
        MU | {"nodes", "literal"},
        False,
    ),
    "parse_strategy": (
        lambda n_nodes=11, literal=None: parse_strategy(strategy(n_nodes, literal)),
        {"nodes", "literal"},
        False,
    ),
}


@pytest.mark.parametrize("call", [call for call, _, _ in ROWS.values()], ids=list(ROWS))
def test_valid_arguments_pass(call):
    call()


@pytest.mark.parametrize(
    "call, bad, message",
    [
        pytest.param(
            call,
            CLASSES[kind][0],
            ROUND_MESSAGES.get(kind, CLASSES[kind][1]) if by_round else CLASSES[kind][1],
            id=f"{name}-{kind}",
        )
        for name, (call, kinds, by_round) in ROWS.items()
        for kind in sorted(kinds)
    ],
)
def test_bad_argument_raises_the_shared_message(call, bad, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(**bad)
