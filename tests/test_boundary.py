"""The library's argument checks, entry point by bad-input class.

The library twin of ``test_cli.py::CONTRACT_CASES``: every entry point that
takes a mean, a level, observations, a node count, a strategy literal, a bet
fraction or a table of values rejects a bad one with a ``ValueError``
carrying the one message of the check in ``domain`` (or of
``game.parse_strategy`` or ``evariables.check_bet``) that it shares with the
others.
"""

import math
import re

import numpy as np
import pytest
from conftest import ReplayBets

from evbet import kernels
from evbet.betting import ConstantStrategy, UniversalPortfolioStrategy
from evbet.confseq import run_cs_batch
from evbet.domain import SampleSpace
from evbet.evariables import CoinBetEVariable, TabulatedEVariable, bet_bounds, dominating_lambda
from evbet.game import check_strategy, parse_strategy, run_game, run_games_batch, score_bets
from evbet.iid_case import xi_stats
from evbet.multiround import MultiRoundCoinBet, audit_eprocess, dominate_T2, eprocess_from_tables

NAN = math.nan
OBSERVATIONS = "observations must be finite and lie in [0, 1]"
BET = "lambda=3.0 outside I_mu=[-2.0, 2.0] for mu=0.5"
TABLE = "values must be finite and non-negative"

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
    "bet": ({"lam": 3.0}, BET),
    "bet-literal": ({"literal": "constant:3"}, BET),
    "table-negative": ({"value": -1.0}, TABLE),
    "table-nan": ({"value": NAN}, TABLE),
    "table-inf": ({"value": math.inf}, TABLE),
}
# A bet checked round by round is named with its round, the third.
ROUND_MESSAGES = {
    "x-nan": "x=nan outside [0, 1]",
    "x-range": "x=1.5 outside [0, 1]",
    "bet": BET + " at round 3",
}


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


def bets(lam):
    """A zero bet on each of four rounds, the third replaced by ``lam``."""
    fractions = np.zeros(4)
    fractions[2] = lam
    return fractions


def scored(mu=0.5, delta=0.05, x=0.5, lam=0.0):
    score_bets(mu, delta, bets(lam), stream(x)[0])


def played(mu=0.5, delta=0.05, x=0.5, lam=0.0):
    run_game(mu, delta, ReplayBets(bets(lam)), stream(x)[0])


def multiround(mu=0.5, lam=0.0):
    MultiRoundCoinBet(mu, ({(): 0.0}, {(0.5,): 0.0}, {(0.5, 0.5): lam}))


def table(value):
    """A 3x3 table of ones over {0, 1/2, 1}, the middle cell replaced by ``value``."""
    cells = np.ones((3, 3))
    cells[1, 1] = value
    return cells


GRID_3 = SampleSpace((0.0, 0.5, 1.0), 0.5)


def kernel(mu=0.5, x=0.5, n_nodes=11):
    kernels.up_game_batch(stream(x, 2), np.array([0.5, mu]), n_nodes)


def binary_kernel(mu=0.5, n_nodes=11):
    """``kernel`` on a stream of zeros and ones, which takes the binary route."""
    kernels.up_game_batch(np.tile([0.0, 1.0], (2, 2)), np.array([0.5, mu]), n_nodes)


def portfolio(mu=0.5, x=0.5, n_nodes=11):
    UniversalPortfolioStrategy(mu, n_nodes).observe(x)


TABLES = {"table-negative", "table-nan", "table-inf"}
ALL = set(CLASSES) - TABLES - {"bet"}
MU = {"mu-range", "mu-nan"}
# entry point -> (its call, the classes it checks, whether it checks observations round by round)
ROWS = {
    "run_games_batch": (batch, ALL, False),
    "run_cs_batch": (cs_batch, ALL, False),
    "score_bets": (scored, MU | {"delta", "x-nan", "x-range", "bet"}, True),
    "run_game": (played, MU | {"delta", "x-nan", "x-range", "bet"}, True),
    "ConstantStrategy": (lambda mu=0.5, lam=0.0: ConstantStrategy(mu, lam), MU | {"bet"}, False),
    "CoinBetEVariable": (lambda mu=0.5, lam=0.0: CoinBetEVariable(mu, lam), MU | {"bet"}, False),
    "MultiRoundCoinBet": (multiround, MU | {"bet"}, True),
    "TabulatedEVariable": (lambda value=1.0: TabulatedEVariable(GRID_3, table(value)[1]), TABLES, False),
    "xi_stats": (lambda value=1.0: xi_stats(table(value)), TABLES, False),
    "dominate_T2": (lambda value=1.0: dominate_T2(table(value), GRID_3), TABLES, False),
    "kernels.up_game_batch": (kernel, MU | {"x-nan", "x-range", "nodes"}, False),
    "kernels.up_game_batch/binary": (binary_kernel, MU | {"nodes"}, False),
    "UniversalPortfolioStrategy": (portfolio, MU | {"x-nan", "x-range", "nodes"}, True),
    "SampleSpace": (lambda mu=0.5: SampleSpace((0.0, 0.5, 1.0), mu), MU, False),
    "bet_bounds": (lambda mu=0.5: bet_bounds(mu), MU, False),
    "dominating_lambda": (lambda mu=0.5: dominating_lambda(mu, 1.0), MU, False),
    "check_strategy": (
        lambda mu=0.5, n_nodes=11, literal=None: check_strategy(
            strategy(n_nodes, literal), np.array([0.5, mu])
        ),
        MU | {"nodes", "literal", "bet-literal"},
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


@pytest.mark.parametrize("value", [-1.0, NAN, math.inf], ids=["negative", "nan", "inf"])
def test_eprocess_value_must_be_finite_and_non_negative(value):
    """The twin of the CLI's ``audit`` row: a bad value is refused when the audit reads it."""
    tables = {(): 1.0, (0.0,): value, (0.5,): 1.0, (1.0,): 1.0}
    e = eprocess_from_tables(0.5, tables, SampleSpace((0.0, 0.5, 1.0), 0.5))
    message = f"e-process value {value} at (0.0,) is not finite and non-negative"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        audit_eprocess(e, 1)
    with pytest.raises(ValueError, match="^" + re.escape(message.replace("(0.0,)", "()")) + "$"):
        eprocess_from_tables(0.5, {(): value})
