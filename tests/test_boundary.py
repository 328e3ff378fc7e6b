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
from evbet.confseq import default_mu_grid, run_cs_batch
from evbet.domain import DiscreteDistribution, SampleSpace, sample_stream
from evbet.evariables import CoinBetEVariable, HoeffdingEVariable, TabulatedEVariable, bet_bounds
from evbet.evariables import dominating_lambda, eval_majorizer
from evbet.game import check_strategy, parse_strategy, run_game, run_games_batch, score_bets
from evbet.iid_case import xi_stats
from evbet.multiround import EProcess, MultiRoundCoinBet, audit_eprocess, constant_eprocess
from evbet.multiround import TreeHypothesis, dominate_T2, enumerate_masks, eprocess_from_csv
from evbet.multiround import eprocess_from_tables, full_mask

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
    "nodes-float": ({"n_nodes": 3.5}, "node count must be an integer, got 3.5"),
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
# A literal's node count is read by int(), so only a count passed as a number is a float.
ALL = set(CLASSES) - TABLES - {"bet", "nodes-float"}
MU = {"mu-range", "mu-nan"}
NODES = {"nodes", "nodes-float"}
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
    "kernels.up_game_batch": (kernel, MU | {"x-nan", "x-range"} | NODES, False),
    "kernels.up_game_batch/binary": (binary_kernel, MU | NODES, False),
    "UniversalPortfolioStrategy": (portfolio, MU | {"x-nan", "x-range"} | NODES, True),
    "SampleSpace": (lambda mu=0.5: SampleSpace((0.0, 0.5, 1.0), mu), MU, False),
    "bet_bounds": (lambda mu=0.5: bet_bounds(mu), MU, False),
    "dominating_lambda": (lambda mu=0.5: dominating_lambda(mu, 1.0), MU, False),
    "HoeffdingEVariable": (lambda mu=0.5: HoeffdingEVariable(mu, 1.0).value(0.5), MU, False),
    "eval_majorizer": (lambda mu=0.5: eval_majorizer(mu, 0.5), MU, False),
    "constant_eprocess": (lambda mu=0.5: constant_eprocess(mu), MU, False),
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


@pytest.mark.parametrize(
    "alpha, message",
    [
        (NAN, "alpha must be finite, got nan"),
        (math.inf, "alpha must be finite, got inf"),
        (1e200, "alpha=1e+200 is too large: its square overflows"),
    ],
    ids=["nan", "inf", "square-overflows"],
)
@pytest.mark.parametrize(
    "call",
    [lambda alpha: HoeffdingEVariable(0.5, alpha), lambda alpha: dominating_lambda(0.5, alpha)],
    ids=["HoeffdingEVariable", "dominating_lambda"],
)
def test_bad_alpha_raises_the_shared_message(call, alpha, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(alpha)


@pytest.mark.parametrize(
    "values",
    [[[1.0], [1.0], [1.0]], 1.0, np.ones((3, 3)), ["a", 1.0, 1.0], [None, 1.0, 1.0]],
    ids=["nested", "number", "2-d", "string", "none"],
)
def test_tabulated_evariable_rejects_values_that_are_not_one_per_point(values):
    with pytest.raises(ValueError, match=r"^one value per grid point required$"):
        TabulatedEVariable(GRID_3, values)


def test_tabulated_evariable_names_a_point_off_its_grid():
    table = TabulatedEVariable(GRID_3, (1.0, 1.0, 1.0))
    message = "x=0.3 is not a point of the grid (0.0, 0.5, 1.0)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        table.value(0.3)


SHAPES = pytest.mark.parametrize(
    "values",
    [
        [1.0, 1.0, 1.0],
        np.ones((3, 3, 3)),
        np.ones((3, 3, 1)),
        [[1.0, 1.0, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0, 1.0]],
        np.ones((2, 3)),
        [[[1.0]] * 3] * 3,
        [["a", 1, 1], [1, 1, 1], [1, 1, 1]],
    ],
    ids=["1-d", "3-d", "3-d-cells", "ragged-row", "ragged-rows", "2x3", "3-d-cell-lists",
         "string-cell"],
)


@SHAPES
def test_dominate_T2_rejects_a_table_of_another_shape(values):
    with pytest.raises(ValueError, match=r"^expected a 3x3 table$"):
        dominate_T2(values, GRID_3)


@SHAPES
def test_xi_stats_rejects_a_table_of_another_shape(values):
    with pytest.raises(ValueError, match=r"^expected a 3x3 table over \{0, 1/2, 1\}\^2$"):
        xi_stats(values)


@pytest.mark.parametrize(
    "call",
    [
        lambda mu: SampleSpace((0.0, 0.5, 1.0), mu),
        lambda mu: EProcess(mu, lambda p: 1.0, 2),
    ],
    ids=["SampleSpace", "EProcess"],
)
def test_array_mean_raises_the_shared_message(call):
    with pytest.raises(ValueError, match=r"^mu must be a scalar, got an array of shape \(2,\)$"):
        call(np.array([0.5, 0.5]))


DEPTH_CALLS = {
    "full_mask": full_mask,
    "enumerate_masks": enumerate_masks,
    "audit_eprocess": lambda depth: audit_eprocess(constant_eprocess(0.5, 1.0, 3), depth),
}


@pytest.mark.parametrize(
    "name, depth, message",
    [
        ("full_mask", -1, "depth must be at least 0, got -1"),
        ("full_mask", 2.5, "depth must be an integer, got 2.5"),
        ("enumerate_masks", -1, "depth must be at least 0, got -1"),
        ("enumerate_masks", 2.5, "depth must be an integer, got 2.5"),
        ("audit_eprocess", 2.0, "audit depth must be an integer, got 2.0"),
        ("audit_eprocess", -1, "audit depth must be at least 1, got -1"),
    ],
    ids=["full_mask-negative", "full_mask-float", "enumerate_masks-negative",
         "enumerate_masks-float", "audit_eprocess-float", "audit_eprocess-negative"],
)
def test_bad_depth_raises_value_error(name, depth, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        DEPTH_CALLS[name](depth)


@pytest.mark.parametrize("name", list(DEPTH_CALLS))
def test_numpy_integer_depth_works(name):
    assert DEPTH_CALLS[name](np.int64(2)) == DEPTH_CALLS[name](2)


TWO_ROUNDS = MultiRoundCoinBet(0.5, ({(): 0.0}, {(x,): 0.0 for x in (0.0, 0.5, 1.0)}))
BETS_AND_XS = "bets and xs must be 1-D and of one length"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: default_mu_grid(0), "grid needs at least one point"),
        (lambda: DiscreteDistribution(()), "distribution needs at least one atom"),
        (lambda: sample_stream(DiscreteDistribution.point(0.5), -1, 0), "n must be non-negative"),
        (lambda: score_bets(0.5, 0.05, np.zeros(3), np.zeros(4)), BETS_AND_XS),
        (lambda: score_bets(0.5, 0.05, np.zeros((2, 2)), np.zeros((2, 2))), BETS_AND_XS),
        (lambda: TWO_ROUNDS.value((0.5,)), "expected 2 observations, got 1"),
        (lambda: TreeHypothesis(0.5, ((0.0, 1.0),) * 2), "2 pairs do not form a full binary tree"),
        (lambda: constant_eprocess(0.5, 1.0, 2).value((0.5,) * 3), "prefix longer than max depth 2"),
    ],
    ids=["default_mu_grid", "DiscreteDistribution", "sample_stream", "score_bets-lengths",
         "score_bets-2-d", "MultiRoundCoinBet.value", "TreeHypothesis", "EProcess.value"],
)
def test_bad_size_raises_its_message(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_eprocess_csv_path_must_have_its_depth(tmp_path):
    path = tmp_path / "ep.csv"
    path.write_text("depth,path,value\n0,,1.0\n2,0.0,1.0\n1,1.0,1.0\n")
    message = f"{path}: path '0.0' does not have depth 2"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        eprocess_from_csv(str(path), 0.5)
