import csv
import io
import json
import math

import numpy as np
import pytest

from evbet import kernels
from evbet.errors import OutOfRange
from evbet.evariables import bet_bounds
from evbet.game import LedgerRow


@pytest.fixture(params=[kernels.BACKEND])
def batch_kernel(request):
    """The general K-node routine of the batch UP kernels, which takes checked
    arrays, with the backend's name as its test id."""
    return kernels._general_kernel


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


class ReplayBets:
    """Bets a precomputed sequence of fractions, one per round, in order."""

    def __init__(self, bets):
        self._bets = iter(np.asarray(bets, dtype=float).tolist())

    def bet(self):
        return next(self._bets)

    def observe(self, x):
        pass


def loop_game(mu, delta, strategy, xs):
    """A game scored round by round, each round from the previous wealth: the reference.

    Returns ``(rows, rejected_at)`` with one ``LedgerRow`` per round.
    """
    lo, hi = bet_bounds(mu)
    threshold = math.log(1.0 / delta)
    rows, wealth, rejected_at = [], 0.0, None
    for t, x in enumerate(xs, start=1):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x={x} outside [0, 1]")
        lam = float(strategy.bet())
        if not lo <= lam <= hi:
            raise OutOfRange(f"lambda={lam} outside I_mu=[{lo}, {hi}] for mu={mu} at round {t}")
        e_value = max(1.0 + lam * (float(x) - mu), 0.0)
        if e_value == 0.0:
            wealth = -math.inf
        elif wealth != -math.inf:
            wealth = wealth + math.log(e_value)
        strategy.observe(x)
        if rejected_at is None and wealth > threshold:
            rejected_at = t
        rows.append(LedgerRow(t=t, x=float(x), lam=lam, e_value=e_value, log_wealth=wealth))
    return tuple(rows), rejected_at


@pytest.fixture(name="loop_game")
def loop_game_fixture():
    return loop_game


@pytest.fixture(name="replay")
def replay_fixture():
    return ReplayBets


def reference_table(header, rows, fmt):
    """The bytes of a table as ``csv.writer`` or ``json.dumps`` writes it."""
    if fmt == "json":
        return (json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()
