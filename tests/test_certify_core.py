"""The one-pass certification core against per-table oracles.

``check_evariable``, ``beta_interval`` and ``dominate_T2`` share one
plain-Python validity-and-slope pass per table, whose worst laws come from
the one scan (``domain.worst_law``) over a law list built once per grid and mean,
``xi_stats`` sums its cells in plain Python and ``check_iid_bruteforce``
keeps one q-grid and basis. The functions below are the
per-table implementations of the same routines (one validity check, grid
split, slope pass and q-grid per call, in numpy), kept as oracles: the
library must return ``==`` results, with the same floats down to the sign
of zero (compared through ``repr``), and raise the same errors.
"""

import copy
import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evbet.domain import SampleSpace, TwoPointMeasure, mean_mu_laws, two_point_masses
from evbet.errors import NotAnEVariable
from evbet.evariables import (
    VALIDITY_TOL,
    DominationCertificate,
    TabulatedEVariable,
    ValidityReport,
    bet_bounds,
    beta_interval,
    check_evariable,
)
from evbet.iid_case import (
    BruteForceResult,
    XiStats,
    _q_grid,
    check_iid_bruteforce,
    interior_maximum,
    xi_stats,
)
from evbet.multiround import (
    STOP,
    MultiRoundCoinBet,
    T2DominationResult,
    T2Refutation,
    TreeHypothesis,
    audit_eprocess,
    dominate_T2,
    eprocess_from_tables,
    full_mask,
)

# --- oracles: the per-table routines -------------------------------------------------


def _oracle_split_grid(space):
    """Below, at and above mu, exactly: only mu itself is at mu."""
    pts = space.as_array()
    return pts, pts < space.mu, pts == space.mu, pts > space.mu


def _oracle_masses(a, b, mu):
    """Both masses of the mean-mu law on each pair, each computed directly."""
    return (b - mu) / (b - a), (mu - a) / (b - a)


def oracle_check_evariable(e, tol=1e-12):
    pts, below, at, above = _oracle_split_grid(e.space)
    vals = e.as_array()
    mu = e.space.mu
    worst = None
    worst_exp = 1.0 + tol
    if at.any() and vals[at][0] > worst_exp:  # the point mass at mu
        worst = TwoPointMeasure(mu, mu, 1.0, 0.0)
        worst_exp = float(vals[at][0])
    if below.any() and above.any():
        a = pts[below][:, None]
        b = pts[above][None, :]
        w, v = _oracle_masses(a, b, mu)
        expect = w * vals[below][:, None] + v * vals[above][None, :]
        i, j = np.unravel_index(np.argmax(expect), expect.shape)
        if expect[i, j] > worst_exp:
            worst = TwoPointMeasure(
                float(a[i, 0]), float(b[0, j]), float(w[i, j]), float(v[i, j])
            )
            worst_exp = float(expect[i, j])
    if worst is None:
        return ValidityReport(valid=True)
    return ValidityReport(valid=False, witness=worst, expectation=worst_exp)


def oracle_beta_interval(e):
    report = oracle_check_evariable(e)
    if not report.valid:
        raise NotAnEVariable(
            f"table is not an e-variable (two-point expectation {report.expectation})",
            witness=report.witness,
            expectation=report.expectation,
        )
    pts = e.space.as_array()
    vals = e.as_array()
    mu = e.space.mu
    # Slopes come from points farther than 1e-9 from mu; nearer ones narrow below.
    near = np.abs(pts - mu) <= 1e-9
    below, above = (pts < mu) & ~near, (pts > mu) & ~near
    lo, hi = bet_bounds(mu)
    beta0 = hi
    if below.any():
        beta0 = min(hi, float(((vals[below] - 1.0) / (pts[below] - mu)).min()))
    beta1 = lo
    if above.any():
        beta1 = max(lo, float(((vals[above] - 1.0) / (pts[above] - mu)).max()))
    beta0 = max(beta0, lo)
    beta1 = min(beta1, hi)
    if beta1 > beta0:
        # Rounding grows with the slopes, so the collapse bar does too.
        if beta1 - beta0 > 1e-9 * max(1.0, abs(beta0), abs(beta1)):
            raise NotAnEVariable(
                f"slope interval inverted beyond tolerance: beta1={beta1} > beta0={beta0}"
            )
        beta0 = beta1 = 0.5 * (beta0 + beta1)
    # A point within 1e-9 of mu but not at it asks lam*(p - mu) >= e(p) - 1:
    # a lower bound on lam above mu, an upper one below. The interval moves
    # towards those bounds and stops at its own ends, so it never inverts.
    needs = [((float(v) - 1.0) / (float(p) - mu), float(p) > mu)
             for p, v in zip(pts[near], vals[near]) if p != mu]
    at_least = max((s for s, up in needs if up), default=-np.inf)
    at_most = min((s for s, up in needs if not up), default=np.inf)
    if at_least > beta1:
        beta1 = min(at_least, beta0)
    if at_most < beta0:
        beta0 = max(at_most, beta1)
    return DominationCertificate(beta0=beta0, beta1=beta1, lambda_hat=0.5 * (beta0 + beta1))


def oracle_dominate_T2(values, space):
    pts = space.as_array()
    mu = space.mu
    vals = np.asarray(values, dtype=float)
    n = len(pts)
    if vals.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} table")
    if (vals < 0.0).any() or not np.isfinite(vals).all():
        raise ValueError("values must be finite and non-negative")
    _, below, at, above = _oracle_split_grid(space)
    m = np.full(n, -np.inf)
    arg_pair = [None] * n
    if at.any():
        m = vals[:, at][:, 0].copy()
        arg_pair = [(mu, mu)] * n
    if below.any() and above.any():
        a = pts[below][:, None]
        b = pts[above][None, :]
        w, v = _oracle_masses(a, b, mu)
        pair_exp = (
            w[None, :, :] * vals[:, below][:, :, None]
            + v[None, :, :] * vals[:, above][:, None, :]
        )
        flat = pair_exp.reshape(n, -1)
        best = flat.argmax(axis=1)
        for i in range(n):
            if flat[i, best[i]] > m[i]:
                m[i] = flat[i, best[i]]
                ia, ib = np.unravel_index(best[i], w.shape)
                arg_pair[i] = (float(a[ia, 0]), float(b[0, ib]))
    m_table = TabulatedEVariable(space, tuple(float(v) for v in m))
    report = oracle_check_evariable(m_table)
    if not report.valid:
        root = report.witness
        idx = {float(p): i for i, p in enumerate(pts)}
        left = arg_pair[idx[root.a]]
        right = arg_pair[idx[root.b]]
        tree = TreeHypothesis(
            mu=mu,
            pairs=(
                (min(root.a, root.b), max(root.a, root.b)),
                (min(left), max(left)),
                (min(right), max(right)),
            ),
        )
        return T2DominationResult(
            certified=False, refutation=T2Refutation(tree=tree, expectation=report.expectation)
        )
    lam1 = oracle_beta_interval(m_table).lambda_hat
    lam2 = {}
    for i, x in enumerate(pts):
        denom = 1.0 + lam1 * (x - mu)
        if denom <= 0.0:
            lam2[(float(x),)] = 0.0
            continue
        row = TabulatedEVariable(space, tuple(float(v) for v in vals[i] / denom))
        lam2[(float(x),)] = oracle_beta_interval(row).lambda_hat
    return T2DominationResult(
        certified=True, coinbet=MultiRoundCoinBet(mu=mu, tables=({(): lam1}, lam2))
    )


def oracle_xi_stats(table):
    t = np.asarray(table, dtype=float)
    if t.shape != (3, 3):
        raise ValueError("expected a 3x3 table over {0, 1/2, 1}^2")
    if (t < 0.0).any() or not np.isfinite(t).all():
        raise ValueError("values must be finite and non-negative")
    xi1 = float(np.mean([t[i, j] for i, j in ((2, 1), (1, 2), (1, 0), (0, 1))]))
    xi2 = float(np.mean([t[i, j] for i, j in ((2, 2), (2, 0), (0, 2), (0, 0))]))
    return XiStats(float(t[1, 1]), xi1, xi2)


def oracle_check_iid_bruteforce(s):
    qs = np.linspace(0.0, 1.0, 10_000)
    vals = qs * qs * s.xi0 + 2.0 * qs * (1.0 - qs) * s.xi1 + (1.0 - qs) ** 2 * s.xi2
    k = int(vals.argmax())
    best_q, best_val = float(qs[k]), float(vals[k])
    interior = interior_maximum(s)
    if interior is not None and interior[1] > best_val:
        best_q, best_val = interior[0], interior[1]
    return BruteForceResult(max_expectation=best_val, argmax_q=best_q)


# --- comparison ----------------------------------------------------------------------


def outcome(fn, *args):
    """What a call returns or raises, in a form that compares floats bit for bit."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = fn(*args)
    except (ValueError, NotAnEVariable) as exc:
        witness = getattr(exc, "witness", None)
        return type(exc), str(exc), repr(witness), repr(getattr(exc, "expectation", None))
    return result, repr(result)


def assert_same(fn, oracle, *args):
    got, expected = outcome(fn, *args), outcome(oracle, *args)
    assert got == expected


# --- inputs --------------------------------------------------------------------------


@st.composite
def grids(draw):
    """A sample space: uniform or irregular, with mu on, near or off the grid."""
    kind = draw(st.sampled_from(["uniform", "irregular", "near-mu"]))
    if kind == "uniform":
        n = draw(st.integers(2, 12))
        pts = tuple(np.linspace(0.0, 1.0, n).tolist())
    elif kind == "irregular":
        inner = draw(st.lists(st.floats(0.01, 0.99), max_size=8, unique=True))
        pts = tuple(sorted({0.0, 1.0, *inner}))
    else:
        mu = draw(st.sampled_from([0.3, 0.5, 0.7]))
        eps = draw(st.sampled_from([5e-10, 1.5e-9, 3e-9, 1e-8]))
        pts = (0.0, mu - eps, mu + eps, 1.0)
        return SampleSpace(pts, mu)
    if draw(st.booleans()) and len(pts) > 2:
        mu = pts[draw(st.integers(1, len(pts) - 2))]  # on the grid
        mu += draw(st.sampled_from([0.0, 0.0, 5e-10, -5e-10]))  # or within 1e-9 of it
    else:
        mu = draw(st.floats(0.02, 0.98))
    return SampleSpace(pts, mu)


@st.composite
def rows_on(draw, space, n_rows):
    """Tables on ``space``: coin-bets, scaled or perturbed near rounding, or random."""
    x = space.as_array()
    lo, hi = bet_bounds(space.mu)
    out = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["coinbet", "scaled", "noisy", "random", "flat"]))
        lam = draw(st.one_of(st.sampled_from([lo, hi, 0.0]), st.floats(lo, hi)))
        row = 1.0 + lam * (x - space.mu)
        if kind == "scaled":
            row = row * draw(st.floats(0.0, 1.2))
        elif kind == "noisy":
            scale = 10.0 ** draw(st.integers(-16, -11))
            noise = draw(st.lists(st.floats(-1, 1), min_size=len(x), max_size=len(x)))
            row = row + scale * np.array(noise)
        elif kind == "random":
            row = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=len(x), max_size=len(x))))
        elif kind == "flat":
            row = np.full(len(x), draw(st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.5])))
        out.append(np.maximum(row, 0.0))
    return np.array(out)


@st.composite
def single_tables(draw):
    space = draw(grids())
    row = draw(rows_on(space, 1))[0]
    return TabulatedEVariable(space, tuple(row.tolist()))


@st.composite
def two_round_tables(draw):
    """A grid and a table over its square: products of a first-round row and per-x rows."""
    space = draw(grids())
    n = len(space.points)
    first = draw(rows_on(space, 1))[0]
    second = draw(rows_on(space, n))
    table = first[:, None] * second
    if draw(st.booleans()):
        table = table * draw(st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.05]))
    return table, space


# --- single-round ----------------------------------------------------------------------


class TestSingleRound:
    @settings(max_examples=300, deadline=None)
    @given(table=single_tables())
    # A coin-bet whose slope interval rounding inverts by 2.2e-9 at slope 2.67:
    # beyond an absolute 1e-9, within the bar scaled to the slopes.
    @example(table=TabulatedEVariable(
        SampleSpace((0.0, 0.29999999, 0.30000001, 1.0), 0.3),
        (0.19816643403190237, 0.9999999732722145, 1.0000000267277855, 2.870944987258895),
    ))
    def test_report_and_certificate_match_oracle(self, table):
        assert_same(check_evariable, oracle_check_evariable, table)
        assert_same(beta_interval, oracle_beta_interval, table)

    @settings(max_examples=50, deadline=None)
    @given(table=single_tables(), tol=st.sampled_from([0.0, 1e-9, 0.5]))
    def test_tolerance_is_honoured(self, table, tol):
        assert_same(check_evariable, oracle_check_evariable, table, tol)

    @settings(max_examples=200, deadline=None)
    @given(table=single_tables())
    def test_check_and_depth_one_audit_agree(self, table):
        # Both decide on the same mean-mu laws, so the depth-1 audit of the
        # table (root value 1) fails at the validity tolerance exactly where
        # check_evariable refutes it, with the refutation's expectation.
        space, mu = table.space, table.space.mu
        values = dict(zip(space.points, table.values))
        process = eprocess_from_tables(mu, {(): 1.0, **{(p,): v for p, v in values.items()}}, space)
        report = check_evariable(table)
        audit = audit_eprocess(process, 1)
        assert (audit.max_expectation <= 1.0 + VALIDITY_TOL) == report.valid
        if report.valid:
            assert audit.passed
            return
        assert audit.max_expectation == report.expectation
        witness = report.witness
        assert witness.a <= mu <= witness.b
        assert abs(witness.mean() - mu) <= 1e-12
        wa, wb = two_point_masses(witness.a, witness.b, mu)
        assert witness.w == wa
        assert wa * values[witness.a] + wb * values[witness.b] > 1.0

    @settings(max_examples=200, deadline=None)
    @given(table=single_tables())
    def test_witness_replays_exactly(self, table):
        # The witness keeps both masses of domain.two_point_masses, so it
        # replays the reported expectation bit for bit and its mean is mu.
        report = check_evariable(table)
        if report.valid:
            return
        w, mu = report.witness, table.space.mu
        values = dict(zip(table.space.points, table.values))
        assert (w.w, w.wb) == two_point_masses(w.a, w.b, mu)
        assert w.expectation(values[w.a], values[w.b]) == report.expectation
        assert abs(w.mean() - mu) <= 1e-15

    @pytest.mark.parametrize("mu_on_grid", [True, False], ids=["mu-on-grid", "mu-off-grid"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_depth_one_audit_reports_the_check_witness(self, mu_on_grid, data):
        # Both searches scan the same laws from the same floor, 1: a table
        # that some law takes above 1 gets the same worst expectation and
        # the same pair from both, the point mass at mu as (mu, mu).
        inner = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8, unique=True))
        points = tuple(sorted({0.0, 1.0, *inner}))
        if mu_on_grid:
            mu = points[data.draw(st.integers(1, len(points) - 2))]
        else:
            mu = data.draw(st.floats(0.01, 0.99).filter(lambda m: m not in points))
        space = SampleSpace(points, mu)
        table = TabulatedEVariable(space, tuple(data.draw(rows_on(space, 1))[0].tolist()))
        tables = {(): 1.0, **{(p,): v for p, v in zip(points, table.values)}}
        audit = audit_eprocess(eprocess_from_tables(mu, tables, space), 1)
        report = check_evariable(table, tol=0.0)
        if report.valid:
            assert (audit.max_expectation, audit.argmax_mask) == (1.0, STOP)
            return
        assert audit.max_expectation == report.expectation > 1.0
        assert audit.argmax_tree.pairs == ((report.witness.a, report.witness.b),)
        assert audit.argmax_mask == full_mask(1)

    @pytest.mark.parametrize(
        "points, values, message",
        [
            # Valid, with a slope interval inverted by rounding: collapsed to a point.
            ((0.0, 0.49999999, 0.50000001, 1.0),
             (0.6053072011839202, 0.999999992106144, 1.000000007893856, 1.3946927988160798),
             None),
            # Valid, but inverted beyond 1e-9: raises without a witness.
            ((0.0, 0.499999997, 0.500000003, 1.0),
             (1.7086613301353941, 1.0000000042519739, 0.9999999957480281, 0.2913386698646016),
             "slope interval inverted beyond tolerance"),
            # Invalid: the message and witness of the validity check.
            ((0.0, 0.5, 1.0), (2.0, 1.0, 2.0), "table is not an e-variable"),
        ],
    )
    def test_collapse_and_raise_rules(self, points, values, message):
        table = TabulatedEVariable(SampleSpace(points, 0.5), values)
        got = outcome(beta_interval, table)
        assert got == outcome(oracle_beta_interval, table)
        if message is None:
            assert got[0].beta0 == got[0].beta1
        else:
            assert got[0] is NotAnEVariable and got[1].startswith(message)


# --- two-round -----------------------------------------------------------------------


class TestTwoRound:
    @settings(max_examples=300, deadline=None)
    @given(case=two_round_tables())
    def test_result_matches_oracle(self, case):
        assert_same(dominate_T2, oracle_dominate_T2, *case)

    def test_unreached_row_gets_zero(self):
        # lam1 = 1/mu: the first-round payoff at x = 0 is exactly 0.
        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        x = space.as_array()
        table = (1.0 + 2.0 * (x - 0.5))[:, None] * (1.0 + 0.5 * (x[None, :] - 0.5))
        got = outcome(dominate_T2, table, space)
        assert got == outcome(oracle_dominate_T2, table, space)
        assert got[0].coinbet.tables[0][()] == 2.0
        assert got[0].coinbet.tables[1][(0.0,)] == 0.0

    @pytest.mark.parametrize(
        "values, message",
        [
            # A certified first round whose slope collapse leaves a second-round row invalid.
            ([[0.09037646922934561, 0.808931705027071, 0.8089317337700745, 1.527486969568365],
              [0.4947207913385569, 0.9999999860728822, 1.0000000062835, 1.5052792010174176],
              [1.2458510566834198, 1.0000000087377767, 0.9999999989034428, 0.7541489509592328],
              [0.2977041606903158, 1.1910682627348441, 1.1910682984699332, 2.084432400514863]],
             "table is not an e-variable"),
            ([[1.7418369801023736, 1.302263293670289, 1.3022632760873412, 0.8626895896552568],
              [0.7638504823042901, 1.0000000013222752, 1.000000010768256, 1.236149529786241],
              [0.9066015003487108, 0.9999999920867643, 0.9999999958227042, 1.0933984875607574],
              [1.0639833254686002, 0.6977367224461172, 0.6977367077962527, 0.33149010477376956]],
             "slope interval inverted beyond tolerance"),
            ([[-1.0] * 4] * 4, "values must be finite and non-negative"),
            ([[1.0] * 3] * 3, "expected a 4x4 table"),
        ],
    )
    def test_raises_as_oracle(self, values, message):
        space = SampleSpace((0.0, 0.49999999, 0.50000001, 1.0), 0.5)
        self.assert_raises_as_oracle(values, space, message)

    @pytest.mark.parametrize("mu", [1e-6, 1.0 - 1e-6])
    def test_honest_coinbet_products_certify_near_an_end(self, mu):
        # Slopes reach 1/mu (or 1/(1 - mu)), so rounding in the rows divided
        # by the first-round payoff inverts their slope intervals by more
        # than an absolute 1e-9; a collapse bar scaled to the slopes lets
        # every honest product through (an absolute bar refused 29 and 39).
        space = SampleSpace((0.0, 0.3, 0.694, 0.7, 0.9, 1.0), mu)
        x = space.as_array()
        lo, hi = bet_bounds(mu)
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam1, lam2 = rng.uniform(lo, hi), rng.uniform(lo, hi, len(x))
            table = (1.0 + lam1 * (x - mu))[:, None] * (1.0 + lam2[:, None] * (x[None, :] - mu))
            table = np.maximum(table, 0.0)
            got = outcome(dominate_T2, table, space)
            assert got == outcome(oracle_dominate_T2, table, space)
            coinbet = got[0].coinbet
            for (a, b), v in zip(itertools.product(space.points, repeat=2), table.flat):
                assert coinbet.value((a, b)) >= v * (1.0 - 1e-11)

    def test_overflowing_row_raises_as_oracle(self):
        # The first round is valid to 1e-12, and row 1 pins its bet one ulp
        # under 1/mu, so the payoff at x = 0 is about 1.1e-16: dividing
        # row 0 by it takes 5e293 past the largest float.
        values = [[0.0, 5e293], [9.999999999999999e305, 9.999999999999999e305]]
        space = SampleSpace((0.0, 1.0), 1e-306)
        self.assert_raises_as_oracle(values, space, "values must be finite")

    @staticmethod
    def assert_raises_as_oracle(values, space, message):
        got = outcome(dominate_T2, values, space)
        assert got == outcome(oracle_dominate_T2, values, space)
        assert got[1].startswith(message)


# --- i.i.d. --------------------------------------------------------------------------

cell = st.one_of(
    st.floats(0.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e300]),
    st.floats(0.0, 1e-300),
)


# xi statistics from 1e-300 to 1e300, with exact 0.0 and 1.0 entries.
xi_value = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 4.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.0), st.integers(-300, 299)),
)
xis = st.builds(XiStats, xi_value, xi_value, xi_value)


class TestIid:
    @settings(max_examples=200, deadline=None)
    @given(s=xis)
    def test_bruteforce_matches_oracle(self, s):
        assert_same(check_iid_bruteforce, oracle_check_iid_bruteforce, s)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(cell, min_size=9, max_size=9))
    @example(cells=[0.0, -0.0] * 4 + [0.0])  # numpy sums -0.0 cells to 0.0
    def test_xi_stats_match_oracle(self, cells):
        table = np.array(cells).reshape(3, 3)
        assert_same(xi_stats, oracle_xi_stats, table)

    @pytest.mark.parametrize(
        "table",
        [np.ones((2, 3)), np.full((3, 3), np.nan), -np.ones((3, 3)), np.full((3, 3), np.inf)],
    )
    def test_xi_stats_rejects_as_oracle(self, table):
        assert_same(xi_stats, oracle_xi_stats, table)


# --- caches ----------------------------------------------------------------------------


class TestCachedGridIsReadOnly:
    def test_sample_space_array(self):
        # The grid array is built per call: writing to one changes neither
        # the space nor the next array.
        space = SampleSpace.uniform(5, 0.5)
        arr = space.as_array()
        arr[0] = 0.5
        assert space.as_array().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert space.points == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_copies_and_pickles_equal_the_space(self):
        space = SampleSpace.uniform(5, 0.3)
        for clone in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert clone == space
            assert clone.as_array().tolist() == list(space.points)

    def test_split_and_q_grid_are_kept_read_only(self):
        # The law list is kept per grid and mean, and built of tuples only.
        space = SampleSpace.uniform(5, 0.3)
        laws = mean_mu_laws(space.points, space.mu)
        assert laws is mean_mu_laws(SampleSpace.uniform(5, 0.3).points, 0.3)
        at, pairs = laws
        assert at is None and pairs and type(pairs) is tuple
        assert all(type(law) is tuple for law in pairs)
        grid = _q_grid()
        assert grid is _q_grid()
        for arr in grid:
            assert arr.size and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), space=grids(), negative_zero_first=st.booleans())
    def test_equal_spaces_built_apart_match_oracles(self, data, space, negative_zero_first):
        # -0.0 == 0.0, so a grid starting at -0.0 shares its law list with the
        # grid starting at 0.0; the reports must still carry its own points.
        mean_mu_laws.cache_clear()
        twins = [
            space,
            SampleSpace(tuple(space.points), space.mu),
            SampleSpace((-0.0, *space.points[1:]), space.mu),
        ]
        if negative_zero_first:
            twins.reverse()
        rows = data.draw(rows_on(space, 1))[0]
        square = data.draw(rows_on(space, len(space.points)))
        for twin in twins:
            table = TabulatedEVariable(twin, tuple(rows.tolist()))
            assert_same(check_evariable, oracle_check_evariable, table)
            assert_same(beta_interval, oracle_beta_interval, table)
            assert_same(dominate_T2, oracle_dominate_T2, square, twin)
        assert mean_mu_laws.cache_info().currsize == 1

    def test_more_spaces_than_the_cache_holds_match_oracles(self):
        spaces = [SampleSpace.uniform(n, mu) for n in (3, 4, 5, 7) for mu in (0.3, 0.5, 0.7)]
        assert len(spaces) > mean_mu_laws.cache_info().maxsize
        rng = np.random.default_rng(3)
        cases = []
        for space in spaces:
            x = space.as_array()
            lam = rng.uniform(*bet_bounds(space.mu))
            first = 1.0 + lam * (x - space.mu)
            scale = rng.choice([0.9, 1.05])
            cases.append((space, first * scale, first[:, None] * rng.uniform(0.8, 1.0, (len(x),) * 2)))
        for space, row, square in cases * 3:
            table = TabulatedEVariable(space, tuple(row.tolist()))
            assert_same(check_evariable, oracle_check_evariable, table)
            assert_same(beta_interval, oracle_beta_interval, table)
            assert_same(dominate_T2, oracle_dominate_T2, square, space)

    def test_equal_means_of_other_types_give_one_verdict(self):
        # A space keeps its mean as a float, so every type of mean gets the
        # same masses: the mean-mu law on {0, 0.5 + 5e-10}, with about 1e-9
        # of its mass on 0, refutes the table by about 5e-10 each time. In
        # float32 the masses would be computed on other numbers.
        points, values = (0.0, 0.5 + 5e-10, 1.0), (1.0, 1.0000000005, 1.0)
        mean_mu_laws.cache_clear()
        reports = []
        for mu in (0.5, np.float32(0.5), np.array(0.5)):
            space = SampleSpace(points, mu)
            assert type(space.mu) is float
            reports.append(check_evariable(TabulatedEVariable(space, values)))
        assert [r.valid for r in reports] == [False, False, False]
        assert len({repr(r) for r in reports}) == 1
        assert (reports[0].witness.a, reports[0].witness.b) == (0.0, 0.5 + 5e-10)
        assert reports[0].witness.w == pytest.approx(1e-9, rel=1e-6)
        assert mean_mu_laws.cache_info().currsize == 1
