import itertools
import warnings

import numpy as np
import pytest

from evbet.domain import SampleSpace, square_table_from_csv
from evbet.iid_case import (
    GRID,
    XiStats,
    check_iid_bruteforce,
    check_iid_closed_form,
    iid_expectation,
    interior_maximum,
    separation_table,
    xi_stats,
)
from evbet.multiround import MultiRoundCoinBet, dominate_T2

GRID3 = SampleSpace((0.0, 0.5, 1.0), 0.5)


class TestXiStats:
    def test_constant_one(self):
        assert xi_stats(np.ones((3, 3))) == XiStats(1.0, 1.0, 1.0)

    def test_separation_table(self):
        assert xi_stats(separation_table()) == XiStats(0.0, 1.0, 0.0)

    def test_corner_cells(self):
        t = np.zeros((3, 3))
        for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
            t[i, j] = 2.0
        assert xi_stats(t) == XiStats(0.0, 0.0, 2.0)

    def test_rejects_negative(self):
        t = np.ones((3, 3))
        t[0, 0] = -0.5
        with pytest.raises(ValueError):
            xi_stats(t)


class TestClosedForm:
    def test_all_ones_valid(self):
        assert check_iid_closed_form(XiStats(1.0, 1.0, 1.0))

    def test_boundary_case(self):
        # xi1 = 1 + sqrt((1-0)(1-0)) exactly on the constraint boundary
        assert check_iid_closed_form(XiStats(0.0, 2.0, 0.0))

    def test_just_above_one_invalid(self):
        assert not check_iid_closed_form(XiStats(1.0, 1.01, 1.0))


class TestBruteForce:
    def test_boundary_case_max_one_at_half(self):
        res = check_iid_bruteforce(XiStats(0.0, 2.0, 0.0))
        assert res.max_expectation == pytest.approx(1.0, abs=1e-12)
        assert res.argmax_q == pytest.approx(0.5, abs=1e-4)

    def test_separation_stats(self):
        res = check_iid_bruteforce(XiStats(0.0, 1.0, 0.0))
        assert res.max_expectation == pytest.approx(0.5, abs=1e-12)
        assert res.argmax_q == pytest.approx(0.5, abs=1e-4)

    def test_constant(self):
        res = check_iid_bruteforce(XiStats(1.0, 1.0, 1.0))
        assert res.max_expectation == pytest.approx(1.0, abs=1e-12)

    def test_huge_xi1_does_not_overflow(self):
        # (xi1 - xi2)^2 overflows a float here; the maximum itself is finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_iid_bruteforce(XiStats(0.0, 1e300, 0.0))
        assert res.max_expectation == 5e299
        assert res.argmax_q == 0.5

    def test_interior_maximum_formula(self, rng):
        # Against dense-grid maximisation, and against the closed-form value
        # xi2 + (xi1-xi2)^2 / (2*xi1 - xi0 - xi2) in the concave case.
        for _ in range(500):
            s = XiStats(*rng.uniform(0.0, 2.5, size=3))
            interior = interior_maximum(s)
            qs = np.linspace(0.0, 1.0, 200_001)
            dense = float(
                np.max(qs * qs * s.xi0 + 2 * qs * (1 - qs) * s.xi1 + (1 - qs) ** 2 * s.xi2)
            )
            got = check_iid_bruteforce(s).max_expectation
            assert got == pytest.approx(dense, abs=1e-7)
            if interior is not None:
                q_star, value = interior
                assert value == pytest.approx(
                    s.xi2 + (s.xi1 - s.xi2) ** 2 / (2 * s.xi1 - s.xi0 - s.xi2), abs=1e-12
                )
                assert iid_expectation(s, q_star) == pytest.approx(value, abs=1e-12)

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(2000):
            s = XiStats(*rng.uniform(0.0, 2.5, size=3))
            closed = check_iid_closed_form(s, tol=1e-9)
            brute = check_iid_bruteforce(s).max_expectation <= 1.0 + 1e-9
            assert closed == brute


class TestSeparationWitness:
    def test_iid_valid_but_conditionally_refuted(self):
        table = separation_table()
        stats = xi_stats(table)
        assert check_iid_closed_form(stats)
        assert check_iid_bruteforce(stats).max_expectation <= 1.0
        res = dominate_T2(table, GRID3)
        assert not res.certified
        assert res.refutation.expectation == pytest.approx(2.0, abs=1e-12)

    def test_two_round_coinbets_restrict_to_unit_stats(self, rng):
        # Multi-round coin-bet tables always collapse to xi0 = xi1 = xi2 = 1.
        for _ in range(50):
            tables = (
                {(): float(rng.uniform(-2, 2))},
                {(x,): float(rng.uniform(-2, 2)) for x in GRID3.points},
            )
            bet = MultiRoundCoinBet(0.5, tables)
            vals = np.array(
                [[bet.value((x, y)) for y in GRID3.points] for x in GRID3.points]
            )
            s = xi_stats(vals)
            assert s.xi0 == pytest.approx(1.0, abs=1e-12)
            assert s.xi1 == pytest.approx(1.0, abs=1e-12)
            assert s.xi2 == pytest.approx(1.0, abs=1e-12)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["x1,x2,value"]
        for x1, x2 in itertools.product((0.0, 0.5, 1.0), repeat=2):
            rows.append(f"{x1},{x2},{4.0 if (x1, x2) == (1.0, 0.5) else 0.0}")
        path.write_text("\n".join(rows) + "\n")
        assert (square_table_from_csv(str(path), GRID)[1] == separation_table()).all()

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x2,value\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError):
            square_table_from_csv(str(path), GRID)
