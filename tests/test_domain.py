import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from evbet.domain import (
    DiscreteDistribution,
    SampleSpace,
    anchored_two_point,
    parse_distribution,
    replicate_seed,
    sample_stream,
    square_table_from_csv,
    two_point_measure,
    two_point_weight,
)
from evbet.errors import MeanOutsideSpan
from evbet.evariables import eval_majorizer


class TestTwoPointWeight:
    def test_symmetric_pair(self):
        assert two_point_weight(0.0, 1.0, 0.5) == 0.5

    def test_degenerate_pair_uses_convention(self):
        assert two_point_weight(0.5, 0.5, 0.5) == 1.0

    def test_asymmetric_pair(self):
        # Oracle: w solves w*0.25 + (1-w)*1 = 0.5, i.e. w = 2/3.
        w = two_point_weight(0.25, 1.0, 0.5)
        assert w == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert w * 0.25 + (1 - w) * 1.0 == pytest.approx(0.5, abs=1e-12)

    def test_mean_outside_span(self):
        with pytest.raises(MeanOutsideSpan):
            two_point_weight(0.6, 1.0, 0.5)

    def test_unordered_arguments(self):
        assert two_point_weight(1.0, 0.0, 0.5) == pytest.approx(0.5)

    @given(
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
        mu=st.floats(0.01, 0.99),
    )
    def test_weight_in_unit_interval_and_mean_correct(self, a, b, mu):
        lo, hi = min(a, b), max(a, b)
        assume(lo <= mu <= hi)
        w = two_point_weight(a, b, mu)
        assert 0.0 <= w <= 1.0
        assert w * a + (1 - w) * b == pytest.approx(mu, abs=1e-9)


class TestAnchoredTwoPoint:
    def test_top_endpoint(self):
        m = anchored_two_point(1.0, 0.5)
        assert sorted([(m.a, m.w), (m.b, 1 - m.w)]) == [(0.0, 0.5), (1.0, 0.5)]

    def test_at_mean_is_point_mass(self):
        m = anchored_two_point(0.5, 0.5)
        masses = {m.a: m.w, m.b: m.w if m.a == m.b else 1 - m.w}
        assert masses.get(0.5) == pytest.approx(1.0)

    def test_bottom_endpoint_pairs_with_one(self):
        m = anchored_two_point(0.0, 0.5)
        assert {m.a: m.w, m.b: 1 - m.w} == {0.0: pytest.approx(0.5), 1.0: pytest.approx(0.5)}
        assert m.mean() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.77])
    def test_mass_is_reciprocal_envelope_on_grid(self, mu):
        for x in np.linspace(0.0, 1.0, 41):
            m = anchored_two_point(float(x), mu)
            assert m.mean() == pytest.approx(mu, abs=1e-12)
            mass_on_x = m.w if m.a == x else 1 - m.w
            if m.a == m.b:
                mass_on_x = 1.0
            assert mass_on_x == pytest.approx(1.0 / eval_majorizer(mu, float(x)), abs=1e-12)


class TestSampleStream:
    def test_point_mass(self):
        assert list(sample_stream(DiscreteDistribution.point(0.5), 3, 123)) == [0.5, 0.5, 0.5]

    def test_degenerate_bernoulli(self):
        assert list(sample_stream(DiscreteDistribution.bernoulli(1.0), 2, 9)) == [1.0, 1.0]

    def test_fair_coin_mean(self):
        xs = sample_stream(DiscreteDistribution.bernoulli(0.5), 10_000, 42)
        assert abs(xs.mean() - 0.5) < 0.02

    def test_reproducible(self):
        d = DiscreteDistribution.uniform_grid(5)
        a = sample_stream(d, 100, 7)
        b = sample_stream(d, 100, 7)
        assert (a == b).all()
        c = sample_stream(d, 100, 8)
        assert (a != c).any()


class TestValidation:
    def test_sample_space_requires_endpoints(self):
        with pytest.raises(ValueError):
            SampleSpace((0.0, 0.5), 0.5)
        with pytest.raises(ValueError):
            SampleSpace((0.1, 1.0), 0.5)

    def test_sample_space_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            SampleSpace((0.0, 0.5, 0.5, 1.0), 0.5)

    def test_sample_space_mu_open_interval(self):
        for mu in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                SampleSpace((0.0, 1.0), mu)

    def test_distribution_mass_checks(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, 0.6), (1.0, 0.6)))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, -0.1), (1.0, 1.1)))
        with pytest.raises(ValueError):
            DiscreteDistribution(((1.5, 1.0),))

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_distribution_rejects_non_finite_mass(self, mass):
        with pytest.raises(ValueError, match=f"non-finite mass {mass} at 0.0"):
            DiscreteDistribution(((0.0, mass), (1.0, 1.0)))

    def test_distribution_rejects_non_finite_total(self):
        with pytest.raises(ValueError, match="masses sum to inf"):
            DiscreteDistribution(((0.0, 1e308), (0.5, 1e308), (1.0, 1.0)))

    def test_two_point_measure_mean(self):
        m = two_point_measure(0.2, 0.8, 0.5)
        assert m.mean() == pytest.approx(0.5, abs=1e-12)


class TestParseDistribution:
    def test_literals(self):
        assert parse_distribution("bernoulli:0.25").mean() == pytest.approx(0.25)
        assert parse_distribution("point:0.7").atoms == ((0.7, 1.0),)
        grid = parse_distribution("uniform-grid:5")
        assert grid.mean() == pytest.approx(0.5)
        assert len(grid.atoms) == 5

    def test_table_literal(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("point,mass\n0.0,0.25\n1.0,0.75\n")
        assert parse_distribution(f"table:{path}").mean() == pytest.approx(0.75)

    def test_bad_literals(self):
        for lit in ("gauss:0", "bernoulli:2", "point:x", "uniform-grid:1"):
            with pytest.raises(ValueError):
                parse_distribution(lit)


class TestReplicateSeed:
    def test_deterministic_and_spread(self):
        seeds = {replicate_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert replicate_seed(42, 7) == replicate_seed(42, 7)
        assert replicate_seed(42, 7) != replicate_seed(43, 7)


class TestSquareTableCsv:
    def write(self, tmp_path, rows):
        path = tmp_path / "square.csv"
        path.write_text("x1,x2,value\n" + "".join(f"{a},{b},{v}\n" for a, b, v in rows))
        return str(path)

    def test_grid_from_the_file(self, tmp_path):
        rows = [(1.0, 1.0, 4.0), (0.0, 1.0, 2.0), (1.0, 0.0, 3.0), (0.0, 0.0, 1.0)]
        grid, table = square_table_from_csv(self.write(tmp_path, rows))
        assert grid == (0.0, 1.0)
        assert table.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_fixed_grid_rejects_other_coordinates(self, tmp_path):
        path = self.write(tmp_path, [(0.0, 0.25, 1.0)])
        with pytest.raises(ValueError, match=r"coordinates must come from \{0, 0.5, 1\}"):
            square_table_from_csv(path, (0.0, 0.5, 1.0))

    @pytest.mark.parametrize("grid", [None, (0.0, 1.0)])
    def test_missing_cell_named(self, tmp_path, grid):
        path = self.write(tmp_path, [(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match=r"missing cell \(1.0, 0.0\)"):
            square_table_from_csv(path, grid)
