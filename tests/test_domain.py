import csv
import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from conftest import reference_table

from evbet.domain import (
    DiscreteDistribution,
    SampleSpace,
    anchored_two_point,
    distribution_from_csv,
    parse_distribution,
    replicate_seed,
    sample_stream,
    square_table_from_csv,
    two_point_masses,
    two_point_measure,
)
from evbet.errors import MeanOutsideSpan
from evbet.evariables import (
    TabulatedEVariable,
    eval_majorizer,
    tabulated_from_csv,
    tabulated_to_csv,
)
from evbet.multiround import (
    MultiRoundCoinBet,
    coinbet_eprocess,
    eprocess_from_csv,
    eprocess_from_tables,
    eprocess_to_csv,
)


class TestTwoPointWeight:
    def test_symmetric_pair(self):
        assert two_point_masses(0.0, 1.0, 0.5)[0] == 0.5

    def test_degenerate_pair_uses_convention(self):
        assert two_point_masses(0.5, 0.5, 0.5)[0] == 1.0

    def test_asymmetric_pair(self):
        # Oracle: w solves w*0.25 + (1-w)*1 = 0.5, i.e. w = 2/3.
        w = two_point_masses(0.25, 1.0, 0.5)[0]
        assert w == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert w * 0.25 + (1 - w) * 1.0 == pytest.approx(0.5, abs=1e-12)

    def test_mean_outside_span(self):
        with pytest.raises(MeanOutsideSpan):
            two_point_masses(0.6, 1.0, 0.5)

    def test_unordered_arguments(self):
        assert two_point_masses(1.0, 0.0, 0.5)[0] == pytest.approx(0.5)

    @given(
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
        mu=st.floats(0.01, 0.99),
    )
    def test_weight_in_unit_interval_and_mean_correct(self, a, b, mu):
        lo, hi = min(a, b), max(a, b)
        assume(lo <= mu <= hi)
        w = two_point_masses(a, b, mu)[0]
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

    @pytest.mark.parametrize("literal", ["uniform-grid:11", "uniform-grid:3", "bernoulli:0.3",
                                         "bernoulli:0.4"])
    def test_draws_are_rng_choice_draws(self, literal):
        # sample_stream inverts the CDF as rng.choice does, so the draws must agree exactly.
        dist = parse_distribution(literal)
        masses = dist.masses() / dist.masses().sum()
        for seed in range(300):
            for n in (0, 1, 7, 1000):
                ref = np.random.default_rng(seed).choice(dist.points(), size=n, p=masses)
                xs = sample_stream(dist, n, seed)
                assert xs.shape == ref.shape and xs.dtype == ref.dtype
                assert (xs == ref).all()

    def test_rejects_a_tolerated_negative_mass_as_rng_choice_does(self):
        dist = DiscreteDistribution(((0.0, -1e-13), (0.5, 0.5), (1.0, 0.5 + 1e-13)))
        with pytest.raises(ValueError, match="Probabilities are not non-negative"):
            sample_stream(dist, 5, 0)


class TestValidation:
    def test_sample_space_requires_endpoints(self):
        with pytest.raises(ValueError):
            SampleSpace((0.0, 0.5), 0.5)
        with pytest.raises(ValueError):
            SampleSpace((0.1, 1.0), 0.5)

    def test_sample_space_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            SampleSpace((0.0, 0.5, 0.5, 1.0), 0.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleSpace((0.0, float("nan"), 1.0), 0.5)

    def test_sample_space_mu_open_interval(self):
        for mu in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                SampleSpace((0.0, 1.0), mu)

    def test_sample_space_mean_is_one_float(self):
        for mu in (0.5, np.float32(0.5), np.array(0.5), np.float64(0.5)):
            space = SampleSpace((0.0, 1.0), mu)
            assert type(space.mu) is float and space.mu == 0.5
        with pytest.raises(ValueError, match="mu must be a scalar, got an array of shape \\(2,\\)"):
            SampleSpace((0.0, 1.0), np.array([0.5, 0.5]))

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

    def test_sample_space_builds_its_array_on_first_use(self):
        # Built on each call and never kept: the space holds its fields only.
        space = SampleSpace((0.0, 0.25, 1.0), 0.5)
        arr = space.as_array()
        assert arr.tolist() == [0.0, 0.25, 1.0] and space.as_array() is not arr
        assert vars(space) == {"points": (0.0, 0.25, 1.0), "mu": 0.5}
        assert space == SampleSpace((0.0, 0.25, 1.0), 0.5)

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
        assert table == ((1.0, 2.0), (3.0, 4.0))

    def test_fixed_grid_rejects_other_coordinates(self, tmp_path):
        path = self.write(tmp_path, [(0.0, 0.25, 1.0)])
        with pytest.raises(ValueError, match=r"coordinates must come from \{0, 0.5, 1\}"):
            square_table_from_csv(path, (0.0, 0.5, 1.0))

    @pytest.mark.parametrize("grid", [None, (0.0, 1.0)])
    def test_missing_cell_named(self, tmp_path, grid):
        path = self.write(tmp_path, [(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match=r"missing cell \(1.0, 0.0\)"):
            square_table_from_csv(path, grid)


class TestTableFiles:
    """Every table file is read by ``read_table``: its errors name the file,
    and the line of a field that does not parse, and each key is given once."""

    # loader, header, rows, how the last row's key is named
    LOADERS = {
        "distribution": (distribution_from_csv, "point,mass", ["0.0,0.5", "1.0,0.5"], "point 1.0"),
        "e-variable": (lambda path: tabulated_from_csv(path, 0.5), "point,value",
                       ["0.0,1.0", "1.0,1.0"], "point 1.0"),
        "square": (square_table_from_csv, "x1,x2,value",
                   ["0.0,0.0,1.0", "0.0,1.0,1.0", "1.0,0.0,1.0", "1.0,1.0,1.0"], "cell (1.0, 1.0)"),
        "e-process": (lambda path: eprocess_from_csv(path, 0.5), "depth,path,value",
                      ["0,,1.0", "1,0.0,1.0", "1,1.0,1.0"], "path '1.0'"),
    }

    @staticmethod
    def load(tmp_path, kind, rows):
        loader, header, _, _ = TestTableFiles.LOADERS[kind]
        path = tmp_path / "table.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return loader(str(path))

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_non_number_names_file_and_line(self, tmp_path, kind):
        rows = self.LOADERS[kind][2]
        bad = rows[-1].rsplit(",", 1)[0] + ",abc"
        line = len(rows) + 2  # the header, a blank line that counts, then the rows
        with pytest.raises(ValueError, match=rf"table.csv: line {line}: could not convert .*'abc'"):
            self.load(tmp_path, kind, ["", *rows[:-1], bad])

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_short_row_names_file_and_line(self, tmp_path, kind):
        rows = self.LOADERS[kind][2]
        short = rows[-1].split(",")[0]
        with pytest.raises(ValueError, match=rf"table.csv: line {len(rows) + 1}: "):
            self.load(tmp_path, kind, [*rows[:-1], short])

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_repeated_key_rejected(self, tmp_path, kind):
        _, _, rows, name = self.LOADERS[kind]
        again = rows[-1].rsplit(",", 1)[0] + ",0.0"
        with pytest.raises(ValueError, match=re.escape(f"table.csv: {name} appears twice")):
            self.load(tmp_path, kind, [*rows, again])

    def test_keys_compare_as_numbers(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape("table.csv: point 1.0 appears twice")):
            self.load(tmp_path, "e-variable", ["0,1", "1,1", "1.00,1"])

    def test_malformed_csv_is_a_value_error(self, tmp_path):
        # An unclosed quote runs the field past the csv module's size limit.
        with pytest.raises(ValueError, match="table.csv: field larger than field limit"):
            self.load(tmp_path, "square", ['0,0,"1' + "0" * 200_000])


def eprocess_reference(e, space, depth):
    """The bytes ``csv.writer`` writes for ``eprocess_to_csv``'s rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["depth", "path", "value"])
    for t in range(depth + 1):
        for prefix in itertools.product(space.points, repeat=t):
            writer.writerow([t, ",".join(repr(p) for p in prefix), repr(e.value(prefix))])
    return buf.getvalue().encode()


class TestLibraryTableWriters:
    """``eprocess_to_csv`` and ``tabulated_to_csv`` write through ``write_table``,
    byte for byte what ``csv.writer`` writes."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("space", [SampleSpace((0.0, 0.5, 1.0), 0.5), SampleSpace.uniform(5, 0.3)],
                             ids=["3-point", "5-point"])
    def test_eprocess_bytes_match_csv_writer(self, tmp_path, rng, space, depth):
        # A coin-bet's wealth, and a table of values of every magnitude.
        tables = tuple(
            {p: float(rng.uniform(-1.0, 1.0)) for p in itertools.product(space.points, repeat=t)}
            for t in range(max(depth, 1))
        )
        values = {
            p: float(rng.choice([0.0, 1e-300, 1.0 / 3.0, 7.0, 2.5e17])) if p else 1.0
            for t in range(depth + 1) for p in itertools.product(space.points, repeat=t)
        }
        processes = [coinbet_eprocess(MultiRoundCoinBet(space.mu, tables), space),
                     eprocess_from_tables(space.mu, values, space)]
        for e in processes:
            path = tmp_path / "ep.csv"
            with open(path, "w", newline="") as fh:
                eprocess_to_csv(e, space, depth, fh)
            assert path.read_bytes() == eprocess_reference(e, space, depth)

    def test_tabulated_bytes_match_csv_writer(self, tmp_path):
        space = SampleSpace((0.0, 0.1, 1.0 / 3.0, 0.75, 1.0), 0.3)
        table = TabulatedEVariable(space, (0.0, 1e-300, 1.0 / 7.0, 1.25, 2.5e17))
        path = tmp_path / "table.csv"
        tabulated_to_csv(table, str(path))
        rows = [(repr(p), repr(v)) for p, v in zip(space.points, table.values)]
        assert path.read_bytes() == reference_table(("point", "value"), rows, "csv")
