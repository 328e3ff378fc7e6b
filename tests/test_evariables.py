import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbet.betting import lambda_grid
from evbet.domain import SampleSpace
from evbet.errors import NotAnEVariable, OutOfRange
from evbet.evariables import (
    MU_SNAP_TOL,
    CoinBetEVariable,
    HoeffdingEVariable,
    TabulatedEVariable,
    bet_bounds,
    beta_interval,
    check_evariable,
    dominating_lambda,
    eval_majorizer,
)

GRID101 = SampleSpace.uniform(101, 0.5)


def tabulate_coinbet(space, lam):
    return TabulatedEVariable.tabulate(space, CoinBetEVariable(space.mu, lam).value)


class TestEvalCoinBet:
    def test_boundary_bet_doubles_at_one(self):
        assert CoinBetEVariable(0.5, 2.0).value(1.0) == 2.0

    def test_value_one_at_mean(self):
        for lam in (-2.0, -0.3, 0.0, 1.7, 2.0):
            assert CoinBetEVariable(0.5, lam).value(0.5) == 1.0

    def test_zero_bet_is_identity(self):
        assert CoinBetEVariable(0.5, 0.0).value(0.7) == 1.0

    def test_rejects_fraction_outside_interval(self):
        with pytest.raises(OutOfRange):
            CoinBetEVariable(0.5, 2.1)

    @given(mu=st.floats(0.05, 0.95), x=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    def test_nonnegative_on_unit_interval(self, mu, x, u):
        lo, hi = bet_bounds(mu)
        lam = min(hi, max(lo, lo + u * (hi - lo)))
        assert CoinBetEVariable(mu, lam).value(x) >= -1e-12


class TestEvalHoeffding:
    def test_alpha_zero_is_one(self):
        assert HoeffdingEVariable(0.5, 0.0).value(0.3) == 1.0

    def test_value_at_mean(self):
        # exp(-1/8): frozen from the formula at alpha=1, x=mu.
        assert HoeffdingEVariable(0.5, 1.0).value(0.5) == pytest.approx(
            0.8824969025845955, abs=1e-15
        )

    @pytest.mark.parametrize("alpha", [-3.0, -0.5, 0.5, 4.0])
    def test_below_one_at_mean_for_nonzero_alpha(self, alpha):
        assert HoeffdingEVariable(0.4, alpha).value(0.4) < 1.0


class TestMajorizer:
    def test_upper_endpoint(self):
        assert eval_majorizer(0.5, 1.0) == 2.0

    def test_at_mean(self):
        assert eval_majorizer(0.5, 0.5) == 1.0

    def test_lower_endpoint(self):
        assert eval_majorizer(0.5, 0.0) == 2.0

    def test_envelope_dominates_valid_tables(self, rng):
        space = SampleSpace.uniform(21, 0.3)
        envelope = eval_majorizer(0.3, space.as_array())
        for _ in range(50):
            lam = rng.uniform(*bet_bounds(0.3))
            scale = rng.uniform(0.2, 1.0)
            table = TabulatedEVariable(
                space, tuple(scale * v for v in tabulate_coinbet(space, lam).values)
            )
            assert check_evariable(table).valid
            assert (table.as_array() <= envelope + 1e-12).all()


class TestDominatingLambda:
    def test_zero_alpha_gives_zero(self):
        assert dominating_lambda(0.5, 0.0) == 0.0

    def test_frozen_value(self):
        # exp(0.375) - exp(-0.625), checked below by the grid dominance oracle.
        assert dominating_lambda(0.5, 1.0) == pytest.approx(0.91972998609921097, abs=1e-15)

    def test_negative_alpha_sign(self):
        lam = dominating_lambda(0.3, -2.0)
        lo, hi = bet_bounds(0.3)
        assert lam < 0.0
        assert lo <= lam <= hi

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("alpha", [-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0])
    def test_grid_dominance_oracle(self, mu, alpha):
        xs = np.linspace(0.0, 1.0, 2001)
        lam = dominating_lambda(mu, alpha)
        lo, hi = bet_bounds(mu)
        assert lo <= lam <= hi
        cb = CoinBetEVariable(mu, lam).value(xs)
        hoeff = HoeffdingEVariable(mu, alpha).value(xs)
        assert (cb >= hoeff - 1e-12).all()

    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
    def test_strictness_witnesses(self, mu):
        # A nonzero coin-bet can never be dominated by any Hoeffding payoff:
        # at the mean for alpha != 0, at an endpoint for alpha == 0.
        for lam in (-0.5, 0.7):
            e_lam = CoinBetEVariable(mu, lam)
            for alpha in (-3.0, -1.0, 1.0, 3.0):
                assert HoeffdingEVariable(mu, alpha).value(mu) < e_lam.value(mu)
            assert max(e_lam.value(0.0), e_lam.value(1.0)) > 1.0


class TestCheckEVariable:
    def test_constant_one_valid(self):
        table = TabulatedEVariable(GRID101, (1.0,) * 101)
        assert check_evariable(table).valid

    def test_envelope_is_not_an_evariable(self):
        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        table = TabulatedEVariable.tabulate(space, lambda x: eval_majorizer(0.5, x))
        report = check_evariable(table)
        assert not report.valid
        assert (report.witness.a, report.witness.b) == (0.0, 1.0)
        assert report.witness.w == pytest.approx(0.5)
        assert report.expectation == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [-2.0, -1.0, 0.0, 0.25, 2.0])
    def test_coinbet_tables_exact(self, lam):
        table = tabulate_coinbet(GRID101, lam)
        assert check_evariable(table).valid
        pts, vals = GRID101.as_array(), table.as_array()
        below, above = pts < 0.5, pts > 0.5
        a, b = pts[below][:, None], pts[above][None, :]
        w = (b - 0.5) / (b - a)
        expect = w * vals[below][:, None] + (1 - w) * vals[above][None, :]
        assert np.abs(expect - 1.0).max() < 1e-12

    @pytest.mark.parametrize("offset", [MU_SNAP_TOL / 2, -MU_SNAP_TOL / 2], ids=["above", "below"])
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_coinbets_certify_on_a_point_snapped_to_mu(self, mu, offset):
        # The point mu + offset is handled as mu, where a coin-bet pays up to
        # eval_majorizer(mu, mu + offset), not 1: no exact coin-bet is refuted there.
        space = SampleSpace((0.0, 0.2, mu + offset, 0.8, 1.0), mu)
        for lam in lambda_grid(mu, 21):
            table = tabulate_coinbet(space, lam)
            assert check_evariable(table).valid
            cert = beta_interval(table)
            majorant = CoinBetEVariable(mu, cert.lambda_hat).value(space.as_array())
            assert (majorant >= table.as_array() - 1e-9).all()
            scaled = TabulatedEVariable(space, tuple(1.05 * table.as_array()))
            assert not check_evariable(scaled).valid

    def test_value_above_one_at_mean_rejected(self):
        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        report = check_evariable(TabulatedEVariable(space, (0.0, 1.1, 0.0)))
        assert not report.valid
        assert report.witness.a == report.witness.b == 0.5


class TestBetaInterval:
    @pytest.mark.parametrize("lam", [-2.0, -0.7, 0.0, 1.3, 2.0])
    def test_coinbet_is_its_own_certificate(self, lam):
        cert = beta_interval(tabulate_coinbet(GRID101, lam))
        assert cert.beta0 == pytest.approx(lam, abs=1e-9)
        assert cert.beta1 == pytest.approx(lam, abs=1e-9)
        assert cert.lambda_hat == pytest.approx(lam, abs=1e-9)
        assert abs(cert.beta0 - cert.beta1) <= 1e-9

    def test_constant_one_pins_zero(self):
        cert = beta_interval(TabulatedEVariable(GRID101, (1.0,) * 101))
        assert cert.beta0 == cert.beta1 == cert.lambda_hat == 0.0

    def test_hoeffding_interval_contains_secant_slope(self):
        table = TabulatedEVariable.tabulate(GRID101, HoeffdingEVariable(0.5, 1.0).value)
        cert = beta_interval(table)
        lam_alpha = dominating_lambda(0.5, 1.0)
        assert cert.beta1 <= lam_alpha <= cert.beta0
        cb = CoinBetEVariable(0.5, cert.lambda_hat).value(GRID101.as_array())
        assert (cb >= table.as_array() - 1e-12).all()

    def test_invalid_table_raises_with_witness(self):
        space = SampleSpace((0.0, 0.5, 1.0), 0.5)
        table = TabulatedEVariable.tabulate(space, lambda x: eval_majorizer(0.5, x))
        with pytest.raises(NotAnEVariable) as err:
            beta_interval(table)
        assert err.value.witness is not None
        assert err.value.expectation == pytest.approx(2.0, abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        table = tabulate_coinbet(SampleSpace.uniform(11, 0.3), 2.5)
        path = tmp_path / "table.csv"
        from evbet.evariables import tabulated_from_csv, tabulated_to_csv

        tabulated_to_csv(table, str(path))
        reloaded = tabulated_from_csv(str(path), 0.3)
        assert reloaded.space.points == table.space.points
        assert reloaded.values == table.values

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(0.1, 0.9),
        lam1_u=st.floats(0.0, 1.0),
        lam2_u=st.floats(0.0, 1.0),
        mix=st.floats(0.0, 1.0),
        scale=st.floats(0.1, 1.0),
    )
    def test_certificate_soundness_randomized(self, mu, lam1_u, lam2_u, mix, scale):
        space = SampleSpace.uniform(31, mu)
        lo, hi = bet_bounds(mu)
        lam1 = min(hi, max(lo, lo + lam1_u * (hi - lo)))
        lam2 = min(hi, max(lo, lo + lam2_u * (hi - lo)))
        cb1, cb2 = CoinBetEVariable(mu, lam1), CoinBetEVariable(mu, lam2)
        xs = space.as_array()
        vals = scale * np.minimum(
            mix * cb1.value(xs) + (1 - mix) * cb2.value(xs), cb1.value(xs)
        )
        vals = np.maximum(vals, 0.0)  # boundary payoffs can round to -1ulp
        table = TabulatedEVariable(space, tuple(float(v) for v in vals))
        assert check_evariable(table).valid
        cert = beta_interval(table)
        assert cert.beta1 <= cert.beta0
        dominator = CoinBetEVariable(mu, cert.lambda_hat).value(xs)
        assert (dominator >= table.as_array() - 1e-12).all()
