import io
import math

import numpy as np
import pytest

from hscascade.cascade import (
    SimConfig,
    StructureTable,
    ZetaEstimate,
    default_p_list,
    estimate_deltas,
    estimate_zeta,
    simulate,
)
from hscascade.exponents import CascadeParams, ScalingLaw, conservation_gamma, delta, zeta
from hscascade.generators import LevyGenerator, logpoisson_from_scaling, normalize_mean_one

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
SL_LP = logpoisson_from_scaling(SL, 0.5)
LN_HALF = math.log(0.5)


def exact_table(law, r, n_levels, p_list, se=0.0):
    """Noise-free structure table with ln_S = n * zeta_p * ln r."""
    rows = [(p, n, n * zeta(law, p) * math.log(r), se)
            for p in p_list for n in range(1, n_levels + 1)]
    arr = np.array(rows)
    return StructureTable(
        p=arr[:, 0], n=arr[:, 1].astype(int), ln_s=arr[:, 2], se=arr[:, 3],
        metadata={"r": r, "n_samples": 0, "seed": 0},
    )


class TestSimulate:
    def test_deterministic_generator_exact(self):
        gamma = 0.2
        gen = LevyGenerator(drift=gamma * LN_HALF)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=1), n_levels=4, n_samples=200,
                        seed=0, p_list=(0.0, 1.0, 2.0))
        table = simulate(cfg, gen)
        for p, n, ln_s in zip(table.p, table.n, table.ln_s):
            assert ln_s == pytest.approx(n * gamma * p * LN_HALF, abs=1e-12)

    def test_zero_order_rows_are_zero(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=500, seed=1)
        table = simulate(cfg, SL_LP)
        n, y, se = table.rows_for(0.0)
        assert np.all(y == 0.0) and np.all(se == 0.0)

    def test_conservation_at_p1(self):
        gen = normalize_mean_one(SL_LP)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=50_000,
                        seed=2, p_list=(0.0, 1.0))
        table = simulate(cfg, gen)
        _, y, se = table.rows_for(1.0)
        assert np.all(np.abs(y) < 4 * se)

    def test_matches_closed_form_at_p3(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=100_000,
                        seed=3, p_list=(0.0, 3.0))
        table = simulate(cfg, SL_LP)
        n, y, se = table.rows_for(3.0)
        deepest = n == 8
        assert abs(y[deepest][0] - 8 * zeta(SL, 3.0) * LN_HALF) < 4 * se[deepest][0]
        assert 8 * zeta(SL, 3.0) * LN_HALF == pytest.approx(-5.545177, abs=1e-6)

    def test_seed_determinism(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=4, n_samples=1000, seed=11)
        t1 = simulate(cfg, SL_LP)
        t2 = simulate(cfg, SL_LP)
        assert np.array_equal(t1.ln_s, t2.ln_s) and np.array_equal(t1.se, t2.se)

    def test_factorization_within_errors(self):
        # ln_S(p, n) consistent with n * psi(p) across levels
        from hscascade.generators import ln_moment

        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=50_000,
                        seed=4, p_list=(0.0, 3.0, 6.0))
        table = simulate(cfg, SL_LP)
        for p in (3.0, 6.0):
            n, y, se = table.rows_for(p)
            assert np.all(np.abs(y - n * ln_moment(SL_LP, p)) < 4 * se)


class TestEstimateZeta:
    def test_exact_slopes(self):
        table = exact_table(SL, 0.5, 8, default_p_list(3))
        z = estimate_zeta(table)
        for p in z.p:
            zh, _ = z.value(p)
            assert zh == pytest.approx(zeta(SL, p), abs=1e-12)

    def test_zeta0_forced_zero(self):
        table = exact_table(SL, 0.5, 5, (0.0, 3.0))
        z = estimate_zeta(table)
        assert z.value(0.0) == (0.0, 0.0)

    def test_dropped_level_still_fits(self):
        table = exact_table(SL, 0.5, 8, (0.0, 3.0))
        keep = ~((table.p == 3.0) & (table.n == 8))
        trimmed = StructureTable(p=table.p[keep], n=table.n[keep], ln_s=table.ln_s[keep],
                                 se=table.se[keep], metadata=table.metadata)
        z = estimate_zeta(trimmed)
        assert z.value(3.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_too_few_levels_omitted(self):
        table = exact_table(SL, 0.5, 2, (0.0, 3.0))
        z = estimate_zeta(table)
        assert 3.0 not in z.p.tolist()
        assert z.metadata["skipped_orders"] == [3.0]

    def test_monte_carlo_accuracy(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=100_000, seed=5)
        z = estimate_zeta(simulate(cfg, SL_LP))
        assert abs(z.value(3.0)[0] - 1.0) < 0.03


class TestEstimateDeltas:
    def test_exact_values(self):
        table = exact_table(SL, 0.5, 8, (0.0, 3.0, 6.0, 9.0))
        series = estimate_deltas(estimate_zeta(table), 3)
        assert series.delta == pytest.approx(
            (1.0, 7.0 / 9.0, delta(SL, 6.0)), abs=1e-12
        )

    def test_monofractal_constant(self):
        law = ScalingLaw(gamma=0.4, big_c=0.0, beta=0.5, k=2)
        table = exact_table(law, 0.5, 6, (0.0, 2.0, 4.0, 6.0, 8.0))
        series = estimate_deltas(estimate_zeta(table), 2)
        assert np.allclose(series.delta, 0.8, atol=1e-12)

    def test_missing_orders_reported(self):
        table = exact_table(SL, 0.5, 8, (0.0, 3.0))
        z = estimate_zeta(table)
        with pytest.raises(ValueError, match="missing orders"):
            estimate_deltas(z, 3)

    @pytest.mark.parametrize("orders, missing", [
        ((0.0, 3.0), r"\[6\.0\]"),
        ((0.0, 3.0, 9.0), r"\[6\.0\]"),
        ((0.0, 6.0, 9.0), r"\[3\.0\]"),
        ((3.0, 6.0, 9.0), r"\[0\.0\]"),
        ((0.0,), r"\[3\.0, 6\.0\]"),
    ])
    def test_missing_orders_named(self, orders, missing):
        z = ZetaEstimate(p=np.array(orders), zeta_hat=np.zeros(len(orders)),
                         se=np.zeros(len(orders)))
        with pytest.raises(ValueError, match="missing orders " + missing):
            estimate_deltas(z, 3)

    def test_run_of_orders_stops_at_first_gap(self):
        # 12 sits past the gap at 9, and the unsorted rows are found by order
        z = ZetaEstimate(p=np.array([6.0, 0.0, 12.0, 3.0]), zeta_hat=np.array([3.0, 0.0, 9.0, 1.0]),
                         se=np.array([0.4, 0.0, 0.5, 0.3]))
        series = estimate_deltas(z, 3)
        assert series.m == (0, 1)
        assert series.delta == (1.0, 2.0)
        assert series.stderr == (0.3, math.hypot(0.3, 0.4))

    def test_simulated_delta0(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=100_000, seed=6)
        series = estimate_deltas(estimate_zeta(simulate(cfg, SL_LP)), 3)
        assert abs(series.delta[0] - 1.0) < 4 * series.stderr[0]


class TestCsvRoundTrip:
    def test_structure_table(self, tmp_path):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=500, seed=7)
        table = simulate(cfg, SL_LP)
        path = tmp_path / "structure.csv"
        table.to_csv(path)
        back = StructureTable.from_csv(path)
        assert np.array_equal(back.p, table.p)
        assert np.array_equal(back.ln_s, table.ln_s)
        assert np.array_equal(back.se, table.se)
        assert back.metadata == table.metadata

    def test_zeta_estimate(self, tmp_path):
        table = exact_table(SL, 0.5, 5, (0.0, 3.0, 6.0))
        z = estimate_zeta(table)
        path = tmp_path / "zeta.csv"
        z.to_csv(path)
        back = ZetaEstimate.from_csv(path)
        assert np.array_equal(back.zeta_hat, z.zeta_hat)

    def test_external_csv_ingestion(self):
        text = "# {}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n6,1.77,0.02\n9,2.4,0.05\n"
        z = ZetaEstimate.from_csv(io.StringIO(text))
        series = estimate_deltas(z, 3)
        assert series.delta == pytest.approx((1.0, 0.77, 0.63), abs=1e-12)

    def test_reads_any_object_with_read(self):
        class Source:  # a text source that is not an io.TextIOBase
            def read(self):
                return "# {}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n"

        z = ZetaEstimate.from_csv(Source())
        assert z.value(3.0) == (1.0, 0.01)

    def test_malformed_csv(self):
        with pytest.raises(ValueError, match="row 4"):
            ZetaEstimate.from_csv(io.StringIO("# {}\np,zeta_hat,se\n0,0,0\n3,oops,0.1\n"))
        with pytest.raises(ValueError, match="header"):
            ZetaEstimate.from_csv(io.StringIO("a,b\n1,2\n"))


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=1, n_samples=500)
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=10)
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=500, p_list=(-1.0,))

    def test_default_p_list(self):
        assert default_p_list(3) == (0.0, 1.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=4, n_samples=500)
        assert cfg.p_list == default_p_list(3)
