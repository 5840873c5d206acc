import json
import math

import numpy as np
import pytest

from hscascade.exponents import DeltaSeries, ScalingLaw
from hscascade.generators import (
    LevyGenerator,
    StableTail,
    delta_series_analytic,
    logpoisson_from_scaling,
)
from hscascade.symmetry import characterize, classify, fit_a1

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
SL_LP = logpoisson_from_scaling(SL, 0.5)
SL_SERIES = delta_series_analytic(SL_LP, 0.5, 3, 12)


def delta_series_exact(law: ScalingLaw, m_max: int) -> DeltaSeries:
    """delta_{m*k} for m = 0..m_max from the closed form."""
    ms = np.arange(m_max + 1)
    vals = law.delta_inf + (law.delta0 - law.delta_inf) * law.beta ** ms.astype(float)
    return DeltaSeries(k=law.k, m=tuple(ms), delta=tuple(vals))


def random_law(rng):
    return ScalingLaw(
        gamma=rng.uniform(-1, 1),
        big_c=rng.uniform(0.1, 5),
        beta=rng.uniform(0.05, 0.95),
        k=int(rng.integers(1, 5)),
    )


class TestFitA1:
    def test_exact_sl_series(self):
        fit = fit_a1(SL_SERIES)
        assert fit.beta_hat == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert fit.delta_inf_hat == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert fit.epsilon_hat < 1e-10

    def test_constant_series_flagged(self):
        series = DeltaSeries(k=1, m=range(6), delta=[0.4] * 6)
        fit = fit_a1(series)
        assert not fit.identifiable
        assert math.isnan(fit.beta_hat)
        assert fit.delta_inf_hat == pytest.approx(0.4)
        assert fit.epsilon_hat < 1e-15

    def test_affine_series_hits_contraction_boundary(self):
        series = DeltaSeries(k=1, m=range(8), delta=[0.1 - 0.29 * m for m in range(8)])
        fit = fit_a1(series)
        assert fit.beta_hat > 0.99  # slope fit ~1, outside the open interval

    def test_residual_calibration(self):
        fit = fit_a1(SL_SERIES)
        d = np.asarray(SL_SERIES.delta)
        direct = np.abs(
            d[1:] - (1.0 - fit.beta_hat) * fit.delta_inf_hat - fit.beta_hat * d[:-1]
        ).max()
        assert fit.epsilon_hat == direct

    def test_needs_four_entries(self):
        with pytest.raises(ValueError):
            fit_a1(DeltaSeries(k=1, m=(0, 1, 2), delta=(1.0, 0.5, 0.25)))

    def test_flat_bracket_keeps_grid_node(self):
        # weights spanning 15 decades leave the SSE flat to rounding around
        # the best grid node, so Brent's bracket check fails there
        series = DeltaSeries(
            k=1, m=range(4),
            delta=[-0.23999297111097942, -0.24001250098704602,
                   -0.2400300198860992, -0.24004573424882109],
            stderr=[1.0847405983358684, 4.439585321830548e-08,
                    0.0009043711107910303, 0.018461887074578524],
        )
        fit = fit_a1(series)
        assert fit.identifiable and 0.0 < fit.beta_hat < 1.0
        assert math.isfinite(fit.epsilon_hat)

    def test_weighted_fit_uses_stderr(self):
        exact = delta_series_exact(SL, 8)
        noisy = list(exact.delta)
        noisy[-1] += 0.5  # corrupt the least certain entry
        series = DeltaSeries(k=3, m=exact.m, delta=noisy,
                             stderr=[1e-6] * 8 + [10.0])
        fit = fit_a1(series)
        assert fit.beta_hat == pytest.approx(2.0 / 3.0, abs=1e-3)


class TestClassify:
    def test_log_poisson(self):
        report = classify(SL_SERIES)
        assert report.verdict == "a1-holds"
        assert report.beta_hat == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert report.law is not None

    def test_monofractal(self):
        gen = LevyGenerator(drift=-0.3)
        report = classify(delta_series_analytic(gen, 0.5, 1, 8))
        assert report.verdict == "monofractal"
        assert report.law.big_c == 0.0

    def test_log_normal(self):
        gen = LevyGenerator(drift=-0.1, sigma2=0.2)
        report = classify(delta_series_analytic(gen, 0.5, 1, 12))
        assert report.verdict == "affine-divergent"

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_truncated_stable(self, alpha):
        gen = LevyGenerator(
            drift=-0.1, tail=StableTail(alpha=alpha, c=0.05, x_min=1e-4, x_max=1.0)
        )
        report = classify(delta_series_analytic(gen, 0.5, 1, 25))
        assert report.verdict == "power-decay"

    def test_needs_five_entries(self):
        with pytest.raises(ValueError):
            classify(DeltaSeries(k=1, m=range(4), delta=(1.0, 0.5, 0.25, 0.125)))

    def test_report_json_schema(self):
        doc = json.loads(classify(SL_SERIES).to_json())
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "a1-holds"
        assert doc["m_max"] == 12
        assert len(doc["series_digest"]) == 16
        assert doc["law"]["k"] == 3


class TestCharacterize:
    def test_exact_sl(self):
        report = characterize(SL_SERIES, 0.5, 3)
        assert report.law.gamma == pytest.approx(1.0 / 9.0, abs=1e-8)
        assert report.law.big_c == pytest.approx(2.0, abs=1e-8)
        assert report.logpoisson.a == pytest.approx(-0.077016, abs=1e-6)
        assert report.logpoisson.b == pytest.approx(-0.135155, abs=1e-6)
        assert report.logpoisson.lam == pytest.approx(1.386294, abs=1e-6)

    def test_biconditional_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            law = random_law(rng)
            r = rng.uniform(0.1, 0.9)
            lp = logpoisson_from_scaling(law, r)
            series = delta_series_analytic(lp, r, law.k, 12)
            rec = characterize(series, r, law.k).logpoisson
            assert rec.a == pytest.approx(lp.a, abs=1e-8)
            assert rec.b == pytest.approx(lp.b, abs=1e-8)
            assert rec.lam == pytest.approx(lp.lam, abs=1e-8)

    def test_refuses_non_a1(self):
        gen = LevyGenerator(drift=-0.1, sigma2=0.2)
        series = delta_series_analytic(gen, 0.5, 1, 12)
        with pytest.raises(ValueError, match="affine-divergent"):
            characterize(series, 0.5, 1)

    def test_refuses_wrong_k(self):
        with pytest.raises(ValueError, match="k"):
            characterize(SL_SERIES, 0.5, 2)

    def test_monte_carlo_recovery(self):
        from hscascade.cascade import SimConfig, estimate_deltas, estimate_zeta, simulate
        from hscascade.exponents import CascadeParams

        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8,
                        n_samples=100_000, seed=20)
        series = estimate_deltas(estimate_zeta(simulate(cfg, SL_LP)), 3)
        report = characterize(series, 0.5, 3)
        assert abs(report.law.gamma - 1.0 / 9.0) < 0.02
        assert abs(report.law.big_c - 2.0) < 0.3
        assert abs(report.beta_hat - 2.0 / 3.0) < 0.05
