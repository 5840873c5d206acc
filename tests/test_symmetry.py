import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscascade.exponents import DeltaSeries, ScalingLaw, law_from_deltas
from hscascade.generators import (
    LevyGenerator,
    StableTail,
    delta_series_analytic,
    logpoisson_from_scaling,
)
from hscascade.symmetry import (
    A1Report,
    _digest,
    characterize,
    classify,
    default_tolerance,
    fit_a1,
)

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

    def test_overflowing_fit_raises(self):
        # a log-Poisson series with C = 1e300: every squared residual overflows
        law = ScalingLaw(gamma=1.0 / 9.0, big_c=1e300, beta=2.0 / 3.0, k=3)
        series = delta_series_exact(law, 12)
        with pytest.raises(OverflowError, match="not finite at any q"):
            fit_a1(series)
        with pytest.raises(OverflowError, match="not finite at any q"):
            classify(series)

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

    @pytest.mark.parametrize("se", [
        [0.01, 0.02, 0.02, 0.03, 0.03, 0.04, 0.05],
        [0.0, 1e-6, 0.3, 0.02, 0.02, 7.0, 0.05],  # a zero error sits at the floor
    ])
    def test_weights_ignore_the_scale_of_the_errors(self, se):
        # the weights are 1/se**2 up to one exact power of two, so a fit on errors scaled
        # by 2**-600, where se**2 underflows, is the same bytes
        d = [1.0, 0.78, 0.63, 0.53, 0.46, 0.43, 0.4]
        fit = fit_a1(DeltaSeries(k=3, m=range(7), delta=d, stderr=se))
        tiny = fit_a1(DeltaSeries(k=3, m=range(7), delta=d, stderr=[v * 2.0**-600 for v in se]))
        assert np.array(tiny).tobytes() == np.array(fit).tobytes()

    def test_tiny_errors_fit(self):
        # every se = 1e-200: 1/se**2 is beyond the float range, the scaled weights are not
        series = DeltaSeries(k=3, m=SL_SERIES.m, delta=SL_SERIES.delta,
                             stderr=[1e-200] * len(SL_SERIES))
        report = classify(series)
        assert report.verdict == "a1-holds"
        assert report.beta_hat == pytest.approx(2.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("delta, se", [
        ((1.0, 0.8, 0.7, 0.65, 0.62, 0.61), (0.0625, 5e-324, 0.0625, 0.0625, 0.0625, 0.0625)),
        ((1.0, 0.8, 0.7, 0.65, 0.62, 0.61), (0.0625, 1e-116, 0.0625, 0.0625, 0.0625, 0.0625)),
        ((-7.590610957031459e-14, 0.49410211256132397, 1e-10, -7.940039222166551e-14,
          8.817959763270388e-163, -0.9190041555475827, -1.4212239599779202),
         (0.04393008137924731, 0.0059608867309374446, 0.09038855064221968, 1e-06,
          0.030498131611146125, 0.010675626320691481, 1.540746208112049e-134)),
    ], ids=["weight overflows", "singular q", "singular q inside Brent's bracket"])
    def test_errors_spanning_many_decades_warn_nothing(self, delta, se):
        # pytest turns warnings into errors here: beside 5e-324 the other weights overflow
        # 1/se**2's square and become 0; beside 1e-116 the normal equations are singular
        # at some q, whose SSE is inf, and beside 1.5e-134 at a q Brent's refinement visits
        series = DeltaSeries(k=3, m=range(len(delta)), delta=delta, stderr=se)
        assert math.isfinite(fit_a1(series).epsilon_hat)
        assert classify(series).verdict == "other"


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

    def test_tiny_beta_gives_no_warning(self):
        # beta**m underflows to 0, so the first differences end in exact zeros;
        # classify must not divide by them
        series = delta_series_exact(ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=1e-300, k=3), 25)
        assert 0.0 in np.diff(series.delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classify(series)

    def test_needs_five_entries(self):
        with pytest.raises(ValueError):
            classify(DeltaSeries(k=1, m=range(4), delta=(1.0, 0.5, 0.25, 0.125)))

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
    def test_rejects_negative_tolerance(self, tol):
        classify(SL_SERIES, tol=0.0)  # zero is allowed
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            classify(SL_SERIES, tol=tol)

    def test_report_json_schema(self):
        doc = json.loads(classify(SL_SERIES).to_json())
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "a1-holds"
        assert doc["m_max"] == 12
        assert len(doc["series_digest"]) == 16
        assert doc["law"]["k"] == 3
        assert list(doc["law"]) == ["gamma", "big_c", "beta", "k"]
        assert doc["logpoisson"] is None


class TestClassifyArms:
    """One test per arm of classify's decision, on the fields each arm sets."""

    def test_constant_arm(self):
        report = classify(DeltaSeries(k=2, m=range(6), delta=[0.4] * 6))
        assert report.verdict == "monofractal"
        assert math.isnan(report.beta_hat)
        assert report.delta_inf_hat == pytest.approx(0.4)
        assert report.epsilon_hat < 1e-15
        assert report.law.big_c == 0.0
        assert report.law.gamma == report.delta_inf_hat / 2
        assert report.law.k == 2

    def test_affine_arm(self):
        report = classify(DeltaSeries(k=2, m=range(8), delta=[0.1 - 0.29 * m for m in range(8)]))
        assert report.verdict == "affine-divergent"
        assert math.isnan(report.beta_hat)
        assert math.isnan(report.delta_inf_hat)
        assert report.epsilon_hat == math.inf
        assert report.law is None

    def test_fit_arm_a1_holds(self):
        report = classify(SL_SERIES)
        assert report.verdict == "a1-holds"
        assert report.beta_hat == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert report.law.big_c == pytest.approx(2.0, abs=1e-8)
        assert report.law.gamma == pytest.approx(1.0 / 9.0, abs=1e-8)
        assert report.law.beta == report.beta_hat

    def test_fit_arm_tie_rule(self):
        # the fit passes at tol = 0.002, but its relaxation amplitude is below the tolerance
        series = DeltaSeries(k=1, m=range(6), delta=(0.5, 0.5, 0.501, 0.503, 0.501, 0.5))
        report = classify(series, tol=0.002)
        assert report.verdict == "monofractal"
        assert report.beta_hat == pytest.approx(0.389, abs=1e-3)
        assert math.isfinite(report.epsilon_hat) and report.epsilon_hat <= 0.002
        assert report.law.big_c == 0.0
        assert report.law.beta == 0.5
        assert report.law.gamma == report.delta_inf_hat

    def test_unidentifiable_fit_is_other(self):
        # a variation of 1e-13 is not constant at tol = 0, but fit_a1 calls it constant
        series = DeltaSeries(k=1, m=range(8), delta=[0.4 + 1e-13 * (m % 2) for m in range(8)])
        report = classify(series, tol=0.0)
        assert report.verdict == "other"
        assert math.isnan(report.beta_hat)
        assert report.delta_inf_hat == pytest.approx(0.4)
        assert report.law is None

    def test_other_arm(self):
        series = DeltaSeries(k=1, m=range(8), delta=[1.0, 0.3, 0.9, -0.2, 0.5, 0.1, 0.7, 0.0])
        report = classify(series)
        assert report.verdict == "other"
        assert 0.0 < report.beta_hat < 1.0
        assert report.epsilon_hat > 0.1
        assert report.law is None

    def test_power_decay_arm(self):
        gen = LevyGenerator(drift=-0.1, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0))
        report = classify(delta_series_analytic(gen, 0.5, 1, 25))
        assert report.verdict == "power-decay"
        assert math.isfinite(report.beta_hat)
        assert report.law is None

    def test_increasing_fit_refuses_negative_concentration(self):
        series = delta_series_exact(SL, 10)
        with pytest.raises(ValueError, match="negative concentration"):
            classify(DeltaSeries(k=3, m=series.m, delta=[-v for v in series.delta]))


def reference_classify(series, tol=None):
    """classify before its arms shared one report: each arm builds its own A1Report."""
    if len(series) < 5:
        raise ValueError(f"need at least 5 series entries, got {len(series)}")
    if tol is None:
        tol = default_tolerance(series)
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    d = np.asarray(series.delta, dtype=float)
    scale = max(np.abs(d).max(), 1.0)
    digest = _digest(series)
    m_max = int(max(series.m))

    if np.abs(d - d.mean()).max() <= tol * scale:
        return A1Report(
            beta_hat=math.nan,
            delta_inf_hat=float(d.mean()),
            epsilon_hat=float(np.abs(d - d.mean()).max()),
            verdict="monofractal",
            law=ScalingLaw(gamma=float(d.mean()) / series.k, big_c=0.0, beta=0.5, k=series.k),
            m_max=m_max,
            series_digest=digest,
        )

    diffs = np.diff(d)
    if np.abs(diffs - diffs.mean()).max() <= tol * scale and abs(diffs.mean()) > tol * scale:
        return A1Report(
            beta_hat=math.nan,
            delta_inf_hat=math.nan,
            epsilon_hat=math.inf,
            verdict="affine-divergent",
            m_max=m_max,
            series_digest=digest,
        )

    fit = fit_a1(series)
    if fit.identifiable and 0.0 < fit.beta_hat < 1.0 and fit.epsilon_hat <= tol * scale:
        if abs(fit.amplitude) < tol * scale:
            verdict = "monofractal"
            law = ScalingLaw(gamma=fit.delta_inf_hat / series.k, big_c=0.0, beta=0.5, k=series.k)
        else:
            verdict = "a1-holds"
            law = law_from_deltas(
                fit.delta_inf_hat + fit.amplitude, fit.delta_inf_hat, fit.beta_hat, series.k
            )
        return A1Report(
            beta_hat=fit.beta_hat,
            delta_inf_hat=fit.delta_inf_hat,
            epsilon_hat=fit.epsilon_hat,
            verdict=verdict,
            law=law,
            m_max=m_max,
            series_digest=digest,
        )

    verdict = "other"
    if (
        len(diffs) >= 5
        and (np.all(diffs > 0) or np.all(diffs < 0))
        and np.all(((ratios := diffs[1:] / diffs[:-1]) > 0) & (ratios < 1))
        and np.all(np.diff(ratios) > -1e-9)
        and ratios[-1] - ratios[0] > 0.01
    ):
        tail = ratios[len(ratios) // 2 :]
        ms = np.arange(len(ratios) // 2 + 1, len(ratios) + 1, dtype=float)
        _, c0 = np.polyfit(1.0 / ms, tail, 1)
        if c0 >= 0.85:
            verdict = "power-decay"
    return A1Report(
        beta_hat=fit.beta_hat,
        delta_inf_hat=fit.delta_inf_hat,
        epsilon_hat=fit.epsilon_hat,
        verdict=verdict,
        m_max=m_max,
        series_digest=digest,
    )


def report_text(call):
    """The JSON text of a report, or the type and message of the exception or warning
    raised instead."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return json.dumps(call().to_dict())
    except (ValueError, OverflowError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def delta_series(draw):
    """Series near each arm of classify: constant, affine, geometric, power decay or random,
    with noise from none to large and optional standard errors."""
    n = draw(st.integers(5, 14))
    m = np.arange(n, dtype=float)
    kind = draw(st.sampled_from(["constant", "affine", "geometric", "power", "random"]))
    a = draw(st.floats(-2.0, 2.0))
    b = draw(st.floats(-2.0, 2.0))
    if kind == "constant":
        d = np.full(n, a)
    elif kind == "affine":
        d = a + b * m
    elif kind == "geometric":
        d = a + b * draw(st.floats(1e-3, 0.999)) ** m
    elif kind == "power":
        d = a + b * (m + 1.0) ** (draw(st.floats(0.1, 0.95)) - 1.0)
    else:
        d = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    noise = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5, 1e-3, 1e-1]))
    d = d + noise * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    stderr = draw(st.none() | st.lists(st.floats(0.0, 0.1), min_size=n, max_size=n))
    return DeltaSeries(k=draw(st.integers(1, 4)), m=range(n), delta=d, stderr=stderr)


class TestClassifyMatchesReference:
    """classify gives reference_classify's report text, or its exception, on every series."""

    @settings(max_examples=150, deadline=None)
    @given(series=delta_series(),
           tol=st.none() | st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 2e-3, 1e-1])
           | st.floats(0.0, 0.5))
    def test_matches_reference(self, series, tol):
        assert report_text(lambda: classify(series, tol)) == report_text(
            lambda: reference_classify(series, tol))

    @pytest.mark.parametrize("m_max", [4, 12, 25])
    def test_matches_reference_on_the_families(self, m_max):
        tail = StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)
        gens = [SL_LP, LevyGenerator(drift=-0.3), LevyGenerator(drift=-0.1, sigma2=0.2),
                *(LevyGenerator(drift=-0.1, tail=StableTail(alpha=a, c=0.05, x_min=1e-4,
                                                            x_max=1.0)) for a in (0.3, 0.8)),
                LevyGenerator(drift=SL_LP.a, tail=tail)]
        for gen in gens:
            series = delta_series_analytic(gen, 0.5, 3, m_max)
            assert report_text(lambda: classify(series)) == report_text(
                lambda: reference_classify(series))


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
