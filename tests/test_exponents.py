import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hscascade.cascade import ZetaEstimate, estimate_deltas
from hscascade.exponents import (
    CascadeParams,
    DeltaSeries,
    ScalingLaw,
    a1_step,
    conservation_gamma,
    delta,
    law_from_deltas,
    recurrence_residual,
    spectrum_width,
    zeta,
)
from hscascade.generators import LevyGenerator, delta_series_analytic, logpoisson_from_scaling
from hscascade.hausdorff import (
    leak_perturbation,
    pushforward_to_unit,
    smear_perturbation,
    split_perturbation,
)

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
LP = logpoisson_from_scaling(SL, 0.5)


def random_law(rng):
    return ScalingLaw(
        gamma=rng.uniform(-1, 1),
        big_c=rng.uniform(0, 5),
        beta=rng.uniform(0.05, 0.95),
        k=int(rng.integers(1, 5)),
    )


def pairwise_residual(d, beta, delta_inf):
    """Reference: sup of |d_{m+1} - (1-beta)*delta_inf - beta*d_m| over m = 0..len(d) - 2."""
    worst = 0.0
    for m in range(len(d) - 1):
        worst = max(worst, abs(d[m + 1] - (1.0 - beta) * delta_inf - beta * d[m]))
    return worst


class TestRecurrenceResidual:
    @given(
        d=st.lists(st.floats(-10.0, 10.0), max_size=30),
        beta=st.floats(0.01, 0.99),
        delta_inf=st.floats(-5.0, 5.0),
    )
    def test_matches_pairwise_definition(self, d, beta, delta_inf):
        assert recurrence_residual(d, beta, delta_inf) == pairwise_residual(d, beta, delta_inf)

    def test_contraction_series_has_zero_residual(self):
        d = [delta(SL, 3.0 * m) for m in range(12)]
        assert recurrence_residual(d, SL.beta, SL.delta_inf) < 1e-15


class TestZeta:
    def test_zero_order(self):
        assert zeta(SL, 0.0) == 0.0

    def test_benchmark_values(self):
        assert zeta(SL, 3.0) == pytest.approx(1.0, abs=1e-12)
        # 1/3 + 2*(1 - (2/3)**(2/3))
        assert zeta(SL, 2.0) == pytest.approx(2.0 / 9.0 + 2.0 * (1.0 - (2.0 / 3.0) ** (2.0 / 3.0)), abs=1e-12)
        assert zeta(SL, 2.0) == pytest.approx(0.695936, abs=1e-6)
        assert zeta(SL, 6.0) == pytest.approx(2.0 / 3.0 + 2.0 * 5.0 / 9.0, abs=1e-12)

    def test_array_orders(self):
        ps = np.array([[0.0, 1.5], [3.0, 6.0]])
        got = zeta(SL, ps)
        assert got.shape == ps.shape
        assert np.array_equal(got, [[zeta(SL, p) for p in row] for row in ps])
        with pytest.raises(ValueError):
            zeta(SL, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("ps, message", [
        ([1.0, math.nan], "got [ 1. nan]"),
        ([math.inf, 2.0], "got [inf  2.]"),
        ([-math.inf], "got [-inf]"),
        ([[0.0, 3.0], [-1.0, 6.0]], "got [[ 0.  3.]\n [-1.  6.]]"),
    ])
    def test_rejects_bad_array_orders(self, ps, message):
        with pytest.raises(ValueError) as info:
            zeta(SL, np.array(ps))
        assert str(info.value) == "moment order must be finite and >= 0, " + message

    def test_accepts_empty_and_negative_zero_arrays(self):
        assert zeta(SL, np.array([])).shape == (0,)
        assert zeta(SL, np.zeros((0, 3))).shape == (0, 3)
        assert np.array_equal(zeta(SL, np.array([-0.0, 3.0])), [zeta(SL, 0.0), zeta(SL, 3.0)])

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            zeta(SL, -1.0)
        with pytest.raises(ValueError):
            zeta(SL, math.nan)
        with pytest.raises(ValueError):
            zeta(SL, math.inf)


class TestDelta:
    def test_values(self):
        assert delta(SL, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert delta(SL, 3.0) == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) ** 2, abs=1e-12)
        assert delta(SL, 3.0) == pytest.approx(zeta(SL, 6.0) - zeta(SL, 3.0), rel=1e-12)

    def test_fixed_point_at_infinity(self):
        assert delta(SL, 1e6) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_matches_zeta_increment(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            law = random_law(rng)
            p = rng.uniform(0, 20)
            assert delta(law, p) == pytest.approx(
                zeta(law, p + law.k) - zeta(law, p), rel=1e-12, abs=1e-12
            )


class TestA1Step:
    def test_matches_closed_form(self):
        assert a1_step(1.0, 2.0 / 3.0, 1.0 / 3.0) == pytest.approx(delta(SL, 3.0), abs=1e-12)

    def test_fixed_point(self):
        assert a1_step(0.42, 0.3, 0.42) == pytest.approx(0.42, abs=1e-15)

    def test_iterate_twice(self):
        d3 = a1_step(1.0, 2.0 / 3.0, 1.0 / 3.0)
        d6 = a1_step(d3, 2.0 / 3.0, 1.0 / 3.0)
        assert d6 == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) ** 2 * (2.0 / 3.0), abs=1e-12)
        assert d6 == pytest.approx(0.629630, abs=1e-6)

    def test_rejects_boundary_beta(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                a1_step(1.0, bad, 0.5)


class TestLawFromDeltas:
    def test_sl_parameters(self):
        law = law_from_deltas(1.0, 1.0 / 3.0, 2.0 / 3.0, 3)
        assert law.gamma == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert law.big_c == pytest.approx(2.0, abs=1e-12)
        assert delta(law, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_monofractal_edge(self):
        law = law_from_deltas(0.5, 0.5, 0.5, 1)
        assert law.gamma == 0.5
        assert law.big_c == 0.0

    def test_generic(self):
        law = law_from_deltas(0.9, 0.3, 0.4, 2)
        assert law.gamma == pytest.approx(0.15, abs=1e-15)
        assert law.big_c == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_concentration(self):
        with pytest.raises(ValueError, match="negative concentration"):
            law_from_deltas(0.2, 0.5, 0.5, 1)


class TestConservationGamma:
    def test_sl_with_external_constraint(self):
        assert conservation_gamma(2.0, 2.0 / 3.0, 3, z0=1.0, k0=3.0) == pytest.approx(
            1.0 / 9.0, abs=1e-12
        )

    def test_mean_one_default(self):
        g = conservation_gamma(2.0, 2.0 / 3.0, 3)
        assert g == pytest.approx(-2.0 * (1.0 - (2.0 / 3.0) ** (1.0 / 3.0)), abs=1e-12)
        assert g == pytest.approx(-0.252839, abs=1e-6)

    def test_zero_concentration(self):
        assert conservation_gamma(0.0, 0.7, 2) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            big_c = rng.uniform(0, 4)
            beta = rng.uniform(0.05, 0.95)
            k = int(rng.integers(1, 5))
            z0 = rng.uniform(-2, 2)
            k0 = rng.uniform(0.5, 10)
            g = conservation_gamma(big_c, beta, k, z0, k0)
            law = ScalingLaw(gamma=g, big_c=big_c, beta=beta, k=k)
            assert zeta(law, k0) == pytest.approx(z0, abs=1e-12)

    def test_rejects_nonpositive_k0(self):
        with pytest.raises(ValueError):
            conservation_gamma(1.0, 0.5, 1, 0.0, 0.0)


class TestSpectrumWidth:
    def test_values(self):
        assert spectrum_width(SL) == pytest.approx((2.0 / 3.0) * math.log(1.5), abs=1e-12)
        assert spectrum_width(SL) == pytest.approx(0.270310, abs=1e-6)
        assert spectrum_width(ScalingLaw(gamma=0.5, big_c=0.0, beta=0.5, k=1)) == 0.0
        assert spectrum_width(ScalingLaw(gamma=0.0, big_c=1.0, beta=1.0 / math.e, k=1)) == pytest.approx(1.0, abs=1e-12)


class TestRecurrenceVsClosedForm:
    def test_iteration_reproduces_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            law = random_law(rng)
            d = law.delta0
            for m in range(51):
                assert d == pytest.approx(delta(law, m * law.k), abs=1e-12)
                d = a1_step(d, law.beta, law.delta_inf)

    def test_telescoping(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            law = random_law(rng)
            acc = 0.0
            for m in range(30):
                assert acc == pytest.approx(zeta(law, m * law.k), abs=1e-12)
                acc += delta(law, m * law.k)

    def test_concavity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            law = random_law(rng)
            if law.big_c == 0:
                continue
            ps = np.linspace(0, 30, 200)
            zs = np.array([zeta(law, p) for p in ps])
            quot = np.diff(zs) / np.diff(ps)
            assert np.all(np.diff(quot) <= 1e-12)


class TestTypes:
    def test_cascade_params_validation(self):
        CascadeParams(r=0.5, k=3)
        with pytest.raises(ValueError):
            CascadeParams(r=1.0)
        with pytest.raises(ValueError):
            CascadeParams(r=0.5, k=0)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, np.float64(0.5), math.nan, math.inf, True])
    def test_one_hierarchy_step_check(self, bad):
        p = np.arange(0.0, 10.0)
        z = ZetaEstimate(p=p, zeta_hat=p / 3, se=np.zeros(10), cov=np.zeros((10, 10)))
        calls = [
            lambda: CascadeParams(r=0.5, k=bad),
            lambda: ScalingLaw(gamma=0.1, big_c=1.0, beta=0.5, k=bad),
            lambda: DeltaSeries(k=bad, delta=(1.0, 0.5)),
            lambda: delta_series_analytic(LevyGenerator(drift=-0.1), 0.5, bad, 6),
            lambda: estimate_deltas(z, bad),
            lambda: split_perturbation(LP, bad, 0.1),
            lambda: leak_perturbation(LP, bad, 0.3, 0.1),
            lambda: smear_perturbation(LP, bad, 0.2),
            lambda: pushforward_to_unit(LP, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="hierarchy step k must be a positive integer"):
                call()

    def test_integral_hierarchy_step_becomes_an_int(self):
        assert type(CascadeParams(r=0.5, k=3.0).k) is int
        assert type(ScalingLaw(gamma=0.1, big_c=1.0, beta=0.5, k=np.int64(2)).k) is int
        series = delta_series_analytic(LevyGenerator(drift=-0.1), 0.5, 3.0, 6)
        assert type(series.k) is int and series.k == 3

    def test_scaling_law_validation(self):
        with pytest.raises(ValueError):
            ScalingLaw(gamma=0.1, big_c=-1.0, beta=0.5, k=1)
        with pytest.raises(ValueError):
            ScalingLaw(gamma=0.1, big_c=1.0, beta=1.0, k=1)
        with pytest.raises(ValueError):
            ScalingLaw(gamma=0.1, big_c=1.0, beta=0.0, k=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scaling_law_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="gamma must be finite"):
            ScalingLaw(gamma=bad, big_c=2.0, beta=0.5, k=1)
        with pytest.raises(ValueError, match="concentration amplitude"):
            ScalingLaw(gamma=0.1, big_c=bad, beta=0.5, k=1)

    def test_law_identities(self):
        assert SL.delta_inf == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert SL.delta0 == pytest.approx(1.0, abs=1e-15)
        assert (SL.delta0 - SL.delta_inf) / (1.0 - SL.beta) == pytest.approx(SL.big_c, abs=1e-12)
        assert SL.a_constant(0.5) == pytest.approx((2.0 / 3.0) * math.log(0.5), abs=1e-12)

    def test_delta_series_validation(self):
        DeltaSeries(k=1, delta=(1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            DeltaSeries(k=1, delta=(1.0, math.inf))
        with pytest.raises(ValueError):
            DeltaSeries(k=1, delta=(1.0, 0.5), stderr=(0.1,))

    def test_delta_series_takes_no_order_index(self):
        # a series is delta_0..delta_M: a gapped index such as m = 0, 2, 4, ... cannot be given
        with pytest.raises(TypeError):
            DeltaSeries(k=1, m=(0, 2, 4, 6, 8, 10), delta=(5.0, -3.0, 7.0, 0.2, 1.0, -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.01])
    def test_delta_series_rejects_bad_stderr(self, bad):
        DeltaSeries(k=1, delta=(1.0, 0.5), stderr=(0.1, 0.0))
        with pytest.raises(ValueError, match="stderr entries must be finite and >= 0"):
            DeltaSeries(k=1, delta=(1.0, 0.5), stderr=(0.1, bad))
