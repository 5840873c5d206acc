import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscascade import hausdorff
from hscascade.cli import eps_grid
from hscascade.exponents import ScalingLaw, recurrence_residual
from hscascade.generators import (
    LevyGenerator,
    StableTail,
    delta_series_analytic,
    logpoisson_from_scaling,
)
from hscascade.hausdorff import (
    UnitMeasure,
    a1_residual_vs_reference,
    empirical_w1_multipliers,
    leak_perturbation,
    moment_residual,
    moment_sequence,
    point_mass,
    pushforward_to_unit,
    rho_eta,
    second_moment_test,
    smear_perturbation,
    split_perturbation,
    split_width_for_epsilon,
    stability_constant,
    verify_stability,
    w1_unit,
)

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
SL_LP = logpoisson_from_scaling(SL, 0.5)
A_SL = SL_LP.lam * (2.0 / 3.0 - 1.0)  # = (delta0 - delta_inf) * ln(1/2)


class TestPushforward:
    def test_log_poisson_single_atom(self):
        nu = pushforward_to_unit(SL_LP, 3)
        assert nu.u == pytest.approx([2.0 / 3.0], abs=1e-15)
        assert nu.w == pytest.approx([SL_LP.lam], abs=1e-15)

    def test_rejects_gaussian_part(self):
        with pytest.raises(ValueError, match="sigma2"):
            pushforward_to_unit(LevyGenerator(drift=0.0, sigma2=0.1), 1)

    def test_rejects_positive_jumps(self):
        with pytest.raises(ValueError, match="positive jumps"):
            pushforward_to_unit(LevyGenerator(drift=0.0, atoms=((0.5, 1.0),)), 1)

    def test_tail_mass_preserved(self):
        t = StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)
        nu = pushforward_to_unit(LevyGenerator(drift=0.0, tail=t), 1)
        assert nu.mass == pytest.approx(t.mass, rel=1e-12)
        assert np.all((nu.u > 0) & (nu.u < 1))


class TestRhoEta:
    def test_sl_mass_constant(self):
        nu = pushforward_to_unit(SL_LP, 3)
        rho, eta, A = rho_eta(nu)
        assert A == pytest.approx(A_SL, abs=1e-12)
        assert A == pytest.approx(-0.462098, abs=1e-6)
        assert eta.mass == pytest.approx(-A, abs=1e-15)
        assert rho.kind == "signed" and eta.kind == "positive"

    def test_rejects_atom_at_one(self):
        nu = UnitMeasure(u=np.array([1.0]), w=np.array([2.0]))
        with pytest.raises(ValueError, match="u = 1"):
            rho_eta(nu)

    def test_empty_measure(self):
        rho, eta, A = rho_eta(UnitMeasure(u=np.array([]), w=np.array([])))
        assert (rho.kind, eta.kind, A) == ("signed", "positive", 0.0)
        assert len(rho.u) == len(eta.u) == 0 and rho.mass == eta.mass == 0.0
        mom = moment_sequence(rho, 4)
        assert mom.dtype == float and np.array_equal(mom, np.zeros(5))
        assert moment_residual(rho, A, 0.5, 4) == 0.0


class TestMoments:
    def test_geometric_sequence_for_log_poisson(self):
        nu = pushforward_to_unit(SL_LP, 3)
        rho, _, A = rho_eta(nu)
        mom = moment_sequence(rho, 10)
        assert mom == pytest.approx(A * (2.0 / 3.0) ** np.arange(11), abs=1e-14)

    def test_residual_zero_unperturbed(self):
        nu = pushforward_to_unit(SL_LP, 3)
        rho, _, A = rho_eta(nu)
        assert moment_residual(rho, A, 2.0 / 3.0, 50) < 1e-14

    def test_residual_matches_direct_evaluation(self):
        gen = split_perturbation(SL_LP, 3, 0.05)
        rho, _, A = rho_eta(pushforward_to_unit(gen, 3))
        res = moment_residual(rho, A_SL, 2.0 / 3.0, 20)
        # independent direct evaluation over the atom list
        direct = max(
            abs(sum(wi * ui**m for ui, wi in zip(rho.u, rho.w)) - A_SL * (2.0 / 3.0) ** m)
            for m in range(21)
        )
        assert res == pytest.approx(direct, abs=1e-12)

    def test_second_moment_uniform(self):
        # uniform measure on [0,1] centred at 1/2 has variance 1/12;
        # compare a 64-atom midpoint rule against a 10^4-node oracle
        def uniform(n):
            edges = np.linspace(0, 1, n + 1)
            mids = (edges[:-1] + edges[1:]) / 2.0
            return UnitMeasure(u=mids, w=np.full(n, 1.0 / n))

        oracle = second_moment_test(uniform(10_000), 0.5)
        assert oracle == pytest.approx(1.0 / 12.0, abs=1e-8)
        assert second_moment_test(uniform(64), 0.5) == pytest.approx(oracle, abs=1e-4)

    def test_second_moment_split(self):
        s = 0.05
        gen = split_perturbation(SL_LP, 3, s)
        _, eta, _ = rho_eta(pushforward_to_unit(gen, 3))
        # eta has atoms at beta -/+ s; normalized spread around beta ~ s**2
        val = second_moment_test(eta.normalized(), 2.0 / 3.0)
        assert val == pytest.approx(s**2, rel=1e-2)


class TestW1:
    def test_point_masses(self):
        assert w1_unit(point_mass(0.2), point_mass(0.7)) == pytest.approx(0.5, abs=1e-15)

    def test_metric_axioms(self):
        rng = np.random.default_rng(0)
        measures = []
        for _ in range(4):
            n = rng.integers(2, 8)
            w = rng.uniform(0.1, 1.0, n)
            measures.append(UnitMeasure(u=np.sort(rng.uniform(0, 1, n)), w=w / w.sum()))
        for a in measures:
            assert w1_unit(a, a) == pytest.approx(0.0, abs=1e-15)
            for b in measures:
                assert w1_unit(a, b) == pytest.approx(w1_unit(b, a), abs=1e-14)
                for c in measures:
                    assert w1_unit(a, c) <= w1_unit(a, b) + w1_unit(b, c) + 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="mass"):
            w1_unit(point_mass(0.5, 2.0), point_mass(0.5))

    @pytest.mark.parametrize("u, w, match", [
        ([math.nan, 0.5], [0.5, 0.5], "atom locations"),  # a mass-1 measure, accepted before
        ([math.nan], [1.0], "atom locations"),  # its w1_unit against point_mass(0.5) was nan
        ([0.5], [math.inf], "atom weights must be finite"),
    ])
    def test_measure_refuses_non_finite_atoms(self, u, w, match):
        with pytest.raises(ValueError, match=match):
            UnitMeasure(u=np.array(u), w=np.array(w))

    def test_split_exact(self):
        # symmetric split at beta -/+ s with equal masses: W1 = s exactly
        for s in (0.01, 0.1, 0.3):
            gen = split_perturbation(SL_LP, 3, s)
            _, eta, _ = rho_eta(pushforward_to_unit(gen, 3))
            assert w1_unit(eta.normalized(), point_mass(2.0 / 3.0)) == pytest.approx(
                s, rel=1e-10
            )


class TestStabilityConstant:
    def test_sl_value(self):
        k = stability_constant(2.0 / 3.0, 0.5, A_SL)
        assert k == pytest.approx(2.041241, abs=1e-6)
        assert k == pytest.approx(
            math.sqrt((5.0 / 3.0) ** 2 * math.log(2.0) / abs(A_SL)), abs=1e-12
        )

    def test_symmetric_unit_case(self):
        # beta=1/2, r=1/2, A=-ln2/2: K = sqrt((3/2)^2 * ln2 / (ln2/2)) = 3/sqrt(2)
        assert stability_constant(0.5, 0.5, -math.log(2.0) / 2.0) == pytest.approx(
            2.121320, abs=1e-6
        )

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="monofractal"):
            stability_constant(0.5, 0.5, 0.0)


class TestVerifyStability:
    def test_unperturbed(self):
        report = verify_stability(SL_LP, SL_LP, 0.5, 3)
        assert report.epsilon < 1e-14
        assert report.w1_levy < 1e-12
        assert report.bound_ok

    def test_split_family_bound(self):
        for s in (0.01, 0.05, 0.1, 0.2):
            report = verify_stability(split_perturbation(SL_LP, 3, s), SL_LP, 0.5, 3)
            assert report.bound_ok
            assert report.w1_levy == pytest.approx(s, rel=1e-10)
            assert report.eta_mass_gap == pytest.approx(0.0, abs=1e-12)

    def test_smear_family_bound(self):
        for width in (0.05, 0.2):
            report = verify_stability(smear_perturbation(SL_LP, 3, width), SL_LP, 0.5, 3)
            assert report.bound_ok

    def test_sqrt_scaling_on_eps_grid(self):
        # w1 ~ sqrt(eps) across four decades: log-log slope 0.5
        eps_grid = [10.0**-e for e in range(2, 6)]
        pts = []
        for eps in eps_grid:
            s = split_width_for_epsilon(SL_LP, 0.5, 3, eps)
            report = verify_stability(split_perturbation(SL_LP, 3, s), SL_LP, 0.5, 3)
            assert report.bound_ok
            assert report.epsilon == pytest.approx(eps, rel=1e-6)
            pts.append((math.log(report.epsilon), math.log(report.w1_levy)))
        xs, ys = zip(*pts)
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 0.5) < 0.05

    def test_residual_vs_reference_matches_split_quadratic(self):
        # for the split family eps(s) ~ beta''-type curvature * s^2 at small s
        e1 = a1_residual_vs_reference(split_perturbation(SL_LP, 3, 0.01), SL_LP, 0.5, 3, 40)
        e2 = a1_residual_vs_reference(split_perturbation(SL_LP, 3, 0.02), SL_LP, 0.5, 3, 40)
        assert e2 / e1 == pytest.approx(4.0, rel=0.02)


class TestMomentUniqueness:
    def test_atom_splitting_witness(self):
        # Splitting an atom into two co-located halves changes the
        # representation but not the measure: all moments and transport
        # distances agree, so the moment sequence pins down the measure.
        a = UnitMeasure(u=np.array([0.3, 0.7]), w=np.array([0.4, 0.6]))
        b = UnitMeasure(u=np.array([0.3, 0.7, 0.7]), w=np.array([0.4, 0.3, 0.3]))
        assert moment_sequence(a, 30) == pytest.approx(moment_sequence(b, 30), abs=1e-15)
        assert w1_unit(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_distinct_measures_have_distinct_moments(self):
        a = UnitMeasure(u=np.array([0.3, 0.7]), w=np.array([0.5, 0.5]))
        b = UnitMeasure(u=np.array([0.2, 0.8]), w=np.array([0.5, 0.5]))
        assert np.abs(moment_sequence(a, 10) - moment_sequence(b, 10)).max() > 1e-3


class TestEmpiricalW1:
    def test_identical_generators(self):
        assert empirical_w1_multipliers(SL_LP, SL_LP, 20_000, seed=1) == 0.0

    def test_deterministic_shift(self):
        a = LevyGenerator(drift=math.log(0.5))
        b = LevyGenerator(drift=math.log(0.6))
        assert empirical_w1_multipliers(a, b, 10_000, seed=0) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="10000"):
            empirical_w1_multipliers(SL_LP, SL_LP, 100, seed=0)

    def test_rejects_an_infinite_multiplier(self):
        # drift 3000: every W = exp(log W) overflows
        huge = LevyGenerator(drift=3000.0)
        with pytest.raises(OverflowError, match="W = exp\\(log W\\) is not finite"):
            empirical_w1_multipliers(huge, SL_LP, 10_000, seed=0)
        with pytest.raises(OverflowError, match="W = exp\\(log W\\) is not finite"):
            empirical_w1_multipliers(SL_LP, huge, 10_000, seed=0)

    def test_split_tracks_levy_w1(self):
        s = 0.1
        gen = split_perturbation(SL_LP, 3, s)
        report = verify_stability(gen, SL_LP, 0.5, 3, n_samples=100_000, seed=3)
        assert report.w1_multiplier is not None
        # common random numbers cancel the shared Poisson noise; the
        # multiplier-level distance stays within a small multiple of s
        assert 0.0 < report.w1_multiplier < 5 * s


class TestSplitWidthInversion:
    def test_round_trip(self):
        for eps in (1e-2, 1e-4):
            s = split_width_for_epsilon(SL_LP, 0.5, 3, eps)
            got = a1_residual_vs_reference(split_perturbation(SL_LP, 3, s), SL_LP, 0.5, 3, 40)
            assert got == pytest.approx(eps, rel=1e-6)

    def test_unreachable_target(self):
        with pytest.raises(ValueError, match="unreachable"):
            split_width_for_epsilon(SL_LP, 0.5, 3, 1e6)

    def test_target_below_rounding_floor_unreachable(self):
        # at s = 1e-12 the residual is rounding noise, far above 1e-30
        with pytest.raises(ValueError, match="unreachable"):
            split_width_for_epsilon(SL_LP, 0.5, 3, 1e-30)
        with pytest.raises(ValueError, match="unreachable"):
            split_width_for_epsilon(SL_LP, 0.5, 3, math.nan)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_target_unreachable(self, eps):
        with pytest.raises(ValueError, match="unreachable"):
            split_width_for_epsilon(SL_LP, 0.5, 3, eps)

    def test_readme_sweep_residual_budget(self, monkeypatch):
        # ln epsilon is close to linear in ln s, so the root finder needs ~10 residuals a target
        calls = []
        residual = hausdorff.a1_residual_vs_reference

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(hausdorff, "a1_residual_vs_reference", counted)
        for eps in eps_grid("1e-1:1e-6"):
            s = split_width_for_epsilon(SL_LP, 0.5, 3, eps)
            got = residual(split_perturbation(SL_LP, 3, s), SL_LP, 0.5, 3, 40)
            assert got == pytest.approx(eps, rel=1e-9)
        assert len(calls) <= 66

    def test_m_max_reported_as_given(self):
        with pytest.raises(ValueError, match="m_max must be >= 1, got 0"):
            a1_residual_vs_reference(split_perturbation(SL_LP, 3, 0.01), SL_LP, 0.5, 3, 0)
        assert a1_residual_vs_reference(split_perturbation(SL_LP, 3, 0.01), SL_LP, 0.5, 3, 1) > 0.0


@st.composite
def perturbed_references(draw):
    """(gen, ref, r, k): a split, leak, smear or tail perturbation of a drawn log-Poisson law."""
    k = draw(st.integers(1, 4))
    law = ScalingLaw(gamma=draw(st.floats(-0.5, 0.5)), big_c=draw(st.floats(0.2, 4.0)),
                     beta=draw(st.floats(0.05, 0.95)), k=k)
    r = draw(st.floats(0.1, 0.9))
    ref = logpoisson_from_scaling(law, r)
    room = min(law.beta, 1.0 - law.beta)
    kind = draw(st.sampled_from(["split", "leak", "smear", "tail"]))
    if kind == "split":
        gen = split_perturbation(ref, k, room * draw(st.floats(1e-9, 0.999)))
    elif kind == "leak":
        u2 = draw(st.floats(0.01, 0.99).filter(lambda u: u != law.beta))
        gen = leak_perturbation(ref, k, u2, draw(st.floats(0.01, 0.99)))
    elif kind == "smear":
        gen = smear_perturbation(ref, k, 2.0 * room * draw(st.floats(0.01, 0.99)))
    else:
        x_min = draw(st.floats(1e-4, 0.5))
        tail = StableTail(alpha=draw(st.floats(0.1, 1.9)), c=draw(st.floats(1e-3, 0.1)),
                          x_min=x_min, x_max=x_min * draw(st.floats(1.1, 100.0)))
        gen = LevyGenerator(drift=ref.a, atoms=((ref.b, draw(st.floats(0.1, 1.0)) * ref.lam),),
                            tail=tail)
    return gen, ref, r, k


class TestResidualWithoutSeries:
    """a1_residual_vs_reference is the residual of delta_series_analytic's series, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(case=perturbed_references(), m_max=st.integers(2, 60))
    def test_matches_delta_series(self, case, m_max):
        gen, ref, r, k = case
        series = delta_series_analytic(gen, r, k, m_max + 1)
        want = recurrence_residual(series.delta, math.exp(ref.b * k), ref.a * k / math.log(r))
        got = a1_residual_vs_reference(gen, ref, r, k, m_max)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_non_finite_deltas_raise_as_the_series_does(self):
        # psi(9) = -5.5e307 and psi(12) = 1.3e308 are finite, their difference is not
        gen = LevyGenerator(drift=5e306, atoms=((-50.0, 1e308), (50.0, 1.7e308 / math.expm1(600.0))))
        with pytest.raises(ValueError, match="delta entries must be finite"):
            delta_series_analytic(gen, 0.5, 3, 3)
        with pytest.raises(ValueError, match="delta entries must be finite"):
            a1_residual_vs_reference(gen, SL_LP, 0.5, 3, 2)
