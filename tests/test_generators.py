import functools
import math
import operator
import re
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special, stats

from hscascade import generators as gens_module
from hscascade.exponents import ScalingLaw, zeta
from hscascade.generators import (
    LevyGenerator,
    _BLOCK,
    _bucketed_pick,
    _count_stream,
    _count_table,
    _sample_rows,
    LogPoissonParams,
    StableTail,
    as_levy,
    carleman_partial_sum,
    carleman_terms,
    delta_series_analytic,
    determinacy_verdict,
    generator_from_dict,
    generator_from_json,
    generator_to_json,
    ln_moment,
    logpoisson_from_scaling,
    normalize_mean_one,
    sample_logW,
)
from hscascade.hausdorff import empirical_w1_multipliers, split_perturbation

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
SL_LP = logpoisson_from_scaling(SL, 0.5)
LOGNORMAL = LevyGenerator(drift=-0.1, sigma2=0.2)


def random_law(rng):
    return ScalingLaw(
        gamma=rng.uniform(-1, 1),
        big_c=rng.uniform(0.1, 5),
        beta=rng.uniform(0.05, 0.95),
        k=int(rng.integers(1, 5)),
    )


class TestLogPoissonFromScaling:
    def test_sl_values(self):
        assert SL_LP.a == pytest.approx(-0.077016, abs=1e-6)
        assert SL_LP.b == pytest.approx(-0.135155, abs=1e-6)
        assert SL_LP.lam == pytest.approx(1.386294, abs=1e-6)

    def test_unit_normalization(self):
        lp = logpoisson_from_scaling(
            ScalingLaw(gamma=0.0, big_c=1.0, beta=1.0 / math.e, k=1), 1.0 / math.e
        )
        assert lp.a == pytest.approx(0.0, abs=1e-15)
        assert lp.b == pytest.approx(-1.0, abs=1e-12)
        assert lp.lam == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_case(self):
        lp = logpoisson_from_scaling(ScalingLaw(gamma=1.0, big_c=1.0, beta=0.5, k=1), 0.5)
        ln2 = math.log(2.0)
        assert lp.a == pytest.approx(-ln2, abs=1e-12)
        assert lp.b == pytest.approx(-ln2, abs=1e-12)
        assert lp.lam == pytest.approx(ln2, abs=1e-12)

    def test_rejects_monofractal_and_bad_r(self):
        with pytest.raises(ValueError, match="monofractal"):
            logpoisson_from_scaling(ScalingLaw(gamma=0.1, big_c=0.0, beta=0.5, k=1), 0.5)
        with pytest.raises(ValueError):
            logpoisson_from_scaling(SL, 1.5)


class TestLnMoment:
    def test_zero_order(self):
        assert ln_moment(SL_LP, 0.0) == 0.0
        assert ln_moment(LOGNORMAL, 0.0) == 0.0

    def test_log_poisson_matches_zeta(self):
        assert ln_moment(SL_LP, 3.0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_log_normal(self):
        assert ln_moment(LOGNORMAL, 2.0) == pytest.approx(0.2, abs=1e-15)

    def test_moment_identity_random_laws(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            law = random_law(rng)
            r = rng.uniform(0.1, 0.9)
            lp = logpoisson_from_scaling(law, r)
            for p in range(31):
                assert ln_moment(lp, p) == pytest.approx(
                    zeta(law, p) * math.log(r), abs=1e-10
                )

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            ln_moment(SL_LP, -1.0)

    def test_overflow_reported(self):
        gen = LevyGenerator(drift=0.0, atoms=((5.0, 1.0),))
        with pytest.raises(OverflowError):
            ln_moment(gen, 1000.0)

    @pytest.mark.parametrize("gen", [
        LevyGenerator(sigma2=1e308),
        LevyGenerator(drift=-1e308, sigma2=1e308),
        LevyGenerator(drift=1e308),
    ])
    def test_overflow_in_drift_and_gaussian_part_reported(self, gen):
        with pytest.raises(OverflowError):
            ln_moment(gen, np.array([1.0, 2.0]))


class TestDeltaSeriesAnalytic:
    def test_sl_series(self):
        series = delta_series_analytic(SL_LP, 0.5, 3, 3)
        expected = (1.0, 7.0 / 9.0, 1.0 / 3.0 + (2.0 / 3.0) ** 2 * (2.0 / 3.0),
                    1.0 / 3.0 + (2.0 / 3.0) ** 3 * (2.0 / 3.0))
        assert series.delta == pytest.approx(expected, abs=1e-12)

    def test_log_normal_affine(self):
        series = delta_series_analytic(LOGNORMAL, 0.5, 1, 10)
        diffs = np.diff(series.delta)
        step = 0.2 / math.log(0.5)
        assert np.allclose(diffs, step, atol=1e-12)
        assert step == pytest.approx(-0.288539, abs=1e-6)

    def test_deterministic_constant(self):
        gen = LevyGenerator(drift=-0.3)
        series = delta_series_analytic(gen, 0.5, 2, 5)
        assert np.allclose(series.delta, -0.3 * 2 / math.log(0.5), atol=1e-15)

    def test_converse_recurrence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            law = random_law(rng)
            r = rng.uniform(0.1, 0.9)
            lp = logpoisson_from_scaling(law, r)
            series = delta_series_analytic(lp, r, law.k, 20)
            d = np.asarray(series.delta)
            beta = math.exp(lp.b * law.k)
            dinf = lp.a * law.k / math.log(r)
            resid = d[1:] - (1.0 - beta) * dinf - beta * d[:-1]
            assert np.abs(resid).max() < 1e-10

    def test_gaussian_part_diverges_affinely(self):
        # sigma2 > 0: deltas affine in m with slope sigma2*k**2/ln r, no finite limit
        gen = LevyGenerator(drift=0.0, sigma2=0.5, atoms=((-1.0, 0.3),))
        series = delta_series_analytic(gen, 0.5, 2, 30)
        diffs = np.diff(series.delta)[20:]
        assert np.allclose(diffs, 0.5 * 4 / math.log(0.5), atol=1e-6)

    def test_positive_jump_diverges(self):
        gen = LevyGenerator(drift=0.0, atoms=((-1.0, 1.0), (0.5, 0.1)))
        series = delta_series_analytic(gen, 0.5, 1, 30)
        d = np.asarray(series.delta)
        assert np.all(np.diff(d[10:]) < 0)  # ln r < 0 flips the sign of the blow-up
        assert d[-1] < -100


class TestSampleLogW:
    def test_deterministic_generator(self):
        out = sample_logW(LevyGenerator(drift=-0.3), 100, seed=1)
        assert np.all(out == -0.3)

    def test_poisson_mean(self):
        lp = LogPoissonParams(a=0.0, b=-1.0, lam=1.0)
        out = sample_logW(lp, 1_000_000, seed=42)
        n_mean = -out.mean()  # N = -log W here
        assert abs(n_mean - 1.0) < 3e-3

    @pytest.mark.parametrize("name, value", [
        ("count", 5.5), ("count", 5.0), ("count", True), ("count", "5"),
        ("seed", 1.9), ("seed", np.float64(1.0)), ("seed", False), ("seed", None),
    ])
    def test_refuses_a_count_or_seed_that_is_not_an_integer(self, name, value):
        # a seed of 1.9 used to draw seed 1's stream; a count of 5.5 failed inside NumPy
        args = {"count": 5, "seed": 0, name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
            sample_logW(SL_LP, **args)

    def test_accepts_numpy_integers(self):
        got = sample_logW(SL_LP, np.int32(50), np.uint64(9))
        assert got.tobytes() == sample_logW(SL_LP, 50, 9).tobytes()

    def test_seed_determinism(self):
        a = sample_logW(SL_LP, 10_000, seed=9)
        b = sample_logW(SL_LP, 10_000, seed=9)
        assert np.array_equal(a, b)
        c = sample_logW(SL_LP, 10_000, seed=10)
        assert not np.array_equal(a, c)

    def test_monte_carlo_moments(self):
        n = 1_000_000
        logw = sample_logW(SL_LP, n, seed=3)
        for p in (1, 2, 3, 4):
            x = np.exp(p * logw)
            se = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean() - math.exp(ln_moment(SL_LP, p))) < 4 * se

    def test_monte_carlo_moments_of_every_stream(self):
        # atoms, a StableTail and a Gaussian part read all four streams: counts, jump
        # uniforms, tail uniforms and normals
        gen = LevyGenerator(drift=0.05, sigma2=0.1, atoms=((-0.3, 0.8), (0.15, 0.5)),
                            tail=StableTail(alpha=0.5, c=0.05, x_min=1e-3, x_max=1.0))
        n = 1_000_000
        logw = sample_logW(gen, n, seed=3)
        for p in (1, 2, 3):
            x = np.exp(p * logw)
            se = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean() - math.exp(ln_moment(gen, p))) < 4 * se

    def test_monte_carlo_moments_of_the_stable_tail(self):
        # the log-stable law of classify-family and the benchmark, ~9.9 jumps per draw:
        # its counts come from the table
        gen = LevyGenerator(drift=SL_LP.a, tail=CLASSIFY_TAIL)
        n = 1_000_000
        logw = sample_logW(gen, n, seed=3)
        for p in (1, 2, 3):
            x = np.exp(p * logw)
            se = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean() - math.exp(ln_moment(gen, p))) < 4 * se

    def test_stable_tail_samplable(self):
        gen = LevyGenerator(
            drift=0.0, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-3, x_max=1.0)
        )
        out = sample_logW(gen, 50_000, seed=0)
        assert np.all(out <= 0.0)
        # sample mean of log W should match psi'(0) = integral x nu(dx)
        t = gen.tail
        mean_jump = -t.c * (t.x_max ** (1 - t.alpha) - t.x_min ** (1 - t.alpha)) / (1 - t.alpha)
        assert out.mean() == pytest.approx(mean_jump, abs=4 * out.std() / math.sqrt(50_000))


class TestNormalizeMeanOne:
    def test_log_poisson(self):
        lp = normalize_mean_one(LogPoissonParams(a=0.0, b=-1.0, lam=1.0))
        assert lp.a == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert ln_moment(lp, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_idempotent(self):
        gen = normalize_mean_one(SL_LP)
        again = normalize_mean_one(gen)
        assert again.a == pytest.approx(gen.a, abs=1e-15)

    def test_log_normal(self):
        gen = normalize_mean_one(LevyGenerator(drift=0.0, sigma2=0.2))
        assert gen.drift == pytest.approx(-0.1, abs=1e-15)


class TestCarleman:
    def test_log_poisson_terms_converge(self):
        terms = carleman_terms(SL_LP, 500)
        assert terms[-1] == pytest.approx(2.0 ** (1.0 / 9.0), abs=2e-3)
        assert carleman_partial_sum(SL_LP, 1000) > 1000.0

    def test_log_normal_geometric_sum(self):
        total = carleman_partial_sum(LOGNORMAL, 300)
        closed = math.exp(0.1) * math.exp(-0.2) / (1.0 - math.exp(-0.2))
        assert total == pytest.approx(closed, abs=1e-4)
        assert total == pytest.approx(4.99169, abs=1e-4)

    def test_deterministic(self):
        gen = LevyGenerator(drift=math.log(0.7))
        terms = carleman_terms(gen, 50)
        assert np.allclose(terms, 1.0 / 0.7, atol=1e-12)
        assert carleman_partial_sum(gen, 50) == pytest.approx(50 / 0.7, rel=1e-12)

    @pytest.mark.parametrize("drift", [-1e300, -709.0])
    def test_overflow_reported(self, drift):
        # exp(-psi(2p)/2p) overflows at -1e300; at -709 only the partial sum does
        with pytest.raises(OverflowError, match="Carleman"):
            carleman_terms(LevyGenerator(drift=drift), 20)

    def test_verdicts(self):
        assert determinacy_verdict(SL_LP) == "determinate-divergent"
        assert determinacy_verdict(LOGNORMAL) == "indeterminate-convergent"
        assert determinacy_verdict(LevyGenerator(drift=-0.5)) == "determinate-divergent"

    @pytest.mark.parametrize("drift", [-50.0, 0.0, 10.0, 14.0, 50.0])
    def test_verdict_ignores_the_drift(self, drift):
        # W <= e**drift has compact support, so it is determinate at every drift; each
        # Carleman term carries e**(-drift), which must not move the verdict
        atom = LevyGenerator(drift=drift, atoms=((-0.5, 1.0),))
        tail = LevyGenerator(drift=drift, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0))
        lognormal = replace(LOGNORMAL, drift=drift)
        assert determinacy_verdict(atom) == "determinate-divergent"
        assert determinacy_verdict(tail) == "determinate-divergent"
        assert determinacy_verdict(lognormal) == "indeterminate-convergent"

    def test_verdict_with_overflowing_drift_free_terms(self):
        # W = e**(1000 - N), N ~ Poisson(2000): the terms of W underflow to 0 in the tail,
        # those of W*e**-1000 pass the float range at small p; both are bounded away from 0
        gen = LevyGenerator(drift=1000.0, atoms=((-1.0, 2000.0),))
        assert carleman_terms(gen, 200)[-1] == 0.0
        assert determinacy_verdict(gen) == "determinate-divergent"

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_verdict_rejects_non_positive_threshold(self, threshold):
        # at threshold <= 0 the log-normal law, which is indeterminate, read as determinate
        with pytest.raises(ValueError, match="threshold must be > 0"):
            determinacy_verdict(LOGNORMAL, threshold=threshold)


class TestSerialization:
    def test_round_trips(self):
        gens = [
            SL_LP,
            LOGNORMAL,
            LevyGenerator(drift=0.1, atoms=((-1.0, 0.5), (-2.0, 0.25))),
            LevyGenerator(
                drift=0.0, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)
            ),
            LevyGenerator(  # a tail and a Gaussian part: sigma2 used to be dropped
                drift=0.1, sigma2=0.3, atoms=((-1.0, 0.5),),
                tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0),
            ),
        ]
        for gen in gens:
            assert generator_from_json(generator_to_json(gen)) == gen

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generator_from_json('{"kind": "mystery"}')

    @pytest.mark.parametrize("doc, message", [
        ([], "must be a JSON object, got list"),
        ({"kind": "mystery"}, "unknown generator kind 'mystery'"),
        ({"drift": 0.0}, "unknown generator kind None"),
        ({"kind": "log-poisson", "a": 0.0, "b": -1.0}, "missing field 'lambda'"),
        ({"kind": "log-stable", "drift": 0.0, "alpha": 0.5, "c": 1.0, "x_min": 0.1},
         "missing field 'x_max'"),
        ({"kind": "atomic", "drift": "x"}, "field 'drift' must be a number, got 'x'"),
        ({"kind": "atomic", "drift": True}, "field 'drift' must be a number, got True"),
        ({"kind": "log-normal", "drift": 0.0, "sigma2": None}, "field 'sigma2' must be a number"),
        ({"kind": "atomic", "drift": 10**400}, "field 'drift' is too large"),
        ({"kind": "atomic", "drift": 0.0, "atoms": {"x": 1}}, "field 'atoms' must be a list"),
        ({"kind": "atomic", "drift": 0.0, "atoms": [[-0.3]]}, r"atom 0 must be an \[x, w\] pair"),
        ({"kind": "atomic", "drift": 0.0, "atoms": [[-0.3, 1.0], -0.3]}, "atom 1 must be"),
        ({"kind": "atomic", "drift": 0.0, "atoms": [[-0.3, "1"]]}, "atom 0 w must be a number"),
    ])
    def test_malformed_document_named(self, doc, message):
        with pytest.raises(ValueError, match=message):
            generator_from_dict(doc)


class TestValidation:
    def test_log_poisson_params(self):
        with pytest.raises(ValueError):
            LogPoissonParams(a=0.0, b=0.1, lam=1.0)
        with pytest.raises(ValueError):
            LogPoissonParams(a=0.0, b=-1.0, lam=0.0)

    def test_levy_generator(self):
        with pytest.raises(ValueError):
            LevyGenerator(sigma2=-1.0)
        with pytest.raises(ValueError):
            LevyGenerator(atoms=((0.0, 1.0),))
        with pytest.raises(ValueError):
            LevyGenerator(atoms=((-1.0, -1.0),))

    def test_stable_tail(self):
        with pytest.raises(ValueError):
            StableTail(alpha=2.5, c=1.0, x_min=0.1, x_max=1.0)
        with pytest.raises(ValueError):
            StableTail(alpha=0.5, c=1.0, x_min=1.0, x_max=0.1)

    @pytest.mark.parametrize("alpha, c, x_min", [
        (1.9, 1.0, 1e-200),  # x_min ** -alpha is beyond the float range
        (1.9, 1e300, 1e-10),  # x_min ** -alpha is finite, the mass is not
    ])
    def test_stable_tail_mass_must_be_finite(self, alpha, c, x_min):
        with pytest.raises(ValueError, match="tail mass is not finite"):
            StableTail(alpha=alpha, c=c, x_min=x_min, x_max=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: LogPoissonParams(a=v, b=-1.0, lam=1.0),
        lambda v: LogPoissonParams(a=0.0, b=v, lam=1.0),
        lambda v: LogPoissonParams(a=0.0, b=-1.0, lam=v),
        lambda v: LevyGenerator(drift=v),
        lambda v: LevyGenerator(sigma2=v),
        lambda v: LevyGenerator(atoms=((v, 1.0),)),
        lambda v: LevyGenerator(atoms=((-1.0, v),)),
        lambda v: StableTail(alpha=0.5, c=v, x_min=0.1, x_max=1.0),
    ], ids=["a", "b", "lam", "drift", "sigma2", "atom_x", "atom_w", "tail_c"])
    def test_rejects_non_finite(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_as_levy(self):
        g = as_levy(SL_LP)
        assert g.atoms == ((SL_LP.b, SL_LP.lam),)
        with pytest.raises(TypeError):
            as_levy("nope")


# --- property tests ----------------------------------------------------

PINNED_TAIL = StableTail(alpha=1.5, c=1.0, x_min=1e-6, x_max=1.0)


def tail_psi_reference(tail, p):
    """Adaptive quad in t = ln|x| of expm1(-p*e**t) * c*e**(-alpha*t).

    Independent of ln_moment's fixed rule; quad in x itself fails on
    wide tails.
    """
    def f(t):
        return math.expm1(-p * math.exp(t)) * tail.c * math.exp(-tail.alpha * t)

    lo, hi = math.log(tail.x_min), math.log(tail.x_max)
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@st.composite
def tails(draw, max_span=1e6):
    x_min = draw(st.floats(1e-6, 0.1))
    return StableTail(
        alpha=draw(st.floats(0.05, 1.95)),
        c=draw(st.floats(0.01, 10.0)),
        x_min=x_min,
        x_max=x_min * draw(st.floats(1.01, max_span)),
    )


@st.composite
def generators(draw, negative_only=False):
    x = st.floats(-3.0, -0.01) if negative_only else st.floats(-3.0, 0.5).filter(
        lambda v: abs(v) >= 0.01)
    atoms = draw(st.lists(st.tuples(x, st.floats(0.01, 5.0)), max_size=5))
    return LevyGenerator(
        drift=draw(st.floats(-1.0, 1.0)),
        sigma2=0.0 if negative_only else draw(st.sampled_from([0.0, 0.3])),
        atoms=tuple(atoms),
        tail=draw(st.none() | tails()),
    )


class TestLnMomentProperties:
    def test_pinned_wide_tail(self):
        # 30-digit mpmath value; adaptive quad in x returned +348.49 here
        got = ln_moment(LevyGenerator(tail=PINNED_TAIL), 30)
        assert got == pytest.approx(-59611.90814782221, rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(tail=tails(), p=st.just(0.0) | st.floats(1e-6, 400.0))
    def test_tail_matches_adaptive_reference(self, tail, p):
        got = ln_moment(LevyGenerator(tail=tail), p)
        assert got == pytest.approx(tail_psi_reference(tail, p), rel=1e-11, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(gen=generators(),
           p=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                        elements=st.floats(0.0, 50.0)))
    def test_array_matches_scalar(self, gen, p):
        got = ln_moment(gen, p)
        assert np.shape(got) == p.shape
        want = np.array([ln_moment(gen, float(v)) for v in p.ravel()]).reshape(p.shape)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(gen=generators(negative_only=True),
           p=hnp.arrays(float, st.integers(2, 20), elements=st.floats(0.0, 400.0)))
    def test_negative_jumps_bounded_and_decreasing(self, gen, p):
        p = np.sort(p)
        mass = sum(w for _, w in gen.atoms) + (gen.tail.mass if gen.tail else 0.0)
        jump_part = ln_moment(gen, p) - gen.drift * p
        tol = 1e-12 * (1.0 + mass + abs(gen.drift) * p[-1])
        assert np.all(jump_part <= tol)
        assert np.all(jump_part >= -mass - tol)
        assert np.all(np.diff(jump_part) <= tol)


class TestSerializationProperties:
    @settings(max_examples=100, deadline=None)
    @given(gen=generators() | st.builds(LogPoissonParams, a=st.floats(-1.0, 1.0),
                                         b=st.floats(-3.0, -0.01), lam=st.floats(0.01, 5.0)))
    def test_json_round_trip(self, gen):
        assert generator_from_json(generator_to_json(gen)) == gen


# --- the random stream ---------------------------------------------------

def reference_sample_logW(gen, count, seed):
    """The sampler as whole arrays: a categorical pick and a per-atom mask loop.

    Pins the random streams: the counts come from Philox(key=seed), and
    the jump uniforms, the tail uniforms and the normals from that
    generator jumped 1, 2 and 3 times.  The total rate is summed left to
    right, as float sum() did before Python 3.12.  The counts are one
    uniform each, inverted by scipy.stats.poisson.ppf.  One atom x and no
    tail gives the jump sum n_jumps * x; any other table sums its jumps
    left to right.
    """
    g = as_levy(gen)
    bits = np.random.Philox(key=int(seed))
    counts, jump_rng, tail_rng, normals = (np.random.Generator(b) for b in (
        bits, bits.jumped(1), bits.jumped(2), bits.jumped(3)))

    out = np.full(count, g.drift, dtype=float)
    if g.sigma2 > 0:
        out += normals.normal(0.0, math.sqrt(g.sigma2), size=count)

    locs = [x for x, _ in g.atoms]
    rates = [w for _, w in g.atoms]
    tail = g.tail
    if tail is not None:
        rates.append(tail.mass)
    total_rate = functools.reduce(operator.add, rates, 0.0)
    if total_rate == 0.0:
        return out

    n_jumps = stats.poisson.ppf(counts.random(count), total_rate).astype(np.int64)
    if len(locs) == 1 and tail is None:
        return out + n_jumps * locs[0]
    t = int(n_jumps.sum())
    if t == 0:
        return out

    cum = np.cumsum(rates) / total_rate
    pick = np.searchsorted(cum, jump_rng.random(t), side="right")
    sizes = np.empty(t, dtype=float)
    for i, x in enumerate(locs):
        sizes[pick == i] = x
    if tail is not None:
        sel = pick == len(locs)
        v = tail_rng.random(int(sel.sum()))
        lo, hi, a = tail.x_min ** -tail.alpha, tail.x_max ** -tail.alpha, tail.alpha
        sizes[sel] = -((lo - v * (lo - hi)) ** (-1.0 / a))

    sample_idx = np.repeat(np.arange(count), n_jumps)
    out += np.bincount(sample_idx, weights=sizes, minlength=count)
    return out


@st.composite
def sampled_generators(draw):
    """0-300 atoms of either sign, an optional StableTail and Gaussian part, total rate <= 40."""
    n_atoms = draw(st.integers(0, 300))
    sizes = draw(hnp.arrays(float, n_atoms, elements=st.floats(1e-3, 3.0)))
    locs = np.where(draw(hnp.arrays(bool, n_atoms)), sizes, -sizes)
    weights = draw(hnp.arrays(float, n_atoms, elements=st.floats(1e-3, 1.0)))
    if n_atoms:
        weights *= draw(st.floats(1e-3, 20.0)) / weights.sum()
    tail = None
    if draw(st.booleans()):
        alpha = draw(st.floats(0.05, 1.95))
        x_min = draw(st.floats(1e-4, 0.5))
        x_max = x_min * draw(st.floats(1.01, 1e4))
        mass = draw(st.floats(1e-6, 20.0))  # down to a nearly empty tail
        c = mass * alpha / (x_min**-alpha - x_max**-alpha)
        tail = StableTail(alpha=alpha, c=c, x_min=x_min, x_max=x_max)
    return LevyGenerator(
        drift=draw(st.floats(-1.0, 1.0)),
        sigma2=draw(st.sampled_from([0.0, 0.3])),
        atoms=tuple(zip(locs.tolist(), weights.tolist())),
        tail=tail,
    )


@st.composite
def one_atom_generators(draw):
    """LogPoissonParams, or one atom of either sign at rate <= 40 with or without sigma2."""
    if draw(st.booleans()):
        return LogPoissonParams(a=draw(st.floats(-1.0, 1.0)), b=draw(st.floats(-3.0, -1e-3)),
                                lam=draw(st.floats(1e-3, 40.0)))
    x = draw(st.floats(1e-3, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return LevyGenerator(
        drift=draw(st.floats(-1.0, 1.0)),
        sigma2=draw(st.just(0.0) | st.floats(1e-3, 1.0)),
        atoms=((x, draw(st.floats(1e-3, 40.0))),),
    )


# the stable tail of `hscascade classify-family`, ~10 jumps per draw
CLASSIFY_TAIL = StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)


class TestRandomStream:
    """sample_logW reproduces the reference sampler bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(gen=sampled_generators(), count=st.integers(1, 5000),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, gen, count, seed):
        got = sample_logW(gen, count, seed)
        assert got.tobytes() == reference_sample_logW(gen, count, seed).tobytes()

    def test_pinned_200_atoms_and_tail(self):
        rng = np.random.default_rng(2024)
        atoms = tuple(zip(rng.uniform(-0.4, -0.02, 200).tolist(),
                          (rng.dirichlet(np.ones(200)) * SL_LP.lam).tolist()))
        gen = LevyGenerator(drift=SL_LP.a, atoms=atoms,
                            tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0))
        got = sample_logW(gen, 100_000, seed=11)
        assert got.tobytes() == reference_sample_logW(gen, 100_000, 11).tobytes()

    @pytest.mark.parametrize("sigma2", [0.0, 0.3])
    def test_pinned_tail_only(self, sigma2):
        # the log-stable law of classify-family draws no jump uniforms, only tail uniforms;
        # sampled_generators gives a tail-only table in ~1 of 600 examples
        gen = LevyGenerator(drift=SL_LP.a, sigma2=sigma2,
                            tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0))
        got = sample_logW(gen, 100_000, seed=5)
        assert got.tobytes() == reference_sample_logW(gen, 100_000, 5).tobytes()

    @pytest.mark.parametrize("tail", [None, CLASSIFY_TAIL], ids=["one-atom path", "general path"])
    def test_pinned_rate_400_atom(self, tail):
        # ~400 jumps per draw: large counts, and on the general path ~400 jump uniforms and
        # ~1 tail uniform per draw
        gen = LevyGenerator(drift=0.1, atoms=((-0.01, 400.0),), tail=tail)
        got = sample_logW(gen, 20_000, seed=9)
        assert got.tobytes() == reference_sample_logW(gen, 20_000, 9).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(gen=one_atom_generators(), count=st.integers(1, 5000),
           seed=st.integers(0, 2**32 - 1))
    def test_one_atom_matches_reference(self, gen, count, seed):
        got = sample_logW(gen, count, seed)
        assert got.tobytes() == reference_sample_logW(gen, count, seed).tobytes()

    def test_pinned_canonical_law(self):
        got = sample_logW(SL_LP, 1_000_000, seed=7)
        assert got.tobytes() == reference_sample_logW(SL_LP, 1_000_000, 7).tobytes()

    def test_common_random_numbers_kept(self):
        # the split law has two atoms, the canonical law one: both must draw the same counts
        pert = split_perturbation(SL_LP, 3, 0.05)
        wa = np.sort(np.exp(reference_sample_logW(pert, 200_000, 3)))
        wb = np.sort(np.exp(reference_sample_logW(SL_LP, 200_000, 3)))
        expected = float(np.abs(wa - wb).mean())
        assert empirical_w1_multipliers(pert, SL_LP, 200_000, 3) == expected

    def test_common_random_numbers_kept_at_a_table_rate(self):
        # C = 4 puts both laws at rate 4 ln 2 ~ 2.77, where the counts come from the pdtr table
        lp = logpoisson_from_scaling(replace(SL, big_c=4.0), 0.5)
        pert = split_perturbation(lp, 3, 0.05)
        wa = np.sort(np.exp(reference_sample_logW(pert, 200_000, 3)))
        wb = np.sort(np.exp(reference_sample_logW(lp, 200_000, 3)))
        expected = float(np.abs(wa - wb).mean())
        assert empirical_w1_multipliers(pert, lp, 200_000, 3) == expected


def jump_counts(rate, count, seed):
    """The Poisson counts sample_logW draws at this total rate: minus its draws of N * (-1.0)."""
    return -sample_logW(LevyGenerator(atoms=((-1.0, rate),)), count, seed)


class TestCountTable:
    """The counts are one uniform each, inverted on a table of the Poisson CDF: pdtr's from a
    total rate of 2 up, the pmf recurrence's below it."""

    @pytest.mark.parametrize("rate", [1e-3, SL_LP.lam, np.nextafter(2.0, 0.0), 2.0, 9.9, 50.0,
                                      400.0, 1e5])
    def test_chi_square_against_pdtr(self, rate):
        n = 1 << 20
        got = jump_counts(rate, n, 13)
        # 42 bins: N <= c_0, c_0 < N <= c_1, ..., N > c_40, at steps of sqrt(rate)/5
        cuts = np.unique(np.maximum(0.0, np.round(rate + math.sqrt(rate) * np.linspace(-4, 4, 41))))
        observed = np.bincount(np.searchsorted(cuts, got, side="left"), minlength=len(cuts) + 1)
        expected = n * np.diff(np.concatenate(([0.0], special.pdtr(cuts, rate), [1.0])))
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @settings(max_examples=100, deadline=None)
    @given(rate=st.sampled_from([1e-3, 0.5, 2.0 * math.log(2.0), 1.9999, np.nextafter(2.0, 0.0)])
           | st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    def test_table_below_rate_2_is_the_exact_cdf(self, rate):
        # within 4 ulps of P(N <= k) summed in 40-digit decimals, at every k but the last
        # (set to 1.0): at most 3 measured over 65,000 rates.  pdtr itself is up to 13 ulps
        # off the exact CDF here, at k = 0 and 1
        k_lo, cdf = _count_table(rate)
        with localcontext() as ctx:
            ctx.prec = 40
            term = total = (-Decimal(rate)).exp()
            exact = [float(total)]
            for i in range(1, len(cdf) - 1):
                term *= Decimal(rate) / i
                total += term
                exact.append(float(total))
        exact = np.array(exact)
        assert k_lo == 0 and cdf[-1] == 1.0
        assert (np.abs(cdf[:-1] - exact) <= 4 * np.spacing(exact)).all()

    def test_table_from_rate_2(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        u = rng.random(100_000)
        got = jump_counts(2.0, 100_000, 21)
        assert np.array_equal(got, stats.poisson.ppf(u, 2.0))
        rng = np.random.Generator(np.random.Philox(key=21))
        assert not np.array_equal(got, rng.poisson(2.0, 100_000))

    @pytest.mark.parametrize("atoms", [((-1.0, 1e8),), ((-1.0, 1e308), (-0.5, 1e308))],
                             ids=["rate 1e8", "infinite rate"])
    def test_refuses_counts_past_the_cap(self, atoms):
        gen = LevyGenerator(atoms=atoms)
        with pytest.raises(ValueError, match=r"total jump rate (1e\+08|inf) .* cap of 16777216"):
            sample_logW(gen, 10, 0)
        with pytest.raises(ValueError, match="cap of 16777216"):
            next(_sample_rows(gen, 3, 10, 0))


# rates below 2 at its ends and at the canonical law's 2 ln 2, and the first pdtr rate
STREAM_RATES = [1e-3, 2.0 * math.log(2.0), 1.9999, 2.0]


class TestCountStream:
    """Each count is the next uniform of the key's own stream, inverted on the count table, so
    draws in turn are one draw's counts."""

    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from(STREAM_RATES) | st.floats(0.0, 20.0, exclude_min=True),
           sizes=st.lists(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
                          | st.integers(1, 5000), min_size=1, max_size=3),
           seed=st.integers(0, 2**128 - 1))
    def test_draws_in_turn_are_one_draw(self, rate, sizes, seed):
        draw = _count_stream(rate, seed)
        got = np.concatenate([draw(n) for n in sizes])
        assert got.tobytes() == _count_stream(rate, seed)(sum(sizes)).tobytes()

    @pytest.mark.parametrize("start", [*range(9), _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                                       2 * _BLOCK + 3])
    def test_positioned_draw_is_one_draw_at_that_position(self, start):
        # every start % 4 within Philox's block of four outputs, and at _BLOCK boundaries;
        # the draw after a positioned one goes on from where it ended
        for seed in (0, 2**128 - 1):
            for rate in (SL_LP.lam, 9.9):
                whole = _count_stream(rate, seed)(start + 1005)
                draw = _count_stream(rate, seed)
                got = np.concatenate([draw(1000, start), draw(5)])
                assert got.tobytes() == whole[start:].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from(STREAM_RATES) | st.floats(0.0, 20.0, exclude_min=True),
           draws=st.lists(st.tuples(st.integers(0, 300), st.none() | st.integers(0, 3000)),
                          min_size=1, max_size=6),
           seed=st.integers(0, 2**128 - 1))
    def test_positioned_draws_are_slices_of_one_draw(self, rate, draws, seed):
        # a cursor moved back, forward or not at all reads the positions it is moved to
        whole = _count_stream(rate, seed)(3000 + 6 * 300)
        draw, pos = _count_stream(rate, seed), 0
        for n, start in draws:
            pos = pos if start is None else start
            assert draw(n, start).tobytes() == whole[pos:pos + n].tobytes()
            pos += n

    @pytest.mark.parametrize("rate", STREAM_RATES)
    def test_one_uniform_per_count(self, rate):
        # the i-th count of the stream inverts its i-th uniform, across two draws
        for seed in (0, 7, 2**128 - 1):
            u = np.random.Generator(np.random.Philox(key=seed)).random(1005)
            draw = _count_stream(rate, seed)
            got = np.concatenate([draw(1000), draw(5)])
            assert np.array_equal(got, stats.poisson.ppf(u, rate))

    def test_zero_rate_draws_nothing(self, monkeypatch):
        # no table and no bit generator: the counts are int64 zeros
        def refused(*args, **kwargs):
            raise AssertionError("a zero rate built a count table or a bit generator")

        monkeypatch.setattr(gens_module, "_count_table", refused)
        monkeypatch.setattr(np.random, "Philox", refused)
        draw = _count_stream(0.0, 5)
        for n in (1, _BLOCK + 1):
            got = draw(n)
            assert got.dtype == np.int64 and len(got) == n and not got.any()

    @pytest.mark.parametrize("rate", STREAM_RATES[:3])
    def test_matches_reference_across_blocks(self, rate):
        # 300k draws span two blocks of _BLOCK samples on the one-atom path, and on the
        # general path of two atoms, whose blocks below rate 1 are _BLOCK samples too
        for gen in (LevyGenerator(drift=0.1, atoms=((-0.3, rate),)),
                    LevyGenerator(drift=0.1, atoms=((-0.3, rate / 2), (0.2, rate / 2)))):
            for seed in (0, 2**128 - 1):
                got = sample_logW(gen, 300_000, seed)
                assert got.tobytes() == reference_sample_logW(gen, 300_000, seed).tobytes()


class TestNoThread:
    """The counts are drawn on the calling thread: sampling starts no thread, on return or on
    error, below rate 2 or from the pdtr table."""

    @pytest.mark.parametrize("rate", [SL_LP.lam, 9.9])
    def test_rows_start_none(self, thread_starts, rate):
        rows = _sample_rows(LevyGenerator(atoms=((SL_LP.b, rate),)), 3, 100_000, 0)
        next(rows)
        rows.close()
        assert thread_starts == []

    @pytest.mark.parametrize("draw", [
        lambda: sample_logW(SL_LP, 100_000, 0),
        lambda: empirical_w1_multipliers(split_perturbation(SL_LP, 3, 0.05), SL_LP, 100_000, 0),
    ], ids=["sample_logW", "empirical_w1_multipliers"])
    def test_none_started_by_a_return(self, thread_starts, draw):
        draw()
        assert thread_starts == []

    @pytest.mark.parametrize("gen, error", [
        (LevyGenerator(atoms=((-1.0, 1e8),)), ValueError),  # past the rate cap
        (LevyGenerator(drift=800.0, atoms=((SL_LP.b, SL_LP.lam),)), OverflowError),  # W = inf
    ], ids=["rate cap", "overflow"])
    def test_none_started_by_a_raise(self, thread_starts, gen, error):
        with pytest.raises(error):
            empirical_w1_multipliers(gen, SL_LP, 100_000, 0)
        assert thread_starts == []


class TestSampleRows:
    """The rows of _sample_rows are sample_logW's draws of one call, cut into rows."""

    @settings(max_examples=150, deadline=None)
    @given(gen=sampled_generators() | one_atom_generators()
           | one_atom_generators().map(lambda g: replace(as_levy(g), drift=-0.0)),
           rows=st.integers(1, 8), cols=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
    def test_rows_concatenate_to_one_call(self, gen, rows, cols, seed):
        got = np.concatenate(list(_sample_rows(gen, rows, cols, seed)))
        assert got.tobytes() == sample_logW(gen, rows * cols, seed).tobytes()

    def test_rows_before_the_first_jump(self):
        # At rate 0.05 most rows of 4 draws have no jump; seeds 0-39 hold runs where
        # no row, the first row, or only a later row jumps, and in each the rows
        # concatenate to one call's draws.
        gen = LevyGenerator(drift=-0.0, atoms=((-0.3, 0.05),))
        for seed in range(40):
            rows = list(_sample_rows(gen, 6, 4, seed))
            assert [len(row) for row in rows] == [4] * 6
            assert np.concatenate(rows).tobytes() == sample_logW(gen, 24, seed).tobytes()

    @pytest.mark.parametrize("gen", [
        # a tail of mass 0.03 per draw: some seeds draw no jump, most leave rows without one
        LevyGenerator(drift=-0.0, tail=StableTail(alpha=0.5, c=0.03 * 0.5 / 99.0,
                                                  x_min=1e-4, x_max=1.0)),
        LevyGenerator(drift=-0.0, atoms=((-0.3, 0.01), (0.2, 0.02))),
    ])
    def test_general_path_rows_without_jumps(self, gen):
        # Seeds 0-39 hold runs where no row, the first row, or only a later row
        # jumps; in each the rows concatenate to one call's draws and to the
        # reference sampler's.
        total_rate = np.cumsum([w for _, w in gen.atoms] + ([gen.tail.mass] if gen.tail else []))[-1]
        seen = set()
        for seed in range(40):
            rows = list(_sample_rows(gen, 8, 4, seed))
            assert [len(row) for row in rows] == [4] * 8
            got = np.concatenate(rows).tobytes()
            assert got == sample_logW(gen, 32, seed).tobytes()
            assert got == reference_sample_logW(gen, 32, seed).tobytes()
            u = np.random.Generator(np.random.Philox(key=seed)).random((8, 4))
            per_row = stats.poisson.ppf(u, total_rate).sum(axis=1)  # the sampler's counts
            seen.add("none" if not per_row.any() else "first" if per_row[0] else "later")
        assert seen == {"none", "first", "later"}


@st.composite
def block_laws(draw):
    """One atom, 2-40 atoms, a StableTail, or atoms and a tail, each with sigma2 = 0 or 0.2.

    The total jump rate runs from ~0.01, where most small blocks draw no
    jump, to 40, where a small block size makes each sample a block of its own.
    """
    kind = draw(st.sampled_from(["one atom", "atoms", "tail", "atoms + tail"]))
    rate = draw(st.sampled_from([0.01, 0.3, 2.0, 40.0]))
    atoms, tail = (), None
    if kind != "tail":
        n_atoms = 1 if kind == "one atom" else draw(st.integers(2, 40))
        x = st.floats(-1.0, -0.01) | st.floats(0.01, 0.3)
        locs = draw(st.lists(x, min_size=n_atoms, max_size=n_atoms))
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n_atoms, max_size=n_atoms)))
        atoms = tuple(zip(locs, (weights * rate / weights.sum()).tolist()))
    if "tail" in kind:
        alpha = draw(st.floats(0.1, 1.9))
        x_min, x_max = 1e-3, 1.0
        tail = StableTail(alpha=alpha, c=rate * alpha / (x_min**-alpha - x_max**-alpha),
                          x_min=x_min, x_max=x_max)
    return LevyGenerator(drift=draw(st.floats(-0.5, 0.5)), sigma2=draw(st.sampled_from([0.0, 0.2])),
                         atoms=atoms, tail=tail)


# block sizes far below _BLOCK cross many blocks in a small draw, and cut the general path's
# blocks down to a few samples, or one, at its higher rates
SMALL_BLOCKS = [1, 2, 7, 64]


class TestBlocks:
    """Drawn in blocks of any size, the samples are the reference sampler's bytes."""

    @settings(max_examples=120, deadline=None)
    @given(gen=block_laws(), count=st.integers(1, 1500), block=st.sampled_from(SMALL_BLOCKS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, gen, count, block, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gens_module, "_BLOCK", block)
            got = sample_logW(gen, count, seed)
        assert got.tobytes() == reference_sample_logW(gen, count, seed).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gen=block_laws(), rows=st.integers(1, 5), cols=st.integers(1, 300),
           block=st.sampled_from(SMALL_BLOCKS), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_reference(self, gen, rows, cols, block, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gens_module, "_BLOCK", block)
            got = np.concatenate(list(_sample_rows(gen, rows, cols, seed)))
        assert got.tobytes() == reference_sample_logW(gen, rows * cols, seed).tobytes()

    @pytest.mark.parametrize("gen", [
        LevyGenerator(drift=0.1, atoms=((-0.3, 0.05),)),
        LevyGenerator(drift=0.1, sigma2=0.2, atoms=((-0.3, 0.02), (0.2, 0.03))),
        LevyGenerator(drift=0.1, tail=StableTail(alpha=0.5, c=0.05 * 0.5 / (1e3**0.5 - 1.0),
                                                 x_min=1e-3, x_max=1.0)),
    ], ids=["one atom", "atoms", "tail"])
    def test_blocks_without_jumps(self, monkeypatch, gen):
        # at rate 0.05 most blocks of 2 draw no jump, and some rows of 10 draw none
        monkeypatch.setattr(gens_module, "_BLOCK", 2)
        for seed in range(10):
            got = np.concatenate(list(_sample_rows(gen, 6, 10, seed)))
            assert got.tobytes() == reference_sample_logW(gen, 60, seed).tobytes()

    @pytest.mark.parametrize("tail", [None, CLASSIFY_TAIL], ids=["one-atom path", "general path"])
    def test_samples_over_the_jump_cap(self, monkeypatch, tail):
        # ~400 jumps per sample and a block size of 64: the general path draws each sample as
        # a block of its own, and the one-atom path 64 samples per block in rows of 50
        monkeypatch.setattr(gens_module, "_BLOCK", 64)
        gen = LevyGenerator(drift=0.1, atoms=((-0.01, 400.0),), tail=tail)
        got = np.concatenate(list(_sample_rows(gen, 4, 50, 9)))
        assert got.tobytes() == reference_sample_logW(gen, 200, 9).tobytes()

    @pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK + 1])
    @pytest.mark.parametrize("gen", [
        SL_LP,
        # ~2 jumps per sample: cut at its own width int(_BLOCK / rate), not at _BLOCK
        LevyGenerator(drift=0.1, sigma2=0.3, atoms=((-0.3, 1.0), (0.1, 0.4)), tail=CLASSIFY_TAIL),
    ], ids=["one atom", "atoms + tail"])
    def test_at_the_block_size(self, gen, count):
        counts = [count]
        if isinstance(gen, LevyGenerator):  # the same offset from the law's own block width
            rate = sum(w for _, w in gen.atoms) + gen.tail.mass
            counts.append(count - _BLOCK + int(_BLOCK / rate))
        for n in counts:
            got = sample_logW(gen, n, 4)
            assert got.tobytes() == reference_sample_logW(gen, n, 4).tobytes()

    @pytest.mark.parametrize("rate", [0.5, 3.0, 40.0, 300.0])
    def test_block_width_from_the_rate(self, monkeypatch, rate):
        # every block but a row's last holds max(1, int(_BLOCK / max(rate, 1))) samples, so
        # Poisson(width * rate) jumps: about _BLOCK on average, or one sample's from rate _BLOCK up
        block = 256
        width = max(1, int(block / max(rate, 1.0)))
        gen = LevyGenerator(drift=0.1, atoms=((-0.3, rate / 2), (0.1, rate / 2)))
        monkeypatch.setattr(gens_module, "_BLOCK", block)
        calls, bincount = [], np.bincount

        def spy(owners, weights, minlength):
            calls.append((minlength, len(weights)))
            return bincount(owners, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        cols, jumps = 1000, []
        for _ in _sample_rows(gen, 2, cols, 11):
            samples = [n for n, _ in calls]
            assert samples == [width] * (cols // width) + ([cols % width] if cols % width else [])
            jumps += [t for n, t in calls if n == width]
            calls.clear()
        mean = max(block, rate)  # what a full block holds on average, at most
        assert np.mean(jumps) <= mean + 4 * math.sqrt(mean / len(jumps))


class TestNoNegativeZero:
    """A -0.0 drift is stored as 0.0, so no draw of log W is -0.0."""

    def test_drift_is_stored_without_a_negative_zero(self):
        assert math.copysign(1.0, LevyGenerator(drift=-0.0).drift) == 1.0

    @pytest.mark.parametrize("gen", [
        LevyGenerator(drift=-0.0, atoms=((-0.3, 0.001),)),
        LevyGenerator(drift=-0.0, tail=StableTail(alpha=0.5, c=0.03 * 0.5 / 99.0,
                                                  x_min=1e-4, x_max=1.0)),
    ], ids=["low_rate_atom", "low_mass_tail"])
    def test_no_draw_is_negative_zero(self, gen):
        for seed in range(40):
            for out in (sample_logW(gen, 32, seed),
                        np.concatenate(list(_sample_rows(gen, 8, 4, seed)))):
                assert not np.signbit(out[out == 0]).any()


class TestAhead:
    """Each stream of _sample_rows goes on where the last row left it: after `start` rows of
    n draws, row `start` reads each of its four streams from start*n draws later on."""

    # atoms, a StableTail and a Gaussian part read all four streams, at ~0.5 jumps per draw
    GEN = LevyGenerator(drift=0.05, sigma2=0.1, atoms=((-0.3, 0.2), (0.15, 0.1)),
                        tail=StableTail(alpha=0.5, c=0.05, x_min=0.1, x_max=1.0))

    @pytest.mark.parametrize("start", range(4))
    @pytest.mark.parametrize("n", [*range(10), 1003, 10**6 + 3])
    def test_starts_n_draws_later(self, start, n):
        # 0-3 rows of 1003 draws leave each position of Philox's 4-output buffer, and a row
        # of 10**6 + 3 draws crosses three block boundaries
        *_, row = _sample_rows(self.GEN, start + 1, n, 17)
        expected = reference_sample_logW(self.GEN, (start + 1) * n, 17)[start * n:]
        assert row.tobytes() == expected.tobytes()


def guide_buckets(edges) -> int:
    """The bucket count of _bucketed_pick for these edges."""
    return 1 << min(20, 6 + len(edges).bit_length())


def awkward_raws(edges, rng, n_random=2000):
    """Raw outputs whose uniforms (raw >> 11) * 2**-53 lie at bucket and edge boundaries on
    the 2**-53 grid and one step either side, with random values in the 11 bits the uniform
    drops, plus random raws."""
    m = guide_buckets(edges)
    scaled = edges[edges < 1.0] * 2.0**53  # exact: the edges on the 2**-53 grid
    grid = np.concatenate([rng.integers(0, m, size=200) * (2**53 // m), np.floor(scaled),
                           np.ceil(scaled), [0, 2**53 - 1]]).astype(np.int64)
    grid = np.concatenate([grid - 1, grid, grid + 1])
    grid = grid[(grid >= 0) & (grid < 2**53)].astype(np.uint64)
    raw = (grid << 11) | rng.integers(0, 1 << 11, size=len(grid), dtype=np.uint64)
    return np.concatenate([raw, rng.integers(0, 2**64 - 1, size=n_random, dtype=np.uint64,
                                             endpoint=True)])


class TestBucketedPick:
    """_bucketed_pick(edges)(raw) is np.searchsorted(edges, (raw >> 11) * 2**-53, "right")
    index for index."""

    @staticmethod
    def check(edges, raw):
        got = _bucketed_pick(edges)(raw.copy())
        assert got.tolist() == np.searchsorted(edges, (raw >> 11) * 2.0**-53, "right").tolist()

    @settings(max_examples=80, deadline=None)
    @given(slots=st.integers(1, 5000), alpha=st.floats(1e-3, 10.0), repeats=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_searchsorted(self, slots, alpha, repeats, seed):
        # a tiny Dirichlet alpha puts most of the mass on a few slots, clustering the edges
        # and repeating them where rates vanish; `repeats` repeats every edge outright
        rng = np.random.default_rng(seed)
        cum = np.cumsum(np.repeat(rng.dirichlet(np.full(slots, alpha)), repeats))
        edges = cum / cum[-1]  # as _sample_rows forms them: the last edge is exactly 1.0
        self.check(edges, awkward_raws(edges, rng))

    def test_bucket_count_capped(self):
        # more than 2**14 slots would ask for more than 2**20 buckets
        rng = np.random.default_rng(3)
        cum = np.cumsum(rng.dirichlet(np.full(20_000, 0.05)))
        edges = cum / cum[-1]
        assert guide_buckets(edges) == 2**20
        self.check(edges, awkward_raws(edges, rng, n_random=200_000))

    @pytest.mark.parametrize("edges", [[1.0], [0.5, 0.5, 1.0], [0.0, 0.25, 1.0, 1.0],
                                       [2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0]])
    def test_small_tables(self, edges):
        edges = np.array(edges)
        self.check(edges, awkward_raws(edges, np.random.default_rng(0)))

    def test_empty_draw(self):
        assert _bucketed_pick(np.array([0.5, 1.0]))(np.empty(0, dtype=np.uint64)).size == 0

    @pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
    def test_philox_uniforms_are_raw_outputs(self, seed):
        # the identity the pick rests on: Generator.random(n) reads one raw output per
        # uniform and keeps its top 53 bits, on the key's stream and on a jumped one
        for stream in (lambda: np.random.Philox(key=seed),
                       lambda: np.random.Philox(key=seed).jumped(1)):
            u = np.random.Generator(stream()).random(1003)
            assert u.tobytes() == ((stream().random_raw(1003) >> 11) * 2.0**-53).tobytes()
