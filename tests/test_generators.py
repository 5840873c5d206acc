import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from hscascade.exponents import ScalingLaw, zeta
from hscascade.generators import (
    LevyGenerator,
    _ahead,
    _bucketed_pick,
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
    """The sampler before the jump table: a categorical pick and a per-atom mask loop.

    Pins the random stream.  The total rate is summed left to right, as
    float sum() did before Python 3.12.
    """
    g = as_levy(gen)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    out = np.full(count, g.drift, dtype=float)
    if g.sigma2 > 0:
        out += rng.normal(0.0, math.sqrt(g.sigma2), size=count)

    locs = [x for x, _ in g.atoms]
    rates = [w for _, w in g.atoms]
    tail = g.tail
    if tail is not None:
        rates.append(tail.mass)
    total_rate = functools.reduce(operator.add, rates, 0.0)
    if total_rate == 0.0:
        return out

    n_jumps = rng.poisson(total_rate, size=count)
    t = int(n_jumps.sum())
    if t == 0:
        return out

    cum = np.cumsum(rates) / total_rate
    pick = np.searchsorted(cum, rng.random(t), side="right")
    sizes = np.empty(t, dtype=float)
    for i, x in enumerate(locs):
        sizes[pick == i] = x
    if tail is not None:
        sel = pick == len(locs)
        if sel.any():
            v = rng.random(int(sel.sum()))
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
        # counts of ~400 do not fit the general path's first uint8 count table, which is widened
        gen = LevyGenerator(drift=0.1, atoms=((-0.01, 400.0),), tail=tail)
        got = sample_logW(gen, 20_000, seed=9)
        assert got.tobytes() == reference_sample_logW(gen, 20_000, 9).tobytes()

    def test_counts_widened_after_the_first_row(self):
        # total rate ~230: at seed 9 row 0's 16 counts fit in uint8 and row 1's do not
        gen = LevyGenerator(drift=0.1, atoms=((-0.01, 220.0),), tail=CLASSIFY_TAIL)
        rows = b"".join(row.tobytes() for row in _sample_rows(gen, 50, 16, 9))
        assert rows == reference_sample_logW(gen, 800, 9).tobytes()

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
            rng = np.random.Generator(np.random.Philox(key=seed))
            per_row = rng.poisson(total_rate, (8, 4)).sum(axis=1)  # the sampler's counts
            seen.add("none" if not per_row.any() else "first" if per_row[0] else "later")
        assert seen == {"none", "first", "later"}


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
    """_ahead(rng, n) starts where rng stands after n more doubles, wherever its buffer is."""

    @pytest.mark.parametrize("start", range(4))
    @pytest.mark.parametrize("n", [*range(10), 1003, 10**6 + 3])
    def test_starts_n_draws_later(self, start, n):
        rng = np.random.Generator(np.random.Philox(key=17))
        rng.random(start)  # 0-3 doubles leave each position of Philox's 4-output buffer
        cursor = _ahead(rng, n)
        one = np.random.Generator(np.random.Philox(key=17))
        one.random(start + n)
        expected = one.random(11).tobytes()
        assert cursor.random(11).tobytes() == expected
        rng.random(n)  # and rng itself has not moved
        assert rng.random(11).tobytes() == expected


def guide_buckets(edges) -> int:
    """The bucket count of _bucketed_pick for these edges."""
    return 1 << min(20, 6 + len(edges).bit_length())


def awkward_uniforms(edges, rng, n_random=2000):
    """u in [0, 1) at bucket and edge boundaries and one ulp either side, plus random u."""
    m = guide_buckets(edges)
    grid = rng.integers(0, m, size=200) / m
    points = np.concatenate([grid, edges[edges < 1.0], [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([points, np.nextafter(points, 1.0), np.nextafter(points, -1.0),
                        rng.random(n_random)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestBucketedPick:
    """_bucketed_pick(edges)(u) is np.searchsorted(edges, u, side="right") index for index."""

    @staticmethod
    def check(edges, u):
        got = _bucketed_pick(edges)(u.copy())
        assert got.tolist() == np.searchsorted(edges, u, side="right").tolist()

    @settings(max_examples=80, deadline=None)
    @given(slots=st.integers(1, 5000), alpha=st.floats(1e-3, 10.0), repeats=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_searchsorted(self, slots, alpha, repeats, seed):
        # a tiny Dirichlet alpha puts most of the mass on a few slots, clustering the edges
        # and repeating them where rates vanish; `repeats` repeats every edge outright
        rng = np.random.default_rng(seed)
        cum = np.cumsum(np.repeat(rng.dirichlet(np.full(slots, alpha)), repeats))
        edges = cum / cum[-1]  # as _sample_rows forms them: the last edge is exactly 1.0
        self.check(edges, awkward_uniforms(edges, rng))

    def test_bucket_count_capped(self):
        # more than 2**14 slots would ask for more than 2**20 buckets
        rng = np.random.default_rng(3)
        cum = np.cumsum(rng.dirichlet(np.full(20_000, 0.05)))
        edges = cum / cum[-1]
        assert guide_buckets(edges) == 2**20
        self.check(edges, awkward_uniforms(edges, rng, n_random=200_000))

    @pytest.mark.parametrize("edges", [[1.0], [0.5, 0.5, 1.0], [0.0, 0.25, 1.0, 1.0],
                                       [2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0]])
    def test_small_tables(self, edges):
        edges = np.array(edges)
        self.check(edges, awkward_uniforms(edges, np.random.default_rng(0)))

    def test_empty_draw(self):
        assert _bucketed_pick(np.array([0.5, 1.0]))(np.empty(0)).size == 0
