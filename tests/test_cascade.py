import io
import json
import math
import re
from dataclasses import replace
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hscascade import cascade
from hscascade import generators as gens_module
from hscascade.cascade import (
    SimConfig,
    StructureTable,
    ZetaEstimate,
    _jackknife_cov,
    _level_cells,
    _read_csv,
    default_p_list,
    estimate_deltas,
    estimate_zeta,
    simulate,
    write_csv,
)
from hscascade.exponents import CascadeParams, ScalingLaw, conservation_gamma, delta, zeta
from hscascade.generators import (
    LevyGenerator,
    LogPoissonParams,
    StableTail,
    as_levy,
    logpoisson_from_scaling,
    normalize_mean_one,
    sample_logW,
)
from hscascade.hausdorff import empirical_w1_multipliers, smear_perturbation
from hscascade.spectrum import SpectrumCurve
from hscascade.symmetry import classify
from test_generators import SMALL_BLOCKS, block_laws, reference_sample_logW

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
SL_LP = logpoisson_from_scaling(SL, 0.5)
LN_HALF = math.log(0.5)


def exact_table(law, r, n_levels, p_list, se=0.0):
    """Noise-free structure table with ln_S = n * zeta_p * ln r and independent rows."""
    rows = [(p, n, n * zeta(law, p) * math.log(r), se)
            for p in p_list for n in range(1, n_levels + 1)]
    arr = np.array(rows)
    return StructureTable(
        p=arr[:, 0], n=arr[:, 1].astype(int), ln_s=arr[:, 2], se=arr[:, 3],
        metadata={"r": r, "n_samples": 0, "seed": 0}, cov=np.diag(arr[:, 3] ** 2),
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

    @pytest.mark.parametrize("drift", [-1e200, -1e300])
    def test_overflowing_jackknife_raises(self, drift):
        # the squared jackknife deviations overflow at -1e200; the mean of ln S_p itself at -1e300
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=200, seed=0)
        gen = LevyGenerator(drift=drift, atoms=((SL_LP.b, SL_LP.lam),))
        with pytest.raises(OverflowError, match="not finite"):
            simulate(cfg, gen)

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


def reference_ln_mean_and_jackknife(z):
    """The delete-a-group cell without its scratch buffer: each step on a fresh array, and each
    group an explicit slice, summed in the order np.add.reduceat sums one (its first element
    plus the pairwise sum of the rest)."""
    ns, groups = len(z), cascade._GROUPS
    m = z.max()
    x = np.exp(z - m)
    total = x.sum()
    ln_s = m + math.log(total / ns)
    cut = [g * ns // groups for g in range(groups + 1)]
    sums = np.array([x[a] + x[a + 1:b].sum() for a, b in zip(cut, cut[1:])])
    sizes = np.array([b - a for a, b in zip(cut, cut[1:])])
    return ln_s, m + np.log(np.maximum(total - sums, 1e-300) / (ns - sizes))


def reduceat_sums(ns):
    """The sample path's group sums of _level_cells: the total and np.add.reduceat over the
    jackknife groups of ns samples."""
    starts = np.arange(cascade._GROUPS) * ns // cascade._GROUPS
    return lambda e: (e.sum(), np.add.reduceat(e, starts))


def count_histogram(counts):
    """cascade._count_histogram of the counts of one level, each group's np.bincount taken
    over its slice."""
    cuts = np.arange(cascade._GROUPS + 1) * len(counts) // cascade._GROUPS
    return cascade._count_histogram([np.bincount(counts[a:b]) for a, b in zip(cuts, cuts[1:])])


def histogram_sums(hist):
    """The count path's group sums of _level_cells: hist @ e and its total."""
    return lambda e: ((s := hist @ e).sum(), s)


def sample_cell(z):
    """_level_cells at the one order p = 1 over the samples z, in a scratch buffer."""
    ln_s, reps = _level_cells((1.0,), z, len(z), reduceat_sums(len(z)), out=np.empty_like(z))
    return ln_s[0], reps[0]


def replicate_tolerance(ln_s, reps, ns):
    """d = 1e-13 x (|ln S| + kappa) per row, kappa = max_g total / (total - S_g) the
    cancellation in the rest of the sum that a dominant group leaves: how far rounding alone
    moves a row's replicates when its group sums are taken another way."""
    sizes = np.diff(np.arange(cascade._GROUPS + 1) * ns // cascade._GROUPS)
    kappa = (np.exp(ln_s[:, None] - reps) * ns / (ns - sizes)).max(axis=1)
    return 1e-13 * (np.abs(ln_s) + kappa)


def reference_se(reps):
    """The delete-a-group jackknife error of one cell's replicates."""
    g = len(reps)
    return np.sqrt((g - 1) / g * ((reps - reps.mean()) ** 2).sum())


def reference_simulate(config, gen, sample=sample_logW):
    """simulate before the pipeline: one `sample` call, np.cumsum over levels, serial cells.

    Returns ln_S and the replicates (one row per table row), in the table's p-major row order."""
    nl, ns = config.n_levels, config.n_samples
    branch = np.cumsum(sample(gen, nl * ns, config.seed).reshape(nl, ns), axis=0)
    ln_s, reps = zip(*[
        (0.0, np.zeros(cascade._GROUPS)) if p == 0.0
        else reference_ln_mean_and_jackknife(p * level)
        for p in config.p_list
        for level in branch
    ])
    return np.array(ln_s), np.array(reps)


def assert_same_table(table, reference):
    ln_s, reps = reference
    cov = _jackknife_cov(reps.T)
    assert table.ln_s.tobytes() == ln_s.tobytes()
    assert table.cov.tobytes() == cov.tobytes()
    assert table.se.tobytes() == np.sqrt(np.diagonal(cov)).tobytes()


def from_counts(gen) -> bool:
    """Whether simulate takes gen's cells from count histograms: at most one atom, at a rate
    below 2, no tail and no Gaussian part."""
    g = as_levy(gen)
    return (len(g.atoms) <= 1 and g.tail is None and g.sigma2 == 0.0
            and sum(w for _, w in g.atoms) < 2.0)


def assert_table_matches(table, reference, gen):
    """assert_same_table off the count path.  On it the group sums come from count
    histograms, so ln S and the replicates move by rounding only: ln S within 1e-13 x
    max(1, |ln S|), and replicate g of a row within d = 1e-13 x (|ln S| + kappa), where
    kappa = max_g total / (total - S_g) is the cancellation in the rest of the sum that a
    dominant group leaves.  So cov_ij lies within 1e-12 x max |cov| + 2 sqrt(G) (d_i se_j +
    d_j se_i).  (Measured at 2.2e-16 x kappa for kappa up to 3e6; and on the canonical and
    mean-one laws at 8 x 100k and 8 x 1M, seeds 0, 3, 17, within 3.6e-15 in ln S and
    3.0e-14 x max |cov|: TestCountPath.test_canonical_laws.)"""
    if not from_counts(gen):
        assert_same_table(table, reference)
        return
    ln_s, reps = reference
    cov = _jackknife_cov(reps.T)
    d = replicate_tolerance(ln_s, reps, table.metadata["n_samples"])
    se = np.sqrt(np.diagonal(cov))
    bound = 1e-12 * np.abs(cov).max() + 2 * math.sqrt(cascade._GROUPS) * (
        np.outer(d, se) + np.outer(se, d))
    assert (np.abs(table.ln_s - ln_s) <= 1e-13 * np.maximum(1.0, np.abs(ln_s))).all()
    assert (np.abs(table.cov - cov) <= bound).all()


@st.composite
def cascade_generators(draw):
    """One atom, 2-40 atoms or a StableTail, each with or without a Gaussian part."""
    kind = draw(st.sampled_from(["one atom", "atoms", "tail"]))
    sigma2 = draw(st.sampled_from([0.0, 0.2]))
    drift = draw(st.floats(-0.5, 0.5))
    if kind == "tail":
        return LevyGenerator(drift=drift, sigma2=sigma2,
                             tail=StableTail(alpha=draw(st.floats(0.1, 1.9)), c=0.05,
                                             x_min=1e-3, x_max=1.0))
    n_atoms = 1 if kind == "one atom" else draw(st.integers(2, 40))
    x = st.floats(-1.0, -0.01) | st.floats(0.01, 0.3)
    atoms = draw(st.lists(st.tuples(x, st.floats(0.01, 5.0 / n_atoms)),
                          min_size=n_atoms, max_size=n_atoms))
    return LevyGenerator(drift=drift, sigma2=sigma2, atoms=tuple(atoms))


class TestJackknife:
    """The delete-a-group cell over samples, in its scratch buffer, returns the fresh-array
    reference's floats exactly; over count histograms, the same values to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(z=hnp.arrays(float, st.integers(cascade._GROUPS, 3000),
                        elements=st.floats(-700.0, 700.0)))
    def test_matches_reference(self, z):
        ln_s, reps = sample_cell(z)
        want_ln_s, want_reps = reference_ln_mean_and_jackknife(z)
        assert ln_s == want_ln_s
        assert reps.tobytes() == want_reps.tobytes()

    def test_dominated_sample_hits_the_clamp(self):
        # without group 1 (samples 10-19), which holds the largest sample, the sum underflows
        # to 0 and is clamped at 1e-300
        z = np.full(1000, -700.0)
        z[17] = 700.0
        ln_s, reps = sample_cell(z)
        want_ln_s, want_reps = reference_ln_mean_and_jackknife(z)
        assert ln_s == want_ln_s and reps.tobytes() == want_reps.tobytes()
        assert reps[1] == 700.0 + np.log(1e-300 / 990)
        assert np.allclose(np.delete(reps, 1), 700.0 - math.log(990), rtol=1e-15, atol=0.0)
        assert reference_se(reps) > 10.0

    def test_groups_cut_at_g_n_over_groups(self):
        # n = 150 makes 100 groups of 1 or 2 samples: group g starts at 3g // 2, so groups 0,
        # 1 and 2 hold samples {0}, {1, 2} and {3}; exp(z) is 3 and 5 at samples 1 and 2, so
        # the 150 samples sum to 156
        z = np.zeros(150)
        z[1], z[2] = math.log(3.0), math.log(5.0)
        _, reps = sample_cell(z)
        assert reps[0] == pytest.approx(math.log(155 / 149), rel=1e-12)
        assert reps[1] == pytest.approx(0.0, abs=1e-15)
        assert reps[2] == pytest.approx(math.log(155 / 149), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(counts=hnp.arrays(np.int64, st.integers(100, 3000), elements=st.integers(0, 40)),
           a=st.floats(-5.0, 5.0), x=st.floats(-1.0, 1.0),
           p_list=st.sampled_from([(0.0, 1.0, 2.5), (0.0, 3.0, 7.5), default_p_list(3)]))
    def test_histogram_sums_match_sample_sums(self, counts, a, x, p_list):
        # z_j = a + x*j at each jump count j: the count path's cells from the histogram of
        # (group, count) against the sample path's over the samples z[counts]
        ns = len(counts)
        z = a + x * np.arange(counts.max() + 1)
        j, hist = count_histogram(counts)
        ln_s, reps = _level_cells(p_list, z[j], ns, histogram_sums(hist))
        want_ln_s, want_reps = _level_cells(p_list, z[counts], ns, reduceat_sums(ns),
                                            out=np.empty(ns))
        zero = np.array(p_list) == 0.0
        for cells in (ln_s, reps, want_ln_s, want_reps):
            assert (cells[zero] == 0.0).all()
        assert (np.abs(ln_s - want_ln_s) <= 1e-13 * np.maximum(1.0, np.abs(want_ln_s))).all()
        d = replicate_tolerance(want_ln_s, want_reps, ns)
        assert (np.abs(reps - want_reps) <= d[:, None]).all()


@st.composite
def count_path_laws(draw):
    """Laws whose cells simulate takes from count histograms: LogPoissonParams or one atom
    below rate 2, and a drift alone."""
    drift = draw(st.floats(-0.5, 0.5))
    if draw(st.integers(0, 9)) == 0:
        return LevyGenerator(drift=drift)
    x = draw(st.floats(-1.0, -0.01) | st.floats(0.01, 0.3))
    rate = draw(st.floats(1e-3, 2.0, exclude_max=True))
    if x < 0 and draw(st.booleans()):
        return LogPoissonParams(a=drift, b=x, lam=rate)
    return LevyGenerator(drift=drift, atoms=((x, rate),))


# the count path below and at the split size, and the sample path, whose worker runs cells
THREAD_CASES = [(SL_LP, 40_000), (SL_LP, 2 * gens_module._BLOCK),
                (LevyGenerator(drift=SL_LP.a, sigma2=0.2, atoms=((SL_LP.b, SL_LP.lam),)), 40_000)]
THREAD_IDS = ["count path", "split count path", "sample path"]


class TestPipeline:
    """The pipelined simulate returns the serial one's bytes, or on the count path its values
    to the last digits, and cleans up after a failure."""

    @settings(max_examples=60, deadline=None)
    @given(gen=cascade_generators(), n_levels=st.integers(2, 6),
           n_samples=st.integers(100, 3000), seed=st.integers(0, 2**32 - 1),
           p_list=st.sampled_from([(), (0.0,), (0.0, 1.0, 2.5), (3.0, 7.5)]))
    def test_matches_reference(self, gen, n_levels, n_samples, seed, p_list):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=n_levels,
                        n_samples=n_samples, seed=seed, p_list=p_list)
        assert_table_matches(simulate(cfg, gen), reference_simulate(cfg, gen), gen)

    @settings(max_examples=40, deadline=None)
    @given(gen=block_laws(), n_levels=st.integers(2, 4), n_samples=st.integers(100, 400),
           block=st.sampled_from(SMALL_BLOCKS), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_in_small_blocks(self, gen, n_levels, n_samples, block, seed):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=n_levels,
                        n_samples=n_samples, seed=seed)
        reference = reference_simulate(cfg, gen, reference_sample_logW)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gens_module, "_BLOCK", block)
            table = simulate(cfg, gen)
        assert_table_matches(table, reference, gen)

    @settings(max_examples=40, deadline=None)
    @given(gen=count_path_laws(), n_levels=st.integers(2, 4), n_samples=st.integers(100, 3000),
           block=st.sampled_from(SMALL_BLOCKS), seed=st.integers(0, 2**128 - 1))
    def test_split_count_path_matches_unsplit(self, gen, n_levels, n_samples, block, seed):
        # with _BLOCK cut down, every size splits each level at its middle group cut
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=n_levels,
                        n_samples=n_samples, seed=seed)
        unsplit = simulate(cfg, gen)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gens_module, "_BLOCK", block)
            split = simulate(cfg, gen)
        assert split.ln_s.tobytes() == unsplit.ln_s.tobytes()
        assert split.cov.tobytes() == unsplit.cov.tobytes()

    def test_matches_reference_across_a_block(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=2,
                        n_samples=gens_module._BLOCK + 1, seed=5)
        gen = LevyGenerator(drift=0.1, sigma2=0.2, atoms=((-0.3, 1.0), (0.1, 0.4)))
        assert_same_table(simulate(cfg, gen), reference_simulate(cfg, gen, reference_sample_logW))

    @pytest.mark.parametrize("gen, ns", THREAD_CASES, ids=THREAD_IDS)
    def test_matches_reference_under_fast_thread_switching(self, gen, ns):
        # the sample path's worker reads the levels this thread draws, and the split count
        # path's draws half of every level beside this thread; a switch every microsecond
        # would expose any write to an array another thread still reads, and any draw that
        # depends on timing
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=6, n_samples=ns, seed=0)
        reference = reference_simulate(cfg, gen)
        first = simulate(cfg, gen)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tables = [simulate(cfg, gen) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert_table_matches(first, reference, gen)
        for table in tables:
            assert table.ln_s.tobytes() == first.ln_s.tobytes()
            assert table.cov.tobytes() == first.cov.tobytes()

    @pytest.mark.parametrize("gen, ns", THREAD_CASES, ids=THREAD_IDS)
    def test_cell_error_is_raised_and_the_threads_end(self, monkeypatch, gen, ns):
        # the count path runs its cells on this thread, the sample path on the worker
        calls = []

        def third_call_fails(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third cell")
            return _level_cells(*args)

        monkeypatch.setattr(cascade, "_level_cells", third_call_fails)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=6, n_samples=ns, seed=0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third cell"):
            simulate(cfg, gen)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("half", ["lower", "upper"])
    def test_count_error_in_either_half_is_raised_and_the_thread_ends(self, monkeypatch, half):
        # the split count path draws the upper half of the groups on its worker
        def fails_in_one_half(rate, rows, cols, seed, lo, hi, width):
            if (lo == 0) == (half == "lower"):
                raise RuntimeError(f"{half} half")
            return cumulative_counts(rate, rows, cols, seed, lo, hi, width)

        cumulative_counts = cascade._cumulative_counts
        monkeypatch.setattr(cascade, "_cumulative_counts", fails_in_one_half)
        monkeypatch.setattr(gens_module, "_BLOCK", 64)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=1000, seed=0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{half} half"):
            simulate(cfg, SL_LP)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("gen, ns, workers", [
        (SL_LP, 40_000, 0), (SL_LP, 2 * gens_module._BLOCK, 1),
        (LevyGenerator(drift=SL_LP.a, sigma2=0.2, atoms=((SL_LP.b, SL_LP.lam),)), 40_000, 1),
    ], ids=["count path", "split count path", "sample path"])
    def test_threads_started(self, thread_starts, gen, ns, workers):
        # the count path runs on this thread below 2 * _BLOCK samples and starts one worker
        # from there up; the sample path starts its one worker
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=ns, seed=0)
        simulate(cfg, gen)
        assert len(thread_starts) == workers

    @pytest.mark.parametrize("gen, error", [
        (LevyGenerator(atoms=((-1.0, 1e8),)), ValueError),  # past the rate cap
        (LevyGenerator(drift=-1e200, atoms=((SL_LP.b, SL_LP.lam),)), OverflowError),
    ], ids=["rate cap", "overflow"])
    def test_no_thread_left_after_a_raise(self, gen, error):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=40_000, seed=0)
        threads = threading.active_count()
        with pytest.raises(error):
            simulate(cfg, gen)
        assert threading.active_count() == threads


class TestCountPath:
    """One-atom laws below rate 2 without a tail or a Gaussian part take their cells from
    histograms of (group, cumulative jump count)."""

    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("gen", [SL_LP, normalize_mean_one(SL_LP)],
                             ids=["canonical", "mean one"])
    def test_canonical_laws(self, gen, seed):
        # the bounds of the measurement (3.6e-15 and 3.0e-14 x max |cov| at 8 x 100k and 1M)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=100_000,
                        seed=seed)
        table = simulate(cfg, gen)
        ln_s, reps = reference_simulate(cfg, gen)
        cov = _jackknife_cov(reps.T)
        assert np.abs(table.ln_s - ln_s).max() <= 1e-13
        assert np.abs(table.cov - cov).max() <= 1e-12 * np.abs(cov).max()

    @pytest.mark.parametrize("ns", [100, 150, 1234])
    def test_histogram_of_groups_and_counts(self, ns):
        counts = np.random.default_rng(ns).poisson(3.0, ns)
        counts[ns // 2] = 40  # far past the others: the empty columns between are left out of j
        groups = np.repeat(np.arange(cascade._GROUPS), np.diff(
            np.arange(cascade._GROUPS + 1) * ns // cascade._GROUPS))
        want = np.zeros((cascade._GROUPS, 41))
        np.add.at(want, (groups, counts), 1.0)
        j, hist = count_histogram(counts)
        assert j.tolist() == np.flatnonzero(want.any(axis=0)).tolist()
        assert hist.tobytes() == want[:, j].tobytes()


STABLE_TAIL_LAW = LevyGenerator(drift=SL_LP.a, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4,
                                                              x_max=1.0))


class TestMemory:
    """The traced peak stays within 4 x (8 B x total draws) for the one-atom law and 6 x for
    33 atoms; simulate's, at 16 levels, within 10 x one level for the one-atom law, 80 x
    for a stable tail, and 12 x for a stable tail and for 200 atoms. Drawn in blocks, the
    jumps, counts and normals of a row add one block to its draws: 1.75 x for the one-atom
    law, 4 x for a stable tail, 10 x for 200 atoms at 50 jumps per draw, 3.5 x for a W1
    pair, 15 x one level for simulate on a stable tail at 16 levels, and 8 x and 7 x for
    simulate on a Gaussian part without and with an atom at 16 levels. One atom near the
    rate cap holds no table that grows with the count: 32 MB for ten draws."""

    def traced_peak(self, run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_logW(self):
        peak = self.traced_peak(lambda: sample_logW(SL_LP, 1_000_000, 0))
        assert peak <= 4 * 8 * 1_000_000

    def test_sample_logW_many_atoms(self):
        # ~1.4 jumps per draw: the counts, the jump sizes and their owners, and the jump
        # sums, with no drift-filled array beside them
        gen = smear_perturbation(SL_LP, 3, 0.2)
        peak = self.traced_peak(lambda: sample_logW(gen, 1_000_000, 0))
        assert peak <= 6 * 8 * 1_000_000

    def test_simulate(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, SL_LP))
        assert peak <= 4 * 8 * 8 * 125_000

    @pytest.mark.parametrize("gen, ns", [
        (SL_LP, 125_000), (normalize_mean_one(SL_LP), 125_000),
        (SL_LP, 2 * gens_module._BLOCK), (normalize_mean_one(SL_LP), 2 * gens_module._BLOCK),
    ], ids=["canonical", "mean one", "canonical split", "mean one split"])
    def test_simulate_from_counts(self, gen, ns):
        # the running counts, one block's raw draws and their picks, shared by the two
        # halves of a split, and the tiny count histograms: 3.10-3.18 x at 8 and 16 levels
        # unsplit (5.82 x summing over the samples)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=ns, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, gen))
        assert peak <= 4 * 8 * ns

    def test_simulate_independent_of_levels(self):
        # the pipelined simulate keeps a few levels, not all 16: at most 10 x (8 B x n_samples)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=16, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, SL_LP))
        assert peak <= 10 * 8 * 125_000

    def test_simulate_streams_a_stable_tail(self):
        # ~10 jumps per draw: the rows stream, so the peak holds the counts of every
        # level and the jumps of one row, at most 80 x (8 B x n_samples) at 16 levels
        gen = LevyGenerator(drift=SL_LP.a, tail=StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0))
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=16, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, gen))
        assert peak <= 80 * 8 * 125_000

    def test_sample_logW_counts_in_blocks(self):
        # the output and one block of int64 counts (2.00 x with the counts of the whole draw)
        peak = self.traced_peak(lambda: sample_logW(SL_LP, 1_000_000, 0))
        assert peak <= 1.75 * 8 * 1_000_000

    def test_sample_logW_stable_tail_in_blocks(self):
        # ~10 jumps per draw, drawn and summed one block at a time (21.9 x for a whole row)
        peak = self.traced_peak(lambda: sample_logW(STABLE_TAIL_LAW, 1_000_000, 0))
        assert peak <= 4 * 8 * 1_000_000

    def test_sample_logW_jumps_capped_per_block(self):
        # 200 atoms at 50 jumps per draw: a block of int(_BLOCK / 50) samples holds about
        # _BLOCK jumps (108 x for a whole row)
        rng = np.random.default_rng(2024)
        gen = LevyGenerator(drift=SL_LP.a, atoms=tuple(zip(
            rng.uniform(-0.4, -0.02, 200).tolist(), (rng.dirichlet(np.ones(200)) * 50.0).tolist())))
        peak = self.traced_peak(lambda: sample_logW(gen, 200_000, 0))
        assert peak <= 10 * 8 * 200_000

    def test_sample_logW_one_atom_near_the_rate_cap_holds_no_table(self):
        # what is left is the count table's 2**20-bucket guide (25.5 MB; a prefix table of
        # the atom's partial sums held 131.6 MB)
        gen = LevyGenerator(atoms=((-1e-3, 1.6e7),))
        peak = self.traced_peak(lambda: sample_logW(gen, 10, 0))
        assert peak <= 32 * 2**20

    def test_w1_pair_in_place(self):
        # exp, sort and difference run in the two sampled arrays (4.90 x with copies)
        gen = smear_perturbation(SL_LP, 3, 0.2)
        peak = self.traced_peak(lambda: empirical_w1_multipliers(gen, SL_LP, 1_000_000, 0))
        assert peak <= 3.5 * 8 * 1_000_000

    def test_simulate_stable_tail_in_blocks(self):
        # the counts of 16 levels, a few levels and one block of jumps (26.9 x for whole rows)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=16, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, STABLE_TAIL_LAW))
        assert peak <= 15 * 8 * 125_000

    @pytest.mark.parametrize("law, bound", [("stable_tail", 12), ("atoms200", 12)])
    def test_simulate_counts_one_block_at_a_time(self, law, bound):
        # each block draws its own counts, so no level's counts outlive its row
        # (9.5 x and 9.0 x; 10.4 x and 11.0 x with the 1-B counts of all 16 levels)
        rng = np.random.default_rng(2024)
        gen = {
            "stable_tail": LevyGenerator(drift=SL_LP.a, tail=StableTail(alpha=0.5, c=0.05,
                                                                         x_min=1e-4, x_max=1.0)),
            "atoms200": LevyGenerator(drift=SL_LP.a, atoms=tuple(zip(
                rng.uniform(-0.4, -0.02, 200).tolist(),
                (rng.dirichlet(np.ones(200)) * SL_LP.lam).tolist()))),
        }[law]
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=16, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, gen))
        assert peak <= bound * 8 * 125_000

    @pytest.mark.parametrize("gen, bound", [
        (LevyGenerator(drift=-0.1, sigma2=0.2), 8),
        (LevyGenerator(drift=SL_LP.a, sigma2=0.2, atoms=((SL_LP.b, SL_LP.lam),)), 7),
    ], ids=["sigma2", "sigma2 + atom"])
    def test_simulate_gaussian_part_in_blocks(self, gen, bound):
        # each block draws its own normals, so the peak does not grow with n_levels
        # (6.0 x and 5.0 x; 24.0 x and 21.0 x with the normals of all 16 levels)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=16, n_samples=125_000, seed=0)
        peak = self.traced_peak(lambda: simulate(cfg, gen))
        assert peak <= bound * 8 * 125_000


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
                                 se=table.se[keep], metadata=table.metadata,
                                 cov=table.cov[np.ix_(keep, keep)])
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

    @pytest.mark.parametrize("bad", [-0.01, math.nan, math.inf])
    def test_table_rejects_negative_or_non_finite_se(self, bad):
        # estimate_zeta squares the errors, which would drop the sign of a negative one
        table = exact_table(SL, 0.5, 3, (0.0, 3.0), se=0.01)
        se = np.where((table.p == 3.0) & (table.n == 1), bad, table.se)
        with pytest.raises(ValueError, match="stderr entries must be finite and >= 0"):
            StructureTable(p=table.p, n=table.n, ln_s=table.ln_s, se=se, metadata=table.metadata)
        text = (f'# {{"r": 0.5}}\np,n,ln_S,se\n0,1,0,0\n3,1,-0.69,{bad}\n'
                f'3,2,-1.39,0.01\n3,3,-2.08,0.01\n')
        with pytest.raises(ValueError, match="stderr entries must be finite and >= 0"):
            StructureTable.from_csv(io.StringIO(text))


    def test_group_covariance_from_replicates(self):
        # zeta_hat is the GLS slope under the covariance f[min(n, m)], f_n = rho**n - 1 with
        # rho = e**b, b the OLS slope of ln se**2 on n; W cov W^T is the delete-a-group
        # covariance of the zeta_hat replicates, each that slope of one replicate of ln_S
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=5, n_samples=2000, seed=8,
                        p_list=(0.0, 1.0, 3.0, 6.0))
        table = simulate(cfg, SL_LP)
        z = estimate_zeta(table)
        _, reps = reference_simulate(cfg, SL_LP)
        n = np.arange(1, 6)
        design = np.column_stack([np.ones(5), n * LN_HALF])
        coefs = [np.zeros(5)]  # p = 0
        for p in z.p[1:]:
            rho = math.exp(np.polyfit(n, np.log(table.se[table.p == p] ** 2), 1)[0])
            assert rho > 1.0
            f = rho ** n - 1.0
            inv = np.linalg.inv(f[np.minimum.outer(n, n) - 1])
            coefs.append(np.linalg.solve(design.T @ inv @ design, design.T @ inv)[1])
            ln_s = table.ln_s[table.p == p]
            assert z.value(p)[0] == pytest.approx(coefs[-1] @ ln_s, rel=1e-12)
            ols = np.polyfit(n * LN_HALF, ln_s, 1)[0]
            assert abs(z.value(p)[0] - ols) > 1e-9  # the weights are not OLS's
        zreps = np.array([coef @ reps[table.p == p] for coef, p in zip(coefs, z.p)])
        dev = zreps - zreps.mean(axis=1, keepdims=True)
        want = (len(dev.T) - 1) / len(dev.T) * dev @ dev.T
        np.testing.assert_allclose(z.cov, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert z.se.tobytes() == np.sqrt(np.diagonal(z.cov)).tobytes()
        assert z.cov[0].tolist() == [0.0] * 4 and z.se[0] == 0.0

    def test_independent_rows(self):
        # a constant se gives rho = 1, so the OLS weights: with cov = diag(se**2), zeta_hat's
        # variance is sum coef**2 se**2 and the orders are uncorrelated
        table = exact_table(SL, 0.5, 4, (0.0, 3.0, 6.0), se=0.01)
        z = estimate_zeta(table)
        x = np.arange(1, 5) * LN_HALF
        var = 1e-4 / ((x - x.mean()) ** 2).sum()
        np.testing.assert_allclose(z.cov, np.diag([0.0, var, var]), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("se", [
        [0.04, 0.03, 0.02, 0.01, 0.005],
        [0.0, 0.0, 0.0, 0.0, 0.01],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ], ids=["falling se", "one row with se", "no se"])
    def test_ols_weights_kept(self, se):
        # rho <= 1, or fewer than two rows with se > 0, leave the OLS weights: zeta_hat is
        # the OLS slope and its variance sum coef**2 se**2
        se = np.array(se)
        ln_s = np.array([-0.31, -0.55, -0.83, -1.02, -1.37])
        table = StructureTable(p=np.full(5, 3.0), n=np.arange(1, 6), ln_s=ln_s, se=se,
                               metadata={"r": 0.5, "n_samples": 0, "seed": 0},
                               cov=np.diag(se**2))
        z = estimate_zeta(table)
        x = np.arange(1, 6) * LN_HALF
        coef = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
        assert z.value(3.0) == pytest.approx((coef @ ln_s, math.sqrt(coef**2 @ se**2)),
                                             rel=1e-12, abs=1e-300)

    def test_non_finite_rows_get_zero_weight(self):
        # a non-finite ln_S row drops out of the slope and of the covariance, whatever its cov
        table = exact_table(SL, 0.5, 5, (0.0, 3.0), se=0.01)
        ln_s = np.where((table.p == 3.0) & (table.n == 5), math.inf, table.ln_s)
        cov = table.cov.copy()
        cov[-1, :] = cov[:, -1] = 0.5 * 0.01**2
        cov[-1, -1] = 0.01**2
        trimmed = exact_table(SL, 0.5, 4, (0.0, 3.0), se=0.01)
        z = estimate_zeta(replace(table, ln_s=ln_s, cov=cov))
        want = estimate_zeta(trimmed)
        assert z.zeta_hat.tobytes() == want.zeta_hat.tobytes()
        np.testing.assert_allclose(z.cov, want.cov, rtol=1e-14, atol=0.0)

    def test_table_without_covariance_refused(self):
        table = exact_table(SL, 0.5, 3, (0.0, 3.0))
        with pytest.raises(ValueError, match="a structure table needs the covariance of ln_S"):
            StructureTable(p=table.p, n=table.n, ln_s=table.ln_s, se=table.se,
                           metadata=table.metadata)

    def test_overflowing_covariance_raises(self):
        # a finite cov of ln_S whose image W cov W^T passes the largest float: levels 1 and 3
        # of order 3 anticorrelated, at variance 1e308 each
        table = exact_table(SL, 0.5, 3, (0.0, 3.0))
        cov = np.zeros((6, 6))
        cov[3, 3] = cov[5, 5] = 1e308
        cov[3, 5] = cov[5, 3] = -1e308
        big = replace(table, se=np.sqrt(np.diagonal(cov)), cov=cov)
        with pytest.raises(OverflowError, match="covariance of zeta_hat is not finite"):
            estimate_zeta(big)


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
                         se=np.zeros(len(orders)), cov=np.zeros((len(orders), len(orders))))
        with pytest.raises(ValueError, match="missing orders " + missing):
            estimate_deltas(z, 3)

    def test_run_of_orders_stops_at_first_gap(self):
        # 12 sits past the gap at 9, and the unsorted rows are found by order
        se = np.array([0.4, 0.0, 0.5, 0.3])
        z = ZetaEstimate(p=np.array([6.0, 0.0, 12.0, 3.0]), zeta_hat=np.array([3.0, 0.0, 9.0, 1.0]),
                         se=se, cov=np.diag(se**2))
        series = estimate_deltas(z, 3)
        assert series.m == (0, 1)
        assert series.delta == (1.0, 2.0)
        assert series.stderr == pytest.approx((0.3, 0.5), rel=1e-15)

    def test_errors_from_the_covariance(self):
        # se of delta_m = zeta_{m+1} - zeta_m is sqrt(V_mm + V_(m+1)(m+1) - 2 V_m(m+1))
        cov = np.array([[0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.04, 0.05, 0.0],
                        [0.0, 0.05, 0.09, 0.1],
                        [0.0, 0.0, 0.1, 0.16]])
        z = ZetaEstimate(p=np.array([0.0, 3.0, 6.0, 9.0]), zeta_hat=np.array([0.0, 1.0, 1.8, 2.4]),
                         se=np.sqrt(np.diagonal(cov)), cov=cov)
        series = estimate_deltas(z, 3)
        assert series.stderr == pytest.approx((0.2, math.sqrt(0.03), math.sqrt(0.05)), rel=1e-12)
        independent = estimate_deltas(replace(z, cov=np.diag(np.diagonal(cov))), 3)
        assert independent.stderr == pytest.approx((0.2, math.sqrt(0.13), 0.5), rel=1e-12)

    def test_estimate_without_covariance_refused(self):
        with pytest.raises(ValueError, match="a zeta estimate needs the covariance of zeta_hat"):
            ZetaEstimate(p=np.array([0.0, 3.0]), zeta_hat=np.array([0.0, 1.0]),
                         se=np.array([0.0, 0.01]))
        with pytest.raises(ValueError, match="a zeta estimate needs the covariance of zeta_hat"):
            ZetaEstimate.from_csv(io.StringIO("# {}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n"))

    def test_covariance_rows_follow_the_orders(self):
        # unsorted rows and an order past the run: D V D^T is taken over rows 0, k, 2k
        cov = np.diag([0.25, 0.0, 0.09, 0.16])
        cov[2, 3] = cov[3, 2] = 0.06
        z = ZetaEstimate(p=np.array([6.0, 0.0, 12.0, 3.0]), zeta_hat=np.array([3.0, 0.0, 9.0, 1.0]),
                         se=np.sqrt(np.diagonal(cov)), cov=cov)
        series = estimate_deltas(z, 3)
        assert series.stderr == pytest.approx((0.4, math.sqrt(0.16 + 0.25)), rel=1e-12)

    def test_simulated_delta0(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=100_000, seed=6)
        series = estimate_deltas(estimate_zeta(simulate(cfg, SL_LP)), 3)
        assert abs(series.delta[0] - 1.0) < 4 * series.stderr[0]


class TestCalibration:
    """The group errors are calibrated, and classify calls the canonical law log-Poisson."""

    def test_group_errors_are_calibrated(self):
        # z = (estimate - exact) / se over 200 seeds at 8 x 5000: sd(z) ~ 1 for the orders below
        # the critical one (0.95, 0.94, 0.96 and 0.94; 1.15, 1.21, 1.30 and 1.21 with per-cell
        # leave-one-out errors taken as independent over levels and orders)
        z = {p: [] for p in (1.0, 3.0, 6.0)} | {"delta0": []}
        for seed in range(200):
            cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=5000,
                            seed=seed)
            zhat = estimate_zeta(simulate(cfg, SL_LP))
            for p in (1.0, 3.0, 6.0):
                value, se = zhat.value(p)
                z[p].append((value - zeta(SL, p)) / se)
            series = estimate_deltas(zhat, 3)
            z["delta0"].append((series.delta[0] - delta(SL, 0.0)) / series.stderr[0])
        for name, values in z.items():
            assert 0.8 <= np.std(values, ddof=1) <= 1.1, name
            assert abs(np.mean(values)) <= 0.2, name

    def test_classify_canonical_runs(self):
        # 8 x 20k: 40/40 a1-holds (34/40, six affine-divergent, with independent errors)
        verdicts = []
        for seed in range(40):
            cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=20_000,
                            seed=seed)
            verdicts.append(classify(estimate_deltas(estimate_zeta(simulate(cfg, SL_LP)), 3)).verdict)
        assert verdicts.count("a1-holds") >= 39, verdicts


class TestCsvRoundTrip:
    def test_structure_table(self, tmp_path):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=500, seed=7)
        table = simulate(cfg, SL_LP)
        path = tmp_path / "structure.csv"
        table.to_csv(path)
        assert json.loads(path.read_text().splitlines()[0][1:])["cov"] == table.cov.tolist()
        back = StructureTable.from_csv(path)
        assert np.array_equal(back.p, table.p)
        assert np.array_equal(back.ln_s, table.ln_s)
        assert np.array_equal(back.se, table.se)
        assert back.cov.tobytes() == table.cov.tobytes()
        assert back.metadata == table.metadata and "cov" not in back.metadata
        # the estimate from the file is the estimate from memory, byte for byte
        for name in ("zeta_hat", "se", "cov"):
            assert (getattr(estimate_zeta(back), name).tobytes()
                    == getattr(estimate_zeta(table), name).tobytes())

    @pytest.mark.parametrize("cov, message", [
        (None, "a structure table needs the covariance of ln_S over its rows"),
        ([[0.0, 0.0], [0.0, 1e-4]], "expected a 3 x 3 covariance, got shape (2, 2)"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, 1e-5], [0.0, 2e-5, 4e-4]], "not symmetric"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, math.nan], [0.0, math.nan, 4e-4]], "must be finite"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, 0.0], [0.0, 0.0, 9e-4]], "diagonal are not se"),
        ([[0.0, 0.0, "x"], [0.0, 1e-4, 0.0], [0.0, 0.0, 4e-4]], "must be a numeric matrix"),
    ], ids=["missing", "shape", "asymmetric", "nan", "not-se", "not-numeric"])
    def test_structure_table_rejects_a_bad_covariance(self, cov, message):
        # se 0, 0.01 and 0.02 at (0, 1), (3, 1) and (3, 2)
        meta = {"r": 0.5} if cov is None else {"r": 0.5, "cov": cov}
        text = f"# {json.dumps(meta)}\np,n,ln_S,se\n0,1,0,0\n3,1,-0.69,0.01\n3,2,-1.39,0.02\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            StructureTable.from_csv(io.StringIO(text))
        with pytest.raises(ValueError, match=re.escape(message)):
            StructureTable(p=np.array([0.0, 3.0, 3.0]), n=np.array([1, 1, 2]),
                           ln_s=np.array([0.0, -0.69, -1.39]), se=np.array([0.0, 0.01, 0.02]),
                           metadata={"r": 0.5}, cov=cov)

    @pytest.mark.parametrize("table", [StructureTable, ZetaEstimate])
    def test_rejects_metadata_that_is_not_a_dict(self, table):
        # a list used to pass, then to_csv wrote a '#' line that from_csv refuses
        columns = {"p": np.array([0.0]), "se": np.array([0.0]), "cov": [[0.0]]}
        columns |= ({"n": np.array([1]), "ln_s": np.array([0.0])} if table is StructureTable
                    else {"zeta_hat": np.array([0.0])})
        with pytest.raises(ValueError, match="metadata must be a dict, got list"):
            table(**columns, metadata=[0.5])

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf", "2.5", "-3", "1e300",
                                       "9007199254740992", "9007199254740993",
                                       "1.0000000000000001", "4503599627370497.25", "1e999999999",
                                       "1/2", "three"])
    def test_structure_table_rejects_a_bad_level(self, level):
        # 1e300 is an integer, but past 2**53; 2**53 + 1 would read back as the float 2**53;
        # 1.0000000000000001 and 4503599627370497.25 are no integers, though a float rounds
        # them to one
        text = f"# {{}}\np,n,ln_S,se\n3,1,-0.5,0.01\n3,{level},-1.0,0.01\n"
        with pytest.raises(ValueError, match=re.escape(
                f"row 4: level n must be an integer in [0, 2**53), got {level!r}")):
            StructureTable.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("level", [-1, 2**53, 2**53 + 1, 2**63 - 1, 1.5])
    def test_structure_table_refuses_a_level_it_cannot_write_exactly(self, level):
        # the CSV writes a level through a float, exact below 2**53 only
        with pytest.raises(ValueError, match=re.escape(
                f"level n must be an integer in [0, 2**53), got {level!r}")):
            StructureTable(p=np.array([3.0]), n=np.array([level]), ln_s=np.array([-0.5]),
                           se=np.array([0.0]), cov=[[0.0]])

    def test_largest_level_round_trips_exactly(self):
        table = StructureTable(p=np.array([3.0]), n=np.array([2**53 - 1]), ln_s=np.array([-0.5]),
                               se=np.array([0.0]), cov=[[0.0]])
        assert StructureTable.from_csv(round_trip(table.to_csv)).n.tolist() == [2**53 - 1]

    @pytest.mark.parametrize("rows, message", [
        ("3,1,-0.5,0.01\n3,1,-0.9,0.01", "order p = 3.0 at level n = 1 appears in more than one row"),
        ("0,2,0,0\n-0.0,2,0,0", "order p = -0.0 at level n = 2 appears in more than one row"),
        ("nan,1,-0.5,0.01", "moment order must be finite and >= 0, got nan"),
        ("inf,1,-0.5,0.01", "moment order must be finite and >= 0, got inf"),
        ("-inf,1,-0.5,0.01", "moment order must be finite and >= 0, got -inf"),
        ("-3,1,-0.5,0.01", "moment order must be finite and >= 0, got -3.0"),
    ], ids=["repeated", "repeated-signed-zero", "nan", "inf", "-inf", "negative"])
    def test_structure_table_rejects_a_bad_row(self, rows, message):
        # the same (p, n) measured twice, or an order no structure function has
        text = f"# {{}}\np,n,ln_S,se\n3,2,-1.0,0.01\n{rows}\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            StructureTable.from_csv(io.StringIO(text))

    def test_zeta_estimate(self, tmp_path):
        table = exact_table(SL, 0.5, 5, (0.0, 3.0, 6.0))
        z = estimate_zeta(table)
        path = tmp_path / "zeta.csv"
        z.to_csv(path)
        back = ZetaEstimate.from_csv(path)
        assert np.array_equal(back.zeta_hat, z.zeta_hat)

    def test_zeta_estimate_covariance(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=4, n_samples=1000, seed=9)
        z = estimate_zeta(simulate(cfg, SL_LP))
        stream = round_trip(z.to_csv)
        assert json.loads(stream.readline()[1:])["cov"] == z.cov.tolist()
        stream.seek(0)
        back = ZetaEstimate.from_csv(stream)
        assert back.cov.tobytes() == z.cov.tobytes()
        assert back.se.tobytes() == z.se.tobytes()
        assert back.metadata == z.metadata and "cov" not in back.metadata

    @pytest.mark.parametrize("cov, message", [
        ([[0.0, 0.0], [0.0, 0.01]], "expected a 3 x 3 covariance, got shape (2, 2)"),
        ([0.0, 0.01, 0.04], "expected a 3 x 3 covariance, got shape (3,)"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, math.nan], [0.0, math.nan, 4e-4]], "must be finite"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, math.inf], [0.0, math.inf, 4e-4]], "must be finite"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, 1e-4], [0.0, 2e-4, 4e-4]], "not symmetric"),
        ([[0.0, 0.0, 0.0], [0.0, 1e-4, 0.0], [0.0, 0.0, 9e-4]], "diagonal are not se"),
        ([[0.0, 0.0, 0.0], [0.0, -1e-4, 0.0], [0.0, 0.0, 4e-4]], "diagonal are not se"),
        ([[0.0, 0.0, "x"], [0.0, 1e-4, 0.0], [0.0, 0.0, 4e-4]], "must be a numeric matrix"),
        ([[0.0, 0.0], [0.0, 1e-4, 0.0], [0.0, 0.0, 4e-4]], "must be a numeric matrix"),
        ({"a": 1}, "must be a numeric matrix"),
    ])
    def test_rejects_bad_covariance(self, cov, message):
        # se 0, 0.01 and 0.02 at orders 0, 3 and 6
        with pytest.raises(ValueError, match=re.escape(message)):
            ZetaEstimate(p=np.array([0.0, 3.0, 6.0]), zeta_hat=np.array([0.0, 1.0, 1.77]),
                         se=np.array([0.0, 0.01, 0.02]), cov=cov)
        text = (f"# {json.dumps({'cov': cov})}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n"
                f"6,1.77,0.02\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            ZetaEstimate.from_csv(io.StringIO(text))

    def test_cov_key_reserved_in_metadata(self):
        with pytest.raises(ValueError, match="'cov' is reserved"):
            ZetaEstimate(p=np.array([0.0]), zeta_hat=np.array([0.0]), se=np.array([0.0]),
                         metadata={"cov": [[0.0]]})
        with pytest.raises(ValueError, match="'cov' is reserved"):
            StructureTable(p=np.array([0.0]), n=np.array([1]), ln_s=np.array([0.0]),
                           se=np.array([0.0]), metadata={"cov": [[0.0]]}, cov=[[0.0]])

    def test_external_csv_ingestion(self):
        cov = np.diag([0.0, 0.01, 0.02, 0.05]) ** 2  # independent orders
        text = (f"# {json.dumps({'cov': cov.tolist()})}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n"
                f"6,1.77,0.02\n9,2.4,0.05\n")
        z = ZetaEstimate.from_csv(io.StringIO(text))
        series = estimate_deltas(z, 3)
        assert series.delta == pytest.approx((1.0, 0.77, 0.63), abs=1e-12)

    def test_reads_any_object_with_read(self):
        class Source:  # a text source that is not an io.TextIOBase
            def read(self):
                return '# {"cov": [[0, 0], [0, 1e-4]]}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n'

        z = ZetaEstimate.from_csv(Source())
        assert z.value(3.0) == (1.0, 0.01)

    def test_malformed_csv(self):
        with pytest.raises(ValueError, match="row 4"):
            ZetaEstimate.from_csv(io.StringIO("# {}\np,zeta_hat,se\n0,0,0\n3,oops,0.1\n"))
        with pytest.raises(ValueError, match="header"):
            ZetaEstimate.from_csv(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV: no header line"),
        ("# {}\n", "empty CSV: no header line"),
        ("# {}\np,zeta_hat,se\n", "header but no data rows"),
        ("p,zeta_hat,se\n\n", "header but no data rows"),
    ])
    def test_empty_or_header_only_csv(self, text, message):
        with pytest.raises(ValueError, match=message):
            ZetaEstimate.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("orders, message", [
        ((0.0, 3.0, 3.0, 6.0), "order p = 3.0 appears in more than one row"),
        ((0.0, 3.0, -0.0), "order p = -0.0 appears in more than one row"),
        ((0.0, -3.0, 3.0), "moment order must be finite and >= 0, got -3.0"),
        ((math.nan, 3.0, 6.0), "moment order must be finite and >= 0, got nan"),
        ((0.0, 3.0, math.inf), "moment order must be finite and >= 0, got inf"),
    ])
    def test_rejects_repeated_negative_or_non_finite_orders(self, orders, message):
        # two rows at one order leave estimate_deltas no single row to read
        text = "# {}\np,zeta_hat,se\n" + "".join(f"{p},{p / 3},0.01\n" for p in orders)
        with pytest.raises(ValueError, match=re.escape(message)):
            ZetaEstimate.from_csv(io.StringIO(text))
        with pytest.raises(ValueError, match=re.escape(message)):
            ZetaEstimate(p=np.array(orders), zeta_hat=np.zeros(len(orders)),
                         se=np.zeros(len(orders)))

    @pytest.mark.parametrize("meta, message", [
        ("[0.5]", "the '#' line must hold a JSON object, got list"),
        ('"r"', "the '#' line must hold a JSON object, got str"),
        ("{}", "scale ratio r in (0, 1), got None"),
        ('{"r": "0.5"}', "scale ratio r in (0, 1), got '0.5'"),
        ('{"r": true}', "scale ratio r in (0, 1), got True"),
        ('{"r": [0.5]}', "scale ratio r in (0, 1), got [0.5]"),
        ('{"r": 1.5}', "scale ratio r in (0, 1), got 1.5"),
    ])
    def test_rejects_bad_metadata(self, meta, message):
        # a ValueError, which the CLI reports as JSON, not an AttributeError or a TypeError
        meta = json.loads(meta)
        if isinstance(meta, dict):  # the rows' independent covariance
            meta = {**meta, "cov": np.diag([0.0] + [1e-4] * 3).tolist()}
        text = (f"# {json.dumps(meta)}\np,n,ln_S,se\n0,1,0,0\n3,1,-0.5,0.01\n3,2,-1,0.01\n"
                f"3,3,-1.5,0.01\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_zeta(StructureTable.from_csv(io.StringIO(text)))

    @pytest.mark.parametrize("bad", [-0.02, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_se(self, bad):
        # an error is the square root of a variance: finite and >= 0, checked before any cov
        text = f"# {{}}\np,zeta_hat,se\n0,0,0\n3,1.0,0.01\n6,1.77,{bad}\n9,2.4,0.05\n"
        with pytest.raises(ValueError, match="stderr entries must be finite and >= 0"):
            ZetaEstimate.from_csv(io.StringIO(text))
        with pytest.raises(ValueError, match="stderr entries must be finite and >= 0"):
            ZetaEstimate(p=np.array([0.0, 3.0]), zeta_hat=np.array([0.0, 1.0]),
                         se=np.array([0.0, bad]))


# finite floats, -0.0 and subnormals included, and JSON-able metadata
FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
METADATA = st.dictionaries(st.text(), JSON, max_size=4)


def exact(values):
    """Values with every float as its hex string, so -0.0 and 0.0 differ."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def without_cov(meta):
    return {k: v for k, v in meta.items() if k != "cov"}


def draw_covariance(data, diagonal):
    """Any finite symmetric matrix with `diagonal`, and se the square roots of that diagonal."""
    n = len(diagonal)
    upper = data.draw(hnp.arrays(float, (n, n), elements=FLOATS))
    cov = np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper)
    np.fill_diagonal(cov, diagonal)
    return np.sqrt(cov.diagonal()), cov


def round_trip(write):
    stream = io.StringIO()
    write(stream)
    stream.seek(0)
    return stream


class TestCsvRoundTripProperties:
    """Every CSV writer's file reads back byte for byte in every column."""

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 20), data=st.data(), meta=METADATA.map(without_cov))
    def test_structure_table(self, n_rows, data, meta):
        column = hnp.arrays(float, n_rows, elements=FLOATS)
        # StructureTable rejects a repeated (p, n) row and a negative or non-finite order;
        # -0.0 is still drawn
        rows = data.draw(st.lists(
            st.tuples(st.floats(min_value=-0.0, allow_infinity=False, allow_subnormal=True),
                      st.integers(0, 2**31)),
            min_size=n_rows, max_size=n_rows, unique=True))
        # StructureTable rejects a negative se; -0.0 and subnormals are still drawn
        errors = hnp.arrays(float, n_rows, elements=st.floats(min_value=-0.0, allow_infinity=False,
                                                              allow_subnormal=True))
        se, cov = draw_covariance(data, data.draw(errors))
        table = StructureTable(
            p=np.array([p for p, _ in rows]), n=np.array([n for _, n in rows], dtype=np.int64),
            ln_s=data.draw(column), se=se, metadata=meta, cov=cov,
        )
        back = StructureTable.from_csv(round_trip(table.to_csv))
        for name in ("p", "n", "ln_s", "se", "cov"):
            got, want = getattr(back, name), getattr(table, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert json.dumps(back.metadata) == json.dumps(meta)

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 20), data=st.data(),
           meta=METADATA.map(without_cov))
    def test_zeta_estimate(self, n_rows, data, meta):
        column = hnp.arrays(float, n_rows, elements=FLOATS)
        # ZetaEstimate rejects a repeated, negative or non-finite order; -0.0 is still drawn
        orders = hnp.arrays(float, n_rows, unique=True, elements=st.floats(
            min_value=-0.0, allow_infinity=False, allow_subnormal=True))
        # ZetaEstimate rejects a negative se; -0.0 and subnormals are still drawn
        errors = hnp.arrays(float, n_rows, elements=st.floats(min_value=-0.0, allow_infinity=False,
                                                              allow_subnormal=True))
        se, cov = draw_covariance(data, data.draw(errors))
        z = ZetaEstimate(p=data.draw(orders), zeta_hat=data.draw(column), se=se, metadata=meta,
                         cov=cov)
        back = ZetaEstimate.from_csv(round_trip(z.to_csv))
        for name in ("p", "zeta_hat", "se", "cov"):
            got, want = getattr(back, name), getattr(z, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert json.dumps(back.metadata) == json.dumps(meta)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=20))
    def test_spectrum_curve(self, rows):
        h, f = zip(*rows)
        curve = SpectrumCurve(law=SL, d=3.0, h=h, f=f)
        meta, back = _read_csv(round_trip(curve.to_csv), ("h", "f"))
        assert [exact(row) for row in back] == [exact(row) for row in rows]
        assert meta["negative_f"] == curve.has_negative_values

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(FLOATS, FLOATS, FLOATS, st.booleans(), st.none() | FLOATS),
                         min_size=1, max_size=20), meta=METADATA)
    def test_stability_rows(self, rows, meta):
        # the header and cells of `hscascade stability`: a boolean and an optional float
        header = ("epsilon", "w1_levy", "bound", "bound_ok", "w1_multiplier")
        back_meta, back = _read_csv(round_trip(lambda fh: write_csv(fh, meta, header, rows)), header)
        assert [exact(row) for row in back] == [exact(row) for row in rows]
        assert json.dumps(back_meta) == json.dumps(meta)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=1, n_samples=500)
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=10)
        with pytest.raises(ValueError):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=500, p_list=(-1.0,))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -1.0])
    def test_rejects_bad_orders(self, p):
        with pytest.raises(ValueError, match="moment order must be finite and >= 0"):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=500, p_list=(1.0, p))

    @pytest.mark.parametrize("field, value", [
        ("n_levels", 3.0), ("n_levels", True), ("n_levels", "3"),
        ("n_samples", 150.5), ("n_samples", 500.0), ("n_samples", np.float64(500.0)),
        ("seed", 1.9), ("seed", 1.0), ("seed", False), ("seed", None),
    ])
    def test_rejects_sizes_and_seeds_that_are_not_integers(self, field, value):
        # seed 1.9 used to draw seed 1's stream while the metadata recorded 1.9
        config = {"n_levels": 4, "n_samples": 500, "seed": 0, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an int, got {value!r}")):
            SimConfig(params=CascadeParams(r=0.5), **config)

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=np.int64(3),
                        n_samples=np.int32(200), seed=np.uint64(4), p_list=(0.0, 3.0))
        want = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=3, n_samples=200, seed=4,
                         p_list=(0.0, 3.0))
        assert simulate(cfg, SL_LP).ln_s.tobytes() == simulate(want, SL_LP).ln_s.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            SimConfig(params=CascadeParams(r=0.5), n_levels=4, n_samples=500, seed=seed)

    def test_default_p_list(self):
        assert default_p_list(3) == (0.0, 1.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=4, n_samples=500)
        assert cfg.p_list == default_p_list(3)
