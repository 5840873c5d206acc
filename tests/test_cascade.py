import io
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hscascade import cascade
from hscascade.cascade import (
    SimConfig,
    StructureTable,
    ZetaEstimate,
    _ln_mean_and_jackknife,
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
    StableTail,
    logpoisson_from_scaling,
    normalize_mean_one,
    sample_logW,
)
from hscascade.hausdorff import smear_perturbation
from hscascade.spectrum import SpectrumCurve

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
    """The jackknife before its scratch buffer: the same steps, each on a fresh array."""
    ns = len(z)
    m = z.max()
    x = np.exp(z - m)
    total = x.sum()
    ln_s = m + math.log(total / ns)
    loo = np.log(np.maximum(total - x, 1e-300)) - math.log(ns - 1) + m
    se = math.sqrt((ns - 1) / ns * float(((loo - loo.mean()) ** 2).sum()))
    return ln_s, se


def reference_simulate(config, gen):
    """simulate before the pipeline: one sample_logW call, np.cumsum over levels, serial cells."""
    nl, ns = config.n_levels, config.n_samples
    branch = np.cumsum(sample_logW(gen, nl * ns, config.seed).reshape(nl, ns), axis=0)
    z = np.empty(ns)
    ln_s, se = np.array([
        (0.0, 0.0) if p == 0.0 else _ln_mean_and_jackknife(np.multiply(p, level, out=z))
        for p in config.p_list
        for level in branch
    ]).T
    return ln_s, se


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
    """The in-place jackknife returns the allocating one's floats exactly."""

    @settings(max_examples=200, deadline=None)
    @given(z=hnp.arrays(float, st.integers(2, 2000), elements=st.floats(-700.0, 700.0)))
    def test_matches_reference(self, z):
        assert _ln_mean_and_jackknife(z.copy()) == reference_ln_mean_and_jackknife(z)

    def test_dominated_sample_hits_the_clamp(self):
        # without the largest sample the sum underflows to 0 and is clamped at 1e-300
        z = np.full(1000, -700.0)
        z[17] = 700.0
        expected = reference_ln_mean_and_jackknife(z)
        assert _ln_mean_and_jackknife(z.copy()) == expected
        assert expected[1] > 10.0


class TestPipeline:
    """The pipelined simulate returns the serial one's bytes and cleans up after a failure."""

    @settings(max_examples=60, deadline=None)
    @given(gen=cascade_generators(), n_levels=st.integers(2, 6),
           n_samples=st.integers(100, 3000), seed=st.integers(0, 2**32 - 1),
           p_list=st.sampled_from([(), (0.0,), (0.0, 1.0, 2.5), (3.0, 7.5)]))
    def test_matches_reference(self, gen, n_levels, n_samples, seed, p_list):
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=n_levels,
                        n_samples=n_samples, seed=seed, p_list=p_list)
        table = simulate(cfg, gen)
        ln_s, se = reference_simulate(cfg, gen)
        assert table.ln_s.tobytes() == ln_s.tobytes()
        assert table.se.tobytes() == se.tobytes()

    def test_matches_reference_under_fast_thread_switching(self):
        # both threads read the levels; a switch every microsecond would expose
        # any write to an array the other thread still reads
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=6, n_samples=20_000, seed=0)
        ln_s, se = reference_simulate(cfg, SL_LP)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tables = [simulate(cfg, SL_LP) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for table in tables:
            assert table.ln_s.tobytes() == ln_s.tobytes() and table.se.tobytes() == se.tobytes()

    def test_worker_error_is_raised_and_the_thread_ends(self, monkeypatch):
        calls = []

        def third_call_fails(z):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third cell")
            return _ln_mean_and_jackknife(z)

        monkeypatch.setattr(cascade, "_ln_mean_and_jackknife", third_call_fails)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=6, n_samples=1000, seed=0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third cell"):
            simulate(cfg, SL_LP)
        assert threading.active_count() == threads


class TestMemory:
    """The traced peak stays within 4 x (8 B x total draws) for the one-atom law and 6 x for
    33 atoms; simulate's, at 16 levels, within 10 x one level for the one-atom law, 80 x
    for a stable tail, and 30 x and 14 x for a stable tail and 200 atoms with 1-B counts."""

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

    @pytest.mark.parametrize("law, bound", [("stable_tail", 30), ("atoms200", 14)])
    def test_simulate_counts_in_one_byte(self, law, bound):
        # the general path keeps the Poisson counts of all 16 levels, uint8 while they fit:
        # 16 x 1 B per sample, where int64 counts took 16 x 8 B (41 x and 25 x in all)
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

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV: no header line"),
        ("# {}\n", "empty CSV: no header line"),
        ("# {}\np,zeta_hat,se\n", "header but no data rows"),
        ("p,zeta_hat,se\n\n", "header but no data rows"),
    ])
    def test_empty_or_header_only_csv(self, text, message):
        with pytest.raises(ValueError, match=message):
            ZetaEstimate.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("bad", [-0.02, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_se(self, bad):
        # estimate_deltas combines errors with math.hypot, which would drop the sign
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


def round_trip(write):
    stream = io.StringIO()
    write(stream)
    stream.seek(0)
    return stream


class TestCsvRoundTripProperties:
    """Every CSV writer's file reads back byte for byte in every column."""

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 20), data=st.data(), meta=METADATA)
    def test_structure_table(self, n_rows, data, meta):
        column = hnp.arrays(float, n_rows, elements=FLOATS)
        # StructureTable rejects a negative se; -0.0 and subnormals are still drawn
        errors = hnp.arrays(float, n_rows, elements=st.floats(min_value=-0.0, allow_infinity=False,
                                                              allow_subnormal=True))
        table = StructureTable(
            p=data.draw(column), n=data.draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, 2**31))),
            ln_s=data.draw(column), se=data.draw(errors), metadata=meta,
        )
        back = StructureTable.from_csv(round_trip(table.to_csv))
        for name in ("p", "n", "ln_s", "se"):
            got, want = getattr(back, name), getattr(table, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert json.dumps(back.metadata) == json.dumps(meta)

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 20), data=st.data(), meta=METADATA)
    def test_zeta_estimate(self, n_rows, data, meta):
        column = hnp.arrays(float, n_rows, elements=FLOATS)
        # ZetaEstimate rejects a negative se; -0.0 and subnormals are still drawn
        errors = hnp.arrays(float, n_rows, elements=st.floats(min_value=-0.0, allow_infinity=False,
                                                              allow_subnormal=True))
        z = ZetaEstimate(p=data.draw(column), zeta_hat=data.draw(column), se=data.draw(errors),
                         metadata=meta)
        back = ZetaEstimate.from_csv(round_trip(z.to_csv))
        for name in ("p", "zeta_hat", "se"):
            assert getattr(back, name).tobytes() == getattr(z, name).tobytes()
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

    def test_default_p_list(self):
        assert default_p_list(3) == (0.0, 1.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
        cfg = SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=4, n_samples=500)
        assert cfg.p_list == default_p_list(3)
