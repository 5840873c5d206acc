import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from hscascade.exponents import ScalingLaw, spectrum_width, zeta
from hscascade.spectrum import _order_grid, f_closed, f_legendre, h_interval, spectrum_curve

SL = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)


def random_law(rng):
    return ScalingLaw(
        gamma=rng.uniform(-0.5, 0.5),
        big_c=rng.uniform(0.2, 4),
        beta=rng.uniform(0.1, 0.9),
        k=int(rng.integers(1, 5)),
    )


class TestClosedForm:
    def test_sl_interval(self):
        h_min, h_max = h_interval(SL)
        assert h_min == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert h_max == pytest.approx(1.0 / 9.0 + (2.0 / 3.0) * math.log(1.5), abs=1e-12)

    def test_maximum_at_right_endpoint(self):
        _, h_max = h_interval(SL)
        assert f_closed(SL, 1.0, h_max) == pytest.approx(1.0, abs=1e-12)
        assert f_closed(SL, 3.0, h_max) == pytest.approx(3.0, abs=1e-12)

    def test_left_endpoint_limit(self):
        h_min, _ = h_interval(SL)
        assert f_closed(SL, 1.0, h_min) == pytest.approx(1.0 - 2.0, abs=1e-15)
        # continuity: approach from inside
        assert f_closed(SL, 1.0, h_min + 1e-12) == pytest.approx(-1.0, abs=1e-9)

    def test_benchmark_value(self):
        # x = 2/3 point of the SL spectrum with d = 3
        h = 1.0 / 9.0 + (2.0 / 3.0) * (2.0 / 3.0) * math.log(1.5)
        assert h == pytest.approx(0.291318, abs=1e-6)
        assert f_closed(SL, 3.0, h) == pytest.approx(2.873953, abs=1e-6)
        assert f_legendre(SL, 3.0, h) == pytest.approx(2.873953, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            f_closed(SL, 1.0, 5.0)

    def test_rejects_monofractal(self):
        law = ScalingLaw(gamma=0.3, big_c=0.0, beta=0.5, k=1)
        with pytest.raises(ValueError, match="C = 0"):
            f_closed(law, 1.0, 0.3)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("call", [
        lambda d: f_closed(SL, d, h_interval(SL)[1]),
        lambda d: f_legendre(SL, d, h_interval(SL)[1]),
        lambda d: spectrum_curve(SL, d, 11),
    ], ids=["f_closed", "f_legendre", "spectrum_curve"])
    def test_rejects_non_positive_dimension(self, call, d):
        with pytest.raises(ValueError, match="support dimension d must be > 0"):
            call(d)


class TestLegendreOracle:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            law = random_law(rng)
            h_min, h_max = h_interval(law)
            for h in np.linspace(h_min, h_max, 11)[1:]:  # interior + right edge
                assert f_legendre(law, 1.0, h) == pytest.approx(
                    f_closed(law, 1.0, h), abs=1e-6
                )

    def test_left_endpoint_is_one_sided(self):
        # at h = gamma the infimum runs off to p = infinity; the truncated
        # oracle lands within the grid tolerance of the d - C limit
        h_min, _ = h_interval(SL)
        assert f_legendre(SL, 1.0, h_min) == pytest.approx(-1.0, abs=1e-6)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="p_max"):
            f_legendre(SL, 1.0, 0.3, p_max=1.0)


def reference_f_legendre(law, d, h, p_max=None, grid=10_000):
    """f_legendre before its order grids were memoized: zeta is evaluated on both grids per call."""
    if p_max is None:
        p_max = 1.05 * law.k * math.log(1e-8) / math.log(law.beta)

    def objective(p):
        return p * h - zeta(law, p) + d

    def grid_min(n):
        ps = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-6), math.log(p_max), n))])
        i = int(np.argmin(objective(ps)))
        lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
        res = optimize.minimize_scalar(objective, bounds=(lo, hi), method="bounded")
        return min(res.fun, objective(lo), objective(hi))

    coarse = grid_min(grid)
    fine = grid_min(2 * grid)
    if abs(coarse - fine) > 1e-6:
        raise ValueError("Legendre grid too coarse: doubling the grid moved the inf by > 1e-6")
    return fine


def outcome(call):
    """The bytes of a float result, or the message of a ValueError."""
    try:
        return np.float64(call()).tobytes()
    except ValueError as exc:
        return str(exc)


laws = st.builds(
    ScalingLaw,
    gamma=st.floats(-0.5, 0.5),
    big_c=st.floats(0.2, 4.0),
    beta=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    k=st.integers(1, 4),
)


class TestMemoizedGrid:
    """f_legendre with memoized grids is reference_f_legendre byte for byte."""

    @settings(max_examples=25, deadline=None)
    @given(law_list=st.lists(laws, min_size=1, max_size=4),
           calls=st.lists(st.tuples(st.integers(0, 3),
                                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    st.floats(0.05, 10.0)), min_size=1, max_size=8))
    def test_matches_reference(self, law_list, calls):
        # the calls alternate between up to four laws, so the four-entry cache evicts
        for j, frac, d in calls:
            law = law_list[j % len(law_list)]
            h_min, h_max = h_interval(law)
            h = h_min + frac * (h_max - h_min)
            assert outcome(lambda: f_legendre(law, d, h)) == outcome(
                lambda: reference_f_legendre(law, d, h))

    def test_matches_reference_at_given_p_max(self):
        h = 0.3
        for p_max in (200.0, 1000):
            assert f_legendre(SL, 1.0, h, p_max=p_max) == reference_f_legendre(SL, 1.0, h, p_max)

    def test_cached_arrays_are_read_only(self):
        ps, zs = _order_grid(SL, 150.0, 100)
        assert _order_grid(SL, 150.0, 100)[0] is ps
        for array in (ps, zs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class TestCurve:
    def test_endpoints_and_concavity(self):
        curve = spectrum_curve(SL, 3.0, 101)
        assert curve.f[-1] == pytest.approx(3.0, abs=1e-12)
        assert curve.f[0] == pytest.approx(1.0, abs=1e-12)
        slopes = np.diff(curve.f) / np.diff(curve.h)
        assert np.all(np.diff(slopes) < 1e-9)

    def test_width_matches(self):
        curve = spectrum_curve(SL, 1.0, 50)
        assert curve.h[-1] - curve.h[0] == pytest.approx(spectrum_width(SL), abs=1e-12)

    def test_negative_values_flagged(self):
        wide = ScalingLaw(gamma=0.0, big_c=5.0, beta=0.5, k=1)
        assert spectrum_curve(wide, 1.0, 50).has_negative_values
        assert not spectrum_curve(SL, 3.0, 50).has_negative_values

    def test_identical_laws_identical_curves(self):
        a = spectrum_curve(SL, 2.0, 64)
        b = spectrum_curve(ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3), 2.0, 64)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.f, b.f)

    def test_two_point_curve(self):
        curve = spectrum_curve(SL, 1.0, 2)
        assert list(curve.h) == list(h_interval(SL))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            spectrum_curve(SL, 1.0, 1)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        spectrum_curve(SL, 3.0, 5).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "h,f"
        assert len(lines) == 7
