"""Hierarchical-symmetry test bench.

Fits the contraction form delta_m = delta_inf + D*q**m to an
incremental-exponent series, reports the sup-norm recurrence residual
epsilon, and classifies the series into the principal cascade families:

    a1-holds         geometric relaxation with ratio in (0,1)
    monofractal      constant series (C = 0)
    affine-divergent delta_m affine in m (Gaussian generator part)
    power-decay      delta_m - delta_inf ~ m**(alpha-1) (power-law jumps)
    other            anything else
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .exponents import DeltaSeries, ScalingLaw, law_from_deltas, recurrence_residual
from .generators import LogPoissonParams, logpoisson_from_scaling

__all__ = ["A1Fit", "A1Report", "fit_a1", "classify", "characterize"]

SCHEMA_VERSION = 1

_Q_LO, _Q_HI, _Q_NODES = 1e-3, 0.999, 1000


class A1Fit(NamedTuple):
    beta_hat: float
    delta_inf_hat: float
    epsilon_hat: float
    amplitude: float  # fitted D in delta_inf + D*q**m
    identifiable: bool  # False when the series is constant (any beta fits)


@dataclass(frozen=True)
class A1Report:
    beta_hat: float
    delta_inf_hat: float
    epsilon_hat: float
    verdict: str
    law: ScalingLaw | None = None
    logpoisson: LogPoissonParams | None = None
    m_max: int = 0
    series_digest: str = ""

    def to_dict(self) -> dict:
        lp = self.logpoisson
        return {
            "schema_version": SCHEMA_VERSION,
            "beta_hat": self.beta_hat,
            "delta_inf_hat": self.delta_inf_hat,
            "epsilon_hat": self.epsilon_hat,
            "verdict": self.verdict,
            "m_max": self.m_max,
            "series_digest": self.series_digest,
            "law": None if self.law is None else asdict(self.law),
            "logpoisson": None if lp is None else {"a": lp.a, "b": lp.b, "lambda": lp.lam},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _digest(series: DeltaSeries) -> str:
    return hashlib.sha256(np.asarray(series.delta, dtype=float).tobytes()).hexdigest()[:16]


def _weights(series: DeltaSeries) -> np.ndarray:
    if series.stderr is None:
        return np.ones(len(series))
    se = np.asarray(series.stderr, dtype=float)
    floor = max(se[se > 0].min() if (se > 0).any() else 1.0, 1e-300)
    # dividing by the power of two at or below the floor is exact and keeps 1/se**2 in
    # range at any scale; it scales every weight by one power of two, which no fit sees
    unit = math.ldexp(1.0, math.frexp(floor)[1] - 1)
    with np.errstate(over="ignore"):  # an se ~2**512 times the floor gets weight 0
        return 1.0 / (np.maximum(se, floor) / unit) ** 2


def _ls_fit(q, m: np.ndarray, d: np.ndarray, w: np.ndarray) -> tuple:
    """Weighted LS of d = delta_inf + D*q**m at fixed q, scalar or array q.

    Returns (sse, delta_inf, D) with q's shape; sse is inf where the
    normal equations are singular.
    """
    x = np.power.outer(q, m)
    sw, sx, sxx = w.sum(), x @ w, (x * x) @ w
    sy, sxy = w @ d, x @ (w * d)
    den = sw * sxx - sx * sx
    # a singular q (den = 0) divides by zero, and its SSE is set to inf below; an
    # overflowing SSE ranks above every finite one
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        amp = (sw * sxy - sx * sy) / den
        dinf = (sy - amp * sx) / sw
        sse = ((d - dinf[..., None] - amp[..., None] * x) ** 2) @ w
    return np.where(den > 0, sse, np.inf), dinf, amp


def fit_a1(series: DeltaSeries) -> A1Fit:
    """Fit (beta, delta_inf) to the series and report the sup-norm residual.

    Stage 1 grid-searches the contraction ratio q over (0.001, 0.999)
    with a weighted linear solve for (delta_inf, D) at each node, then
    refines q by Brent's method on the bracket around the best node; a
    best node at either end of the grid is kept as the fit.  Stage 2
    recomputes the achieved recurrence residual exactly at the fitted
    parameters.  A fit whose weighted SSE is not finite at any grid node
    raises OverflowError.
    """
    if len(series) < 4:
        raise ValueError(f"need at least 4 series entries, got {len(series)}")
    d = np.asarray(series.delta, dtype=float)
    m = np.arange(len(d), dtype=float)
    w = _weights(series)

    scale = max(np.abs(d).max(), 1e-300)
    if np.abs(d - d.mean()).max() <= 1e-10 * max(scale, 1.0):
        # constant series: the contraction ratio is unidentifiable
        mean = float(np.average(d, weights=w))
        eps = recurrence_residual(d, 0.5, mean)
        return A1Fit(math.nan, mean, eps, 0.0, identifiable=False)

    # q = e**(ln_lo + u*step) at continuous node index u: Brent's absolute
    # x-tolerance floor (1e-11) then applies to u, far below one grid step
    ln_lo, step = math.log(_Q_LO), math.log(_Q_HI / _Q_LO) / (_Q_NODES - 1)

    def sse(u):
        return _ls_fit(np.exp(ln_lo + u * step), m, d, w)[0]

    grid = sse(np.arange(_Q_NODES))
    if not np.isfinite(grid).any():
        raise OverflowError("the weighted squared residuals of the fit are not finite at any q: "
                            "the delta series or its weights are too large")
    best = int(np.argmin(grid))  # smallest q wins ties via argmin
    u_hat = best
    if 0 < best < _Q_NODES - 1:
        from scipy import optimize  # here, so that importing hscascade loads no SciPy

        try:
            bracket = (best - 1, best, best + 1)
            # a singular q's SSE is inf, which makes Brent's parabolic step NaN; Brent then
            # takes a golden-section step instead
            with np.errstate(invalid="ignore"):
                u_hat = optimize.minimize_scalar(sse, bracket=bracket, method="brent",
                                                 tol=1e-15).x
        except ValueError:  # SSE flat to rounding across the bracket: keep the node
            pass
    q_hat = math.exp(ln_lo + u_hat * step)
    _, delta_inf, amp = _ls_fit(q_hat, m, d, w)
    eps = recurrence_residual(d, q_hat, delta_inf)
    return A1Fit(q_hat, float(delta_inf), eps, float(amp), identifiable=True)


def default_tolerance(series: DeltaSeries) -> float:
    """1e-8 for analytic series; max(1e-8, 3*median se) for noisy data."""
    if series.stderr is None:
        return 1e-8
    return max(1e-8, 3.0 * float(np.median(series.stderr)))


def _power_decay(diffs: np.ndarray) -> bool:
    """Whether the first differences decay as a power of m rather than geometrically.

    Power decay is detected on first differences, which are free of the
    fitted asymptote: their successive ratios increase toward 1, while a
    geometric series keeps them constant at beta < 1.  The sign test
    comes first, so the ratios never divide by a zero difference.  The
    tail half of the ratios is extrapolated in 1/m; a limit near 1 marks
    power decay.
    """
    if not (
        len(diffs) >= 5
        and (np.all(diffs > 0) or np.all(diffs < 0))
        and np.all(((ratios := diffs[1:] / diffs[:-1]) > 0) & (ratios < 1))
        and np.all(np.diff(ratios) > -1e-9)
        and ratios[-1] - ratios[0] > 0.01
    ):
        return False
    tail = ratios[len(ratios) // 2 :]
    ms = np.arange(len(ratios) // 2 + 1, len(ratios) + 1, dtype=float)
    _, c0 = np.polyfit(1.0 / ms, tail, 1)
    return bool(c0 >= 0.85)


def classify(series: DeltaSeries, tol: float | None = None) -> A1Report:
    """Decision over the principal cascade families: the first arm whose test holds decides.

    band = tol * max(1, max |delta|) and dev = max |delta - mean|; D is fit_a1's
    amplitude, and "fit" is fit_a1's value.

    arm       test                          verdict                    beta  delta_inf  epsilon
    constant  dev <= band                   monofractal                nan   mean       dev
    affine    diffs constant to band,       affine-divergent           nan   nan        inf
              their mean beyond it
    fit       fit identifiable, beta in     monofractal if |D| < band  fit   fit        fit
              (0, 1), epsilon <= band       (the tie rule), a1-holds
    other     anything else                 power-decay or other       fit   fit        fit

    The law of a monofractal has C = 0, gamma = delta_inf / k and the placeholder
    beta = 0.5; that of a1-holds is law_from_deltas at the fit; the others have none.
    """
    if len(series) < 5:
        raise ValueError(f"need at least 5 series entries, got {len(series)}")
    if tol is None:
        tol = default_tolerance(series)
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    d = np.asarray(series.delta, dtype=float)
    band = tol * max(np.abs(d).max(), 1.0)

    dev = float(np.abs(d - d.mean()).max())
    beta_hat = delta_inf_hat = math.nan
    if dev <= band:
        verdict, delta_inf_hat, epsilon_hat = "monofractal", float(d.mean()), dev
    elif np.abs((diffs := np.diff(d)) - diffs.mean()).max() <= band and abs(diffs.mean()) > band:
        verdict, epsilon_hat = "affine-divergent", math.inf
    else:
        fit = fit_a1(series)
        beta_hat, delta_inf_hat, epsilon_hat = fit.beta_hat, fit.delta_inf_hat, fit.epsilon_hat
        if fit.identifiable and 0.0 < beta_hat < 1.0 and epsilon_hat <= band:
            verdict = "monofractal" if abs(fit.amplitude) < band else "a1-holds"
        else:
            verdict = "power-decay" if _power_decay(diffs) else "other"

    law = None
    if verdict == "monofractal":
        law = ScalingLaw(gamma=delta_inf_hat / series.k, big_c=0.0, beta=0.5, k=series.k)
    elif verdict == "a1-holds":
        law = law_from_deltas(delta_inf_hat + fit.amplitude, delta_inf_hat, beta_hat, series.k)
    return A1Report(beta_hat, delta_inf_hat, epsilon_hat, verdict, law,
                    m_max=len(series) - 1, series_digest=_digest(series))


def _with_logpoisson(report: A1Report, r: float) -> A1Report:
    """An a1-holds report with the log-Poisson triple of its law at scale ratio r."""
    return replace(report, logpoisson=logpoisson_from_scaling(report.law, r))


def characterize(series: DeltaSeries, r: float, k: int, tol: float | None = None) -> A1Report:
    """Full log-Poisson characterization of an a1-holds series."""
    if k != series.k:
        raise ValueError(f"series carries k = {series.k}, got k = {k}")
    report = classify(series, tol=tol)
    if report.verdict != "a1-holds":
        raise ValueError(
            f"series does not satisfy the hierarchical symmetry (verdict: {report.verdict})"
        )
    return _with_logpoisson(report, r)
