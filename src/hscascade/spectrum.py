"""Multifractal spectrum: closed form and a Legendre-transform oracle.

For a scaling law with C > 0 the spectrum is

    f(h) = d - C + C*x*(1 - ln x),   x = k*(h - gamma) / (C*|ln beta|),

on h in [gamma, gamma + (C/k)*|ln beta|], with the x -> 0 endpoint
defined by its limit d - C.  The oracle evaluates
f(h) = inf_{p >= 0} [p*h - zeta_p + d] on a dense grid, refined on
the two cells around its best node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cascade import write_csv
from .exponents import ScalingLaw, _check_integers, spectrum_width, zeta

__all__ = ["SpectrumCurve", "f_closed", "f_legendre", "spectrum_curve", "h_interval"]


def _check_dimension(d: float) -> None:
    if not 0 < d < math.inf:
        raise ValueError(f"support dimension d must be > 0 and finite, got {d}")


def h_interval(law: ScalingLaw) -> tuple:
    """The singularity-exponent interval [gamma, gamma + (C/k)|ln beta|]."""
    return law.gamma, law.gamma + spectrum_width(law)


def _check_h(law: ScalingLaw, h: float) -> None:
    h_min, h_max = h_interval(law)
    if law.big_c == 0:
        raise ValueError("spectrum degenerates to a point for C = 0")
    if law.big_c * abs(math.log(law.beta)) == 0:  # x = k*(h - gamma)/(C*|ln beta|) is 0/0
        raise ValueError(f"spectrum width C*|ln beta|/k underflows to 0 for C = {law.big_c}")
    if not (h_min - 1e-12 <= h <= h_max + 1e-12):
        raise ValueError(f"h = {h} outside the spectrum interval [{h_min}, {h_max}]")


def _f_at(law: ScalingLaw, d: float, h: float) -> float:
    """The closed form at an h already checked; the x = 0 endpoint returns the limit d - C."""
    x = law.k * (h - law.gamma) / (law.big_c * abs(math.log(law.beta)))
    x = min(max(x, 0.0), 1.0)
    if x == 0.0:
        return d - law.big_c  # removable singularity: x*ln x -> 0
    return d - law.big_c + law.big_c * x * (1.0 - math.log(x))


def f_closed(law: ScalingLaw, d: float, h: float) -> float:
    """Closed-form spectrum value; the x = 0 endpoint returns the limit d - C."""
    _check_dimension(d)
    _check_h(law, h)
    return _f_at(law, d, h)


@functools.lru_cache(maxsize=4)
def _order_grid(law: ScalingLaw, n: int) -> tuple:
    """Orders 0 and n log-spaced in [1e-6, p_max], zeta at each and the slopes
    -dzeta/dp between neighbours, as read-only arrays.

    p_max is large enough that beta**(p_max/k) < 1e-8.  The slopes rise
    with p because zeta is concave.  f_legendre asks for the same two
    grids at every h, and they depend on the law alone.  Four entries
    hold both grids of the last two laws (~1.5 MB).
    """
    p_max = 1.05 * law.k * math.log(1e-8) / math.log(law.beta)
    ps = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-6), math.log(p_max), n))])
    zs = zeta(law, ps)
    slopes = -np.diff(zs) / np.diff(ps)
    for array in (ps, zs, slopes):
        array.flags.writeable = False
    return ps, zs, slopes


def _grid_argmin(ps, zs, slopes, h: float, d: float) -> int:
    """np.argmin(ps * h - zs + d), read off a 9-node window around the slope crossing.

    The objective's discrete slope h + slopes[j] rises through 0 at the
    first j with slopes[j] >= -h.  A window end above the window minimum
    by more than rounding noise (64 ulp of its largest term) bounds a
    convex bowl, so the first argmin lies inside; otherwise, on a float
    plateau such as the one at h = h_max, the whole grid is scanned.
    The window is evaluated in Python floats, the same IEEE operations
    in the same order as the array expression.
    """
    h, d = float(h), float(d)  # the array expression promotes a float32 h or d to float64
    c = int(np.searchsorted(slopes, -h))
    lo, hi = max(c - 4, 0), min(c + 5, len(ps))
    ph = [p * h for p in ps[lo:hi].tolist()]
    zw = zs[lo:hi].tolist()
    g = [a - z + d for a, z in zip(ph, zw)]
    j = g.index(min(g))
    noise = 64 * math.ulp(max(abs(d), max(map(abs, zw)), max(map(abs, ph))))
    if (lo > 0 and g[0] - g[j] <= noise) or (hi < len(ps) and g[-1] - g[j] <= noise):
        return int(np.argmin(ps * h - zs + d))
    return lo + j


# the node index 0, 1, ..., 512 of a refinement cell, read-only
_RAMP = np.arange(513.0)
_RAMP.flags.writeable = False


def f_legendre(law: ScalingLaw, d: float, h: float) -> float:
    """Numerical inf_p [p*h - zeta_p + d] over p >= 0; oracle for f_closed.

    The best of 10^4 log-spaced orders in [1e-6, p_max], with p_max set
    by the law so that beta**(p_max/k) < 1e-8, is found by a binary
    search on the memoized slopes of zeta and a 9-node window around the
    crossing (the full grid only on a float plateau, as at h = h_max).
    The objective is then evaluated at 513 equally spaced orders on the
    two cells around that node, ends included; it is convex there
    because zeta is concave.  The search is repeated on a grid of 2*10^4
    orders, both refinements share one zeta call, and a shift of the
    inf by more than 1e-6 is an error.  The grids, zeta and the slopes
    on them depend only on the law and are memoized, so a sweep over h
    evaluates zeta on them once per law.
    """
    _check_dimension(d)
    _check_h(law, h)
    ends = []
    for n in (10_000, 20_000):
        ps, zs, slopes = _order_grid(law, n)
        i = _grid_argmin(ps, zs, slopes, h, d)
        # the cell pair around the best node; its ends cover an inf on
        # the p >= 0 or p = p_max boundary
        ends.append((ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]))
    (a0, b0), (a1, b1) = ends
    # np.linspace(a, b, 513) row by row: ramp * ((b - a) / 512) + a, last node b
    p = _RAMP * np.array([[(b0 - a0) / 512], [(b1 - a1) / 512]]) + np.array([[a0], [a1]])
    p[:, -1] = b0, b1
    coarse, fine = map(float, (p * h - zeta(law, p) + d).min(axis=1))
    if abs(coarse - fine) > 1e-6:
        raise ValueError("Legendre grid too coarse: doubling the grid moved the inf by > 1e-6")
    return fine


@dataclass(frozen=True)
class SpectrumCurve:
    law: ScalingLaw
    d: float
    h: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))

    @property
    def has_negative_values(self) -> bool:
        return bool((self.f < 0).any())

    def to_csv(self, path) -> None:
        meta = {
            "gamma": self.law.gamma,
            "big_c": self.law.big_c,
            "beta": self.law.beta,
            "k": self.law.k,
            "d": self.d,
            "negative_f": self.has_negative_values,
        }
        write_csv(path, meta, ("h", "f"), zip(self.h, self.f))


def spectrum_curve(law: ScalingLaw, d: float, n_points: int) -> SpectrumCurve:
    """Tabulate (h, f) across the spectrum interval, endpoints included."""
    _check_integers(n_points=n_points)
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    _check_dimension(d)
    hs = np.linspace(*h_interval(law), n_points)
    for h in (hs.min(), hs.max()):  # the domain check of every point
        _check_h(law, h)
    fs = np.array([_f_at(law, d, h) for h in hs.tolist()])
    return SpectrumCurve(law=law, d=d, h=hs, f=fs)
