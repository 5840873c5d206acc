"""Multifractal spectrum: closed form and a Legendre-transform oracle.

For a scaling law with C > 0 the spectrum is

    f(h) = d - C + C*x*(1 - ln x),   x = k*(h - gamma) / (C*|ln beta|),

on h in [gamma, gamma + (C/k)*|ln beta|], with the x -> 0 endpoint
defined by its limit d - C.  The oracle evaluates
f(h) = inf_{p >= 0} [p*h - zeta_p + d] on a dense grid with local
refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .cascade import write_csv
from .exponents import ScalingLaw, _check_dimension, spectrum_width, zeta

__all__ = ["SpectrumCurve", "f_closed", "f_legendre", "spectrum_curve", "h_interval"]


def h_interval(law: ScalingLaw) -> tuple:
    """The singularity-exponent interval [gamma, gamma + (C/k)|ln beta|]."""
    return law.gamma, law.gamma + spectrum_width(law)


def _x_of(law: ScalingLaw, h: float) -> float:
    h_min, h_max = h_interval(law)
    if law.big_c == 0:
        raise ValueError("spectrum degenerates to a point for C = 0")
    if not (h_min - 1e-12 <= h <= h_max + 1e-12):
        raise ValueError(f"h = {h} outside the spectrum interval [{h_min}, {h_max}]")
    x = law.k * (h - law.gamma) / (law.big_c * abs(math.log(law.beta)))
    return min(max(x, 0.0), 1.0)


def f_closed(law: ScalingLaw, d: float, h: float) -> float:
    """Closed-form spectrum value; the x = 0 endpoint returns the limit d - C."""
    _check_dimension(d)
    x = _x_of(law, h)
    if x == 0.0:
        return d - law.big_c  # removable singularity: x*ln x -> 0
    return d - law.big_c + law.big_c * x * (1.0 - math.log(x))


@functools.lru_cache(maxsize=4)
def _order_grid(law: ScalingLaw, p_max: float, n: int) -> tuple:
    """Orders 0 and n log-spaced in [1e-6, p_max], and zeta at each, as read-only arrays.

    f_legendre asks for the same two grids at every h, and they depend
    on the law alone.  Four entries hold both grids of the last two laws
    (~1 MB at the default grid).
    """
    ps = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-6), math.log(p_max), n))])
    zs = zeta(law, ps)
    ps.flags.writeable = zs.flags.writeable = False
    return ps, zs


def f_legendre(
    law: ScalingLaw, d: float, h: float, p_max: float | None = None, grid: int = 10_000
) -> float:
    """Numerical inf_p [p*h - zeta_p + d] over p >= 0; oracle for f_closed.

    The best of `grid` log-spaced orders is refined by bounded Brent on
    the two cells around it; the search is repeated on a doubled grid and
    a shift of the inf by more than 1e-6 is an error.  The grids and
    zeta on them depend only on (law, p_max, grid) and are memoized, so
    a sweep over h evaluates zeta on them once per law.
    """
    _check_dimension(d)
    _x_of(law, h)  # domain check
    if p_max is None:
        # large enough that beta**(p_max/k) < 1e-8
        p_max = 1.05 * law.k * math.log(1e-8) / math.log(law.beta)
    if law.beta ** (p_max / law.k) >= 1e-8:
        raise ValueError(f"p_max = {p_max} too small for the requested accuracy")

    def objective(p):
        return p * h - zeta(law, p) + d

    def grid_min(n):
        ps, zs = _order_grid(law, float(p_max), n)
        i = int(np.argmin(ps * h - zs + d))  # objective(ps), in the same order of operations
        # bounded Brent on the cell pair around the best node; the ends
        # cover an inf on the p >= 0 or p = p_max boundary
        lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
        res = optimize.minimize_scalar(objective, bounds=(lo, hi), method="bounded")
        return min(res.fun, objective(lo), objective(hi))

    coarse = grid_min(grid)
    fine = grid_min(2 * grid)
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
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    h_min, h_max = h_interval(law)
    hs = np.linspace(h_min, h_max, n_points)
    fs = np.array([f_closed(law, d, h) for h in hs])
    return SpectrumCurve(law=law, d=d, h=hs, f=fs)
