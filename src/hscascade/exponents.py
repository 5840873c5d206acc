"""Pure algebra of cascade scaling exponents.

The central objects are the closed form

    zeta_p = gamma*p + C*(1 - beta**(p/k))

and the incremental exponents delta_p = zeta_{p+k} - zeta_p, which obey
the linear contraction

    delta_{p+k} = (1 - beta)*delta_inf + beta*delta_p.

A delta series is delta_0, delta_k, ..., delta_{Mk}, indexed m = 0..M.

Everything in this module is deterministic, side-effect free, and safe
to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CascadeParams",
    "ScalingLaw",
    "DeltaSeries",
    "zeta",
    "delta",
    "a1_step",
    "recurrence_residual",
    "law_from_deltas",
    "conservation_gamma",
    "spectrum_width",
]


def _check_order(p):
    """p as a float, or as a float array for array input; rejects nan, inf and p < 0."""
    scalar = isinstance(p, (int, float)) or np.ndim(p) == 0  # isinstance: fast path
    p = float(p) if scalar else np.asarray(p, dtype=float)
    # initial=0.0 passes an empty array; a nan order makes both reductions nan
    if not (0.0 <= p < math.inf if scalar else
            p.min(initial=0.0) >= 0.0 and p.max(initial=0.0) < math.inf):
        raise ValueError(f"moment order must be finite and >= 0, got {p}")
    return p


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        # open interval: beta = 0 and beta = 1 break the contraction form
        raise ValueError(f"contraction ratio beta must lie in (0,1), got {beta}")
    return beta


def _check_ratio(r) -> None:
    if not (0.0 < r < 1.0):
        raise ValueError(f"scale ratio r must lie in (0,1), got {r}")


def _check_k(k) -> int:
    """k as an int; refuses a bool, nan, inf, a non-integral value and k < 1."""
    if isinstance(k, bool) or not (k >= 1 and k % 1 == 0):  # inf % 1 and nan % 1 are nan
        raise ValueError(f"hierarchy step k must be a positive integer, got {k}")
    return int(k)


def _check_integers(**values) -> None:
    """Refuse a value that is not a Python or NumPy integer (a bool included), by name."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class CascadeParams:
    """Scale ratio r and hierarchy step k."""

    r: float
    k: int = 1

    def __post_init__(self):
        _check_ratio(self.r)
        object.__setattr__(self, "k", _check_k(self.k))


@dataclass(frozen=True)
class ScalingLaw:
    """The (gamma, C, beta) triple with hierarchy step k.

    gamma is the linear drift, big_c >= 0 the concentration amplitude,
    beta in (0,1) the contraction ratio of the incremental exponents.
    """

    gamma: float
    big_c: float
    beta: float
    k: int = 1

    def __post_init__(self):
        _check_beta(self.beta)
        if not math.isfinite(self.gamma):
            raise ValueError(f"linear drift gamma must be finite, got {self.gamma}")
        if not 0.0 <= self.big_c < math.inf:
            raise ValueError(f"concentration amplitude must be finite and >= 0, got {self.big_c}")
        object.__setattr__(self, "k", _check_k(self.k))

    @property
    def delta_inf(self) -> float:
        """Limit of the incremental exponents: gamma*k."""
        return self.gamma * self.k

    @property
    def delta0(self) -> float:
        """Incremental exponent at order zero: gamma*k + C*(1-beta)."""
        return self.gamma * self.k + self.big_c * (1.0 - self.beta)

    def a_constant(self, r: float) -> float:
        """(delta0 - delta_inf) * ln r, the total mass constant at scale ratio r."""
        _check_ratio(r)
        return (self.delta0 - self.delta_inf) * math.log(r)


@dataclass(frozen=True)
class DeltaSeries:
    """Incremental exponents delta_{m*k}, m = 0..M: entry m of ``delta`` is delta_{m*k}.

    ``stderr`` carries optional per-entry standard errors for fits on
    noisy (Monte Carlo or measured) data.
    """

    k: int
    delta: tuple
    stderr: tuple | None = None

    def __post_init__(self):
        k = _check_k(self.k)
        d = tuple(float(v) for v in self.delta)
        if not all(math.isfinite(v) for v in d):
            raise ValueError("delta entries must be finite")
        se = self.stderr
        if se is not None:
            se = tuple(float(v) for v in se)
            if len(se) != len(d):
                raise ValueError("stderr must match delta length")
            if not all(0.0 <= v < math.inf for v in se):
                raise ValueError(f"stderr entries must be finite and >= 0, got {se}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "stderr", se)

    def __len__(self) -> int:
        return len(self.delta)


def zeta(law: ScalingLaw, p):
    """Scaling exponent zeta_p = gamma*p + C*(1 - beta**(p/k)), scalar or array p."""
    p = _check_order(p)
    return law.gamma * p + law.big_c * (1.0 - law.beta ** (p / law.k))


def delta(law: ScalingLaw, p):
    """Incremental exponent delta_inf + (delta0 - delta_inf)*beta**(p/k), scalar or array p."""
    p = _check_order(p)
    return law.delta_inf + (law.delta0 - law.delta_inf) * law.beta ** (p / law.k)


def a1_step(delta_p: float, beta: float, delta_inf: float) -> float:
    """One application of the contraction: (1-beta)*delta_inf + beta*delta_p."""
    beta = _check_beta(beta)
    return (1.0 - beta) * delta_inf + beta * delta_p


def recurrence_residual(delta, beta: float, delta_inf: float) -> float:
    """sup over m of |delta_{m+1} - (1-beta)*delta_inf - beta*delta_m|, delta = delta_0..delta_M.

    A series of fewer than two entries has residual 0.
    """
    d = np.asarray(delta, dtype=float)
    resid = d[1:] - (1.0 - beta) * delta_inf - beta * d[:-1]
    return float(np.abs(resid).max(initial=0.0))


def law_from_deltas(delta0: float, delta_inf: float, beta: float, k: int) -> ScalingLaw:
    """Recover (gamma, C, beta) from delta0, delta_inf, and the contraction ratio."""
    beta = _check_beta(beta)
    if delta0 < delta_inf:
        raise ValueError(
            "negative concentration: delta0 < delta_inf gives C < 0 "
            f"({delta0} < {delta_inf})"
        )
    gamma = delta_inf / k
    big_c = (delta0 - delta_inf) / (1.0 - beta)
    return ScalingLaw(gamma=gamma, big_c=big_c, beta=beta, k=k)


def conservation_gamma(big_c: float, beta: float, k: int, z0: float = 0.0, k0: float = 1.0) -> float:
    """Drift fixed by a conservation law zeta_{k0} = z0.

    gamma = (z0 - C*(1 - beta**(k0/k))) / k0.  The default (z0=0, k0=1)
    is conservation of mean, E[W] = 1.
    """
    beta = _check_beta(beta)
    if not k0 > 0:
        raise ValueError(f"conservation index k0 must be > 0, got {k0}")
    return (z0 - big_c * (1.0 - beta ** (k0 / k))) / k0


def spectrum_width(law: ScalingLaw) -> float:
    """Width of the multifractal spectrum, (C/k)*|ln beta|."""
    return (law.big_c / law.k) * abs(math.log(law.beta))

