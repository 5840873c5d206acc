"""Moment and transport machinery on the unit interval.

The substitution u = e**(k*x) maps the negative-jump measure of a
generator to a finite measure on (0,1).  With rho = (u-1)*nu_tilde and
eta = (1-u)*nu_tilde, the hierarchical symmetry becomes a geometric
moment sequence of rho, and its approximate version yields a
sqrt(epsilon) Wasserstein-1 bound on eta/||eta|| against a point mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exponents import _check_beta, _check_k, _check_ratio, recurrence_residual
from .generators import (
    LevyGenerator,
    LogPoissonParams,
    _analytic_deltas,
    as_levy,
    sample_logW,
)

__all__ = [
    "UnitMeasure",
    "StabilityReport",
    "pushforward_to_unit",
    "rho_eta",
    "moment_sequence",
    "moment_residual",
    "second_moment_test",
    "w1_unit",
    "stability_constant",
    "verify_stability",
    "empirical_w1_multipliers",
    "split_perturbation",
    "leak_perturbation",
    "smear_perturbation",
    "split_width_for_epsilon",
]

_TAIL_NODES = 512
_M_MAX = 40  # epsilon is the sup of the recurrence residual over m = 0.._M_MAX
_SMEAR_ATOMS = 33  # atoms of smear_perturbation's uniform smear


@dataclass(frozen=True)
class UnitMeasure:
    """Finite atomic measure on [0,1]; weights may be signed."""

    u: np.ndarray
    w: np.ndarray
    kind: str = "positive"

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if u.shape != w.shape or u.ndim != 1:
            raise ValueError("u and w must be 1-d arrays of equal length")
        if not np.all((u >= 0.0) & (u <= 1.0)):  # a nan location fails both comparisons
            raise ValueError("atom locations must lie in [0,1]")
        if not np.isfinite(w).all():
            raise ValueError("atom weights must be finite")
        if np.any(w == 0.0):
            raise ValueError("atom weights must be nonzero")
        if self.kind not in ("positive", "signed"):
            raise ValueError(f"kind must be 'positive' or 'signed', got {self.kind!r}")
        if self.kind == "positive" and np.any(w <= 0.0):
            raise ValueError("positive measure has non-positive weights")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    @property
    def mass(self) -> float:
        return float(self.w.sum())

    def normalized(self) -> "UnitMeasure":
        if self.kind != "positive":
            raise ValueError("only positive measures can be normalized")
        return UnitMeasure(u=self.u, w=self.w / self.mass, kind="positive")


def point_mass(u: float, w: float = 1.0) -> UnitMeasure:
    return UnitMeasure(u=np.array([u]), w=np.array([w]), kind="positive" if w > 0 else "signed")


@dataclass(frozen=True)
class StabilityReport:
    epsilon: float
    big_k: float
    w1_levy: float
    bound_ok: bool
    w1_multiplier: float | None = None
    eta_mass_gap: float = 0.0  # ||eta|| - |A|, recorded rather than bounded
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def pushforward_to_unit(gen, k: int) -> UnitMeasure:
    """Jump measure mapped through x -> e**(k*x) onto (0,1).

    Requires a purely negative-jump generator with no Gaussian part.
    Parametric tails are discretized on a geometric grid with exact
    per-cell masses placed at the log-midpoint.
    """
    k = _check_k(k)
    g = as_levy(gen)
    if g.sigma2 > 0:
        raise ValueError("outside the negative-jump regime: generator has sigma2 > 0")
    if any(x > 0 for x, _ in g.atoms):
        raise ValueError("outside the negative-jump regime: generator has positive jumps")
    us = [math.exp(k * x) for x, _ in g.atoms]
    ws = [w for _, w in g.atoms]
    if g.tail is not None:
        t = g.tail
        edges = np.exp(np.linspace(math.log(t.x_min), math.log(t.x_max), _TAIL_NODES + 1))
        lo, hi = edges[:-1], edges[1:]
        cell_mass = t.c * (lo**-t.alpha - hi**-t.alpha) / t.alpha
        nodes = -np.sqrt(lo * hi)
        us.extend(np.exp(k * nodes).tolist())
        ws.extend(cell_mass.tolist())
    return UnitMeasure(u=np.asarray(us), w=np.asarray(ws), kind="positive")


def rho_eta(nu_tilde: UnitMeasure):
    """(rho, eta, A) with rho = (u-1)*nu_tilde, eta = -rho, A = rho's mass."""
    if nu_tilde.kind != "positive":
        raise ValueError("nu_tilde must be a positive measure")
    if np.any(nu_tilde.u == 1.0):
        raise ValueError("nu_tilde must have no atom at u = 1")
    rho_w = (nu_tilde.u - 1.0) * nu_tilde.w
    rho = UnitMeasure(u=nu_tilde.u, w=rho_w, kind="signed")
    eta = UnitMeasure(u=nu_tilde.u, w=-rho_w, kind="positive")
    return rho, eta, float(rho_w.sum())


def moment_sequence(mu: UnitMeasure, m_max: int) -> np.ndarray:
    """Moments sum_i w_i * u_i**m for m = 0..m_max (exact atomic sums)."""
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    powers = mu.u[None, :] ** np.arange(m_max + 1)[:, None]
    return powers @ mu.w


def moment_residual(rho: UnitMeasure, A: float, beta: float, m_max: int) -> float:
    """sup_m |moment_m(rho) - A*beta**m| over m = 0..m_max."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    moments = moment_sequence(rho, m_max)
    target = A * beta ** np.arange(m_max + 1, dtype=float)
    return float(np.abs(moments - target).max())


def second_moment_test(eta: UnitMeasure, beta: float) -> float:
    """Concentration functional sum_i w_i * (u_i - beta)**2."""
    if eta.kind != "positive":
        raise ValueError("second moment test requires a positive measure")
    return float(eta.w @ (eta.u - beta) ** 2)


def w1_unit(mu: UnitMeasure, nu: UnitMeasure) -> float:
    """Exact Wasserstein-1 between unit-mass atomic measures on [0,1].

    Computed as the integral of the absolute CDF difference.
    """
    for m in (mu, nu):
        if m.kind != "positive":
            raise ValueError("Wasserstein-1 requires positive measures")
        if abs(m.mass - 1.0) > 1e-9:
            raise ValueError(f"measure mass {m.mass} differs from 1 by more than 1e-9")
    pts = np.concatenate([mu.u, nu.u])
    vals = np.concatenate([mu.w, -nu.w])
    order = np.argsort(pts, kind="stable")
    pts, vals = pts[order], vals[order]
    cdf_diff = np.cumsum(vals)[:-1]
    gaps = np.diff(pts)
    return float(np.abs(cdf_diff) @ gaps)


def stability_constant(beta: float, r: float, A: float) -> float:
    """K = sqrt((1+beta)**2 * |ln r| / |A|)."""
    if A == 0:
        raise ValueError("monofractal: A = 0 makes the stability bound vacuous")
    _check_ratio(r)
    _check_beta(beta)
    return math.sqrt((1.0 + beta) ** 2 * abs(math.log(r)) / abs(A))


def _reference(ref: LogPoissonParams, k: int) -> tuple:
    """(beta, A) = (e**(b*k), lam*(beta - 1)): the jump location on (0,1) of a log-Poisson
    reference at step k, and its mass constant."""
    beta = math.exp(ref.b * _check_k(k))
    return beta, ref.lam * (beta - 1.0)


def a1_residual_vs_reference(gen, ref: LogPoissonParams, r: float, k: int, m_max: int) -> float:
    """sup-norm recurrence residual of gen's analytic deltas against the
    reference (beta, delta_inf) = (e**(b*k), a*k/ln r).

    The residual of delta_series_analytic(gen, r, k, m_max + 1), computed
    from its delta array: split_width_for_epsilon calls this at every
    iterate, and no DeltaSeries is built for it.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    beta, _ = _reference(ref, k)
    delta_inf = ref.a * k / math.log(r)
    deltas = _analytic_deltas(gen, r, k, m_max + 1)
    return recurrence_residual(deltas, beta, delta_inf)


def verify_stability(
    gen_perturbed,
    gen_ref: LogPoissonParams,
    r: float,
    k: int,
    n_samples: int | None = None,
    seed: int = 0,
) -> StabilityReport:
    """Check the K*sqrt(epsilon) Wasserstein bound for a perturbed generator.

    epsilon is the sup-norm recurrence residual of the perturbed
    analytic delta series against the reference parameters, over the
    orders m = 0.._M_MAX (40, reported as metadata["m_max"]); w1_levy is
    the exact transport distance between the normalized eta measure and
    the point mass at beta.  When n_samples is given, the sampled
    multiplier-level distance is attached as well.
    """
    beta, A = _reference(gen_ref, k)
    eps = a1_residual_vs_reference(gen_perturbed, gen_ref, r, k, _M_MAX)
    nu_tilde = pushforward_to_unit(gen_perturbed, k)
    _, eta, _ = rho_eta(nu_tilde)
    w1 = w1_unit(eta.normalized(), point_mass(beta))
    big_k = stability_constant(beta, r, A)
    bound_ok = w1 <= big_k * math.sqrt(eps) + 1e-12
    w1_mult = None
    if n_samples is not None:
        w1_mult = empirical_w1_multipliers(gen_perturbed, gen_ref, n_samples, seed)
    return StabilityReport(
        epsilon=eps,
        big_k=big_k,
        w1_levy=w1,
        bound_ok=bound_ok,
        w1_multiplier=w1_mult,
        eta_mass_gap=eta.mass - abs(A),
        metadata={"r": r, "k": k, "beta": beta, "A": A, "m_max": _M_MAX},
    )


def empirical_w1_multipliers(gen_a, gen_b, n_samples: int, seed: int) -> float:
    """Order-statistics estimate of W1 between the two multiplier laws.

    Raises OverflowError when a sampled W = exp(log W) is not finite.
    """
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")

    def sorted_multipliers(gen):  # W = exp(log W), sorted in the sampled array
        w = sample_logW(gen, n_samples, seed)
        with np.errstate(over="ignore"):  # reported below
            np.exp(w, out=w)
        w.sort()
        if not np.isfinite(w[-1]):  # sorted, so an inf or a NaN is last
            raise OverflowError("a sampled multiplier W = exp(log W) is not finite: "
                                "log W is too large")
        return w

    wa = sorted_multipliers(gen_a)
    wb = sorted_multipliers(gen_b)
    wa -= wb
    return float(np.abs(wa, out=wa).mean())


# --- perturbation presets ----------------------------------------------

def split_perturbation(ref: LogPoissonParams, k: int, s: float) -> LevyGenerator:
    """Split the single jump atom symmetrically to u = beta -/+ s.

    Masses are equal (lam/2 each), which keeps the total jump rate and
    the mass constant A matched to the reference.
    """
    beta, _ = _reference(ref, k)
    if not (0.0 < s < min(beta, 1.0 - beta)):
        raise ValueError(f"split width s must lie in (0, {min(beta, 1.0 - beta)}), got {s}")
    atoms = (
        (math.log(beta - s) / k, ref.lam / 2.0),
        (math.log(beta + s) / k, ref.lam / 2.0),
    )
    return LevyGenerator(drift=ref.a, atoms=atoms)


def leak_perturbation(ref: LogPoissonParams, k: int, u2: float, theta: float) -> LevyGenerator:
    """Leak a mass fraction theta to a second location u2, A matched."""
    beta, A = _reference(ref, k)
    if not (0.0 < u2 < 1.0) or u2 == beta:
        raise ValueError("u2 must lie in (0,1) and differ from beta")
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    total = A / ((beta - 1.0) * (1.0 - theta) + (u2 - 1.0) * theta)
    atoms = (
        (math.log(beta) / k, total * (1.0 - theta)),
        (math.log(u2) / k, total * theta),
    )
    return LevyGenerator(drift=ref.a, atoms=atoms)


def smear_perturbation(ref: LogPoissonParams, k: int, width: float) -> LevyGenerator:
    """Replace the jump atom by _SMEAR_ATOMS atoms spread evenly over `width`, A matched."""
    beta, A = _reference(ref, k)
    half = width / 2.0
    if not (0.0 < half < min(beta, 1.0 - beta)):
        raise ValueError(f"smear width {width} leaves the unit interval around beta")
    us = np.linspace(beta - half, beta + half, _SMEAR_ATOMS)
    weights = np.full(_SMEAR_ATOMS, A / (us - 1.0).sum())
    atoms = tuple((math.log(u) / k, w) for u, w in zip(us, weights))
    return LevyGenerator(drift=ref.a, atoms=atoms)


def split_width_for_epsilon(ref: LogPoissonParams, r: float, k: int, eps_target: float) -> float:
    """Invert s -> epsilon(s) for the symmetric-split family.

    epsilon is verify_stability's: the recurrence residual over the
    orders m = 0.._M_MAX.  Brent's root finder (brentq) runs on
    ln epsilon(s) - ln eps_target in ln s over
    [1e-12, 0.999*min(beta, 1-beta)], where epsilon is close to a power
    of s; a target outside the epsilon range of that bracket is
    unreachable.
    """
    if not 0.0 < eps_target < math.inf:  # also rejects a nan target
        raise ValueError(f"epsilon target {eps_target} unreachable for this family")
    beta, _ = _reference(ref, k)
    ln_target = math.log(eps_target)

    def excess(ln_s):
        pert = split_perturbation(ref, k, math.exp(ln_s))
        eps = a1_residual_vs_reference(pert, ref, r, k, _M_MAX)
        return math.log(max(eps, 1e-300)) - ln_target  # a residual can round to 0 at tiny s

    lo, hi = math.log(1e-12), math.log(min(beta, 1.0 - beta) * 0.999)
    if not excess(lo) <= 0.0 <= excess(hi):
        raise ValueError(f"epsilon target {eps_target} unreachable for this family")
    from scipy import optimize  # here, so that importing hscascade loads no SciPy

    return math.exp(optimize.brentq(excess, lo, hi, xtol=1e-12))
