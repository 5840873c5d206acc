"""Log-infinitely-divisible generator algebra.

A generator describes the law of log W for a cascade multiplier W via a
Levy triplet (drift, sigma2, nu) restricted to the compound-Poisson
regime: nu has finite total mass, represented as a finite set of atoms
plus an optional truncated power-law tail.  The uncompensated cumulant
function

    psi(p) = ln E[W^p]
           = drift*p + sigma2*p**2/2 + integral (e**(p*x) - 1) nu(dx)

is used throughout; compensation is absorbed into the drift, which
leaves all increments psi(p+k) - psi(p) unchanged.

All moment arithmetic stays in log space; non-finite intermediates
raise instead of saturating.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .exponents import DeltaSeries, ScalingLaw, _check_order

__all__ = [
    "LogPoissonParams",
    "StableTail",
    "LevyGenerator",
    "logpoisson_from_scaling",
    "ln_moment",
    "delta_series_analytic",
    "sample_logW",
    "normalize_mean_one",
    "carleman_terms",
    "carleman_partial_sum",
    "determinacy_verdict",
    "generator_to_dict",
    "generator_from_dict",
    "generator_to_json",
    "generator_from_json",
]


@dataclass(frozen=True)
class LogPoissonParams:
    """log W = a + b*N with N ~ Poisson(lam); contracting case b < 0."""

    a: float
    b: float
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"drift a must be finite, got {self.a}")
        if not -math.inf < self.b < 0:
            raise ValueError(f"jump size b must be finite and < 0, got {self.b}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"Poisson rate must be finite and > 0, got {self.lam}")


@dataclass(frozen=True)
class StableTail:
    """Truncated power-law jump measure c*|x|**(-1-alpha) dx on [-x_max, -x_min]."""

    alpha: float
    c: float
    x_min: float
    x_max: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"stable index alpha must lie in (0,2), got {self.alpha}")
        if not 0 < self.c < math.inf:
            raise ValueError(f"tail amplitude c must be finite and > 0, got {self.c}")
        if not (0.0 < self.x_min < self.x_max < math.inf):
            raise ValueError("tail truncation must satisfy 0 < x_min < x_max < inf")
        try:
            finite = math.isfinite(self.mass)
        except OverflowError:  # x_min ** -alpha beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"tail mass is not finite: x_min = {self.x_min} is too small "
                             f"for alpha = {self.alpha} and c = {self.c}")

    @property
    def mass(self) -> float:
        """Total jump rate of the truncated tail."""
        return self.c * (self.x_min ** -self.alpha - self.x_max ** -self.alpha) / self.alpha


@dataclass(frozen=True)
class LevyGenerator:
    """Compound-Poisson Levy triplet for log W.

    atoms is a tuple of (jump location x != 0, rate w > 0) pairs; tail,
    when present, adds a truncated power-law jump measure on the
    negative axis.
    """

    drift: float = 0.0
    sigma2: float = 0.0
    atoms: tuple = ()
    tail: StableTail | None = None

    def __post_init__(self):
        if not math.isfinite(self.drift):
            raise ValueError(f"drift must be finite, got {self.drift}")
        # + 0.0 turns a -0.0 drift into 0.0, so adding a 0.0 jump sum keeps every sample's bytes
        object.__setattr__(self, "drift", float(self.drift) + 0.0)
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError(f"Gaussian variance must be finite and >= 0, got {self.sigma2}")
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        for x, w in atoms:
            if x == 0.0:
                raise ValueError("jump atoms at x = 0 are not allowed")
            if not math.isfinite(x):
                raise ValueError(f"jump locations must be finite, got {x}")
            if not 0 < w < math.inf:
                raise ValueError(f"jump rates must be finite and > 0, got {w}")
        object.__setattr__(self, "atoms", atoms)


def as_levy(gen) -> LevyGenerator:
    """View any supported generator as a LevyGenerator."""
    if isinstance(gen, LevyGenerator):
        return gen
    if isinstance(gen, LogPoissonParams):
        return LevyGenerator(drift=gen.a, atoms=((gen.b, gen.lam),))
    raise TypeError(f"unsupported generator type {type(gen).__name__}")


def logpoisson_from_scaling(law: ScalingLaw, r: float) -> LogPoissonParams:
    """The unique log-Poisson parameters matching a scaling law at ratio r.

    a = gamma*ln r, b = ln(beta)/k, lam = -C*ln r.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"scale ratio r must lie in (0,1), got {r}")
    if not law.big_c > 0:
        raise ValueError(
            "monofractal: C = 0 makes the multiplier deterministic; "
            "no nontrivial log-Poisson parameters exist"
        )
    ln_r = math.log(r)
    return LogPoissonParams(
        a=law.gamma * ln_r,
        b=math.log(law.beta) / law.k,
        lam=-law.big_c * ln_r,
    )


# composite Gauss-Legendre rule in t = ln|x| for StableTail: 16 equal panels x 16 nodes
_GL_PANELS = 16
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)


def _tail_rule(tail: StableTail) -> tuple:
    """Nodes y = |x| and weights w with sum f(y)*w ~ integral f(y) c*y**(-1-alpha) dy."""
    # s = t - ln x_min keeps narrow tails free of cancellation in the panel widths
    span = math.log(tail.x_max / tail.x_min)
    edges = np.linspace(0.0, span, _GL_PANELS + 1)
    half = 0.5 * span / _GL_PANELS
    s = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _GL_T
    # dy = y dt turns the density c*y**(-1-alpha) dy into c*e**(-alpha*t) dt
    w = tail.c * tail.x_min**-tail.alpha * half * _GL_W * np.exp(-tail.alpha * s)
    return tail.x_min * np.exp(s).ravel(), w.ravel()


def ln_moment(gen, p):
    """Cumulant function psi(p) = ln E[W^p] at a scalar or an array of orders.

    Returns a float for a scalar p and an array of p's shape otherwise;
    psi(0) = 0.  Atoms enter as one broadcast w*expm1(p*x) and a
    StableTail through a fixed composite Gauss-Legendre rule in t = ln|x|
    (16 panels x 16 nodes), accurate to ~1e-15 relative against 30-digit
    quadrature for x_max/x_min up to 1e6 and p up to 400.  Each order is
    summed on its own row, so psi(p) does not depend on the other orders
    of the call.
    """
    p = _check_order(p)
    ps = np.ravel(p)
    g = as_levy(gen)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
        total = g.drift * ps + 0.5 * g.sigma2 * ps * ps
        if g.atoms:
            x, w = np.array(g.atoms).T
            total += (np.expm1(np.multiply.outer(ps, x)) * w).sum(axis=-1)
        if g.tail is not None:
            y, w = _tail_rule(g.tail)
            total += (np.expm1(-np.multiply.outer(ps, y)) * w).sum(axis=-1)
    if not np.isfinite(total).all():
        raise OverflowError(f"ln E[W^p] is not finite at p = {ps[~np.isfinite(total)][0]}")
    return total.reshape(np.shape(p)) if np.ndim(p) else float(total[0])


def _analytic_deltas(gen, r: float, k: int, m_max: int) -> np.ndarray:
    """The deltas of delta_series_analytic as an array; a non-finite one raises as in DeltaSeries."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"scale ratio r must lie in (0,1), got {r}")
    if k < 1:
        raise ValueError(f"hierarchy step k must be >= 1, got {k}")
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    deltas = np.diff(ln_moment(gen, k * np.arange(m_max + 2))) / math.log(r)
    if not np.isfinite(deltas).all():
        raise ValueError("delta entries must be finite")
    return deltas


def delta_series_analytic(gen, r: float, k: int, m_max: int) -> DeltaSeries:
    """Incremental exponents delta_{m*k} = (psi(mk+k) - psi(mk)) / ln r, m = 0..m_max."""
    deltas = _analytic_deltas(gen, r, k, m_max)
    return DeltaSeries(k=k, m=tuple(range(m_max + 1)), delta=tuple(deltas))


def sample_logW(gen, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. samples of log W, deterministic given (gen, count, seed).

    Uses a counter-based (Philox) stream keyed by the seed.  The jump
    part draws one Poisson count per sample from the total jump rate,
    so two generators with equal total rate sampled with the same seed
    share their jump counts (useful for common-random-number
    comparisons).  Every jump is then sized from one jump table, the
    atom locations followed by a NaN slot for a StableTail, at an index
    drawn from the categorical law of the cumulative rates by an exact
    bucketed search; the tail's slots are filled by an inverse-CDF draw
    whose uniforms follow every jump uniform in the stream.  A table of
    the tail alone draws no index, since every one would be its slot.  A
    table of one atom and no tail draws nothing after the counts: a
    sample with j jumps gets the j-th prefix sum x + x + ... + x, the
    same left-to-right sum as the general path, so the output is
    bit-identical and the counts keep their common random numbers.  The
    drift (and any Gaussian part) is added to the jump sum last, which
    gives the same bytes as adding the jumps to it.  This is the one-row
    case of _sample_rows.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return next(_sample_rows(gen, 1, count, seed))


def _ahead(rng, n: int):
    """A second Generator on rng's Philox stream that starts n doubles later.

    Philox is counter-based: each counter step makes four 64-bit outputs
    and every double takes one.  The copy uses up its buffered outputs,
    skips whole steps with advance() (which drops the buffer, so it runs
    only once the buffer is empty) and draws the remainder.
    """
    bits = copy.deepcopy(rng.bit_generator)
    cursor = np.random.Generator(bits)
    ahead = min(n, 4 - bits.state["buffer_pos"])
    cursor.random(ahead)
    if n - ahead >= 4:
        bits.advance((n - ahead) // 4)
    cursor.random((n - ahead) % 4)
    return cursor


def _bucketed_pick(edges: np.ndarray):
    """An exact guide-table search: pick(u) == np.searchsorted(edges, u, side="right").

    The indexed search of Chen & Asau (AIIE Trans. 6, 1974) for sorted
    edges and uniforms u in [0, 1).  M = 2**min(20, 6 + bit_length(slots))
    buckets of width 1/M, with M a power of two, so u*M and its floor b
    are exact and the answer lies in [guide[b], guide[b + 1]]
    (guide[b] = searchsorted(edges, b/M, "right")).  Where those two are
    equal guide[b] is the answer; a crowded bucket, where an edge falls,
    holds -1 instead, and only its uniforms (at most one bucket per edge,
    so at most ~1/64 of them) fall back to searchsorted.  pick(u)
    overwrites u and returns the indices in the array that held the
    floors b: 17 B per uniform counting u (u, b and a bool mask).
    """
    m = 1 << min(20, 6 + len(edges).bit_length())
    scaled = edges * m  # exact, so searching u*m in it is searching u in edges
    guide = np.searchsorted(scaled, np.arange(m + 1), side="right")
    guide = np.where(guide[1:] == guide[:-1], guide[:-1], -1)

    def pick(u):
        u *= m
        b = u.astype(np.intp)  # floor: u*m lies in [0, m)
        # take reads index i before it writes element i, so b can be its own output;
        # "clip" never clips here and, unlike "raise", writes out unbuffered
        np.take(guide, b, out=b, mode="clip")
        slow = np.flatnonzero(b < 0)
        b[slow] = np.searchsorted(scaled, u[slow], side="right")
        return b

    return pick


def _poisson_counts(rng, rate: float, rows: int, cols: int) -> np.ndarray:
    """rng.poisson(rate, size=(rows, cols)) in the smallest unsigned dtype that holds it.

    Drawn row by row (consecutive calls give the values of one call)
    into uint8, widened with astype when a row's largest count needs it.
    """
    counts = np.empty((rows, cols), np.uint8)
    for i in range(rows):
        row = rng.poisson(rate, size=cols)
        top = row.max(initial=0)
        if top > np.iinfo(counts.dtype).max:
            counts = counts.astype(np.min_scalar_type(top))
        counts[i] = row
    return counts


def _sample_rows(gen, rows: int, cols: int, seed: int):
    """Yield `rows` arrays of `cols` draws of log W, one after the other.

    Concatenated, the rows are sample_logW(gen, rows * cols, seed) byte
    for byte: the stream is the same, only its output is cut into rows.
    A Gaussian part is drawn for all rows first, because its draws
    precede every Poisson count in the stream.  With one atom and no
    tail each row then draws its own counts (consecutive calls on one
    Generator give the values of one large call).  Any other table draws
    the counts of all rows, which fix the total jump count t, then reads
    each row's jump uniforms from the main stream and its tail uniforms
    from a second cursor placed t draws ahead (see _ahead).  A jump
    uniform picks its slot by the exact bucketed search of
    _bucketed_pick.  A table of the tail alone draws no jump uniforms:
    every pick would be its one slot, and nothing reads the main stream
    after the counts, so its sizes are the tail uniforms alone.  Every
    row sums its jumps, 0.0 where a sample has none, then adds the drift
    (and the Gaussian part) last; IEEE addition is commutative, and
    LevyGenerator stores its drift without a negative zero, so each
    sample's bytes are those of drift + gauss + jumps.  Memory is 8 B
    per draw for a Gaussian part and, on the general path, 1 B per draw
    for the counts (2 or 4 B once a row's largest count needs it), plus
    O(cols + jumps in one row).
    """
    g = as_levy(gen)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    gauss = rng.normal(0.0, math.sqrt(g.sigma2), size=rows * cols) if g.sigma2 > 0 else None
    table = [x for x, _ in g.atoms]
    rates = [w for _, w in g.atoms]
    tail = g.tail
    if tail is not None:
        table.append(math.nan)  # atoms are finite, so NaN marks only the tail slot
        rates.append(tail.mass)
    cum = np.cumsum(rates)
    rate = cum[-1] if rates else 0.0  # the total jump rate

    if len(table) == 1 and tail is None:
        def jumps(i):  # the j-th prefix sum x + ... + x for a sample with j jumps
            nj = rng.poisson(rate, size=cols)
            return np.concatenate(([0.0], np.cumsum(np.full(nj.max(), table[0]))))[nj]
    else:
        n_jumps = _poisson_counts(rng, rate, rows, cols)
        t = int(n_jumps.sum())
        if tail is not None:
            tail_rng = _ahead(rng, t)  # the tail's uniforms follow all t jump uniforms
            lo, hi, a = tail.x_min ** -tail.alpha, tail.x_max ** -tail.alpha, tail.alpha

            def tail_sizes(n):
                # inverse-CDF draw from c*y**(-1-alpha) on [x_min, x_max], y = |x|:
                # -((lo - v*(lo - hi)) ** (-1/a)), one step at a time in v
                v = tail_rng.random(n)
                v *= lo - hi
                np.subtract(lo, v, out=v)
                v **= -1.0 / a
                return np.negative(v, out=v)
        tail_only = tail is not None and not g.atoms
        if not tail_only:
            # dividing by the table's own last entry makes the last edge exactly 1.0
            pick = _bucketed_pick(cum / rate)
        owner = np.arange(cols)

        def jumps(i):  # the summed jumps of row i; its arrays are freed before it is yielded
            nj = n_jumps[i]
            if tail_only:
                sizes = tail_sizes(int(nj.sum()))
            else:
                sizes = np.take(table, pick(rng.random(int(nj.sum()))))
                if tail is not None:
                    sel = np.isnan(sizes)
                    sizes[sel] = tail_sizes(int(sel.sum()))
                    del sel  # before repeat() allocates
            # each sample's jumps are contiguous and in order, so it sums them as one call would;
            # with no jump in the row bincount returns int64 zeros
            return np.bincount(np.repeat(owner, nj), weights=sizes,
                               minlength=cols).astype(float, copy=False)

    for i in range(rows):
        out = jumps(i)
        if gauss is None:
            out += g.drift
        else:
            gs = gauss[i * cols:(i + 1) * cols]
            gs += g.drift
            out += gs
        yield out


def normalize_mean_one(gen):
    """Shift the drift so that E[W] = 1 (psi(1) = 0); idempotent."""
    shift = ln_moment(gen, 1.0)
    if isinstance(gen, LogPoissonParams):
        return replace(gen, a=gen.a - shift)
    g = as_levy(gen)
    return replace(g, drift=g.drift - shift)


def carleman_terms(gen, P: int) -> np.ndarray:
    """Terms (E[W^{2p}])**(-1/(2p)) for p = 1..P."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    p2 = 2.0 * np.arange(1, P + 1)
    with np.errstate(over="ignore"):  # reported as OverflowError below
        terms = np.exp(-ln_moment(gen, p2) / p2)
        partial_sum = terms.sum()
    if not np.isfinite(partial_sum):
        raise OverflowError("Carleman terms overflow: E[W^{2p}] is below the float range")
    return terms


def carleman_partial_sum(gen, P: int) -> float:
    """Partial Carleman sum sum_{p=1}^P (E[W^{2p}])**(-1/(2p))."""
    return float(carleman_terms(gen, P).sum())


def determinacy_verdict(gen, P: int = 200, threshold: float = 1e-6) -> str:
    """Moment-determinacy dichotomy from the Carleman terms.

    'determinate-divergent' when the tail terms stay bounded away from
    zero (the sum diverges, so the moments pin down the law);
    'indeterminate-convergent' when the tail terms decay geometrically
    (the sum converges); 'inconclusive' otherwise.
    """
    if P < 10:
        raise ValueError(f"P must be >= 10, got {P}")
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    terms = carleman_terms(gen, P)
    tail = terms[P // 2 :]
    if tail.min() >= threshold:
        return "determinate-divergent"
    pos = tail[tail > 0]
    if len(pos) >= 5:
        y = np.log(pos)
        x = np.arange(len(pos), dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
        if math.exp(slope) < 1.0 and r2 > 0.999:
            return "indeterminate-convergent"
    return "inconclusive"


# --- JSON wire format --------------------------------------------------

def generator_to_dict(gen) -> dict:
    """Serialize a generator to its JSON document (lossless round trip)."""
    if isinstance(gen, LogPoissonParams):
        return {"kind": "log-poisson", "a": gen.a, "b": gen.b, "lambda": gen.lam}
    g = as_levy(gen)
    if g.tail is not None:
        doc = {
            "kind": "log-stable",
            "drift": g.drift,
            "alpha": g.tail.alpha,
            "c": g.tail.c,
            "x_min": g.tail.x_min,
            "x_max": g.tail.x_max,
        }
        if g.sigma2 > 0:
            doc["sigma2"] = g.sigma2
        if g.atoms:
            doc["atoms"] = [[x, w] for x, w in g.atoms]
        return doc
    if g.sigma2 > 0 and not g.atoms:
        return {"kind": "log-normal", "drift": g.drift, "sigma2": g.sigma2}
    return {
        "kind": "atomic",
        "drift": g.drift,
        "sigma2": g.sigma2,
        "atoms": [[x, w] for x, w in g.atoms],
    }


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is too large: {value!r}") from None


def generator_from_dict(doc: dict):
    """Rebuild a generator from its JSON document.

    A malformed document (not an object, unknown kind, missing or
    non-numeric field, atom that is not an [x, w] pair) raises a
    ValueError that names the problem.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"generator document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in ("log-poisson", "log-normal", "log-stable", "atomic"):
        raise ValueError(f"unknown generator kind {kind!r}")

    def number(key, default=None):
        if key not in doc and default is None:
            raise ValueError(f"{kind} generator document is missing field {key!r}")
        return _number(doc.get(key, default), f"field {key!r}")

    def atoms():
        pairs = doc.get("atoms", [])
        if not isinstance(pairs, list):
            raise ValueError(f"field 'atoms' must be a list of [x, w] pairs, got {pairs!r}")
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"atom {i} must be an [x, w] pair, got {pair!r}")
        return tuple((_number(x, f"atom {i} x"), _number(w, f"atom {i} w"))
                     for i, (x, w) in enumerate(pairs))

    if kind == "log-poisson":
        return LogPoissonParams(a=number("a"), b=number("b"), lam=number("lambda"))
    if kind == "log-normal":
        return LevyGenerator(drift=number("drift"), sigma2=number("sigma2"))
    tail = None
    if kind == "log-stable":
        tail = StableTail(*(number(key) for key in ("alpha", "c", "x_min", "x_max")))
    return LevyGenerator(drift=number("drift"), sigma2=number("sigma2", 0.0), atoms=atoms(),
                         tail=tail)


def generator_to_json(gen) -> str:
    return json.dumps(generator_to_dict(gen))


def generator_from_json(text: str):
    return generator_from_dict(json.loads(text))
