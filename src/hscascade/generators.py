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

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .exponents import DeltaSeries, ScalingLaw, _check_integers, _check_k, _check_order, _check_ratio

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
    _check_ratio(r)
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
    _check_ratio(r)
    k = _check_k(k)
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    psi = ln_moment(gen, k * np.arange(m_max + 2))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as ValueError below
        deltas = np.diff(psi) / math.log(r)
    if not np.isfinite(deltas).all():
        raise ValueError("delta entries must be finite")
    return deltas


def delta_series_analytic(gen, r: float, k: int, m_max: int) -> DeltaSeries:
    """Incremental exponents delta_{m*k} = (psi(mk+k) - psi(mk)) / ln r, m = 0..m_max."""
    deltas = _analytic_deltas(gen, r, k, m_max)
    return DeltaSeries(k=k, m=tuple(range(m_max + 1)), delta=tuple(deltas))


def sample_logW(gen, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. samples of log W, deterministic given (gen, count, seed).

    Four counter-based streams come from one Philox key, the seed: the
    key's own stream draws the Poisson counts, and the streams 1, 2 and 3
    jumps (2**128 draws each) ahead of it draw the jump uniforms, the
    tail uniforms and the normals of a Gaussian part.  Each component
    reads only its own stream, so the counts depend only on the seed and
    the total jump rate: two generators with equal total rate sampled
    with the same seed share their jump counts (useful for
    common-random-number comparisons).  Count i is raw output i of the
    key's own stream, read as the uniform u = (raw >> 11) * 2**-53 that
    Generator.random makes of it, and inverted on a table of P(N <= k)
    over the window k = rate -/+ (12 sqrt(rate) + 40), clipped at 0, with
    the last entry set to 1.0: scipy.special.pdtr's from a total rate of
    2 up, and below it, which holds the canonical law's 2 ln 2, exact
    sums of the pmf recurrence, which load no SciPy (_count_table).  So
    any range of counts can be drawn on its own, from its position
    (_count_stream).  A zero rate reads no output.  u is a multiple of
    2**-53, so the table resolves each count's probability to 2**-53,
    and the mass outside the window, far below 2**-53, falls to its end
    counts.  A rate whose window reaches past 2**24 raises ValueError
    before anything is drawn.  Every jump is sized from one jump table,
    the atom locations followed by a NaN slot for a StableTail, at an
    index drawn from the categorical law of the cumulative rates by an
    exact bucketed search on the raw outputs of its stream, read as
    uniforms as the counts are; the tail's slots are filled by an
    inverse-CDF draw, and each sample sums its jumps left to right from
    0.0.  A table of the tail alone draws no index, and a table of at
    most one atom x and no tail draws nothing after the counts: a sample
    with N jumps gets the jump sum N * x, one correctly rounded product
    (0.0 with no atom).  The drift, or a normal drawn
    about it, is added to the jump sum last.  This is the one-row case of
    _sample_rows, so memory is the output plus O(one block).
    """
    _check_integers(count=count, seed=seed)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return next(_sample_rows(gen, 1, count, seed))


def _bucketed_pick(edges: np.ndarray):
    """An exact guide-table search on raw Philox outputs:
    pick(raw) == np.searchsorted(edges, u, side="right") with u = (raw >> 11) * 2**-53.

    u is the uniform Generator.random makes of each raw 64-bit output.  The indexed
    search of Chen & Asau (AIIE Trans. 6, 1974) for sorted edges: m = 2**k buckets of
    width 1/m, k = min(20, 6 + bit_length(slots)), so u's bucket floor(u*m) is exactly
    raw >> (64 - k), and the answer lies in [guide[b], guide[b + 1]]
    (guide[b] = searchsorted(edges, b/m, "right")).  Where those two are equal guide[b]
    is the answer; a crowded bucket, where an edge falls, holds -1 instead, and only its
    draws (at most one bucket per edge, so at most ~1/64 of them) rebuild u*m from
    raw >> 11 for a searchsorted.  pick(raw) returns the indices, as int64, in the array
    that held the buckets: 17 B per draw counting raw (raw, b and a bool mask).
    """
    k = min(20, 6 + len(edges).bit_length())
    m = 1 << k
    scaled = edges * m  # exact, so searching u*m in it is searching u in edges
    guide = np.searchsorted(scaled, np.arange(m + 1), side="right")
    guide = np.where(guide[1:] == guide[:-1], guide[:-1], -1)

    def pick(raw):
        b = np.right_shift(raw, 64 - k).view(np.int64)
        # take reads index i before it writes element i, so b can be its own output;
        # "clip" never clips here and, unlike "raise", writes out unbuffered
        np.take(guide, b, out=b, mode="clip")
        slow = np.flatnonzero(b < 0)
        # (raw >> 11) < 2**53 converts exactly, and times 2**(k - 53) it is u*m
        b[slow] = np.searchsorted(scaled, (raw[slow] >> 11) * 2.0 ** (k - 53), side="right")
        return b

    return pick


# samples per block of a row on the one-atom path, and mean jumps per block on the general
# path: every temporary of a draw is a few times 8 B x _BLOCK, whatever the row's length
_BLOCK = 1 << 18

# the largest count the window of a rate may reach: a higher rate is refused before
# anything is drawn
_MAX_COUNT = 1 << 24


def _count_table(rate: float) -> tuple:
    """(k_lo, cdf): P(N <= k) for N ~ Poisson(rate) over the window k = k_lo, k_lo + 1, ...

    The window is rate -/+ (12 sqrt(rate) + 40), clipped at 0, and the last entry is 1.0.
    From rate 2 up the table is scipy.special.pdtr's.  Below it, cdf_k = fsum(p_0..p_k)
    with p_0 = e**-rate and p_(i+1) = p_i * rate/(i + 1), which loads no SciPy (measured
    within 3 ulps of the exact CDF, where pdtr is up to 13 ulps off).  A rate whose window
    reaches past _MAX_COUNT raises ValueError.
    """
    spread = 12.0 * math.sqrt(rate) + 40.0
    if not rate + spread <= _MAX_COUNT:  # as floats, so an infinite rate is refused too
        raise ValueError(f"total jump rate {rate:g} is too large: its Poisson counts reach past "
                         f"the cap of {_MAX_COUNT} jumps per sample")
    k_lo, k_hi = max(0, math.floor(rate - spread)), math.ceil(rate + spread)
    if rate < 2.0:  # k_lo = 0
        pmf = [math.exp(-rate)]
        for i in range(1, k_hi + 1):
            pmf.append(pmf[-1] * rate / i)
        cdf = np.array([math.fsum(pmf[:k + 1]) for k in range(k_hi + 1)])
    else:
        from scipy.special import pdtr  # here, so that a draw below rate 2 loads no SciPy

        cdf = pdtr(np.arange(k_lo, k_hi + 1), rate)
    cdf[-1] = 1.0
    return k_lo, cdf


def _count_stream(rate: float, seed: int):
    """draw(n, start=None): n jump counts at this total rate from the key's own stream.

    The count at position i of the stream is raw output i of Philox(key=seed), inverted
    on _count_table(rate) by _bucketed_pick.  draw(n) reads the n positions after the last
    draw's (from 0 on), and draw(n, start) the n from `start` on: Philox is counter-based,
    so a cursor moved to `start` is a fresh generator advanced by start // 4 blocks of
    four outputs, less start % 4 outputs read and dropped.  A draw at the cursor's own
    position moves nothing.  A zero rate reads no output.  A rate past the cap raises
    ValueError before anything is drawn.
    """
    if rate == 0.0:
        return lambda n, start=None: np.zeros(n, dtype=np.int64)
    k_lo, cdf = _count_table(rate)
    pick_count = _bucketed_pick(cdf)
    bits, pos = np.random.Philox(key=int(seed)), 0

    def draw(n, start=None):
        nonlocal bits, pos
        if start is not None and start != pos:
            bits = np.random.Philox(key=int(seed)).advance(start // 4)
            bits.random_raw(start % 4)
            pos = start
        nj = pick_count(bits.random_raw(n))
        nj += k_lo
        pos += n
        return nj

    return draw


def _cumulative_counts(rate: float, rows: int, cols: int, seed: int, lo: int, hi: int,
                       width: int):
    """Yield one int64 array of the running jump counts of samples lo <= i < hi after each
    of `rows` rows of `cols` samples.

    Sample i of row n takes the count at position n * cols + i of the count stream, as in
    _sample_rows at this total rate, so any range of samples is drawn on its own: `width`
    at a time, into the running sum.  The array yielded is the same one every time, so a
    caller reads it before it asks for the next row.
    """
    total = np.zeros(hi - lo, dtype=np.int64)
    draw_counts = _count_stream(rate, seed)
    for n in range(rows):
        for s in range(0, hi - lo, width):
            part = total[s:s + width]
            part += draw_counts(len(part), n * cols + lo + s)
        yield total


def _sample_rows(gen, rows: int, cols: int, seed: int):
    """Yield `rows` arrays of `cols` draws of log W, one after the other.

    Each random component reads its own stream (see sample_logW) in
    row-major order, so the rows concatenated are
    sample_logW(gen, rows * cols, seed) byte for byte.  Each row is
    filled block by block: a block draws its counts, then its jump sums,
    then adds the drift or its normals.  With at most one atom and no
    tail a block is _BLOCK samples, and holds no jumps.  Any other table
    makes a block of max(1, int(_BLOCK / max(rate, 1))) samples, which
    holds Poisson(width * rate) jumps: about _BLOCK on average, or one
    sample's from a rate of _BLOCK up.  Memory is the row being filled
    plus O(one block).
    """
    g = as_levy(gen)
    rates = [w for _, w in g.atoms] + ([g.tail.mass] if g.tail is not None else [])
    with np.errstate(over="ignore"):  # an infinite total rate is refused by _count_stream
        cum = np.cumsum(rates)
    rate = float(cum[-1]) if rates else 0.0  # the total jump rate
    draw_counts = _count_stream(rate, seed)  # refuses a rate past the cap first
    base = np.random.Philox(key=int(seed))
    jump_bits = base.jumped(1)
    tail_rng, normals = (np.random.Generator(base.jumped(j)) for j in (2, 3))
    table = [x for x, _ in g.atoms]
    tail = g.tail
    if tail is not None:
        table.append(math.nan)  # atoms are finite, so NaN marks only the tail slot
    one_atom = len(table) <= 1 and tail is None  # at most one atom, and no tail
    tail_only = tail is not None and not g.atoms
    if tail is not None:
        lo, hi, a = tail.x_min ** -tail.alpha, tail.x_max ** -tail.alpha, tail.alpha

        def tail_sizes(n):
            # inverse-CDF draw from c*y**(-1-alpha) on [x_min, x_max], y = |x|:
            # -((lo - v*(lo - hi)) ** (-1/a)), one step at a time in v
            v = tail_rng.random(n)
            v *= lo - hi
            np.subtract(lo, v, out=v)
            v **= -1.0 / a
            return np.negative(v, out=v)
    if one_atom:
        width = _BLOCK  # a block holds no jumps
        x = table[0] if table else 0.0
    else:
        # a block of `width` samples holds Poisson(width * rate) jumps: at most _BLOCK on
        # average, or one sample's jumps from rate _BLOCK up
        width = max(1, int(_BLOCK / max(rate, 1.0)))
        # dividing by the table's own last entry makes the last edge exactly 1.0
        pick = _bucketed_pick(cum / rate)
        owner = np.arange(min(cols, width))
    for _ in range(rows):
        out = np.empty(cols)
        for s in range(0, cols, width):
            block = out[s:s + width]
            nj = draw_counts(len(block))
            if one_atom:
                np.multiply(nj, x, out=block)
            else:
                jumps = int(nj.sum())
                if tail_only:
                    sizes = tail_sizes(jumps)
                else:
                    sizes = np.take(table, pick(jump_bits.random_raw(jumps)))
                    if tail is not None:
                        sel = np.isnan(sizes)
                        sizes[sel] = tail_sizes(int(sel.sum()))
                        del sel  # before repeat() allocates
                # each sample's jumps are contiguous and in order, so it sums them as one
                # call would; with no jump in the block bincount returns int64 zeros
                block[:] = np.bincount(np.repeat(owner[:len(block)], nj), weights=sizes,
                                       minlength=len(block))
            # 0 * x may be -0.0, and LevyGenerator stores no -0.0 drift, so adding the
            # drift last gives the bytes of drift + normal + jumps
            block += (normals.normal(g.drift, math.sqrt(g.sigma2), len(block))
                      if g.sigma2 > 0 else g.drift)
            nj = sizes = None  # free this block's counts and jumps before the next is drawn
        yield out


def normalize_mean_one(gen):
    """Shift the drift so that E[W] = 1 (psi(1) = 0); idempotent."""
    shift = ln_moment(gen, 1.0)
    if isinstance(gen, LogPoissonParams):
        return replace(gen, a=gen.a - shift)
    g = as_levy(gen)
    return replace(g, drift=g.drift - shift)


def _carleman_terms(gen, P: int) -> np.ndarray:
    """The terms of carleman_terms, where a term past the float range is inf."""
    p2 = 2.0 * np.arange(1, P + 1)
    with np.errstate(over="ignore"):
        return np.exp(-ln_moment(gen, p2) / p2)


def _drift_free_terms(gen, P: int) -> np.ndarray:
    """The terms of W*e**(-drift), which determinacy_verdict judges; past the float range, inf."""
    return _carleman_terms(replace(as_levy(gen), drift=0.0), P)


def carleman_terms(gen, P: int) -> np.ndarray:
    """Terms (E[W^{2p}])**(-1/(2p)) for p = 1..P."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    terms = _carleman_terms(gen, P)
    with np.errstate(over="ignore"):  # reported as OverflowError below
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
    (the sum converges); 'inconclusive' otherwise.  The terms judged are
    those of W*e**(-drift): W and c*W have the same moment determinacy,
    and every term of W carries a factor e**(-drift) that would move the
    tail across the threshold.  A term of W*e**(-drift) past the float
    range counts as infinite.
    """
    if P < 10:
        raise ValueError(f"P must be >= 10, got {P}")
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    tail = _drift_free_terms(gen, P)[P // 2 :]
    if tail.min() >= threshold:
        return "determinate-divergent"
    pos = tail[(tail > 0) & (tail < math.inf)]
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
