"""Monte Carlo simulation of the branch cascade and exponent estimation.

The observable is the branch product Phi(r^n) = W_1 * ... * W_n, so that
E[Phi^p] = (E[W^p])^n and ln S_p(r^n) is linear in n with slope
zeta_p * ln r.  Structure-function averages are accumulated with
log-sum-exp.  Their errors come from a delete-a-group jackknife over
_GROUPS contiguous groups of the independent branch realizations
(Efron, "The Jackknife, the Bootstrap and Other Resampling Plans",
SIAM 1982; Kott, J. Off. Stat. 17, 2001): every level is a cumulative
sum of the same branches and every order is a power of the same
samples, so the replicates give the covariance of ln S over levels and
orders that a structure table carries and estimate_zeta maps to zeta_hat.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np

from . import generators
from .exponents import CascadeParams, DeltaSeries, _check_integers, _check_k, _check_order
from .generators import _cumulative_counts, _sample_rows, as_levy

__all__ = [
    "SimConfig",
    "StructureTable",
    "ZetaEstimate",
    "default_p_list",
    "simulate",
    "estimate_zeta",
    "estimate_deltas",
    "write_csv",
]

_FMT = "%.17g"
_GROUPS = 100  # delete-a-group jackknife groups per (p, n) cell
# one-atom laws below this jump rate take their cells from count histograms: their
# cumulative counts at level n take ~n * rate + O(sqrt(n * rate)) values
_COUNTS_RATE = 2.0


def default_p_list(k: int) -> tuple:
    """Moment orders {0, 1, k, 2k, ..., 6k}, sorted."""
    return tuple(sorted({0.0, 1.0} | {float(j * k) for j in range(1, 7)}))


@dataclass(frozen=True)
class SimConfig:
    params: CascadeParams
    n_levels: int = 8
    n_samples: int = 10_000
    seed: int = 0
    p_list: tuple = ()

    def __post_init__(self):
        _check_integers(n_levels=self.n_levels, n_samples=self.n_samples, seed=self.seed)
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.n_samples < 100:
            raise ValueError(f"n_samples must be >= 100, got {self.n_samples}")
        if not 0 <= self.seed < 2**128:  # a Philox key
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        p_list = tuple(_check_order(p) for p in self.p_list) or default_p_list(self.params.k)
        if 0.0 not in p_list:
            p_list = (0.0,) + p_list
        object.__setattr__(self, "p_list", tuple(sorted(set(p_list))))


def _jackknife_cov(reps: np.ndarray) -> np.ndarray:
    """Delete-a-group covariance (G-1)/G * sum_g d_g d_g^T of the G rows d_g of reps - mean."""
    g = len(reps)
    d = reps - reps.mean(axis=0)
    cov = (g - 1) / g * (d.T @ d)
    return (cov + cov.T) / 2  # symmetric to the last bit


def _check_table(table, *levels) -> None:
    """Distinct rows of orders p >= 0 (of (p, n) with `levels`), finite se >= 0, a dict metadata
    without "cov", and a cov, if any, finite and symmetric with sqrt(diag) = se (as floats)."""
    seen = set()
    for row in zip(np.asarray(table.p, dtype=float).tolist(), *levels):
        _check_order(row[0])  # the message names the order
        if row in seen:
            at = "".join(f" at level n = {n}" for n in row[1:])
            raise ValueError(f"order p = {row[0]}{at} appears in more than one row")
        seen.add(row)
    se = np.asarray(table.se, dtype=float)
    if not (np.isfinite(se) & (se >= 0)).all():
        raise ValueError(f"se: stderr entries must be finite and >= 0, got {se.tolist()}")
    if not isinstance(table.metadata, dict):
        raise ValueError(f"metadata must be a dict, got {type(table.metadata).__name__}")
    if "cov" in table.metadata:
        raise ValueError("metadata: the key 'cov' is reserved for the covariance")
    if table.cov is None:
        return
    try:
        cov = np.array(table.cov, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("cov: the covariance must be a numeric matrix") from None
    if cov.shape != (len(se), len(se)):
        raise ValueError(f"cov: expected a {len(se)} x {len(se)} covariance, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("cov: covariance entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # each failure is reported below
        symmetric = np.allclose(cov, cov.T, rtol=1e-9, atol=0.0)
        matches_se = np.allclose(np.sqrt(np.diagonal(cov)), se, rtol=1e-9, atol=0.0)
    if not symmetric:
        raise ValueError("cov: the covariance is not symmetric")
    if not matches_se:
        raise ValueError("cov: the square roots of the covariance diagonal are not se")
    object.__setattr__(table, "cov", cov)


def _write_table(path, table, header, rows) -> None:
    """write_csv with the table's covariance, when it has one, under "cov" in the JSON line."""
    meta = table.metadata if table.cov is None else {**table.metadata, "cov": table.cov.tolist()}
    write_csv(path, meta, header, rows)


def _read_table(path, header, cell=float) -> tuple:
    """What _write_table writes: (metadata, its "cov" or None, the rows as a float array)."""
    meta, rows = _read_csv(path, header, cell)
    return meta, meta.pop("cov", None), np.asarray(rows, dtype=float)  # meta without "cov"


@dataclass(frozen=True)
class StructureTable:
    """Rows of (p, n, ln_S, se), run metadata and cov, the covariance of ln_S over the rows.

    se is sqrt(diag(cov)).  simulate fills cov with the delete-a-group jackknife covariance
    (zeros at p = 0), and a CSV carries it under "cov" in its JSON line.  A table without
    cov is refused: one built by hand with independent rows passes cov=np.diag(se**2).
    """

    p: np.ndarray
    n: np.ndarray
    ln_s: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)
    cov: np.ndarray | None = None

    def __post_init__(self):
        levels = np.asarray(self.n).tolist()
        for n in levels:
            _check_level(n, n)
        _check_table(self, levels)
        if self.cov is None:
            raise ValueError("cov: a structure table needs the covariance of ln_S over its rows")

    def rows_for(self, p: float):
        sel = self.p == p
        return self.n[sel], self.ln_s[sel], self.se[sel]

    def to_csv(self, path) -> None:
        _write_table(path, self, ("p", "n", "ln_S", "se"), zip(self.p, self.n, self.ln_s, self.se))

    @classmethod
    def from_csv(cls, path) -> "StructureTable":
        meta, cov, arr = _read_table(path, ("p", "n", "ln_S", "se"), (float, _level, float, float))
        return cls(p=arr[:, 0], n=arr[:, 1].astype(int), ln_s=arr[:, 2], se=arr[:, 3],
                   metadata=meta, cov=cov)


@dataclass(frozen=True)
class ZetaEstimate:
    """Estimated scaling exponents (p, zeta_hat, se) at distinct orders p >= 0.

    cov is the covariance of zeta_hat over the orders (se is sqrt(diag(cov))), and a CSV
    carries it under "cov" in its JSON comment line.  An estimate without cov is refused:
    one built by hand with independent orders passes cov=np.diag(se**2).
    """

    p: np.ndarray
    zeta_hat: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)
    cov: np.ndarray | None = None

    def __post_init__(self):
        _check_table(self)
        if self.cov is None:
            raise ValueError("cov: a zeta estimate needs the covariance of zeta_hat over its "
                             "orders")

    def value(self, p: float) -> tuple:
        idx = np.nonzero(self.p == p)[0]
        if len(idx) == 0:
            raise KeyError(f"no estimate at order p = {p}")
        i = int(idx[0])
        return float(self.zeta_hat[i]), float(self.se[i])

    def to_csv(self, path) -> None:
        _write_table(path, self, ("p", "zeta_hat", "se"), zip(self.p, self.zeta_hat, self.se))

    @classmethod
    def from_csv(cls, path) -> "ZetaEstimate":
        meta, cov, arr = _read_table(path, ("p", "zeta_hat", "se"))
        return cls(p=arr[:, 0], zeta_hat=arr[:, 1], se=arr[:, 2], metadata=meta, cov=cov)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    return _FMT % v  # exact round trip for floats; integers print as integers


def write_csv(path, meta: dict, header, rows) -> None:
    """Write '# {json meta}', the header and the rows to a path or a text stream.

    Booleans are written as true/false and None as an empty cell; _read_csv reads it back.
    """
    lines = ["# " + json.dumps(meta), ",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    with nullcontext(path) if hasattr(path, "write") else open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _uncell(text: str):
    """The inverse of _cell: true/false, an empty cell as None, otherwise a float."""
    word = text.strip()
    if word in ("true", "false"):
        return word == "true"
    return None if word == "" else float(word)


def _check_level(n, shown) -> None:
    """Refuse a level that is not an integer in [0, 2**53), where every integer is a float."""
    if not (0 <= n < 2**53 and float(n).is_integer()):  # NaN fails the first test
        raise ValueError(f"level n must be an integer in [0, 2**53), got {shown!r}")


def _level(text: str) -> int:
    """A level n cell, parsed exactly: a value that is not an integer is refused, however close
    to one it is, as is one that does not parse."""
    word = text.strip()
    try:
        exact = Decimal(word)
    except InvalidOperation:
        exact = Decimal("NaN")
    integral = exact.is_finite() and 0 <= exact < 2**53 and exact == exact.to_integral_value()
    _check_level(int(exact) if integral else math.nan, word)  # so no int() of 1e999999999
    return int(exact)


def _read_csv(path, expected_header, cell=_uncell):
    """Read back what write_csv writes: (metadata, rows), each cell parsed by `cell`.

    `cell` is one parser for every column, or a tuple of one per column.  The numeric
    tables parse with float, so a word or an empty cell is an error there.
    """
    cells = cell if isinstance(cell, tuple) else (cell,) * len(expected_header)
    meta = {}
    with nullcontext(path) if hasattr(path, "read") else open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    if lines and lines[0].startswith("#"):
        meta = json.loads(lines[0][1:].strip() or "{}")
        if not isinstance(meta, dict):
            raise ValueError(f"the '#' line must hold a JSON object, got {type(meta).__name__}")
        i = 1
    if i == len(lines):
        raise ValueError("empty CSV: no header line")
    header = tuple(h.strip() for h in lines[i].split(","))
    if header != tuple(expected_header):
        raise ValueError(f"bad CSV header {header!r}, expected {tuple(expected_header)!r}")
    rows = []
    for ln_no, line in enumerate(lines[i + 1 :], start=i + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(expected_header):
            raise ValueError(f"row {ln_no}: expected {len(expected_header)} columns, got {len(parts)}")
        try:
            rows.append([parse(v) for parse, v in zip(cells, parts)])
        except ValueError as exc:
            raise ValueError(f"row {ln_no}: {exc}") from None
    if not rows:
        raise ValueError("CSV has a header but no data rows")
    return meta, rows


def _group_cuts(ns: int) -> np.ndarray:
    """The _GROUPS + 1 cuts s_g = g * ns // _GROUPS of ns samples into jackknife groups."""
    return np.arange(_GROUPS + 1) * ns // _GROUPS


def _level_cells(p_list, z: np.ndarray, ns: int, group_sums, out=None) -> tuple:
    """ln_S per order of one level and its _GROUPS delete-a-group jackknife replicates, as an
    array over p_list and one of p_list x groups; zeros at p = 0.

    z holds the level's values of log Phi, and group_sums(e) returns the total and the
    _GROUPS group sums S_g over the ns samples of e = exp(p*z - m), m = max(p*z): group g is
    the samples s_g <= i < s_(g+1) with s_g = g * ns // _GROUPS.  Its replicate is the
    ln-mean without it, m + ln((total - S_g)/(ns - n_g)), with total - S_g floored at
    1e-300 when the group holds all of the sum; so no log over ns is taken.  Each order's
    p*z is built in `out` when given, and every later step over it runs in place there.
    """
    cuts = _group_cuts(ns)
    rest_sizes = ns - (cuts[1:] - cuts[:-1])
    ln_s, reps = np.zeros(len(p_list)), np.zeros((len(p_list), _GROUPS))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError by simulate
        for i, p in enumerate(p_list):
            if p == 0.0:
                continue
            x = np.multiply(p, z, out=out)
            m = x.max()
            total, sums = group_sums(np.exp(np.subtract(x, m, out=x), out=x))
            ln_s[i] = m + math.log(total / ns)
            rest = np.maximum(total - sums, 1e-300)
            rest /= rest_sizes
            reps[i] = m + np.log(rest)
    return ln_s, reps


def _count_histogram(parts) -> tuple:
    """(j, hist): the jump counts j that occur, and hist[g, i], the number of samples of
    jackknife group g (as in _level_cells) with count j[i], as floats.

    parts holds each group's np.bincount of its samples' counts, so nothing the size of
    the sample is allocated.
    """
    hist = np.zeros((_GROUPS, max(map(len, parts))))
    for row, part in zip(hist, parts):
        row[:len(part)] = part
    j = np.flatnonzero(hist.any(axis=0))
    return j, hist[:, j]


def _counts_suffice(g) -> bool:
    """Whether log Phi(r^n) = n*drift + x*N for every sample, N its cumulative jump count:
    at most one atom x, no tail and no Gaussian part; and whether N takes few values, at
    a rate below _COUNTS_RATE."""
    return (len(g.atoms) <= 1 and g.tail is None and g.sigma2 == 0.0
            and (not g.atoms or g.atoms[0][1] < _COUNTS_RATE))


def _cells_from_counts(config: SimConfig, g) -> list:
    """Per level, _level_cells over the histogram of (group, N), N the samples' cumulative
    jump counts (see simulate), each order's group sums hist @ exp(p*z_j - m).

    Groups g0 <= g < g1 are drawn as one range of every level's samples, into their own
    running counts, and give each level's bincount per group (_cumulative_counts: sample i
    of level n is position n * n_samples + i of the count stream, wherever it is drawn).
    From 2 * _BLOCK samples up, where each half holds a full block, the groups split at
    the middle cut: one worker thread draws the upper half of them while this thread
    draws the lower, each ceil(_BLOCK / 2) samples at a time, so their temporaries add up
    to one block's.  Below that this thread draws all groups, _BLOCK at a time, and no
    thread is started.  The halves write apart, so the histograms, and the cells this
    thread then takes of them, are the bytes of one draw and do not depend on timing.
    """
    x, rate = g.atoms[0] if g.atoms else (0.0, 0.0)
    nl, ns, block = config.n_levels, config.n_samples, generators._BLOCK
    cuts = _group_cuts(ns).tolist()

    def bincounts(g0, g1, width):
        lo, hi = cuts[g0], cuts[g1]
        groups = list(zip(cuts[g0:g1], cuts[g0 + 1:g1 + 1]))
        return [[np.bincount(counts[a - lo:b - lo]) for a, b in groups]
                for counts in _cumulative_counts(rate, nl, ns, config.seed, lo, hi, width)]

    if ns < 2 * block:
        parts = bincounts(0, _GROUPS, block)
    else:
        mid, half = _GROUPS // 2, (block + 1) // 2
        with ThreadPoolExecutor(max_workers=1) as worker:
            upper = worker.submit(bincounts, mid, _GROUPS, half)
            parts = [a + b for a, b in zip(bincounts(0, mid, half), upper.result())]
    return [_level_cells(config.p_list, n * g.drift + x * j, ns,
                         lambda e: ((s := hist @ e).sum(), s))
            for n, (j, hist) in enumerate(map(_count_histogram, parts), 1)]


def _cells_over_samples(config: SimConfig, g) -> list:
    """Per level, _level_cells over the samples of log Phi, each group summed by
    np.add.reduceat.

    A two-stage pipeline: this thread draws level n+1 while one worker thread runs level
    n's cells, every order p != 0 in the worker's one scratch buffer.  Both stages spend
    their time in NumPy calls that release the GIL.  Each cell is a pure function of its
    level and each level is the sum the cumulative sum over levels makes, so the results
    do not depend on timing and are the same bytes as a serial run.  At most two levels
    wait for the worker, and each level is built in place in the row its draws fill.
    """
    nl, ns = config.n_levels, config.n_samples
    starts = _group_cuts(ns)[:-1]
    z = np.empty(ns)  # the worker's scratch buffer, refilled for every (p, n)

    def group_sums(e):
        return e.sum(), np.add.reduceat(e, starts)

    futures = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        # branch: log Phi(r^n) per sample, the running sum of the levels' draws, built in
        # place in the fresh row each level draws, which no other code holds
        branch = None
        for row in _sample_rows(g, nl, ns, config.seed):
            if branch is not None:
                with np.errstate(over="ignore"):  # simulate reports a non-finite level
                    row += branch
            branch = row
            if len(futures) >= 2:
                futures[-2].result()  # level n-2 is done before level n is queued
            futures.append(worker.submit(_level_cells, config.p_list, branch, ns, group_sums, z))
        return [f.result() for f in futures]


def simulate(config: SimConfig, gen) -> StructureTable:
    """Structure-function table ln S_p(r^n) for n = 1..n_levels.

    Deterministic given the seed; the p = 0 rows are exactly zero.  Each
    (p, n) cell also gets _GROUPS delete-a-group jackknife replicates of
    ln S_p over contiguous groups of samples (zeros at p = 0), and the
    table's cov is their delete-a-group covariance over the rows.

    A law with at most one atom x, no tail and no Gaussian part, at a jump
    rate below _COUNTS_RATE (the log-Poisson laws of the paper among them),
    has log Phi(r^n) = n*drift + x*N, N the sample's cumulative jump count.
    Such a law draws only the counts, from sample_logW's stream
    (generators._count_stream), and takes each level's cells from the
    histogram of (group, N), J ~ n*rate values wide: each order's group
    sums are hist @ exp(p*z_j - m) over the J values z_j of log Phi.  So
    ln S and its covariance differ from sums over the samples in their
    last digits only, and memory is the int64 counts N plus one block of
    counts, for any n_levels.  Below 2 * _BLOCK samples it starts no
    thread; from there up one worker thread draws the upper half of each
    level's jackknife groups (_cells_from_counts).

    Every other law sums over its samples of log Phi, drawn row by row
    while one worker thread runs the previous level's cells
    (_cells_over_samples); memory is O(n_samples) for the levels plus one
    block of counts, jumps and normals (generators._sample_rows), for
    every generator and any n_levels.  Both paths run one cell routine,
    _level_cells, each with its own group sums.  The worker does not
    outlive the call, on return or on error, and the results do not
    depend on timing.  A table whose ln S_p or covariance overflows raises
    OverflowError.
    """
    nl, ns = config.n_levels, config.n_samples
    g = as_levy(gen)
    levels = (_cells_from_counts if _counts_suffice(g) else _cells_over_samples)(config, g)
    # per level, orders first -> orders x levels (x groups), p-major rows
    ln_s, reps = (np.stack(part, axis=1) for part in zip(*levels))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
        cov = _jackknife_cov(reps.reshape(-1, _GROUPS).T)
    if not (np.isfinite(ln_s).all() and np.isfinite(cov).all()):
        raise OverflowError("ln S_p or its jackknife error is not finite: log W is too large")
    meta = {
        "r": config.params.r,
        "k": config.params.k,
        "n_levels": nl,
        "n_samples": ns,
        "seed": config.seed,
        "p_list": list(config.p_list),
    }
    return StructureTable(
        p=np.repeat(config.p_list, nl), n=np.tile(np.arange(1, nl + 1), len(config.p_list)),
        ln_s=ln_s.ravel(), se=np.sqrt(np.diagonal(cov)), metadata=meta, cov=cov,
    )


def _slope_weights(n: np.ndarray, x: np.ndarray, se: np.ndarray) -> np.ndarray:
    """w with w @ ln_S the level GLS slope of one order's rows on x = n*ln r, free intercept.

    The covariance model is f[min(n, m)] with f_n = rho**n - 1: for a branch product
    Cov(ln S_p(n), ln S_p(m)) ~ (rho_p**min(n, m) - 1)/N, rho_p = E[W^2p]/E[W^p]**2
    (Ossiander & Waymire, Ann. Statist. 28, 2000), so the levels have independent
    increments.  rho = e**b, b the OLS slope of ln se**2 on n.  The intercept absorbs the
    first level, and the slope is the weighted fit through 0 of the increments of ln S on
    those of x, the increment from level n to m weighted by 1/(f_m - f_n), taken in logs up
    to a common factor so that no order overflows.  The OLS weights are kept when fewer
    than two rows have se > 0, when rho <= 1, or when a weight is not finite.
    """
    xc = x - x.mean()
    ols = xc / float((xc ** 2).sum())
    pos = se > 0
    if pos.sum() < 2:
        return ols
    nc = n[pos] - n[pos].mean()
    ln_var = 2.0 * np.log(se[pos])
    b = float(nc @ (ln_var - ln_var[0])) / float(nc @ nc)  # exactly 0 when se is constant
    if not b > 0.0:  # rho <= 1
        return ols
    order = np.argsort(n)
    gap = np.diff(n[order])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite weight falls back below
        # ln(f_m - f_n) = b*m + ln(1 - rho**-(m - n)) for consecutive levels n < m
        ln_step = b * n[order][1:] + np.log(-np.expm1(-b * gap))
        dx = np.diff(x[order])
        c = dx * np.exp(ln_step.min() - ln_step)
        c /= c @ dx
    w = np.empty(len(n))
    w[order] = np.concatenate(([0.0], c)) - np.concatenate((c, [0.0]))
    return w if np.isfinite(w).all() else ols


def estimate_zeta(table: StructureTable) -> ZetaEstimate:
    """Level GLS slope of ln S_p against n*ln r, per moment order (see _slope_weights).

    zeta_hat at p = 0 is forced to zero.  Orders with fewer than 3 valid
    levels are omitted with a warning in the metadata.  The slopes' weights
    make W, an orders x rows matrix with a zero row at p = 0 and zero
    columns at non-finite ln_S, and zeta_hat's covariance is W cov W^T over
    the table's cov (se = sqrt of its diagonal): a sandwich, so the errors
    stay those of the data if the weights' model is off.  It raises
    OverflowError if that covariance is not finite.
    """
    r = table.metadata.get("r")
    if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0.0 < r < 1.0:
        raise ValueError(f"structure table metadata must carry the scale ratio r in (0, 1), "
                         f"got {r!r}")
    ln_r = math.log(r)

    ps, zs, weights, skipped = [], [], [], []
    for p in sorted(set(table.p.tolist())):
        rows = np.flatnonzero((table.p == p) & np.isfinite(table.ln_s))
        if p != 0.0 and len(rows) < 3:
            skipped.append(p)
            continue
        w = np.zeros(len(table.p))  # a zero row at p = 0
        if p != 0.0:
            n = table.n[rows].astype(float)
            w[rows] = _slope_weights(n, n * ln_r, table.se[rows])
        ps.append(p)
        zs.append(float(w[rows] @ table.ln_s[rows]) if p != 0.0 else 0.0)
        weights.append(w)

    w = np.array(weights).reshape(len(ps), len(table.p))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
        cov = w @ table.cov @ w.T
        cov = (cov + cov.T) / 2  # symmetric to the last bit
        se = np.sqrt(np.diagonal(cov))
    if not np.isfinite(cov).all():
        raise OverflowError("the covariance of zeta_hat is not finite")
    meta = dict(table.metadata)
    if skipped:
        meta["skipped_orders"] = skipped
    return ZetaEstimate(p=np.array(ps), zeta_hat=np.array(zs), se=se, metadata=meta, cov=cov)


def estimate_deltas(zeta: ZetaEstimate, k: int) -> DeltaSeries:
    """Incremental exponents delta_{mk} = zeta_{(m+1)k} - zeta_{mk} with errors.

    With the estimate's covariance V the errors are sqrt(diag(D V D^T)),
    D the first difference over the orders 0, k, 2k, ...
    """
    k = _check_k(k)
    row = {p: i for i, p in enumerate(zeta.p.tolist())}  # ZetaEstimate's orders are distinct
    rows = []
    while len(rows) * k in row:  # the run of orders 0, k, 2k, ...
        rows.append(row[len(rows) * k])
    if len(rows) < 3:
        missing = [float(m * k) for m in range(3) if m * k not in row]
        raise ValueError(f"zeta estimate is missing orders {missing}")
    with np.errstate(over="ignore", invalid="ignore"):  # DeltaSeries rejects inf and nan
        dvd = np.diff(np.diff(zeta.cov[np.ix_(rows, rows)], axis=0), axis=1)
        # rounding can leave a variance a few ulps below zero
        stderr = np.sqrt(np.maximum(np.diagonal(dvd), 0.0))
    return DeltaSeries(k=k, m=range(len(rows) - 1), delta=np.diff(zeta.zeta_hat[rows]),
                       stderr=stderr)
