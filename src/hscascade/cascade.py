"""Monte Carlo simulation of the branch cascade and exponent estimation.

The observable is the branch product Phi(r^n) = W_1 * ... * W_n, so that
E[Phi^p] = (E[W^p])^n and ln S_p(r^n) is linear in n with slope
zeta_p * ln r.  Structure-function averages are accumulated with
log-sum-exp.  Their errors come from a delete-a-group jackknife over
_GROUPS contiguous groups of the independent branch realizations
(Efron, "The Jackknife, the Bootstrap and Other Resampling Plans",
SIAM 1982; Kott, J. Off. Stat. 17, 2001): every level is a cumulative
sum of the same branches and every order is a power of the same
samples, so the replicates carry the covariance of ln S over levels
and orders into zeta_hat and delta_hat.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .exponents import CascadeParams, DeltaSeries
from .generators import _sample_rows

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
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.n_samples < 100:
            raise ValueError(f"n_samples must be >= 100, got {self.n_samples}")
        p_list = tuple(float(p) for p in self.p_list) or default_p_list(self.params.k)
        if 0.0 not in p_list:
            p_list = (0.0,) + p_list
        if any(p < 0 for p in p_list):
            raise ValueError("moment orders must be >= 0")
        object.__setattr__(self, "p_list", tuple(sorted(set(p_list))))


def _check_stderr(se) -> None:
    se = np.asarray(se, dtype=float)
    if not (np.isfinite(se) & (se >= 0)).all():
        raise ValueError(f"se: stderr entries must be finite and >= 0, got {se.tolist()}")


def _check_cov(cov, se) -> np.ndarray:
    """cov as a float array: a finite symmetric k x k matrix whose sqrt(diag) is se."""
    try:
        cov = np.array(cov, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("cov: the covariance must be a numeric matrix") from None
    k = len(se)
    if cov.shape != (k, k):
        raise ValueError(f"cov: expected a {k} x {k} covariance, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("cov: covariance entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # each failure is reported below
        symmetric = np.allclose(cov, cov.T, rtol=1e-9, atol=0.0)
        matches_se = np.allclose(np.sqrt(np.diagonal(cov)), se, rtol=1e-9, atol=0.0)
    if not symmetric:
        raise ValueError("cov: the covariance is not symmetric")
    if not matches_se:
        raise ValueError("cov: the square roots of the covariance diagonal are not se")
    return cov


def _jackknife_cov(reps: np.ndarray) -> np.ndarray:
    """Delete-a-group covariance (G-1)/G * sum_g d_g d_g^T of the G rows d_g of reps - mean."""
    g = len(reps)
    d = reps - reps.mean(axis=0)
    cov = (g - 1) / g * (d.T @ d)
    return (cov + cov.T) / 2  # symmetric to the last bit


@dataclass(frozen=True)
class StructureTable:
    """Rows of (p, n, ln_S, se) plus run metadata.

    `replicates`, when given, holds one row of delete-a-group jackknife
    replicates of ln_S per table row (zeros at p = 0).  simulate fills
    it; it lives in memory only, so a table read from a CSV has none.
    """

    p: np.ndarray
    n: np.ndarray
    ln_s: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)
    replicates: np.ndarray | None = None

    def __post_init__(self):
        _check_stderr(self.se)
        if self.replicates is not None:
            shape = np.shape(self.replicates)
            if len(shape) != 2 or shape[0] != len(self.p) or shape[1] < 2:
                raise ValueError(f"replicates: expected {len(self.p)} rows of >= 2 replicates, "
                                 f"got shape {shape}")

    def rows_for(self, p: float):
        sel = self.p == p
        return self.n[sel], self.ln_s[sel], self.se[sel]

    def to_csv(self, path) -> None:
        rows = zip(self.p, self.n, self.ln_s, self.se)
        write_csv(path, self.metadata, ("p", "n", "ln_S", "se"), rows)

    @classmethod
    def from_csv(cls, path) -> "StructureTable":
        meta, rows = _read_csv(path, ("p", "n", "ln_S", "se"), cell=float)
        arr = np.asarray(rows, dtype=float)
        return cls(p=arr[:, 0], n=arr[:, 1].astype(int), ln_s=arr[:, 2], se=arr[:, 3], metadata=meta)


@dataclass(frozen=True)
class ZetaEstimate:
    """Estimated scaling exponents (p, zeta_hat, se).

    `cov`, when given, is the covariance of zeta_hat over the orders
    (sqrt of its diagonal is se).  A CSV carries it under "cov" in its
    JSON comment line; without it, estimate_deltas treats the orders as
    independent.
    """

    p: np.ndarray
    zeta_hat: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)
    cov: np.ndarray | None = None

    def __post_init__(self):
        _check_stderr(self.se)
        if isinstance(self.metadata, dict) and "cov" in self.metadata:
            raise ValueError("metadata: the key 'cov' is reserved for the covariance")
        if self.cov is not None:
            object.__setattr__(self, "cov", _check_cov(self.cov, self.se))

    def value(self, p: float) -> tuple:
        idx = np.nonzero(self.p == p)[0]
        if len(idx) == 0:
            raise KeyError(f"no estimate at order p = {p}")
        i = int(idx[0])
        return float(self.zeta_hat[i]), float(self.se[i])

    def to_csv(self, path) -> None:
        rows = zip(self.p, self.zeta_hat, self.se)
        meta = self.metadata if self.cov is None else {**self.metadata, "cov": self.cov.tolist()}
        write_csv(path, meta, ("p", "zeta_hat", "se"), rows)

    @classmethod
    def from_csv(cls, path) -> "ZetaEstimate":
        meta, rows = _read_csv(path, ("p", "zeta_hat", "se"), cell=float)
        arr = np.asarray(rows, dtype=float)
        cov = meta.pop("cov", None) if isinstance(meta, dict) else None
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


def _read_csv(path, expected_header, cell=_uncell):
    """Read back what write_csv writes: (metadata, rows), each cell parsed by `cell`.

    The numeric tables pass cell=float, so a word or an empty cell is an error there.
    """
    meta = {}
    with nullcontext(path) if hasattr(path, "read") else open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    if lines and lines[0].startswith("#"):
        meta = json.loads(lines[0][1:].strip() or "{}")
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
            rows.append([cell(v) for v in parts])
        except ValueError as exc:
            raise ValueError(f"row {ln_no}: {exc}") from None
    if not rows:
        raise ValueError("CSV has a header but no data rows")
    return meta, rows


def _ln_mean_and_jackknife(z: np.ndarray) -> tuple:
    """ln mean(exp(z)) and its _GROUPS delete-a-group jackknife replicates.

    Group g is the slice z[s_g:s_(g+1)] with s_g = g * N // _GROUPS, and
    its replicate is the ln-mean without it, m + ln((total - S_g)/(N - n_g))
    from the group sums S_g of exp(z - m), with total - S_g floored at
    1e-300 when the group holds all of the sum; so no log over N is taken.
    Needs len(z) >= _GROUPS.  z is the scratch buffer: every step over N
    runs in place in it, so a call allocates only the replicates and
    leaves z overwritten.
    """
    ns = len(z)
    m = z.max()
    x = np.exp(np.subtract(z, m, out=z), out=z)
    total = x.sum()
    ln_s = m + math.log(total / ns)
    starts = np.arange(_GROUPS) * ns // _GROUPS
    rest = np.maximum(total - np.add.reduceat(x, starts), 1e-300)
    rest /= ns - np.diff(starts, append=ns)
    return ln_s, m + np.log(rest)


def simulate(config: SimConfig, gen) -> StructureTable:
    """Structure-function table ln S_p(r^n) for n = 1..n_levels.

    Deterministic given the seed; the p = 0 rows are exactly zero.  Each
    (p, n) cell also gets _GROUPS delete-a-group jackknife replicates of
    ln S_p over contiguous groups of samples (the table's `replicates`,
    zeros at p = 0); its se is their jackknife standard error.

    A two-stage pipeline: this thread draws level n+1 of log Phi while
    one worker thread runs level n's jackknife cells, every order p != 0
    in the worker's one scratch buffer.  Both stages spend their time in
    NumPy calls that release the GIL.  Each cell is a pure function of
    its level and each level is the sum the cumulative sum over levels
    makes, so the results do not depend on timing and are the same bytes
    as a serial run.  At most two levels wait for the worker, each level
    is built in place in the row its draws fill, and every generator
    fills its rows block by block (see generators._sample_rows), so
    memory is O(n_samples) for the levels plus one block of counts,
    jumps and normals, for every generator and any n_levels.
    A cell whose ln S_p or jackknife error overflows raises OverflowError.
    """
    nl, ns = config.n_levels, config.n_samples
    z = np.empty(ns)  # the worker's scratch buffer, refilled for every (p, n)

    def cells(level):  # ln_S, se and replicates per order of one level, in the worker
        with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
            ln_s, reps = zip(*[(0.0, np.zeros(_GROUPS)) if p == 0.0
                               else _ln_mean_and_jackknife(np.multiply(p, level, out=z))
                               for p in config.p_list])
            reps = np.array(reps)
            dev = reps - reps.mean(axis=1, keepdims=True)
            se = np.sqrt((_GROUPS - 1) / _GROUPS * np.square(dev).sum(axis=1))
        if not (np.isfinite(ln_s).all() and np.isfinite(se).all()):
            raise OverflowError("ln S_p or its jackknife error is not finite: log W is too large")
        return np.array(ln_s), se, reps

    futures = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        # branch: log Phi(r^n) per sample, the running sum of the levels' draws, built in
        # place in the fresh row each level draws, which no other code holds
        branch = None
        for row in _sample_rows(gen, nl, ns, config.seed):
            if branch is not None:
                row += branch
            branch = row
            if len(futures) >= 2:
                futures[-2].result()  # level n-2 is done before level n is queued
            futures.append(worker.submit(cells, branch))
        # per level, orders first -> orders x levels (x groups), p-major rows
        ln_s, se, reps = (np.stack(part, axis=1) for part in zip(*(f.result() for f in futures)))
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
        ln_s=ln_s.ravel(), se=se.ravel(), metadata=meta, replicates=reps.reshape(-1, _GROUPS),
    )


def estimate_zeta(table: StructureTable) -> ZetaEstimate:
    """OLS slope of ln S_p against n*ln r, per moment order.

    zeta_hat at p = 0 is forced to zero.  Orders with fewer than 3 valid
    levels are omitted with a warning in the metadata.  With the table's
    jackknife replicates, the same OLS coefficients map each replicate
    to a zeta_hat replicate, and their delete-a-group covariance over
    the orders is the estimate's `cov` (se = sqrt of its diagonal); it
    raises OverflowError if that covariance is not finite.  A table
    without replicates (one read from a CSV) propagates the per-level
    errors as if levels were independent, and its estimate has no cov.
    """
    r = table.metadata.get("r")
    if r is None or not (0.0 < r < 1.0):
        raise ValueError("structure table metadata must carry the scale ratio r")
    ln_r = math.log(r)

    reps = table.replicates
    ps, zs, ses, zreps, skipped = [], [], [], [], []
    for p in sorted(set(table.p.tolist())):
        rows = np.flatnonzero((table.p == p) & np.isfinite(table.ln_s))
        if p == 0.0:
            ps.append(0.0)
            zs.append(0.0)
            ses.append(0.0)
            if reps is not None:
                zreps.append(np.zeros(reps.shape[1]))
            continue
        if len(rows) < 3:
            skipped.append(p)
            continue
        x = table.n[rows].astype(float) * ln_r
        xm = x.mean()
        denom = float(((x - xm) ** 2).sum())
        coef = (x - xm) / denom
        ps.append(p)
        zs.append(float(coef @ table.ln_s[rows]))
        if reps is None:
            ses.append(math.sqrt(float((coef**2) @ (table.se[rows] ** 2))))
        else:
            zreps.append(coef @ reps[rows])

    cov = None
    if reps is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
            cov = _jackknife_cov(np.column_stack(zreps))
            ses = np.sqrt(np.diagonal(cov))
        if not np.isfinite(cov).all():
            raise OverflowError("the jackknife covariance of zeta_hat is not finite")
    meta = dict(table.metadata)
    if skipped:
        meta["skipped_orders"] = skipped
    return ZetaEstimate(p=np.array(ps), zeta_hat=np.array(zs), se=np.array(ses), metadata=meta,
                        cov=cov)


def estimate_deltas(zeta: ZetaEstimate, k: int) -> DeltaSeries:
    """Incremental exponents delta_{mk} = zeta_{(m+1)k} - zeta_{mk} with errors.

    With the estimate's covariance V the errors are sqrt(diag(D V D^T)),
    D the first difference over the orders 0, k, 2k, ...; without it
    (an estimate read from a CSV with no "cov") the two orders' errors
    are added in quadrature, as if they were independent.
    """
    if k < 1:
        raise ValueError(f"hierarchy step k must be >= 1, got {k}")
    orders, first = np.unique(zeta.p, return_index=True)
    row = dict(zip(orders.tolist(), first.tolist()))  # order -> its first row
    rows = []
    while len(rows) * k in row:  # the run of orders 0, k, 2k, ...
        rows.append(row[len(rows) * k])
    if len(rows) < 3:
        missing = [float(m * k) for m in range(3) if m * k not in row]
        raise ValueError(f"zeta estimate is missing orders {missing}")
    if zeta.cov is None:
        e = zeta.se[rows].tolist()
        stderr = [math.hypot(e0, e1) for e0, e1 in zip(e, e[1:])]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # DeltaSeries rejects inf and nan
            dvd = np.diff(np.diff(zeta.cov[np.ix_(rows, rows)], axis=0), axis=1)
            # rounding can leave a variance a few ulps below zero
            stderr = np.sqrt(np.maximum(np.diagonal(dvd), 0.0))
    return DeltaSeries(k=k, m=range(len(rows) - 1), delta=np.diff(zeta.zeta_hat[rows]),
                       stderr=stderr)
