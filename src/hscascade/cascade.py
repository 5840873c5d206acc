"""Monte Carlo simulation of the branch cascade and exponent estimation.

The observable is the branch product Phi(r^n) = W_1 * ... * W_n, so that
E[Phi^p] = (E[W^p])^n and ln S_p(r^n) is linear in n with slope
zeta_p * ln r.  Structure-function averages are accumulated with
log-sum-exp; standard errors come from a leave-one-out jackknife over
the independent branch realizations.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class StructureTable:
    """Rows of (p, n, ln_S, se) plus run metadata."""

    p: np.ndarray
    n: np.ndarray
    ln_s: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_stderr(self.se)

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
    """Estimated scaling exponents (p, zeta_hat, se)."""

    p: np.ndarray
    zeta_hat: np.ndarray
    se: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_stderr(self.se)

    def value(self, p: float) -> tuple:
        idx = np.nonzero(self.p == p)[0]
        if len(idx) == 0:
            raise KeyError(f"no estimate at order p = {p}")
        i = int(idx[0])
        return float(self.zeta_hat[i]), float(self.se[i])

    def to_csv(self, path) -> None:
        rows = zip(self.p, self.zeta_hat, self.se)
        write_csv(path, self.metadata, ("p", "zeta_hat", "se"), rows)

    @classmethod
    def from_csv(cls, path) -> "ZetaEstimate":
        meta, rows = _read_csv(path, ("p", "zeta_hat", "se"), cell=float)
        arr = np.asarray(rows, dtype=float)
        return cls(p=arr[:, 0], zeta_hat=arr[:, 1], se=arr[:, 2], metadata=meta)


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
    """ln mean(exp(z)) and its leave-one-out jackknife standard error.

    z is the scratch buffer: every step runs in place in it, so a call
    allocates no array and leaves z overwritten.
    """
    ns = len(z)
    m = z.max()
    x = np.exp(np.subtract(z, m, out=z), out=z)
    total = x.sum()
    ln_s = m + math.log(total / ns)
    # theta_(-j) = ln((total - x_j)/(ns-1)) + m
    loo = np.log(np.maximum(np.subtract(total, x, out=x), 1e-300, out=x), out=x)
    loo -= math.log(ns - 1)
    loo += m
    loo -= loo.mean()
    se = math.sqrt((ns - 1) / ns * float(np.square(loo, out=loo).sum()))
    return ln_s, se


def simulate(config: SimConfig, gen) -> StructureTable:
    """Structure-function table ln S_p(r^n) for n = 1..n_levels.

    Deterministic given the seed; the p = 0 rows are exactly zero.

    A two-stage pipeline: this thread draws level n+1 of log Phi while
    one worker thread runs level n's jackknife cells, every order p != 0
    in the worker's one scratch buffer.  Both stages spend their time in
    NumPy calls that release the GIL.  Each cell is a pure function of
    its level and each level is the sum the cumulative sum over levels
    makes, so the results do not depend on timing and are the same bytes
    as a serial run.  At most two levels wait for the worker, and every
    generator streams its levels (see generators._sample_rows), so
    memory is O(n_samples) plus the jumps of one level; any generator but
    one atom without a tail adds its Poisson counts, 1 B per draw while
    every count is below 256.
    A cell whose ln S_p or jackknife error overflows raises OverflowError.
    """
    nl, ns = config.n_levels, config.n_samples
    z = np.empty(ns)  # the worker's scratch buffer, refilled for every (p, n)

    def cells(level):  # (ln_S, se) per order of one level, in the worker
        with np.errstate(over="ignore", invalid="ignore"):  # reported as OverflowError below
            out = [(0.0, 0.0) if p == 0.0 else _ln_mean_and_jackknife(np.multiply(p, level, out=z))
                   for p in config.p_list]
        if not np.isfinite(out).all():
            raise OverflowError("ln S_p or its jackknife error is not finite: log W is too large")
        return out

    futures = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        # branch: log Phi(r^n) per sample, the running sum of the levels' draws
        for branch in itertools.accumulate(_sample_rows(gen, nl, ns, config.seed)):
            if len(futures) >= 2:
                futures[-2].result()  # level n-2 is done before level n is queued
            futures.append(worker.submit(cells, branch))
        # levels x orders x (ln_S, se) -> p-major rows
        ln_s, se = np.array([f.result() for f in futures]).transpose(2, 1, 0).reshape(2, -1)
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
        ln_s=ln_s, se=se, metadata=meta,
    )


def estimate_zeta(table: StructureTable) -> ZetaEstimate:
    """OLS slope of ln S_p against n*ln r, per moment order.

    The slope standard error is propagated from the per-level jackknife
    errors.  zeta_hat at p = 0 is forced to zero.  Orders with fewer
    than 3 valid levels are omitted with a warning in the metadata.
    """
    r = table.metadata.get("r")
    if r is None or not (0.0 < r < 1.0):
        raise ValueError("structure table metadata must carry the scale ratio r")
    ln_r = math.log(r)

    ps, zs, ses, skipped = [], [], [], []
    for p in sorted(set(table.p.tolist())):
        n, y, se = table.rows_for(p)
        ok = np.isfinite(y)
        n, y, se = n[ok], y[ok], se[ok]
        if p == 0.0:
            ps.append(0.0)
            zs.append(0.0)
            ses.append(0.0)
            continue
        if len(n) < 3:
            skipped.append(p)
            continue
        x = n.astype(float) * ln_r
        xm = x.mean()
        denom = float(((x - xm) ** 2).sum())
        coef = (x - xm) / denom
        slope = float(coef @ y)
        slope_se = math.sqrt(float((coef**2) @ (se**2)))
        ps.append(p)
        zs.append(slope)
        ses.append(slope_se)

    meta = dict(table.metadata)
    if skipped:
        meta["skipped_orders"] = skipped
    return ZetaEstimate(p=np.array(ps), zeta_hat=np.array(zs), se=np.array(ses), metadata=meta)


def estimate_deltas(zeta: ZetaEstimate, k: int) -> DeltaSeries:
    """Incremental exponents delta_{mk} = zeta_{(m+1)k} - zeta_{mk} with errors."""
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
    e = zeta.se[rows].tolist()
    return DeltaSeries(k=k, m=range(len(rows) - 1), delta=np.diff(zeta.zeta_hat[rows]),
                       stderr=[math.hypot(e0, e1) for e0, e1 in zip(e, e[1:])])
