"""Span recorder for the traced benchmark run.

The recorder wraps public hscascade functions from the outside, at every
module attribute that holds them, so the library itself is untouched.
Each call becomes a span (name, start, end, parent, op id, error flag)
kept in flat arrays in memory and written out once, at the end of the
run.  Self time is a span's duration minus the time covered by its
direct child spans.

tracemalloc runs only while a span that reports ``peak_mb`` is open
(``sample_logW`` and ``simulate``), so the pure-Python analytic code is
not slowed by allocation tracing.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute, span name, options).  Options: "peak" measures the
# tracemalloc peak of the call, "label" adds a per-generator breakdown,
# "draws" counts the samples requested, "exit_code" counts a nonzero
# return as an error, "bytes" adds the size of the file at the path.
TARGETS = (
    ("generators", "sample_logW", "generators.sample_logW", ("peak", "label", "draws")),
    ("generators", "ln_moment", "generators.ln_moment", ()),
    ("generators", "carleman_terms", "generators.carleman_terms", ("label",)),
    ("generators", "delta_series_analytic", "generators.delta_series_analytic", ("label",)),
    ("cascade", "simulate", "cascade.simulate", ("peak",)),
    ("cascade", "estimate_zeta", "cascade.estimate_zeta", ()),
    ("symmetry", "fit_a1", "symmetry.fit_a1", ()),
    ("symmetry", "classify", "symmetry.classify", ()),
    ("symmetry", "characterize", "symmetry.characterize", ()),
    ("hausdorff", "split_width_for_epsilon", "hausdorff.split_width_for_epsilon", ()),
    ("hausdorff", "a1_residual_vs_reference", "hausdorff.a1_residual_vs_reference", ()),
    ("hausdorff", "verify_stability", "hausdorff.verify_stability", ()),
    ("hausdorff", "pushforward_to_unit", "hausdorff.pushforward_to_unit", ()),
    ("hausdorff", "empirical_w1_multipliers", "hausdorff.empirical_w1_multipliers", ()),
    ("spectrum", "f_legendre", "spectrum.f_legendre", ()),
    ("spectrum", "spectrum_curve", "spectrum.spectrum_curve", ()),
    ("exponents", "zeta", "exponents.zeta", ()),
    ("cli", "main", "cli.main", ("exit_code",)),
)

# CSV methods of the cascade tables: (class, method, span name).
CSV_TARGETS = (
    ("StructureTable", "to_csv", "cascade.csv.write"),
    ("ZetaEstimate", "to_csv", "cascade.csv.write"),
    ("StructureTable", "from_csv", "cascade.csv.read"),
    ("ZetaEstimate", "from_csv", "cascade.csv.read"),
)

LAYERS = ("generators", "cascade", "symmetry", "hausdorff", "spectrum", "exponents", "cli")

# Per-layer metric -> (span name, field).  A field of None sums the
# errors of every span in the layer.
LAYER_METRICS = {
    "generators.sample_logW.calls": ("generators.sample_logW", "calls"),
    "generators.sample_logW.draws": ("generators.sample_logW", "draws"),
    "generators.sample_logW.self_s": ("generators.sample_logW", "self_s"),
    "generators.sample_logW.peak_mb": ("generators.sample_logW", "peak_mb"),
    "generators.ln_moment.calls": ("generators.ln_moment", "calls"),
    "generators.ln_moment.self_s": ("generators.ln_moment", "self_s"),
    "generators.carleman_terms.self_s": ("generators.carleman_terms", "self_s"),
    "generators.delta_series_analytic.calls": ("generators.delta_series_analytic", "calls"),
    "generators.delta_series_analytic.self_s": ("generators.delta_series_analytic", "self_s"),
    "cascade.simulate.self_s": ("cascade.simulate", "self_s"),
    "cascade.simulate.peak_mb": ("cascade.simulate", "peak_mb"),
    "cascade.estimate_zeta.self_s": ("cascade.estimate_zeta", "self_s"),
    "cascade.csv.write_s": ("cascade.csv.write", "total_s"),
    "cascade.csv.read_s": ("cascade.csv.read", "total_s"),
    "cascade.csv.bytes": (("cascade.csv.write", "cascade.csv.read"), "bytes"),
    "symmetry.fit_a1.calls": ("symmetry.fit_a1", "calls"),
    "symmetry.fit_a1.self_s": ("symmetry.fit_a1", "self_s"),
    "symmetry.classify.self_s": ("symmetry.classify", "self_s"),
    "symmetry.characterize.self_s": ("symmetry.characterize", "self_s"),
    "hausdorff.split_width_for_epsilon.self_s": ("hausdorff.split_width_for_epsilon", "self_s"),
    "hausdorff.a1_residual_vs_reference.calls": ("hausdorff.a1_residual_vs_reference", "calls"),
    "hausdorff.verify_stability.self_s": ("hausdorff.verify_stability", "self_s"),
    "hausdorff.pushforward_to_unit.self_s": ("hausdorff.pushforward_to_unit", "self_s"),
    "hausdorff.empirical_w1_multipliers.self_s": ("hausdorff.empirical_w1_multipliers", "self_s"),
    "spectrum.f_legendre.calls": ("spectrum.f_legendre", "calls"),
    "spectrum.f_legendre.self_s": ("spectrum.f_legendre", "self_s"),
    "spectrum.spectrum_curve.self_s": ("spectrum.spectrum_curve", "self_s"),
    "exponents.zeta.calls": ("exponents.zeta", "calls"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
LAYER_METRICS.update({f"{layer}.errors": (layer, None) for layer in LAYERS})

MB = float(1 << 20)


def generator_label(gen) -> str:
    """Short name of a generator for the per-generator breakdown."""
    atoms = getattr(gen, "atoms", None)
    if atoms is None:
        return type(gen).__name__
    label = f"{len(atoms)}atoms"
    if getattr(gen, "tail", None) is not None:
        label += "+tail"
    if getattr(gen, "sigma2", 0.0) > 0:
        label += "+gauss"
    return label


def _file_size(path) -> int:
    """Size of a CSV file a table method wrote or read; 0 for a stream."""
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        return os.path.getsize(path)
    return 0


def _new_stats() -> dict:
    return {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0,
            "peak_mb": 0.0, "draws": 0, "bytes": 0}


class Recorder:
    """Spans of every traced op, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.op_id = -1
        self.ops: list[dict] = []  # per traced op: span key -> stats
        self._stats: dict = {}
        self._stack: list[list] = []  # open spans: [index, child seconds]
        self._peaks: list[list] = []  # open peak spans: [base bytes, peak bytes, started tracemalloc]
        self._undo: list = []
        self.missing: list[str] = []

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stats = {}

    def end_op(self) -> None:
        self.ops.append(self._stats)
        self._stats = {}

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, peak: bool) -> tuple:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(0)
        self.end.append(math.nan)
        mem = None
        if peak:
            if tracemalloc.is_tracing():
                cur, pk = tracemalloc.get_traced_memory()
                for p in self._peaks:
                    p[1] = max(p[1], pk)
                tracemalloc.reset_peak()
                mem = [cur, cur, False]
            else:
                tracemalloc.start()
                mem = [0, 0, True]
            self._peaks.append(mem)
        self._stack.append([idx, 0.0])
        t = time.perf_counter()
        self.start.append(t)
        return idx, mem

    def _exit(self, token: tuple, name: str, error: bool, label=None, draws=0, nbytes=0) -> None:
        t = time.perf_counter()
        idx, mem = token
        _, child_s = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        if error:
            self.error[idx] = 1
        peak_mb = 0.0
        if mem is not None:
            _, pk = tracemalloc.get_traced_memory()
            self._peaks.pop()
            mem[1] = max(mem[1], pk)
            for p in self._peaks:
                p[1] = max(p[1], mem[1])
            peak_mb = (mem[1] - mem[0]) / MB
            if mem[2]:
                tracemalloc.stop()
            else:
                tracemalloc.reset_peak()
        keys = (name,) if label is None else (name, f"{name}[{label}]")
        for key in keys:
            s = self._stats.get(key)
            if s is None:
                s = self._stats[key] = _new_stats()
            s["calls"] += 1
            s["errors"] += error
            s["self_s"] += dur - child_s
            s["total_s"] += dur
            s["draws"] += draws
            s["bytes"] += nbytes
            s["peak_mb"] = max(s["peak_mb"], peak_mb)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn, name: str, options=()):
        peak = "peak" in options
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = rec._enter(name, peak)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = "exit_code" in options and result != 0
                return result
            finally:
                label = generator_label(args[0]) if "label" in options else None
                draws = int(args[1] if len(args) > 1 else kwargs["count"]) if "draws" in options else 0
                nbytes = _file_size(args[1] if len(args) > 1 else kwargs["path"]) if "bytes" in options else 0
                rec._exit(token, name, error, label=label, draws=draws, nbytes=nbytes)

        return traced

    def install(self) -> None:
        """Replace each target at every hscascade module attribute holding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hscascade" or n.startswith("hscascade."))]
        self.missing = []
        for mod_name, attr, name, options in TARGETS:
            fn = getattr(sys.modules.get(f"hscascade.{mod_name}"), attr, None)
            if fn is None:
                self.missing.append(f"hscascade.{mod_name}.{attr}")
                continue
            wrapped = self._wrap(fn, name, options)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))
        cascade = sys.modules["hscascade.cascade"]
        for cls_name, meth, name in CSV_TARGETS:
            cls = getattr(cascade, cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                self.missing.append(f"hscascade.cascade.{cls_name}.{meth}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, ("bytes",)))
            else:
                wrapped = self._wrap(raw, name, ("bytes",))
            setattr(cls, meth, wrapped)
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Median over traced ops of each per-layer metric."""
        out = {}
        for metric, (key, field) in LAYER_METRICS.items():
            per_op = []
            for stats in self.ops:
                if field is None:
                    per_op.append(sum(s["errors"] for k, s in stats.items()
                                      if k.startswith(key + ".") and "[" not in k))
                else:
                    keys = key if isinstance(key, tuple) else (key,)
                    per_op.append(sum(stats[k][field] for k in keys if k in stats))
            out[metric] = statistics.median(per_op) if per_op else 0.0
        return out

    def breakdown(self) -> dict:
        """Median over traced ops of every recorded stat, breakdown keys included."""
        keys = sorted({k for stats in self.ops for k in stats})
        return {
            k: {f: statistics.median(stats[k][f] if k in stats else 0 for stats in self.ops)
                for f in _new_stats()}
            for k in keys
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )
