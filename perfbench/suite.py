#!/usr/bin/env python3
"""All four workloads from one command.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per workload, each in a fresh process (so peak RSS
belongs to one workload), and prints each run's report.  Exits 1 if any
op of any workload failed its correctness check.

With ``--trace 1`` it also prints the per-layer baseline table (the one
in the ROADMAP) and the tracing overhead of each workload.  Every row
names the workload and the span it was read from; ``[label]`` marks a
per-generator breakdown.  Values are medians over the traced ops of a
run; "per call" divides a span's total time in an op by its calls in
that op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

from run import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))

# (row, workload, span key, field, per call)
ROWS = (
    ("`simulate`, 8 levels x 100k samples", "readme_cli", "cascade.simulate", "total_s", False),
    ("  of which `sample_logW`", "readme_cli", "generators.sample_logW", "total_s", False),
    ("`simulate`, 8 levels x 1M samples", "mc_logpoisson", "cascade.simulate", "total_s", False),
    ("  of which `sample_logW`", "mc_logpoisson", "generators.sample_logW", "total_s", False),
    ("  tracemalloc peak of `simulate`", "mc_logpoisson", "cascade.simulate", "peak_mb", False),
    ("`sample_logW`, 200-atom generator, 1M samples", "mc_multi_atom",
     "generators.sample_logW[200atoms]", "total_s", False),
    ("`sample_logW`, stable tail, 1M samples (~10 jumps each)", "mc_multi_atom",
     "generators.sample_logW[0atoms+tail]", "total_s", False),
    ("`sample_logW`, 33-atom smear, 1M samples", "mc_multi_atom",
     "generators.sample_logW[33atoms]", "total_s", False),
    ("`carleman_terms`, stable tail, P=200", "analytic",
     "generators.carleman_terms[0atoms+tail]", "total_s", True),
    ("`delta_series_analytic`, stable tail, m_max=25", "analytic",
     "generators.delta_series_analytic[0atoms+tail]", "total_s", True),
    ("`split_width_for_epsilon`, mean over eps = 1e-1..1e-6", "analytic",
     "hausdorff.split_width_for_epsilon", "total_s", True),
    ("`f_legendre`, one h", "analytic", "spectrum.f_legendre", "total_s", True),
    ("`spectrum_curve`, 1001 points", "analytic", "spectrum.spectrum_curve", "total_s", False),
    ("`cli.main`, the six README commands", "readme_cli", "cli.main", "total_s", False),
)
WORKLOADS = ("mc_logpoisson", "mc_multi_atom", "analytic", "readme_cli")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """One run in a fresh process; its exit code and, when traced, its run record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0 or not trace:
        return proc.returncode, None
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace1")
    with open(stem + ".json") as fh:
        record = json.load(fh)
    record["metrics"] = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    record["sampling_share"] = sampling_share(stem + "-spans.npz")
    return proc.returncode, record


def sampling_share(spans_path: str):
    """Median over ops of the share of `simulate` time spent in its child `sample_logW`."""
    spans = np.load(spans_path)
    names = spans["names"].tolist()
    if "cascade.simulate" not in names or "generators.sample_logW" not in names:
        return None
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["end"] - spans["start"]
    is_sim = name == names.index("cascade.simulate")
    in_sim = (name == names.index("generators.sample_logW")) & (parent >= 0)
    in_sim[in_sim] = is_sim[parent[in_sim]]
    return statistics.median(
        dur[in_sim & (op == i)].sum() / dur[is_sim & (op == i)].sum()
        for i in np.unique(op[is_sim])
    )


def fmt(value: float, field: str) -> str:
    if field == "peak_mb":
        return f"{value:.0f} MB"
    return f"{value * 1e3:.3g} ms" if value < 1.0 else f"{value:.3g} s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    codes, records = {}, {}
    for w in WORKLOADS:
        codes[w], records[w] = run_workload(w, args.seed, args.seconds, args.trace)
    bad = {w: c for w, c in codes.items() if c != 0}
    if bad:
        print(f"FAILED: {bad} (exit codes)")
        return 1
    if args.trace:
        print_baseline(records, args.seed)
    return 0


def print_baseline(records: dict, seed: int) -> None:
    print()
    rec = records["mc_logpoisson"]
    print(f"nproc {rec['nproc']}, RAM {rec['ram_mb'] / 1024:.1f} GiB, Python {rec['python']}, "
          f"NumPy {rec['numpy']}, SciPy {rec['scipy']}, git {rec['git_sha']}, seed {seed}")
    print()
    print("| path | value | workload | span.field |")
    print("| --- | --- | --- | --- |")
    for label, workload, key, field, per_call in ROWS:
        stats = records[workload]["breakdown"].get(key)
        if stats is None:
            print(f"| {label} | not recorded | {workload} | {key}.{field} |")
            continue
        value = stats[field] / stats["calls"] if per_call else stats[field]
        print(f"| {label} | {fmt(value, field)} | {workload} | {key}.{field}"
              f"{' / calls' if per_call else ''} |")
    print()
    print("| workload | sampling share of `simulate` | untraced op p50 | traced op p50 | overhead |")
    print("| --- | --- | --- | --- | --- |")
    for workload, rec in records.items():
        m, share = rec["metrics"], rec["sampling_share"]
        share = "-" if share is None else f"{share:.0%}"
        print(f"| {workload} | {share} | {fmt(m['trace.untraced_op_p50_s']['value'], 's')} | "
              f"{fmt(m['trace.traced_op_p50_s']['value'], 's')} | "
              f"{m['trace.overhead']['value']:+.0%} |")


if __name__ == "__main__":
    sys.exit(main())
