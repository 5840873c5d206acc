#!/usr/bin/env python3
"""Closed-loop benchmark of hscascade.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``./src``, so nothing needs installing.  Each run is one process and one
client with no threads: op i+1 starts only after op i and its
correctness check have finished.  Ops run for S seconds (the op in
flight finishes), then the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics and their units are the ones BENCHMARK.json
lists.

--trace 0  end-to-end metrics (``end_to_end`` in BENCHMARK.json).  The
           machine's speed is probed before every op and every set-up
           process (``probe.py``), and the reported times are divided by
           it; the wall-clock figures are printed next to them.
--trace 1  per-layer metrics (``per_layer``) from spans recorded around
           hscascade's public functions.  Ops alternate untraced and
           traced, so the run also reports the tracing overhead.

Details of each run (machine, versions, git SHA, seed, thread settings,
generated inputs, op times, failures, the full per-span breakdown) go
to ``.perfbench-out/``; traced runs also write their spans there.

Exit status: 0 when every op passed its checks; 1 when an op failed
(the result line is still printed); 2, with no result line, when the
benchmark cannot start, e.g. when ``./src/hscascade`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import hscascade from ./src of this checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hscascade", "__init__.py")):
        fail(f"no hscascade sources under {SRC}")
    sys.path.insert(0, SRC)
    import hscascade

    if not os.path.abspath(hscascade.__file__).startswith(SRC + os.sep):
        fail(f"hscascade was imported from {hscascade.__file__}, not {SRC}")
    import probe
    import spans
    import workloads

    return probe, spans, workloads


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (times set-up)")
    return ap.parse_args()


def measure_setup(args, probe) -> tuple:
    """Set-up time of fresh processes: from spawn until the first op could run.

    Returns the wall times and the probe's speed factor before each spawn
    and after the last.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times, speeds = [], []
    for _ in range(SETUP_REPEATS):
        speeds.append(probe.measure())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            fail(f"set-up process exited {code}")
    speeds.append(probe.measure())
    return times, speeds


def speed_corrected(times: list, speeds: list) -> list:
    """Each time divided by the mean speed factor measured either side of it."""
    return [t / (0.5 * (a + b)) for t, a, b in zip(times, speeds, speeds[1:])]


def run_loop(wl, seconds: float, recorder=None, probe=None) -> dict:
    """Closed loop for `seconds`; with a recorder, odd ops are traced.

    With a probe, the machine's speed is measured before every op and
    after the last one.
    """
    untraced, traced, failures, speeds = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        if probe is not None:
            speeds.append(probe.measure())
        trace_op = recorder is not None and i % 2 == 1
        if trace_op:
            recorder.install()
            recorder.begin_op(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            if trace_op:
                recorder.end_op()
                recorder.uninstall()
        (traced if trace_op else untraced).append(dt)
        if error is None:
            try:
                problems = wl.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        out = None  # release the op's output before the next op runs
        if problems:
            failures.append({"op": i, "problems": problems})
        i += 1
    if probe is not None:
        speeds.append(probe.measure())
    return {"attempted": i, "untraced_s": untraced, "traced_s": traced, "failures": failures,
            "speeds": speeds}


def tail_percentile(times: list):
    """Highest of the usual percentiles with at least ten ops beyond it."""
    n = len(times)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return q, cuts[int(round(q * 10)) - 1]
    return None


def git_sha():
    """HEAD of ./.git, read directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, wl) -> dict:
    import numpy
    import scipy

    import hscascade

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hscascade": hscascade.__version__,
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "inputs": wl.inputs(),
    }


def main() -> int:
    probe, spans, workloads = import_library()
    args = parse_args(sorted(workloads.WORKLOADS))
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl = make(args.seed, OUT_DIR)
        print("ready", flush=True)
        wl.close()
        return 0

    speed_probe = None
    setup_times, setup_speeds = [], []
    if not args.trace:
        # set-up is interpreter start and imports, the same work for every
        # workload, so it is probed with the interpreter-bound pieces
        setup_times, setup_speeds = measure_setup(args, probe.SpeedProbe(probe.SETUP))
        speed_probe = probe.SpeedProbe(make.PROBE)
    wl = make(args.seed, OUT_DIR)
    recorder = spans.Recorder() if args.trace else None
    try:
        loop = run_loop(wl, args.seconds, recorder, speed_probe)
        record = run_record(args, wl)
        record["diagnostics"] = wl.diagnostics()
    finally:
        wl.close()

    attempted, failures = loop["attempted"], loop["failures"]
    untraced = loop["untraced_s"]
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        traced_p50 = statistics.median(loop["traced_s"])
        untraced_p50 = statistics.median(untraced)
        values = recorder.layer_metrics()
        values["trace.traced_op_p50_s"] = traced_p50
        values["trace.untraced_op_p50_s"] = untraced_p50
        values["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
        record["breakdown"] = recorder.breakdown()
        record["targets_not_found"] = recorder.missing
        recorder.save(stem + "-spans.npz")
        wanted = spec["per_layer"]
    else:
        setup_ref = speed_corrected(setup_times, setup_speeds)
        op_ref = speed_corrected(untraced, loop["speeds"])
        values = {
            "setup_s": statistics.median(setup_ref),
            "ops_per_s": len(op_ref) / sum(op_ref),
            "op_p50_s": statistics.median(op_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(untraced) / sum(untraced),
            "op_p50_s": statistics.median(untraced),
        }
        record.update(setup_s_each=setup_times, setup_speeds=setup_speeds,
                      op_speeds=loop["speeds"], wall_clock=wall)
        wanted = spec["end_to_end"]
    record.update(op_s=untraced, traced_op_s=loop["traced_s"], failures=failures)

    # human-readable report
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: "
          f"{attempted} ops in a closed loop (1 client)")
    for m in wanted:
        print(f"  {m['name']:<45} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"  speed factor, median over the run: {statistics.median(loop['speeds']):.4g}"
              " (times above are divided by it; wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()) + ")")
    print(f"  {'failed_frac':<45} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    if not args.trace:
        tail = tail_percentile(op_ref)
        if tail is None:
            print(f"  op tail percentile: none with >= 10 ops beyond it ({len(untraced)} ops)")
        else:
            print(f"  {'op_p%g_s' % tail[0]:<45} {tail[1]:.6g} s (n = {len(untraced)})")
            record["op_tail_s"] = {"percentile": tail[0], "value": tail[1], "n": len(untraced)}
    for name, diag in record["diagnostics"].items():
        print(f"  diagnostic {name}: {json.dumps(diag)}")
    for f in failures[:10]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['problems'])}")
    if recorder is not None and recorder.missing:
        print(f"  not traced (not found): {', '.join(recorder.missing)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  run record: {stem}.json")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
