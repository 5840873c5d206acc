#!/usr/bin/env python3
"""Write perfbench/reference.json, the analytic workload's expected values.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, and only when the analytic results
are meant to change: every analytic op is compared with this file.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_PATH, Analytic  # noqa: E402

if __name__ == "__main__":
    wl = Analytic(seed=0, workdir=ROOT)
    out = wl.run(0)
    doc = {"determinacy": out["determinacy"], "values": Analytic.values(out)}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
