"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__``
(its share of set-up), runs one op with ``run(i)``, and checks that op's
output with ``check(out)``, which returns a list of failures.  Ops call
hscascade through module attributes (``cascade.simulate``, not a name
imported here), so the span recorder sees every call.

Monte Carlo outputs are checked statistically, never by digest: a
deliberate change to the random stream is not a failure, a wrong answer
is.  The analytic workload draws no samples; its inputs are fixed and its
outputs are compared with values recorded at the commit that introduced
the benchmark (``reference.json``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from hscascade import cascade, cli, generators, hausdorff, spectrum, symmetry
from hscascade.exponents import CascadeParams, ScalingLaw

R, K = 0.5, 3
LAW = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=K)
LP = generators.logpoisson_from_scaling(LAW, R)
# the log-stable family of `hscascade classify-family`, about 10 jumps per sample
STABLE_TAIL = generators.LevyGenerator(
    drift=LP.a, tail=generators.StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)
)
PARAMS = CascadeParams(r=R, k=K)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


MAX_SE = 6.0  # |zeta_hat_p - zeta_p| / se allowed at orders 0 < p <= k


def zeta_deviations(zhat, gen) -> dict:
    """{p: (zeta_hat_p - psi(p)/ln r) / se} for every estimated order p > 0."""
    ln_r = math.log(R)
    return {float(p): (z - generators.ln_moment(gen, p) / ln_r) / se
            for p, z, se in zip(zhat.p, zhat.zeta_hat, zhat.se) if p > 0}


def op_seed(seed: int, i: int) -> int:
    """Seed of op i, derived from the workload seed only."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    """Inputs from the workload seed; ``run`` one op, ``check`` its output."""

    # pieces of the speed probe (probe.py) that resemble this workload's work
    PROBE = ("python_loop", "quad", "numpy", "python_heap")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self) -> dict:
        return {}

    def run(self, i: int):
        raise NotImplementedError

    def check(self, out) -> list:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class McLogPoisson(Workload):
    """Canonical law at 8 levels x 1M samples, then the full estimation chain."""

    PROBE = ("numpy_alloc", "python_heap")

    def inputs(self) -> dict:
        return {"generator": generators.generator_to_dict(LP), "levels": 8,
                "samples": 1_000_000, "op_seed": "SeedSequence([seed, op]).generate_state(1)[0]"}

    def run(self, i: int):
        cfg = cascade.SimConfig(params=PARAMS, n_levels=8, n_samples=1_000_000,
                                seed=op_seed(self.seed, i))
        table = cascade.simulate(cfg, LP)
        zhat = cascade.estimate_zeta(table)
        report = symmetry.characterize(cascade.estimate_deltas(zhat, K), R, K)
        return table, zhat, report

    def check(self, out) -> list:
        table, zhat, report = out
        failures = []
        zero = table.p == 0.0
        if np.any(table.ln_s[zero] != 0.0) or np.any(table.se[zero] != 0.0):
            failures.append("p = 0 rows are not exactly 0")
        # tolerances of acceptance criterion 8 (set there for 100k samples)
        z3 = zhat.value(3.0)[0]
        if not abs(z3 - 1.0) < 0.03:
            failures.append(f"zeta_3 = {z3} not within 0.03 of 1")
        if not abs(report.beta_hat - 2.0 / 3.0) < 0.05:
            failures.append(f"beta_hat = {report.beta_hat} not within 0.05 of 2/3")
        if not abs(report.law.big_c - 2.0) < 0.3:
            failures.append(f"C_hat = {report.law.big_c} not within 0.3 of 2")
        for p, dev in zeta_deviations(zhat, LP).items():
            if p <= K and not abs(dev) <= MAX_SE:
                failures.append(f"zeta_{p:g} off by {dev:.2f} se")
        return failures


class McMultiAtom(Workload):
    """Jump assignment: 200 atoms, a stable tail, and a 33-atom CRN pair."""

    PROBE = ("numpy_alloc", "python_heap")

    N_ATOMS = 200

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.N_ATOMS]))
        locs = rng.uniform(-0.4, -0.02, self.N_ATOMS)
        rates = rng.dirichlet(np.ones(self.N_ATOMS)) * LP.lam  # total rate of the canonical law
        self.gens = {
            "atoms200": generators.LevyGenerator(drift=LP.a, atoms=tuple(zip(locs, rates))),
            "stable_tail": STABLE_TAIL,
        }
        self.smear = hausdorff.smear_perturbation(LP, K, 0.2)
        # largest |zeta_hat_p - zeta_p| / se over all orders: the known
        # high-order jackknife defect, reported but not checked
        self.worst_z = {name: {"z": 0.0, "p": None, "op": None} for name in self.gens}
        self._op = 0

    def inputs(self) -> dict:
        return {name: generators.generator_to_dict(g) for name, g in self.gens.items()} | {
            "smear": "smear_perturbation(canonical, k=3, width=0.2), 33 atoms",
            "levels": 8, "samples": 125_000, "w1_samples": 1_000_000,
            "op_seed": "SeedSequence([seed, op]).generate_state(1)[0]",
        }

    def run(self, i: int):
        self._op = i
        s = op_seed(self.seed, i)
        zetas = {}
        for name, gen in self.gens.items():
            cfg = cascade.SimConfig(params=PARAMS, n_levels=8, n_samples=125_000, seed=s)
            zetas[name] = cascade.estimate_zeta(cascade.simulate(cfg, gen))
        w1 = hausdorff.empirical_w1_multipliers(self.smear, LP, 1_000_000, s)
        return zetas, w1

    def check(self, out) -> list:
        zetas, w1 = out
        failures = []
        for name, zhat in zetas.items():
            worst = self.worst_z[name]
            for p, dev in zeta_deviations(zhat, self.gens[name]).items():
                if abs(dev) > abs(worst["z"]):
                    worst.update(z=float(dev), p=p, op=self._op)
                if p <= K and not abs(dev) <= MAX_SE:
                    failures.append(f"{name}: zeta_{p:g} off by {dev:.2f} se")
        if not (math.isfinite(w1) and w1 > 0.0):
            failures.append(f"W1 = {w1} is not finite and positive")
        return failures

    def diagnostics(self) -> dict:
        return {"max_abs_z_over_orders": self.worst_z}


class Analytic(Workload):
    """Deterministic analytic paths: no samples, fixed inputs."""

    EPS_GRID = tuple(10.0**-e for e in range(1, 7))
    REL_TOL = 1e-6  # against the values in reference.json
    VERDICTS = {"log-poisson": "a1-holds", "monofractal": "monofractal",
                "log-normal": "affine-divergent", "log-stable": "power-decay"}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.families = {  # as in `hscascade classify-family`
            "log-poisson": LP,
            "monofractal": generators.LevyGenerator(drift=LAW.gamma * math.log(R)),
            "log-normal": generators.LevyGenerator(drift=-0.1, sigma2=0.2),
            "log-stable": STABLE_TAIL,
        }
        # the canonical atom at 90% of its rate plus a truncated stable tail
        self.tail_perturbation = generators.LevyGenerator(
            drift=LP.a, atoms=((LP.b, 0.9 * LP.lam),),
            tail=generators.StableTail(alpha=0.5, c=0.01, x_min=0.01, x_max=0.5),
        )
        h_min, h_max = spectrum.h_interval(LAW)
        self.hs = np.linspace(h_min, h_max, 102)[1:-1]
        self.reference = None  # a missing file fails every check, loudly
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh)

    def inputs(self) -> dict:
        return {"eps_grid": list(self.EPS_GRID), "carleman_P": 200, "classify_m_max": 25,
                "spectrum_points": 1001, "legendre_h": len(self.hs), "d": 3.0,
                "tail_perturbation": generators.generator_to_dict(self.tail_perturbation)}

    def run(self, i: int) -> dict:
        sweep = []
        for eps in self.EPS_GRID:
            s = hausdorff.split_width_for_epsilon(LP, R, K, eps)
            sweep.append(hausdorff.verify_stability(hausdorff.split_perturbation(LP, K, s), LP, R, K))
        # the determinacy check as `hscascade determinacy` runs it
        terms = generators.carleman_terms(STABLE_TAIL, 200)
        determinacy = generators.determinacy_verdict(STABLE_TAIL, 200)
        verdicts = {
            name: symmetry.classify(generators.delta_series_analytic(g, R, K, 25)).verdict
            for name, g in self.families.items()
        }
        curve = spectrum.spectrum_curve(LAW, 3.0, 1001)
        legendre = [spectrum.f_legendre(LAW, 3.0, h) for h in self.hs]
        tail = hausdorff.verify_stability(self.tail_perturbation, LP, R, K)
        return {"sweep": sweep, "terms": terms, "determinacy": determinacy,
                "verdicts": verdicts, "curve": curve, "legendre": legendre, "tail": tail}

    @classmethod
    def values(cls, out) -> dict:
        """The numbers compared with reference.json."""
        vals = {}
        for eps, rep in zip(cls.EPS_GRID, out["sweep"]):
            vals[f"sweep[{eps:.0e}].epsilon"] = rep.epsilon
            vals[f"sweep[{eps:.0e}].w1_levy"] = rep.w1_levy
        vals["carleman.partial_sum"] = float(out["terms"].sum())
        vals["carleman.last_term"] = float(out["terms"][-1])
        for j in range(0, 1001, 100):
            vals[f"spectrum.f[{j}]"] = float(out["curve"].f[j])
        vals["spectrum.sum_f"] = float(out["curve"].f.sum())
        vals["tail.epsilon"] = out["tail"].epsilon
        vals["tail.w1_levy"] = out["tail"].w1_levy
        vals["tail.eta_mass_gap"] = out["tail"].eta_mass_gap
        return vals

    def check(self, out) -> list:
        if self.reference is None:
            return [f"no reference values: {REFERENCE_PATH} is missing"]
        failures = []
        if out["verdicts"] != self.VERDICTS:
            failures.append(f"verdict table {out['verdicts']}")
        for eps, rep in zip(self.EPS_GRID, out["sweep"]):
            if not rep.bound_ok:
                failures.append(f"split sweep: bound fails at eps {eps:g}")
        if not out["tail"].bound_ok:
            failures.append("tail perturbation: bound fails")
        if out["determinacy"] != self.reference["determinacy"]:
            failures.append(f"determinacy verdict {out['determinacy']}")
        gap = max(abs(f - spectrum.f_closed(LAW, 3.0, h)) for f, h in zip(out["legendre"], self.hs))
        if not gap < 1e-6:
            failures.append(f"|f_legendre - f_closed| = {gap:.3g} >= 1e-6")
        for key, got in self.values(out).items():
            want = self.reference["values"][key]
            if not abs(got - want) <= self.REL_TOL * abs(want):
                failures.append(f"{key} = {got!r}, recorded {want!r}")
        return failures


class ReadmeCli(Workload):
    """The six README commands, in-process through hscascade.cli.main."""

    LAW_FLAGS = ["--beta", "2/3", "--bigC", "2", "--gamma", "1/9", "--k", "3"]

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.tmp = tempfile.mkdtemp(prefix="readme_cli-", dir=workdir)

    def inputs(self) -> dict:
        return {"commands": [" ".join(a) for a in self.commands(0)],
                "simulate_seed": "SeedSequence([seed, op]).generate_state(1)[0]"}

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def commands(self, i: int) -> list:
        path = self.path
        return [
            ["simulate", *self.LAW_FLAGS, "--r", "0.5", "--levels", "8", "--samples", "100000",
             "--seed", str(op_seed(self.seed, i)),
             "--out-structure", path("structure.csv"), "--out-zeta", path("zeta.csv")],
            ["analyze", path("zeta.csv"), "--k", "3", "--r", "0.5"],
            ["spectrum", *self.LAW_FLAGS, "--d", "3", "--out", path("spectrum.csv")],
            ["stability", *self.LAW_FLAGS, "--r", "0.5", "--preset", "split",
             "--eps-grid", "1e-1:1e-6"],
            ["classify-family"],
            ["determinacy", "--gen", "log-normal", "--mu", "-0.1", "--sigma2", "0.2"],
        ]

    def run(self, i: int) -> dict:
        results = {}
        for argv in self.commands(i):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            results[argv[0]] = (code, stdout.getvalue(), stderr.getvalue())
        return results

    def check(self, out) -> list:
        failures = [f"{cmd} exited {code}: {err.strip()}"
                    for cmd, (code, _, err) in out.items() if code != 0]
        if failures:
            return failures
        verdict = json.loads(out["analyze"][1])["verdict"]
        if verdict != "a1-holds":
            failures.append(f"analyze verdict {verdict}")
        table = dict(line.split() for line in out["classify-family"][1].splitlines()[1:])
        if table != Analytic.VERDICTS:
            failures.append(f"classify-family table {table}")
        if json.loads(out["determinacy"][1])["verdict"] != "indeterminate-convergent":
            failures.append("determinacy verdict for log-normal")
        rows = out["stability"][1].splitlines()[2:]
        if len(rows) != 6 or not all(r.split(",")[3] == "true" for r in rows):
            failures.append("stability table")
        with open(self.path("spectrum.csv")) as fh:
            if len(fh.read().splitlines()) != 2 + 101:
                failures.append("spectrum.csv row count")
        return failures

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "mc_logpoisson": McLogPoisson,
    "mc_multi_atom": McMultiAtom,
    "analytic": Analytic,
    "readme_cli": ReadmeCli,
}
