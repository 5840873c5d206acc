"""Command-line front end.

Every command is deterministic given its flags and seed, embeds its
resolved configuration in the output metadata, and exits 0 on success,
1 on computation errors (machine-readable JSON on stderr), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import cascade, generators, hausdorff, spectrum, symmetry
from .exponents import CascadeParams, ScalingLaw, conservation_gamma

__all__ = ["main"]


def real(text: str) -> float:
    """Parse a finite numeric flag, accepting exact rationals like 2/3."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


positive_int = _int_at_least(1)
non_negative_int = _int_at_least(0)


def eps_grid(text: str) -> list:
    """Parse 'hi:lo' into a decade grid, e.g. 1e-1:1e-6."""
    try:
        hi, lo = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HI:LO, got {text!r}")
    if not (0 < lo < hi):
        raise argparse.ArgumentTypeError("need 0 < LO < HI")
    n = int(round(math.log10(hi / lo)))
    return [hi * 10.0**-i for i in range(n + 1)]


def _law_from_args(args) -> ScalingLaw:
    gamma = args.gamma
    if gamma is None:
        gamma = conservation_gamma(args.bigC, args.beta, args.k)
    return ScalingLaw(gamma=gamma, big_c=args.bigC, beta=args.beta, k=args.k)


def _add_law_flags(sp, require_r=True):
    sp.add_argument("--beta", type=real, required=True, help="contraction ratio in (0,1)")
    sp.add_argument("--bigC", type=real, required=True, help="concentration amplitude C")
    sp.add_argument("--gamma", type=real, default=None,
                    help="linear drift (default: mean-one conservation value)")
    sp.add_argument("--k", type=positive_int, default=1, help="hierarchy step")
    if require_r:
        sp.add_argument("--r", type=real, required=True, help="scale ratio in (0,1)")


def cmd_simulate(args) -> int:
    law = _law_from_args(args)
    gen = generators.logpoisson_from_scaling(law, args.r)
    if args.mean_one:
        gen = generators.normalize_mean_one(gen)
    params = CascadeParams(r=args.r, k=args.k)
    config = cascade.SimConfig(
        params=params, n_levels=args.levels, n_samples=args.samples, seed=args.seed
    )
    table = cascade.simulate(config, gen)
    zhat = cascade.estimate_zeta(table)
    table.to_csv(args.out_structure)
    zhat.to_csv(args.out_zeta)
    print(f"wrote {args.out_structure} and {args.out_zeta}")
    return 0


def cmd_analyze(args) -> int:
    zhat = cascade.ZetaEstimate.from_csv(args.zeta_csv)
    series = cascade.estimate_deltas(zhat, args.k)
    report = symmetry.classify(series, tol=args.tol)
    if report.verdict == "a1-holds":
        report = symmetry.characterize(series, args.r, args.k, tol=args.tol)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_spectrum(args) -> int:
    law = _law_from_args(args)
    curve = spectrum.spectrum_curve(law, args.d, args.points)
    curve.to_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_stability(args) -> int:
    law = _law_from_args(args)
    ref = generators.logpoisson_from_scaling(law, args.r)
    rows = []
    for eps in args.eps_grid:
        if args.preset == "split":
            s = hausdorff.split_width_for_epsilon(ref, args.r, args.k, eps)
            pert = hausdorff.split_perturbation(ref, args.k, s)
        elif args.preset == "leak":
            pert = hausdorff.leak_perturbation(ref, args.k, args.u2, min(eps, 0.5))
        else:
            pert = hausdorff.smear_perturbation(ref, args.k, min(math.sqrt(eps), 0.2))
        rep = hausdorff.verify_stability(
            pert, ref, args.r, args.k,
            n_samples=args.samples if args.samples else None, seed=args.seed,
        )
        rows.append(rep)
    meta = {
        "preset": args.preset, "r": args.r, "k": args.k, "beta": args.beta,
        "bigC": args.bigC, "seed": args.seed, "samples": args.samples,
    }
    header = ("epsilon", "w1_levy", "bound", "bound_ok", "w1_multiplier")
    table = [
        (rep.epsilon, rep.w1_levy, rep.big_k * math.sqrt(rep.epsilon), rep.bound_ok,
         rep.w1_multiplier)
        for rep in rows
    ]
    cascade.write_csv(args.out or sys.stdout, meta, header, table)
    if args.out:
        print(f"wrote {args.out}")
    return 0 if all(rep.bound_ok for rep in rows) else 1


def cmd_classify_family(args) -> int:
    law = ScalingLaw(
        gamma=args.gamma if args.gamma is not None else 1.0 / 9.0,
        big_c=args.bigC, beta=args.beta, k=args.k,
    )
    lp = generators.logpoisson_from_scaling(law, args.r)
    families = {
        "log-poisson": lp,
        "monofractal": generators.LevyGenerator(drift=law.gamma * math.log(args.r)),
        "log-normal": generators.LevyGenerator(drift=-0.1, sigma2=0.2),
        "log-stable": generators.LevyGenerator(
            drift=lp.a, tail=generators.StableTail(alpha=0.5, c=0.05, x_min=1e-4, x_max=1.0)
        ),
    }
    rows = []
    for name, gen in families.items():
        series = generators.delta_series_analytic(gen, args.r, args.k, args.m_max)
        report = symmetry.classify(series)
        rows.append((name, report.verdict))
    width = max(len(n) for n, _ in rows)
    print(f"{'family'.ljust(width)}  verdict")
    for name, verdict in rows:
        print(f"{name.ljust(width)}  {verdict}")
    return 0


def cmd_determinacy(args) -> int:
    if args.gen == "log-normal":
        gen = generators.LevyGenerator(drift=args.mu, sigma2=args.sigma2)
    elif args.gen == "log-poisson":
        law = _law_from_args(args)
        gen = generators.logpoisson_from_scaling(law, args.r)
    else:
        gen = generators.generator_from_json(args.gen_json)
    terms = generators.carleman_terms(gen, args.P)
    verdict = generators.determinacy_verdict(gen, args.P, args.threshold)
    print(json.dumps({
        "verdict": verdict,
        "partial_sum": float(terms.sum()),
        "last_term": float(terms[-1]),
        "P": args.P,
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hscascade",
        description="Hierarchical-symmetry analysis of multiplicative cascades",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a cascade and estimate exponents")
    _add_law_flags(sp)
    sp.add_argument("--levels", type=positive_int, default=8)
    sp.add_argument("--samples", type=positive_int, default=100_000)
    sp.add_argument("--seed", type=non_negative_int, default=0)
    sp.add_argument("--mean-one", action="store_true", help="normalize the generator to E[W]=1")
    sp.add_argument("--out-structure", default="structure.csv")
    sp.add_argument("--out-zeta", default="zeta.csv")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="classify/characterize a zeta-estimate CSV")
    sp.add_argument("zeta_csv")
    sp.add_argument("--k", type=positive_int, required=True)
    sp.add_argument("--r", type=real, required=True)
    sp.add_argument("--tol", type=real, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("spectrum", help="tabulate the multifractal spectrum")
    _add_law_flags(sp, require_r=False)
    sp.add_argument("--d", type=real, default=1.0, help="support dimension")
    sp.add_argument("--points", type=positive_int, default=101)
    sp.add_argument("--out", default="spectrum.csv")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("stability", help="sweep a perturbation family over an epsilon grid")
    _add_law_flags(sp)
    sp.add_argument("--preset", choices=["split", "leak", "smear"], default="split")
    sp.add_argument("--eps-grid", type=eps_grid, default=eps_grid("1e-1:1e-6"))
    sp.add_argument("--u2", type=real, default=0.3, help="leak target location")
    sp.add_argument("--samples", type=non_negative_int, default=0,
                    help="also estimate multiplier-level W1 with this many samples")
    sp.add_argument("--seed", type=non_negative_int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("classify-family", help="verdict table for the principal families")
    sp.add_argument("--r", type=real, default=0.5)
    sp.add_argument("--k", type=positive_int, default=3)
    sp.add_argument("--beta", type=real, default=2.0 / 3.0)
    sp.add_argument("--bigC", type=real, default=2.0)
    sp.add_argument("--gamma", type=real, default=None)
    sp.add_argument("--m-max", type=positive_int, default=25)
    sp.set_defaults(func=cmd_classify_family)

    sp = sub.add_parser("determinacy", help="Carleman determinacy verdict for a generator")
    sp.add_argument("--gen", choices=["log-normal", "log-poisson", "json"], default="log-normal")
    sp.add_argument("--gen-json", default=None, help="generator JSON document (with --gen json)")
    sp.add_argument("--sigma2", type=real, default=0.2)
    sp.add_argument("--mu", type=real, default=-0.1)
    sp.add_argument("--beta", type=real, default=2.0 / 3.0)
    sp.add_argument("--bigC", type=real, default=2.0)
    sp.add_argument("--gamma", type=real, default=1.0 / 9.0)
    sp.add_argument("--k", type=positive_int, default=3)
    sp.add_argument("--r", type=real, default=0.5)
    sp.add_argument("--P", type=positive_int, default=200)
    sp.add_argument("--threshold", type=real, default=1e-6)
    sp.set_defaults(func=cmd_determinacy)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gen", None) == "json" and args.gen_json is None:
        parser.error("--gen json requires --gen-json")
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
