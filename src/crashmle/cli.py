"""Command-line interface.

Subcommands: ``fit``, ``effects``, ``lrtest``, ``influence``,
``simulate``.  Every run writes its results plus a
``<out>.manifest.json`` provenance file (command line, input hashes,
seeds, version, timestamp).  Result files themselves contain no
timestamps, so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import fields

from . import families, serialize
from .dataset import load_csv, load_spec
from .influence import search_influence
from .lrtest import lr_test, mc_null_distribution
from .optimize import FitResult, OptimizationError, OptimSettings
from .reporting import VERSION, RunManifest, fit_table_text
from .simulate import DgpConfig, generate

# glibc's malloc_trim, None elsewhere
_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform == "linux" else None


def _settings(args) -> OptimSettings | None:
    if not args.settings:
        return None
    with open(args.settings, "r", encoding="utf-8-sig") as fh:
        d = serialize.require(json.load(fh), (), "optimizer settings")
    # max_iterations is an integer, every other setting a finite number
    typed = {f.name: serialize.integer if f.type == "int" else serialize.number
             for f in fields(OptimSettings)}
    serialize.known(d, typed, "unknown optimizer settings {}")
    return OptimSettings(**{k: typed[k](v, f"optimizer setting {k}") for k, v in d.items()})


def _manifest(args, input_paths, seed=None, n_draws=None) -> RunManifest:
    inputs = {str(p): serialize.sha256_file(p) for p in input_paths}
    return RunManifest(command=args.argv, inputs=inputs, seed=seed, n_draws=n_draws)


def _load_table(args, spec):
    if spec.is_mixed and getattr(args, "draws", 0) is None:  # fit and lrtest take --draws
        raise ValueError("mixed families require --draws")
    table = load_csv(args.data, spec.mode, args.outcome_column, spec.outcomes or None)
    if table.n_dropped:
        print(f"note: dropped {table.n_dropped} rows with missing fields")
    return table


def cmd_fit(args) -> int:
    spec = load_spec(args.spec)
    table = _load_table(args, spec)
    fit = families.fit(table, spec, _settings(args), n_draws=args.draws,
                       seed=args.seed, skip=args.skip, shift=args.shift)
    text = fit_table_text(fit)
    with open(f"{args.out}.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    serialize.write_json(f"{args.out}.json", fit.to_dict())
    _manifest(args, [args.data, args.spec],
              seed=fit.seed, n_draws=fit.n_draws).write(f"{args.out}.manifest.json")
    print(text, end="")
    return 0 if fit.converged else 1


def cmd_effects(args) -> int:
    with open(args.fit, "r", encoding="utf-8-sig") as fh:
        fit = FitResult.from_dict(json.load(fh))
    if fit.spec is None:
        raise ValueError("fit file carries no model spec")
    table = _load_table(args, fit.spec)
    variables = [v.strip() for v in args.vars.split(",")] if args.vars else None

    effects = families.REGISTRY[fit.spec.family].effects
    if args.type not in effects:
        raise ValueError(f"--type {args.type} does not apply to "
                         f"{fit.spec.family} fits; use {' or '.join(effects)}")
    report = effects[args.type](fit, table, variables)

    report.to_csv(f"{args.out}.csv")
    serialize.write_json(f"{args.out}.json", report.to_dict())
    _manifest(args, [args.fit, args.data],
              seed=fit.seed, n_draws=fit.n_draws).write(f"{args.out}.manifest.json")
    width = max((len(r.variable) for r in report.rows), default=8) + 2
    print(f"{report.effect_type} ({report.n_obs} observations)")
    for r in report.rows:
        label = f"{r.variable:<{width}}"
        if r.target:
            label += f"{r.target:<14}{r.outcome:<14}{r.kind:<8}"
        mark = "  [elastic]" if r.elastic and report.effect_type == "elasticity" else ""
        print(f"  {label}{r.value: .4g}{mark}")
    return 0


def cmd_lrtest(args) -> int:
    spec = load_spec(args.spec)
    table = _load_table(args, spec)
    settings = _settings(args)
    if args.mc is not None:
        result = mc_null_distribution(
            table, spec, args.flag, replicates=args.mc, seed=args.seed,
            bins=args.bins, settings=settings, n_draws=args.draws,
            plus_one=args.plus_one)
    else:
        result = lr_test(table, spec, args.flag, settings=settings,
                         n_draws=args.draws)
    serialize.write_json(f"{args.out}.json", result.to_dict())
    if result.histogram_edges is not None:
        result.write_histogram_csv(f"{args.out}.hist.csv")
    _manifest(args, [args.data, args.spec],
              seed=args.seed if args.mc is not None else None,
              n_draws=args.draws if spec.is_mixed else None).write(f"{args.out}.manifest.json")

    print(f"pooling test on {result.flag_column!r} ({result.family})")
    print(f"  ll pooled   {result.pooled.ll:.2f}  ({result.pooled.n_obs} obs)")
    print(f"  ll subset A {result.subset_a.ll:.2f}  ({result.subset_a.n_obs} obs)")
    print(f"  ll subset B {result.subset_b.ll:.2f}  ({result.subset_b.n_obs} obs)")
    print(f"  X2 = {result.x2:.2f}, dof = {result.dof}")
    print(f"  asymptotic p = {result.p_asymptotic:.4f} "
          f"(5% critical value {result.critical_value_05:.2f})")
    if result.p_mc is not None:
        reasons = ", ".join(f"{k} {v}" for k, v in
                            result.replicates_dropped_by_reason.items())
        print(f"  Monte Carlo p = {result.p_mc:.4f} "
              f"({result.replicates_kept} replicates kept, "
              f"{result.replicates_dropped} dropped: {reasons})")
    return 0 if result.all_converged else 1


def cmd_influence(args) -> int:
    spec = load_spec(args.spec)
    table = _load_table(args, spec)
    profile = search_influence(table, spec, args.distance, args.dmin,
                               args.dmax, args.step, settings=_settings(args))
    profile.to_csv(f"{args.out}.csv")
    serialize.write_json(f"{args.out}.json", profile.to_dict())
    _manifest(args, [args.data, args.spec]).write(f"{args.out}.manifest.json")
    print(f"influence search over [{args.dmin}, {args.dmax}] step {args.step}")
    print(f"  best cap D* = {profile.d_star:g}")
    print(f"  influence segment length = {profile.segment_length:g}")
    if profile.flat:
        print("  WARNING: profile is flat; distance not identified")
    return 0


def cmd_simulate(args) -> int:
    with open(args.dgp, "r", encoding="utf-8-sig") as fh:
        d = serialize.require(json.load(fh), (), "dgp config")
    if args.n is not None:
        d["n"] = args.n
    if args.seed is not None:
        d["seed"] = args.seed
    config = DgpConfig.from_dict(d)
    table = generate(config)
    table.to_csv(f"{args.out}.csv", outcome_column=args.outcome_column)
    _manifest(args, [args.dgp], seed=config.seed).write(f"{args.out}.manifest.json")
    print(f"wrote {table.n_rows} rows to {args.out}.csv "
          f"(family {config.spec.family}, seed {config.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashmle",
        description="Maximum-likelihood models for accident severity and frequency")
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", required=True, help="observations CSV")
        p.add_argument("--spec", required=True, help="model spec file")
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--outcome-column", default="outcome")
        p.add_argument("--settings", help="optimizer settings JSON")

    p = sub.add_parser("fit", help="estimate a model")
    add_common(p)
    p.add_argument("--draws", type=int, help="Halton draws (mixed families)")
    p.add_argument("--seed", type=int, default=0, help="draw-shift seed")
    p.add_argument("--skip", type=int, default=10, help="Halton burn-in")
    p.add_argument("--shift", action="store_true",
                   help="apply a seeded Cranley-Patterson shift to the draws")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("effects", help="elasticities or marginal effects of a fit")
    p.add_argument("--fit", required=True, help="fit result JSON")
    p.add_argument("--data", required=True, help="observations CSV")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--outcome-column", default="outcome")
    p.add_argument("--type", required=True,
                   choices=["elasticity", "pseudo", "marginal"])
    p.add_argument("--vars", help="comma-separated variables (default: all)")
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("lrtest", help="parameter-transferability test")
    add_common(p)
    p.add_argument("--flag", required=True, help="0/1 column defining the split")
    p.add_argument("--mc", type=int, metavar="REPLICATES",
                   help="add a Monte Carlo null distribution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=50, help="histogram bins")
    p.add_argument("--plus-one", action="store_true",
                   help="use the (k+1)/(n+1) p-value estimate")
    p.add_argument("--draws", type=int, help="Halton draws (mixed families)")
    p.set_defaults(func=cmd_lrtest)

    p = sub.add_parser("influence", help="influence-distance grid search")
    add_common(p)
    p.add_argument("--distance", required=True, help="distance column to cap")
    p.add_argument("--dmin", type=float, required=True)
    p.add_argument("--dmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("simulate", help="generate synthetic data")
    p.add_argument("--dgp", required=True, help="data-generating config JSON")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--outcome-column", default="outcome")
    p.add_argument("--n", type=int, help="override the config sample size")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)  # what the manifest records
    try:
        return args.func(args)
    except (ValueError, OSError, OptimizationError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if _TRIM is not None:  # freed blocks would stay in glibc's heap (README)
            _TRIM(0)


if __name__ == "__main__":
    sys.exit(main())
