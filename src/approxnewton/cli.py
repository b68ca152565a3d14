"""Command-line interface.

Subcommands:
  run <config.yaml>     run an experiment config (or --experiment <name> for
                        a built-in definition); flags override config keys
  plot <run_dir>        render an SVG chart of a run dir's plot data
  verify-embedding      Monte-Carlo subspace-embedding success rates
  gen-synthetic         generate a controlled-spectrum least-squares problem

The default output directory is taken from $APPROXNEWTON_OUT when set.
Exit codes: 0 success, 1 configuration error, 2 partial run failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import experiments, sketch
from .errors import ApproxNewtonError, DomainError
from .problems import synthetic_spectrum_matrix


def _cmd_run(args) -> int:
    overrides = {
        "output_dir": args.out,
        "seeds": [args.seed] if args.seed is not None else None,
        "workers": args.workers,
    }
    try:
        if args.config:
            if args.full_scale:
                raise DomainError("--full-scale applies to --experiment only")
            if args.experiment:
                raise DomainError("--experiment takes no config file")
            cfg = experiments.load_config(args.config, overrides)
        elif args.experiment:
            out = experiments.resolve_output_dir(args.out)
            cfg = experiments.default_config(args.experiment, out, bool(args.full_scale))
            # --seed and --workers, checked by replace() as a config file's are
            given = {k: overrides[k] for k in ("seeds", "workers")}
            cfg = dataclasses.replace(
                cfg, **{k: v for k, v in given.items() if v is not None}
            )
        else:
            print("run: need a config file or --experiment", file=sys.stderr)
            return 1
    except (ApproxNewtonError, OSError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        code = experiments.run_experiment(cfg)
    except ApproxNewtonError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(f"experiment {cfg.experiment}: outputs in {cfg.output_dir}")
    return code


def _cmd_plot(args) -> int:
    try:
        written = experiments.emit_plot_data(args.run_dir)
    except ApproxNewtonError as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def _cmd_verify_embedding(args) -> int:
    try:
        cfg = experiments.ExperimentConfig(
            experiment=experiments.EMBEDDING_CHECK,
            problem={"kind": "embedding", "d": args.d, "m": args.m,
                     "eps": args.eps, "seed": args.problem_seed},
            grid=[{"sketch_kind": kind} for kind in args.kinds],
            seeds=list(range(args.seeds)),
            output_dir=experiments.resolve_output_dir(args.out),
        )
        code = experiments.run_experiment(cfg)
    except ApproxNewtonError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    rates_path = os.path.join(cfg.output_dir, "embedding_rates.csv")
    with open(rates_path) as fh:
        print(fh.read().rstrip())
    return code


def _cmd_gen_synthetic(args) -> int:
    try:
        experiments.check_seed(args.seed)
        ds = synthetic_spectrum_matrix(args.n, args.d, args.decay, args.seed)
        if args.out:
            np.savez(args.out, rows=ds.rows, labels=ds.labels)
    except (ApproxNewtonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    svals = np.linalg.svd(ds.rows, compute_uv=False)
    kappa = svals[0] / svals[-1]
    print(f"name: {ds.name}")
    print(f"shape: {ds.rows.shape[0]} x {ds.rows.shape[1]}")
    print(f"kappa: {kappa:.10g}")
    print(f"sigma_max: {svals[0]:.10g}")
    print(f"sigma_min: {svals[-1]:.10g}")
    if args.out:
        print(f"written: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="approxnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment")
    run_p.add_argument("config", nargs="?", help="YAML experiment config")
    run_p.add_argument("--experiment", choices=experiments.EXPERIMENTS)
    run_p.add_argument("--seed", type=int, help="replace the seed list")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--full-scale", action="store_true", dest="full_scale",
                       help="8000x5000 problem of regularized_sweep or newsamp_sweep")
    run_p.add_argument("--workers", type=int,
                       help="grid cells run at once (default: the cores BLAS leaves free)")
    run_p.set_defaults(func=_cmd_run)

    plot_p = sub.add_parser("plot", help="render a run directory's plot data")
    plot_p.add_argument("run_dir")
    plot_p.set_defaults(func=_cmd_plot)

    emb_p = sub.add_parser("verify-embedding", help="embedding success rates")
    emb_p.add_argument("--d", type=int, default=10)
    emb_p.add_argument("--m", type=int, default=400)
    emb_p.add_argument("--eps", type=float, default=0.5)
    emb_p.add_argument("--seeds", type=int, default=200)
    emb_p.add_argument("--problem-seed", type=int, default=3)
    emb_p.add_argument("--kinds", nargs="+", default=list(sketch.ALL_KINDS),
                       choices=list(sketch.ALL_KINDS))
    emb_p.add_argument("--out")
    emb_p.set_defaults(func=_cmd_verify_embedding)

    gen_p = sub.add_parser("gen-synthetic", help="controlled-spectrum matrix")
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--d", type=int, required=True)
    gen_p.add_argument("--decay", type=float, default=1.2)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", help="write rows/labels to this .npz file")
    gen_p.set_defaults(func=_cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
