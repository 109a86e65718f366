"""Command-line front end.

Subcommands: eig (eigenvalues of a named kernel), decay (eigendecay report;
with --pairs 1 it prints one random pair's design-operator spectrum),
regress (one-shot oracle on a dataset file), run (one decision-making
episode per seed), sweep (regression error vs n), and fit-slope (log-log
slope of a saved trace CSV or summary JSON).

decay, regress, run and sweep read every experiment setting from the JSON
config named by --config (``harness.ExperimentConfig``); decay's --pairs
and --seed shape its report only.

Every file a command writes holds each float as its shortest round-trip
repr, so it reads back bit for bit.

Exit codes: 0 success, 2 bad usage, config or input file (a CSV field that
does not parse, or a summary checkpoint that is not a pair of numbers,
included), 3 contract violation or input too large, 4 missing file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import harness
from .engine import dyadic_checkpoints
from .numerics import degenerate_kernel_eig
from .regression import regress

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_MISSING = 4

NAMED_KERNELS = {
    "min": lambda s, t: np.minimum(s, t),
    "prod": lambda s, t: s * t,
    "const": lambda s, t: np.ones_like(s + t),
}


def cmd_eig(args) -> int:
    spec = degenerate_kernel_eig(NAMED_KERNELS[args.kernel], args.n, args.r)
    for i, lam in enumerate(spec.eigenvalues[: args.top], start=1):
        print("lambda_%d = %.10g" % (i, lam))
    return EXIT_OK


def cmd_decay(args) -> int:
    config = harness.ExperimentConfig.load(args.config)
    env = harness.build_environment(config)
    fit = harness.eigendecay_prepass(env, args.seed, args.pairs)
    print("gamma = %.2f" % fit.gamma)
    print("s0 = %.6g" % fit.s0)
    print("tau =", " ".join("%.10g" % t for t in fit.tau))
    return EXIT_OK


def cmd_regress(args) -> int:
    config = harness.ExperimentConfig.load(args.config)
    dataset = harness.read_dataset_csv(args.dataset)
    env = harness.build_environment(config)
    K, d = env.action_count, env.context_dim
    A, width = dataset.A, dataset.X.shape[1]
    if len(A) and not (0 <= A.min() and A.max() < K and width == d):
        raise ValueError("records (actions %d..%d, contexts of %d columns) are not ones the "
                         "environment produces (actions 0..%d, %d columns)"
                         % (A.min(), A.max(), width, K - 1, d))
    gamma, _s0, _src = harness.resolve_gamma(config, env)
    estimate = regress(dataset, env.basis, gamma, config.M,
                       env.omega_grid, env.s_grid)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    theta_path = outdir / "theta_hat.csv"
    harness.write_csv(theta_path, ["w0", "theta"],
                      zip(env.omega_grid.nodes, estimate.theta_hat.values))
    diag = dataclasses.asdict(estimate.diagnostics)
    (outdir / "diagnostics.json").write_text(json.dumps(diag, indent=2))
    print("wrote %s" % theta_path)
    return EXIT_OK


def cmd_run(args) -> int:
    config = harness.ExperimentConfig.load(args.config)
    outdir = Path(config.output_dir)
    for seed in config.seeds:
        start = time.perf_counter()
        trace = harness.run_config(config, seed)
        wall = time.perf_counter() - start
        outdir.mkdir(parents=True, exist_ok=True)
        harness.write_trace_csv(trace, outdir / ("trace_seed%d.csv" % seed))
        harness.write_summary_json(trace, outdir / ("summary_seed%d.json" % seed),
                                   config, wall)
        print("seed %d: final regret %.6g (%d oracle calls, %.2fs)"
              % (seed, trace.summary["final_regret"],
                 trace.summary["oracle_calls"], wall))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = harness.ExperimentConfig.load(args.config)
    env = harness.build_environment(config)
    gamma, _s0, _src = harness.resolve_gamma(config, env)
    rows = harness.sweep_regression_error(env, config.sweep_n, config.seeds,
                                          gamma, config.M, config.heldout_pairs)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    columns = ["n", "median", "q1", "q3"]
    harness.write_csv(path, columns, ([row[k] for k in columns] for row in rows))
    for row in rows:
        print("n=%d median=%.6g" % (row["n"], row["median"]))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_fit_slope(args) -> int:
    path = Path(args.input)
    if path.suffix == ".json":
        checkpoints = json.loads(path.read_text())["checkpoints"]
        # a JSON number loads as an int or a float; true and false load as bools
        for point in checkpoints if isinstance(checkpoints, list) else [checkpoints]:
            if not (isinstance(point, list) and len(point) == 2
                    and all(type(v) in (int, float) for v in point)):
                raise TypeError("%s: checkpoint %r is not a pair of numbers" % (path, point))
    else:
        checkpoints = dyadic_checkpoints(harness.read_trace_csv(path)["cum_regret"])
    # skip zero-regret checkpoints only: a NaN or negative one fails the fit
    slope = harness.fit_loglog_slope([(r, v) for r, v in checkpoints if v != 0])
    print("slope = %.6g" % slope)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdfreg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="eigenvalues of a named kernel")
    p.add_argument("--kernel", choices=sorted(NAMED_KERNELS), required=True)
    p.add_argument("--n", type=int, default=32, help="partition cells")
    p.add_argument("--r", type=int, default=4, help="polynomial degree")
    p.add_argument("--top", type=int, default=10, help="eigenvalues printed (at least 1)")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("decay", help="empirical eigendecay report")
    p.add_argument("--config", required=True)
    p.add_argument("--pairs", type=int, default=harness.DECAY_PAIRS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("regress", help="one-shot oracle on a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_regress)

    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("fit-slope", help="log-log slope of a trace or summary")
    p.add_argument("input")
    p.set_defaults(func=cmd_fit_slope)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eig" and args.top < 1:
        parser.error("argument --top: must be at least 1, not %d" % args.top)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print("missing file: %s" % exc, file=sys.stderr)
        return EXIT_MISSING
    except (json.JSONDecodeError, csv.Error, TypeError, KeyError) as exc:
        print("malformed config or input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("contract violation: %s" % exc, file=sys.stderr)
        return EXIT_CONTRACT
    except (OverflowError, MemoryError) as exc:
        print("contract violation: input too large to run (%r)" % (exc,), file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
