"""Command-line front end.

Subcommands: eig (eigenvalues of a named kernel or catalog basis), decay
(eigendecay report), regress (one-shot oracle on a dataset file), run (one
decision-making episode per seed), sweep (regression error vs n), and
fit-slope (log-log slope of saved regret traces).

Exit codes: 0 success, 2 bad usage or config, 3 numeric contract violation,
4 missing file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import harness
from .environments import sample_context
from .numerics import degenerate_kernel_eig
from .operators import design_operator, estimate_eigendecay, spectral_decompose
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


def _load_config(path) -> harness.ExperimentConfig:
    if not Path(path).exists():
        raise FileNotFoundError(path)
    return harness.ExperimentConfig.load(path)


def _apply_overrides(config, args):
    fields = ["horizon", "delta", "M", "exploration_scale", "omega_nodes",
              "s_nodes", "output_dir"]
    updates = {f: getattr(args, f) for f in fields
               if getattr(args, f, None) is not None}
    if getattr(args, "seeds", None):
        updates["seeds"] = tuple(args.seeds)
    if getattr(args, "gamma", None) is not None:
        g = args.gamma
        updates["gamma"] = g if g == "estimate" else float(g)
    if updates:
        config = harness.ExperimentConfig.from_dict({**config.to_dict(), **updates})
    return config


def cmd_eig(args) -> int:
    if args.kernel is not None:
        kernel = NAMED_KERNELS[args.kernel]
        spec = degenerate_kernel_eig(kernel, args.n, args.r)
    else:
        config = _load_config(args.config)
        env = harness.build_environment(config)
        rng = np.random.default_rng(args.seed)
        pairs = [(sample_context(env, rng), int(rng.integers(env.action_count)))]
        op = design_operator(env.basis, pairs, env.omega_grid, env.s_grid)
        spec = spectral_decompose(op)
    top = spec.eigenvalues[: args.top]
    for i, lam in enumerate(top, start=1):
        print("lambda_%d = %.10g" % (i, lam))
    return EXIT_OK


def cmd_decay(args) -> int:
    config = _load_config(args.config)
    env = harness.build_environment(config)
    rng = np.random.default_rng(args.seed)
    pairs = [(sample_context(env, rng), int(rng.integers(env.action_count)))
             for _ in range(args.pairs)]
    fit = estimate_eigendecay(env.basis, pairs, args.kmax, env.omega_grid, env.s_grid)
    print("gamma = %.2f" % fit.gamma)
    print("s0 = %.6g" % fit.s0)
    print("tau =", " ".join("%.6g" % t for t in fit.tau))
    return EXIT_OK


def cmd_regress(args) -> int:
    config = _load_config(args.config)
    dataset = harness.read_dataset_csv(args.dataset)
    env = harness.build_environment(config)
    gamma, _s0, _src = harness.resolve_gamma(config, env)
    estimate = regress(dataset, env.basis, gamma, config.M,
                       env.omega_grid, env.s_grid)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    theta_path = outdir / "theta_hat.csv"
    with open(theta_path, "w") as fh:
        fh.write("node,theta\n")
        for node, val in zip(env.omega_grid.nodes, estimate.theta_hat.values):
            fh.write("%s,%.12g\n" % (";".join("%.12g" % c for c in node), val))
    diag = {
        "loss": estimate.diagnostics.loss,
        "n_eps": estimate.diagnostics.n_eps,
        "projection_iterations": estimate.diagnostics.projection_iterations,
        "converged": estimate.diagnostics.converged,
        "projection_residual": estimate.diagnostics.projection_residual,
    }
    (outdir / "diagnostics.json").write_text(json.dumps(diag, indent=2))
    print("wrote %s" % theta_path)
    return EXIT_OK


def cmd_run(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        start = time.perf_counter()
        trace = harness.run_config(config, seed)
        wall = time.perf_counter() - start
        harness.write_trace_csv(trace, outdir / ("trace_seed%d.csv" % seed))
        harness.write_summary_json(trace, outdir / ("summary_seed%d.json" % seed),
                                   config, wall)
        print("seed %d: final regret %.6g (%d oracle calls, %.2fs)"
              % (seed, trace.summary["final_regret"],
                 trace.summary["oracle_calls"], wall))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    env = harness.build_environment(config)
    gamma, _s0, _src = harness.resolve_gamma(config, env)
    rows = harness.sweep_regression_error(env, config.sweep_n, config.seeds,
                                          gamma, config.M, config.heldout_pairs)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write("n,median,q1,q3\n")
        for row in rows:
            fh.write("%d,%.12g,%.12g,%.12g\n" % (row["n"], row["median"],
                                                 row["q1"], row["q3"]))
            print("n=%d median=%.6g" % (row["n"], row["median"]))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_fit_slope(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(path)
    if path.suffix == ".json":
        summary = json.loads(path.read_text())
        points = [(r, v) for r, v in summary["checkpoints"] if v > 0]
    else:
        rows = harness.read_trace_csv(path)
        by_round = {row["round"]: row["cum_regret"] for row in rows}
        points = []
        k = 1
        while 2**k in by_round:
            if by_round[2**k] > 0:
                points.append((2**k, by_round[2**k]))
            k += 1
    slope = harness.fit_loglog_slope(points)
    print("slope = %.6g" % slope)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdfreg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="eigenvalues of a named kernel or basis")
    p.add_argument("--kernel", choices=sorted(NAMED_KERNELS))
    p.add_argument("--config", help="config file (used when no --kernel)")
    p.add_argument("--n", type=int, default=32, help="partition cells")
    p.add_argument("--r", type=int, default=4, help="polynomial degree")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("decay", help="empirical eigendecay report")
    p.add_argument("--config", required=True)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--kmax", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("regress", help="one-shot oracle on a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_regress)

    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--horizon", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--M", type=float)
        p.add_argument("--gamma")
        p.add_argument("--exploration-scale", dest="exploration_scale", type=float)
        p.add_argument("--omega-nodes", dest="omega_nodes", type=int)
        p.add_argument("--s-nodes", dest="s_nodes", type=int)
        p.add_argument("--seeds", type=int, nargs="+")
        p.add_argument("--output-dir", dest="output_dir")
        p.set_defaults(func=fn)

    p = sub.add_parser("fit-slope", help="log-log slope of a trace or summary")
    p.add_argument("input")
    p.set_defaults(func=cmd_fit_slope)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print("missing file: %s" % exc, file=sys.stderr)
        return EXIT_MISSING
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        print("malformed config or input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("contract violation: %s" % exc, file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
