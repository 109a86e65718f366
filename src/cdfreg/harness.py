"""Experiment configuration, dataset and trace I/O, sweeps, and slope
fitting that turn rate claims into pass/fail checks."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .engine import RegretTrace, run_episode
from .environments import (
    Environment,
    make_catalog_env,
    sample_context,
    sample_outcome,
)
from .functionals import make_functional
from .numerics import build_cdf_grid, build_uniform_grid
from .operators import estimate_eigendecay
from .regression import predict_cdf, regress
from .environments import true_cdf


@dataclass(frozen=True)
class ExperimentConfig:
    """Round-trippable description of one experiment."""

    environment: dict = field(default_factory=lambda: {"name": "kumaraswamy"})
    functional: dict = field(default_factory=lambda: {"name": "mean"})
    omega_nodes: int = 32
    omega_dim: int = 1
    s_nodes: int = 64
    horizon: int = 256
    delta: float = 0.1
    gamma: float | str = 1.0  # numeric, or "estimate"
    s0: float = 1.0
    M: float = 2.0
    exploration_scale: float = 1.0
    seeds: tuple = (0,)
    output_dir: str = "out"
    sweep_n: tuple = (64, 256, 1024, 4096)
    heldout_pairs: int = 64

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["sweep_n"] = list(self.sweep_n)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "seeds" in d:
            d["seeds"] = tuple(d["seeds"])
        if "sweep_n" in d:
            d["sweep_n"] = tuple(d["sweep_n"])
        return ExperimentConfig(**d)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @staticmethod
    def load(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))


def build_environment(config: ExperimentConfig) -> Environment:
    omega_grid = build_uniform_grid(config.omega_dim, config.omega_nodes)
    s_grid = build_cdf_grid(config.s_nodes)
    env_params = dict(config.environment)
    name = env_params.pop("name")
    return make_catalog_env(name, omega_grid, s_grid, **env_params)


def build_functional(config: ExperimentConfig):
    params = dict(config.functional)
    name = params.pop("name")
    return make_functional(name, **params)


def resolve_gamma(config: ExperimentConfig, env: Environment,
                  n_pairs: int = 20, k_max: int = 16, seed: int = 0):
    """Numeric (gamma, s0, source) from config or an eigendecay pre-pass."""
    if config.gamma == "estimate":
        rng = np.random.default_rng(seed)
        pairs = [(sample_context(env, rng), int(rng.integers(env.action_count)))
                 for _ in range(n_pairs)]
        fit = estimate_eigendecay(env.basis, pairs, k_max, env.omega_grid, env.s_grid)
        return fit.gamma, max(fit.s0, 1e-6), "estimate"
    return float(config.gamma), float(config.s0), "config"


def generate_dataset(env: Environment, n: int, rng: np.random.Generator):
    """n i.i.d. records with uniform contexts and uniform actions."""
    data = []
    for _ in range(n):
        x = sample_context(env, rng)
        a = int(rng.integers(env.action_count))
        y = sample_outcome(env, x, a, rng)
        data.append((x, a, y))
    return data


def heldout_cdf_error(estimate, env: Environment, n_pairs: int,
                      rng: np.random.Generator) -> float:
    """Mean squared L2(S) distance between predicted and true CDFs over
    fresh (context, action) pairs."""
    total = 0.0
    for _ in range(n_pairs):
        x = sample_context(env, rng)
        a = int(rng.integers(env.action_count))
        f_hat = predict_cdf(estimate, env.basis, x, a, env.omega_grid, env.s_grid)
        f_star = true_cdf(env, x, a)
        diff = f_hat.values - f_star.values
        total += float(env.s_grid.weights @ diff**2)
    return total / n_pairs


def sweep_regression_error(env: Environment, n_list, seeds, gamma: float,
                           M: float, heldout_pairs: int = 64):
    """Median (with quartiles) held-out CDF error per dataset size."""
    if len(seeds) < 5:
        raise ValueError("sweeps need at least 5 seeds for stable medians")
    rows = []
    for n in n_list:
        errors = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            data = generate_dataset(env, n, rng)
            estimate = regress(data, env.basis, gamma, M, env.omega_grid, env.s_grid)
            errors.append(heldout_cdf_error(estimate, env, heldout_pairs, rng))
        q1, med, q3 = np.percentile(errors, [25, 50, 75])
        rows.append({"n": int(n), "median": float(med), "q1": float(q1),
                     "q3": float(q3), "errors": [float(e) for e in errors]})
    return rows


def fit_loglog_slope(checkpoints) -> float:
    """OLS slope of log(value) against log(round)."""
    pts = [(float(r), float(v)) for r, v in checkpoints]
    if len(pts) < 3:
        raise ValueError("need at least 3 checkpoints")
    rounds = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if np.any(np.diff(rounds) <= 0):
        raise ValueError("rounds must be increasing")
    if np.any(values <= 0):
        raise ValueError("checkpoint values must be positive")
    slope, _ = np.polyfit(np.log(rounds), np.log(values), 1)
    return float(slope)


def regret_slope(trace: RegretTrace) -> float | None:
    """Log-log slope of cumulative regret over dyadic checkpoints, skipping
    leading zero-regret checkpoints; None if fewer than 3 remain."""
    pts = [(r, v) for r, v in trace.checkpoints() if v > 0]
    if len(pts) < 3:
        return None
    return fit_loglog_slope(pts)


def run_config(config: ExperimentConfig, seed: int) -> RegretTrace:
    env = build_environment(config)
    functional = build_functional(config)
    gamma, s0, source = resolve_gamma(config, env, seed=seed)
    return run_episode(env, functional, config.horizon, config.delta, gamma,
                       config.M, seed, config.exploration_scale, s0,
                       gamma_source=source)


TRACE_COLUMNS = ("round", "epoch", "action", "optimal_action", "gap", "cum_regret")


def write_trace_csv(trace: RegretTrace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for t, m, _x, a, a_star, gap, cum in trace.records:
            writer.writerow([t, m, a, a_star, "%.12g" % gap, "%.12g" % cum])


def read_trace_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {
                "round": int(row["round"]),
                "epoch": int(row["epoch"]),
                "action": int(row["action"]),
                "optimal_action": int(row["optimal_action"]),
                "gap": float(row["gap"]),
                "cum_regret": float(row["cum_regret"]),
            }
            for row in reader
        ]


def write_summary_json(trace: RegretTrace, path, config: ExperimentConfig | None = None,
                       wall_time: float | None = None):
    summary = dict(trace.summary)
    summary["checkpoints"] = [[int(r), float(v)] for r, v in summary["checkpoints"]]
    if config is not None:
        summary["config"] = config.to_dict()
    if wall_time is not None:
        summary["wall_time_s"] = wall_time
    Path(path).write_text(json.dumps(summary, indent=2))


def write_dataset_csv(dataset, path):
    """Rows: round, context components, action, y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(np.atleast_1d(dataset[0][0]))
        writer.writerow(["round"] + ["x%d" % i for i in range(dim)] + ["action", "y"])
        for i, (x, a, y) in enumerate(dataset):
            writer.writerow([i + 1] + ["%.12g" % c for c in np.atleast_1d(x)]
                            + [a, "%.12g" % y])


def read_dataset_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        data = []
        for row in reader:
            xcols = sorted((k for k in row if k.startswith("x")), key=lambda k: int(k[1:]))
            x = np.array([float(row[k]) for k in xcols])
            data.append((x, int(row["action"]), float(row["y"])))
    return data
