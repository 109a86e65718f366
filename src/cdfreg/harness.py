"""Experiment configuration, dataset and trace I/O, sweeps, and slope
fitting that turn rate claims into pass/fail checks."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .engine import RegretTrace, run_episode
from .environments import (Environment, check_norm_bound, draw_outcomes, make_catalog_env,
                           sample_context)
from .functionals import make_functional
from .numerics import (MAX_EIG_SIZE, build_cdf_grid, build_uniform_grid, checked_count,
                       checked_real, same_grid)
from .operators import EigendecayFit, basis_chunks, estimate_eigendecay
from .regression import Dataset, regress


@dataclass(frozen=True)
class ExperimentConfig:
    """Round-trippable description of one experiment. ``environment`` and
    ``functional`` are dicts whose "name" key holds a string, ``seeds`` and
    ``sweep_n`` are lists or tuples and ``output_dir`` is a string (anything
    else raises ``TypeError``); its counts follow ``numerics.checked_count``
    (stored as ints, ``seeds`` and ``sweep_n`` as tuples), ``omega_nodes``
    at most ``numerics.MAX_EIG_SIZE``, and its reals ``numerics.checked_real``
    (stored as floats, gamma unless "estimate"); a bad value is refused at
    construction."""

    environment: dict = field(default_factory=lambda: {"name": "kumaraswamy"})
    functional: dict = field(default_factory=lambda: {"name": "mean"})
    omega_nodes: int = 32
    s_nodes: int = 64
    horizon: int = 256
    delta: float = 0.1
    gamma: float | str = 1.0  # in (0, 1], or "estimate"
    s0: float = 1.0
    M: float = 2.0
    exploration_scale: float = 1.0
    seeds: tuple = (0,)
    output_dir: str = "out"
    sweep_n: tuple = (64, 256, 1024, 4096)
    heldout_pairs: int = 64

    def __post_init__(self):
        for name in ("environment", "functional"):
            value = getattr(self, name)
            if not (isinstance(value, dict) and isinstance(value.get("name"), str)):
                raise TypeError("%s must be a dict with a \"name\" key holding a string, not %r"
                                % (name, value))
        listed = (list, tuple)
        for name, kind, words in (("seeds", listed, "list"), ("sweep_n", listed, "list"),
                                  ("output_dir", str, "string")):
            if not isinstance(getattr(self, name), kind):
                raise TypeError("%s must be a %s, not %r" % (name, words, getattr(self, name)))
        for name, least in (("omega_nodes", 2), ("s_nodes", 2), ("horizon", 2),
                            ("heldout_pairs", 1)):
            object.__setattr__(self, name, checked_count(
                getattr(self, name), least, "%s must be an integer >= %d, not %%r" % (name, least)))
        # every oracle call eigensolves an omega_nodes-sized kernel
        if self.omega_nodes > MAX_EIG_SIZE:
            raise ValueError("omega_nodes must be at most the %d eigensolver size limit, not %r"
                             % (MAX_EIG_SIZE, self.omega_nodes))
        object.__setattr__(self, "seeds", tuple(
            checked_count(s, 0, "seeds must hold integers >= 0, not %r") for s in self.seeds))
        object.__setattr__(self, "sweep_n", tuple(
            checked_count(n, 1, "sweep_n must hold integers >= 1, not %r") for n in self.sweep_n))
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        for name in ("delta", "gamma", "s0", "M", "exploration_scale"):
            if not (name == "gamma" and self.gamma == "estimate"):
                object.__setattr__(self, name, checked_real(getattr(self, name), name))

    def to_dict(self) -> dict:
        return dict(asdict(self), seeds=list(self.seeds), sweep_n=list(self.sweep_n))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @staticmethod
    def load(path) -> "ExperimentConfig":
        return ExperimentConfig(**json.loads(Path(path).read_text()))


def build_environment(config: ExperimentConfig) -> Environment:
    omega_grid = build_uniform_grid(config.omega_nodes)
    s_grid = build_cdf_grid(config.s_nodes)
    env_params = dict(config.environment)
    name = env_params.pop("name")
    return make_catalog_env(name, omega_grid, s_grid, **env_params)


def build_functional(config: ExperimentConfig):
    params = dict(config.functional)
    name = params.pop("name")
    return make_functional(name, **params)


# The eigendecay pre-pass behind gamma = "estimate" and ``cdfreg decay``.
DECAY_PAIRS = 20


def eigendecay_prepass(env: Environment, seed: int,
                       n_pairs: int = DECAY_PAIRS) -> EigendecayFit:
    """Eigendecay fit over n_pairs random (context, action) pairs drawn by
    ``_draw_records`` from ``default_rng(seed)``; an n_pairs that is not an
    integer of at least 1 is refused with ``ValueError`` before any draw."""
    checked_count(n_pairs, 1, "eigendecay_prepass: need at least one sample pair, not "
                  "n_pairs = %r")
    X, A, _ = _draw_records(env, n_pairs, np.random.default_rng(seed))
    return estimate_eigendecay(env.basis, X, A, env.omega_grid, env.s_grid)


def resolve_gamma(config: ExperimentConfig, env: Environment, seed: int = 0):
    """Numeric (gamma, s0, source) from config or ``eigendecay_prepass``."""
    if config.gamma == "estimate":
        fit = eigendecay_prepass(env, seed)
        return fit.gamma, max(fit.s0, 1e-6), "estimate"
    return config.gamma, config.s0, "config"


def _draw_records(env, n, rng, outcomes=False):
    """The seeded record stream: columns X (n, d), A (n,) and u drawn from
    ``rng`` with, per record, a context (``sample_context``), an action and,
    with ``outcomes``, the uniform behind its outcome (u is empty without)."""
    X = np.empty((n, env.context_dim))
    A = np.empty(n, dtype=int)
    u = np.empty(n if outcomes else 0)
    for i in range(n):
        X[i] = sample_context(env, rng)
        A[i] = rng.integers(env.action_count)
        if outcomes:
            u[i] = rng.random()
    return X, A, u


def generate_dataset(env: Environment, n: int, rng: np.random.Generator):
    """n i.i.d. records drawn by ``_draw_records``, as a ``Dataset`` of
    columns X (n, d), A and y; the outcomes are ``draw_outcomes``'s
    inverse-CDF draws from the true CDFs; n = 0 gives an empty one, and a
    negative, non-integral or boolean n raises ``ValueError``."""
    checked_count(n, 0, "generate_dataset needs n >= 0 records, not %r")
    X, A, u = _draw_records(env, n, rng, outcomes=True)
    return Dataset(X, A, draw_outcomes(env, X, A, u))


def heldout_cdf_error(estimate, env: Environment, n_pairs: int,
                      rng: np.random.Generator) -> float:
    """Mean squared L2(S) distance between predicted and true CDFs over
    fresh (context, action) pairs.

    The pairs are drawn by ``_draw_records``; the CDF differences
    (w (theta_hat - theta*)) @ phi are evaluated chunk by chunk. An
    estimate on another Omega grid than the environment's, and an n_pairs
    that is not a positive integer, are refused.
    """
    checked_count(n_pairs, 1, "heldout_cdf_error needs at least one pair, not n_pairs = %r")
    if not same_grid(estimate.theta_hat.grid, env.omega_grid):
        raise ValueError("estimate lives on a different grid than the environment's Omega grid")
    X, A, _ = _draw_records(env, n_pairs, rng)
    w_diff = env.omega_grid.weights * (estimate.theta_hat.values - env.theta_star.values)
    total = 0.0
    for _, phi in basis_chunks(env.basis, X, A, env.omega_grid, env.s_grid):
        total += float(np.sum((w_diff @ phi) ** 2 @ env.s_grid.weights))
    return total / n_pairs


def sweep_regression_error(env: Environment, n_list, seeds, gamma: float,
                           M: float, heldout_pairs: int = 64):
    """Median (with quartiles) held-out CDF error per dataset size."""
    if len(seeds) < 5:
        raise ValueError("sweeps need at least 5 seeds for stable medians")
    check_norm_bound(env, M)
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
    rounds, values = np.array([(float(r), float(v)) for r, v in checkpoints]).reshape(-1, 2).T
    if len(rounds) < 3:
        raise ValueError("need at least 3 checkpoints")
    # each test states the pass condition, so NaN fails it
    if not (np.all((0 < rounds) & (rounds < np.inf)) and np.all(np.diff(rounds) > 0)):
        raise ValueError("rounds must be finite, positive and strictly increasing")
    if not np.all((0 < values) & (values < np.inf)):
        raise ValueError("checkpoint values must be finite and positive")
    return float(np.polyfit(np.log(rounds), np.log(values), 1)[0])


def regret_slope(trace: RegretTrace) -> float | None:
    """Log-log slope of cumulative regret over dyadic checkpoints, skipping
    zero-regret checkpoints; None if fewer than 3 remain."""
    pts = [(r, v) for r, v in trace.summary["checkpoints"] if v != 0]
    return fit_loglog_slope(pts) if len(pts) >= 3 else None


def run_config(config: ExperimentConfig, seed: int) -> RegretTrace:
    env = build_environment(config)
    functional = build_functional(config)
    gamma, s0, source = resolve_gamma(config, env, seed=seed)
    return run_episode(env, functional, config.horizon, config.delta, gamma,
                       config.M, seed, config.exploration_scale, s0,
                       gamma_source=source)


def write_csv(path, header, rows):
    """A header row, then ``rows``; each float is written as its shortest
    round-trip repr, so every field reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(trace: RegretTrace, path):
    """Rows: round, epoch, context components x0..x{d-1}, action,
    optimal_action, gap, cum_regret, written from the trace's columns."""
    columns = (trace.epochs, trace.contexts, trace.actions, trace.optimal_actions,
               trace.gaps, trace.cum_regret)
    write_csv(path, ["round", "epoch"] + ["x%d" % i for i in range(trace.contexts.shape[1])]
              + ["action", "optimal_action", "gap", "cum_regret"],
              ([t, m, *x, *rest] for t, (m, x, *rest)
               in enumerate(zip(*(col.tolist() for col in columns)), 1)))


_INT64 = np.iinfo(np.int64)


def _read_csv_columns(path, parsers: dict) -> dict:
    """The columns of a CSV file with a header row, as numpy arrays: each
    column named in ``parsers`` parsed field by field with its ``int`` or
    ``float``, and the context components x0..x{d-1} as one C-contiguous
    (n, d) float array under "context". Blank lines are skipped.

    A header that repeats a column, lacks one of ``parsers``, or whose
    columns starting with x are not x0..x{d-1}, raises ``csv.Error``
    naming the file and line 1; so does a row with more or fewer fields
    than the header, or a field that does not parse (an int beyond int64
    included), naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        xs = ["x%d" % i for i in range(sum(k.startswith("x") for k in header))]
        if len(set(header)) < len(header) or not set(header).issuperset([*parsers, *xs]):
            raise csv.Error("%s line 1: header %r must name %s and context columns x0, x1, "
                            "..., each once" % (path, ",".join(header), ", ".join(parsers)))
        index = {k: header.index(k) for k in [*parsers, *xs]}
        columns, context = {k: [] for k in parsers}, []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError("%d field(s) more than the header" % (len(row) - len(header))
                                     if len(row) > len(header) else "fewer fields than the header")
                for k, parse in parsers.items():
                    value = parse(row[index[k]])
                    if parse is int and not _INT64.min <= value <= _INT64.max:
                        raise ValueError("%s = %s lies outside the int64 range" % (k, value))
                    columns[k].append(value)
                context.append([float(row[index[k]]) for k in xs])
        except ValueError as exc:
            raise csv.Error("%s line %d: %s" % (path, reader.line_num, exc)) from exc
    out = {k: np.array(col, dtype=parsers[k]) for k, col in columns.items()}
    out["context"] = np.array(context, dtype=float).reshape(len(context), len(xs))
    return out


def read_trace_csv(path) -> dict:
    """A trace CSV as columns: round, epoch, context (T, d), action,
    optimal_action, gap and cum_regret (see ``_read_csv_columns``). The
    rounds must be 1..T in file order, or ``csv.Error`` names the file and
    the first round out of place."""
    columns = _read_csv_columns(path, {"round": int, "epoch": int, "action": int,
                                       "optimal_action": int, "gap": float, "cum_regret": float})
    rounds = columns["round"]
    misplaced = np.flatnonzero(rounds != np.arange(1, rounds.size + 1))
    if misplaced.size:
        t = misplaced[0]
        raise csv.Error("%s: round %d stands where round %d belongs; a trace holds rounds 1..T "
                        "in file order" % (path, rounds[t], t + 1))
    return columns


def write_summary_json(trace: RegretTrace, path, config: ExperimentConfig | None = None,
                       wall_time: float | None = None):
    summary = dict(trace.summary)
    if config is not None:
        summary["config"] = config.to_dict()
    if wall_time is not None:
        summary["wall_time_s"] = wall_time
    Path(path).write_text(json.dumps(summary, indent=2))


def write_dataset_csv(dataset: Dataset, path):
    """Rows: round, context components x0..x{d-1}, action, y, written from
    the dataset's columns, so an empty dataset writes its header alone; a
    dataset reads back bit for bit (see ``write_csv``)."""
    write_csv(path, ["round"] + ["x%d" % i for i in range(dataset.X.shape[1])] + ["action", "y"],
              ([i, *x, a, y] for i, (x, a, y)
               in enumerate(zip(dataset.X.tolist(), dataset.A.tolist(), dataset.y.tolist()), 1)))


def read_dataset_csv(path) -> Dataset:
    """A dataset CSV as a ``Dataset`` (see ``_read_csv_columns``); a
    header-only file gives an empty one whose context width is its x
    columns'."""
    columns = _read_csv_columns(path, {"action": int, "y": float})
    return Dataset(columns["context"], columns["action"], columns["y"])
