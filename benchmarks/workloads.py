"""The three workloads of the cdfreg benchmark.

Why each workload exists (see README.md for the layer-to-metric map):

* ``episode`` -- one T=8192 episode on kumaraswamy (uniform theta*,
  gamma=1, s0=1) and one on finite-rank-8 (gamma estimated), both with the
  mean functional, delta=0.1 and exploration_scale=1e8: the criterion-7
  shape. Per-round policy evaluation (basis and functional calls) dominates;
  the oracle runs only once per doubling epoch.
* ``regress-small`` -- the oracle at n=256 on kumaraswamy/bumps datasets
  with gamma=0.1 and M=2: the criterion-6 shape. Projection onto C
  dominates, and its iteration count varies from call to call; 80 datasets
  keep the per-seed total steady (at 40 it spread by 7% between seeds).
* ``regress-large`` -- the oracle at n=4096, the top of the criterion-5
  sweep. Three basis passes per sample (design operator, target, loss)
  dominate; generating the datasets puts the outcome sampler in set-up.

Every input is generated from the workload seed before timing starts. A
job is one operation the benchmark times and checks: one episode, or one
oracle call. Jobs are deterministic, so a repeated job must reproduce its
first result exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

STREAM_DATA = 1
STREAM_HELDOUT = 2
ESTIMATE_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The grids are the ExperimentConfig defaults: 32 nodes
    on Omega, 64 on the outcome support."""

    horizon: int = 8192
    small_n: int = 256
    small_datasets: int = 80
    large_n: int = 4096
    large_datasets: int = 4
    heldout_pairs: int = 64


FULL = Sizes()
TINY = Sizes(horizon=64, small_n=32, small_datasets=3, large_n=96,
             large_datasets=2, heldout_pairs=8)


@dataclass
class Outcome:
    """What one job run returns: the clock segments it took, the segment of
    each oracle call inside it, a digest of its results, and the raw result
    for the quality pass."""

    segments: list
    oracle_segments: list
    fingerprint: str
    failures: list
    result: object


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _outside_C(estimate, M: float) -> str | None:
    th = estimate.theta_hat
    if not np.all(np.isfinite(th.values)):
        return "estimate is not finite"
    if np.min(th.values) < -1e-9:
        return "estimate is negative somewhere"
    if abs(th.integral() - 1.0) > ESTIMATE_TOL:
        return "estimate does not integrate to 1"
    if th.norm() > M + ESTIMATE_TOL:
        return "estimate exceeds the norm bound M"
    return None


def _covered(pkg, env, data, estimate, e_delta: float) -> bool:
    """||theta_hat - theta*||_U <= E_delta on the call's own design."""
    op = pkg.operators.design_operator(env.basis, [(x, a) for x, a, _ in data],
                                       env.omega_grid, env.s_grid)
    diff = pkg.numerics.GridFunction(env.omega_grid,
                                     estimate.theta_hat.values - env.theta_star.values)
    return pkg.operators.weighted_norm(diff, op) <= e_delta


def _e_delta(pkg, env, n: int, delta: float, gamma: float, s0: float, M: float) -> float:
    """The regression bound E_delta; it does not depend on the functional's
    L, which only scales est."""
    b = env.basis
    return pkg.regression.error_budget(
        n=n, delta=delta, gamma=gamma, s0=s0, M=M, L=1.0, L0=b.lipschitz_L0,
        A=b.covering_constant_A, d=b.omega_dim, eta=b.kernel_floor_eta).e_delta


class Episode:
    """Two criterion-7 episodes per pass."""

    name = "episode"
    DELTA, M, SCALE = 0.1, 2.0, 1e8
    ENVIRONMENTS = (
        ("kumaraswamy", {"name": "kumaraswamy", "theta_star": "uniform"}, 1.0, 1.0),
        ("finite-rank-8", {"name": "finite-rank-r", "rank": 8, "theta_star": "uniform"},
         "estimate", 1.0),
    )

    def __init__(self, pkg, sizes: Sizes, seed: int):
        self.pkg, self.sizes, self.seed = pkg, sizes, seed

    def setup(self, instrument):
        harness = self.pkg.harness
        self.cases = []
        for key, env_cfg, gamma, s0 in self.ENVIRONMENTS:
            cfg = harness.ExperimentConfig(
                environment=env_cfg, functional={"name": "mean"},
                horizon=self.sizes.horizon, delta=self.DELTA, gamma=gamma, s0=s0,
                M=self.M, exploration_scale=self.SCALE)
            env = harness.build_environment(cfg)
            gamma_n, s0_n, source = harness.resolve_gamma(
                cfg, instrument.environment(env), seed=self.seed)
            self.cases.append((key, env, harness.build_functional(cfg),
                               (gamma_n, s0_n, source)))

    def jobs(self, instrument):
        return [(key, self.sizes.horizon, self._job(instrument.environment(env),
                                                    instrument.functional(fn), params))
                for key, env, fn, params in self.cases]

    def _job(self, env, functional, params):
        engine = self.pkg.engine
        gamma, s0, source = params

        def run(clock):
            calls, segments = [], []
            inner = engine.regress

            # the clock splits at each oracle call, so the oracle's latency
            # and the rounds between calls are timed separately
            def oracle(data, *args, **kwargs):
                segments.append(clock.split())
                estimate = inner(data, *args, **kwargs)
                calls.append((data, estimate, clock.split()))
                return estimate

            engine.regress = oracle
            try:
                clock.start()
                trace = engine.run_episode(env, functional, self.sizes.horizon,
                                           self.DELTA, gamma, self.M, self.seed,
                                           self.SCALE, s0, gamma_source=source)
                segments.append(clock.split())
            finally:
                engine.regress = inner
            oracle_s = [c[2] for c in calls]
            return Outcome(segments + oracle_s, oracle_s, self._fingerprint(trace, calls),
                           self._check(trace, calls), (trace, calls))

        return run

    def _fingerprint(self, trace, calls):
        cols = np.array([(a, a_star, cum) for _t, _m, _x, a, a_star, _g, cum
                         in trace.records], dtype=float)
        return _digest([cols] + [est.theta_hat.values for _, est, _ in calls])

    def _check(self, trace, calls):
        T = self.sizes.horizon
        failures = []
        if len(trace.records) != T:
            failures.append("trace has %d rounds, not %d" % (len(trace.records), T))
        if trace.summary["oracle_calls"] != len(calls):
            failures.append("summary oracle count disagrees with the calls made")
        if len(calls) > math.ceil(math.log2(T)) + 1:
            failures.append("%d oracle calls exceed ceil(log2 T) + 1" % len(calls))
        cum = np.array([r[6] for r in trace.records])
        if cum.size and np.any(np.diff(cum) < 0):
            failures.append("cumulative regret decreases")
        for _, estimate, _ in calls:
            problem = _outside_C(estimate, self.M)
            if problem:
                failures.append(problem)
        return failures

    def quality(self, results: dict) -> dict:
        """Regret slope (mean over environments) and E_delta coverage of
        every oracle call at the engine's own confidence delta / (2 m^2)."""
        slopes, covered, total = [], 0, 0
        for key, env, _, (gamma, s0, _) in self.cases:
            trace, calls = results[key]
            slope = self.pkg.harness.regret_slope(trace)
            if slope is not None:
                slopes.append(slope)
            for i, (data, estimate, _) in enumerate(calls):
                m = i + 2
                e_delta = _e_delta(self.pkg, env, len(data), self.DELTA / (2.0 * m * m),
                                   gamma, s0, self.M)
                covered += _covered(self.pkg, env, data, estimate, e_delta)
                total += 1
        out = {"coverage_frac": (covered / total if total else float("nan"), "ratio")}
        if slopes:
            out["regret_slope"] = (float(np.mean(slopes)), "1")
        return out


class Regress:
    """One oracle call per pre-generated dataset."""

    DELTA, M = 0.1, 2.0

    def __init__(self, pkg, sizes: Sizes, seed: int, name: str, n: int, count: int):
        self.pkg, self.sizes, self.seed = pkg, sizes, seed
        self.name, self.n, self.count = name, n, count

    def setup(self, instrument):
        harness = self.pkg.harness
        cfg = harness.ExperimentConfig(
            environment={"name": "kumaraswamy", "theta_star": "bumps"},
            gamma="estimate", M=self.M)
        self.env = harness.build_environment(cfg)
        traced_env = instrument.environment(self.env)
        self.gamma, self.s0, _ = harness.resolve_gamma(cfg, traced_env, seed=self.seed)
        rng = np.random.default_rng([self.seed, STREAM_DATA])
        self.datasets = [harness.generate_dataset(traced_env, self.n, rng)
                         for _ in range(self.count)]

    def jobs(self, instrument):
        basis = instrument.environment(self.env).basis
        return [("dataset-%d" % i, self.n, self._job(basis, data))
                for i, data in enumerate(self.datasets)]

    def _job(self, basis, data):
        regression, env = self.pkg.regression, self.env

        def run(clock):
            clock.start()
            estimate = regression.regress(data, basis, self.gamma, self.M,
                                          env.omega_grid, env.s_grid)
            segment = clock.split()
            problem = _outside_C(estimate, self.M)
            return Outcome([segment], [segment], _digest([estimate.theta_hat.values]),
                           [problem] if problem else [], estimate)

        return run

    def quality(self, results: dict) -> dict:
        """Median held-out CDF error over fixed pairs, and the share of
        calls with ||theta_hat - theta*||_U <= E_delta (criterion 6)."""
        env = self.env
        e_delta = _e_delta(self.pkg, env, self.n, self.DELTA, self.gamma, self.s0, self.M)
        errors, covered = [], 0
        for i, data in enumerate(self.datasets):
            estimate = results["dataset-%d" % i]
            pairs_rng = np.random.default_rng([self.seed, STREAM_HELDOUT])
            errors.append(self.pkg.harness.heldout_cdf_error(
                estimate, env, self.sizes.heldout_pairs, pairs_rng))
            covered += _covered(self.pkg, env, data, estimate, e_delta)
        return {"heldout_err": (float(np.median(errors)), "1"),
                "coverage_frac": (covered / len(self.datasets), "ratio")}


WORKLOADS = ("episode", "regress-small", "regress-large")


def make_workload(name: str, pkg, sizes: Sizes, seed: int):
    if name == "episode":
        return Episode(pkg, sizes, seed)
    if name == "regress-small":
        return Regress(pkg, sizes, seed, name, sizes.small_n, sizes.small_datasets)
    if name == "regress-large":
        return Regress(pkg, sizes, seed, name, sizes.large_n, sizes.large_datasets)
    raise ValueError("unknown workload %r" % name)
