"""The truncated-spectral regression oracle: truncation rule, empirical
target, loss, projection onto C, and error budgets."""

import numpy as np
import pytest

from cdfreg import (
    DesignOperator,
    GridFunction,
    build_cdf_grid,
    build_uniform_grid,
    design_operator,
    empirical_target,
    error_budget,
    generate_dataset,
    loss,
    make_catalog_env,
    predict_cdf,
    project_to_C,
    regress,
    sample_context,
    select_truncation,
    spectral_decompose,
)
from cdfreg import regression
from cdfreg.operators import weighted_quadratic
from cdfreg.regression import KKT_TOLERANCE, TruncationPlan

OMEGA = build_uniform_grid(1, 32)
S = build_cdf_grid(64)


def _rank1_spec(n_pairs=1, seed=0):
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    rng = np.random.default_rng(seed)
    pairs = [(rng.random(2), 0) for _ in range(n_pairs)]
    return env, spectral_decompose(design_operator(env.basis, pairs, OMEGA, S))


def test_select_truncation_thresholds():
    env, spec = _rank1_spec()
    # n=1, gamma=1: threshold n*eps = 1 exceeds the single eigenvalue ~0.34
    plan = select_truncation(spec, 1, 1.0)
    assert plan.epsilon == pytest.approx(1.0)
    assert plan.n_eps == 0
    # n=64, gamma=1: eps = 1/16, threshold 4
    plan = select_truncation(spec, 64, 1.0)
    assert plan.epsilon == pytest.approx(64.0 ** (-2.0 / 3.0))
    assert plan.threshold == pytest.approx(64.0 ** (1.0 / 3.0))


def test_select_truncation_override_retains_mode():
    env, spec = _rank1_spec()
    plan = select_truncation(spec, 1, 1.0, epsilon=0.1)
    assert plan.n_eps == 1
    assert plan.retained_eigenvalues[0] == pytest.approx(0.3412, abs=1e-3)


def test_truncation_plan_validates_counts():
    with pytest.raises(ValueError):
        TruncationPlan(0.1, 0.1, 2, np.array([0.5]))
    with pytest.raises(ValueError):
        TruncationPlan(0.1, 0.5, 1, np.array([0.3]))


def test_empirical_target_rank1_at_zero():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    target = empirical_target([(np.array([0.5, 0.5]), 0, 0.0)], env.basis, OMEGA, S)
    # y=0 makes the indicator 1 everywhere, so the target is the
    # right-endpoint quadrature of s over [0,1] at every omega node
    expected = sum(j / 64 for j in range(1, 65)) / 64
    assert np.allclose(target.values, expected, atol=1e-12)


def test_loss_empty_dataset_is_zero():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    theta = GridFunction(OMEGA, np.ones(OMEGA.size))
    assert loss(theta, [], env.basis, OMEGA, S) == 0.0


def test_loss_zero_theta_full_indicator():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    theta = GridFunction(OMEGA, np.zeros(OMEGA.size))
    value = loss(theta, [(np.array([0.2, 0.2]), 0, 0.0)], env.basis, OMEGA, S)
    assert value == pytest.approx(1.0, abs=1e-2)


def test_least_squares_is_a_loss_minimum():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(5)
    data = generate_dataset(env, 32, rng)
    op = design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
    spec = spectral_decompose(op)
    from cdfreg.regression import solve_least_squares
    plan = select_truncation(spec, len(data), 0.1)
    theta_d = solve_least_squares(data, env.basis, OMEGA, S, spec, plan)
    base = loss(theta_d, data, env.basis, OMEGA, S)
    for j in range(plan.n_eps):
        e = spec.eigenfunctions[j].values
        for step in (1e-3, -1e-3, 1e-2, -1e-2):
            perturbed = GridFunction(OMEGA, theta_d.values + step * e)
            assert loss(perturbed, data, env.basis, OMEGA, S) >= base - 1e-9


def test_project_constant_to_uniform():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    op = design_operator(env.basis, [(np.array([0.5, 0.5]), 0)], OMEGA, S)
    est = project_to_C(GridFunction(OMEGA, np.full(OMEGA.size, 3.0)), op, 2.0)
    assert np.allclose(est.theta_hat.values, 1.0, atol=1e-8)


def test_projection_feasibility_and_nonexpansiveness():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    rng = np.random.default_rng(9)
    pairs = [(rng.random(2), int(rng.integers(5))) for _ in range(8)]
    op = design_operator(env.basis, pairs, OMEGA, S)
    from cdfreg import weighted_norm
    for _ in range(10):
        f = GridFunction(OMEGA, rng.normal(loc=1.0, scale=0.8, size=OMEGA.size))
        g = GridFunction(OMEGA, rng.normal(loc=1.0, scale=0.8, size=OMEGA.size))
        pf = project_to_C(f, op, 2.0).theta_hat
        pg = project_to_C(g, op, 2.0).theta_hat
        lhs = weighted_norm(GridFunction(OMEGA, pf.values - pg.values), op)
        rhs = weighted_norm(GridFunction(OMEGA, f.values - g.values), op)
        assert lhs <= rhs + 1e-6
        assert np.min(pf.values) >= -1e-9
        assert abs(pf.integral() - 1.0) < 1e-6
        assert pf.norm() <= 2.0 + 1e-6


def test_projection_rejects_small_M():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    op = design_operator(env.basis, [(np.array([0.1, 0.1]), 0)], OMEGA, S)
    with pytest.raises(ValueError):
        project_to_C(GridFunction(OMEGA, np.ones(OMEGA.size)), op, 0.5)


def _criterion4_operator(rng):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    pairs = [(sample_context(env, rng), int(rng.integers(5))) for _ in range(16)]
    return design_operator(env.basis, pairs, OMEGA, S)


def _clipped_start(x, M):
    w = OMEGA.weights
    return regression._cap_l2_norm(regression._project_unit_mass(x, w), w, M)


def test_projection_is_optimal():
    rng = np.random.default_rng(44)
    op = _criterion4_operator(rng)
    M = 2.0
    points = [_clipped_start(rng.exponential(size=OMEGA.size) ** 3, M) for _ in range(50)]
    for _ in range(5):
        x = rng.normal(1.0, 0.8, OMEGA.size)
        est = project_to_C(GridFunction(OMEGA, x), op, M)
        assert est.diagnostics.converged
        assert est.diagnostics.projection_residual <= KKT_TOLERANCE
        theta = est.theta_hat.values
        best = weighted_quadratic(op, theta - x)
        slack = 1e-9 * best + 1e-15
        assert best <= weighted_quadratic(op, _clipped_start(x, M) - x) + slack
        for p in points:
            assert best <= weighted_quadratic(op, p - x) + slack
            # C is convex, so a short step toward p stays in C; at the
            # projection no feasible direction decreases the objective
            near = theta + 1e-3 * (p - theta)
            assert best <= weighted_quadratic(op, near - x) + slack


def test_projection_fallback_is_not_converged(monkeypatch):
    op = _criterion4_operator(np.random.default_rng(45))
    x = np.random.default_rng(46).normal(1.0, 0.8, OMEGA.size)
    # a face solver that loses all mass forces the fallback to the start
    monkeypatch.setattr(regression, "_active_set_face",
                        lambda quad, bx, w, start: (np.zeros_like(start), 1))
    est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
    assert not est.diagnostics.converged
    assert np.array_equal(est.theta_hat.values, _clipped_start(x, 2.0))


def test_projection_zero_operator_returns_start():
    x = np.random.default_rng(47).normal(1.0, 0.8, OMEGA.size)
    op = DesignOperator(np.zeros((OMEGA.size, OMEGA.size)), OMEGA, 1)
    est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
    assert est.diagnostics.converged and est.diagnostics.projection_iterations == 0
    assert np.array_equal(est.theta_hat.values, _clipped_start(x, 2.0))


def test_error_budget_hand_value():
    b = error_budget(1, 0.5, 1.0, 1.0, 1.0, 1.0, 2.5, 1.0, 1, 0.2)
    # 2 sqrt(log 2) + (2 sqrt(log 2) + 1) * 1
    expected = 2.0 * np.sqrt(np.log(2.0)) + (2.0 * np.sqrt(np.log(2.0)) + 1.0)
    assert b.e_delta == pytest.approx(expected, abs=1e-4)
    assert b.e_delta == pytest.approx(4.3302, abs=1e-4)
    assert b.est == pytest.approx(b.c_const * b.e_delta**2)


def test_error_budget_monotonicity():
    kwargs = dict(gamma=0.5, s0=2.0, M=2.0, L=1.0, L0=2.5, A=1.0, d=1, eta=0.2)
    e_small = error_budget(n=64, delta=0.1, **kwargs).e_delta
    e_big = error_budget(n=256, delta=0.1, **kwargs).e_delta
    assert e_big > e_small
    loose = error_budget(n=64, delta=0.5, **kwargs).e_delta
    assert loose < e_small


def test_error_budget_rejects_bad_delta():
    with pytest.raises(ValueError):
        error_budget(1, 1.0, 1.0, 1.0, 1.0, 1.0, 2.5, 1.0, 1, 0.2)


def test_regress_end_to_end_recovers_cdf():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(21)
    data = generate_dataset(env, 512, rng)
    est = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    from cdfreg import heldout_cdf_error
    err = heldout_cdf_error(est, env, 32, rng)
    assert err < 1e-3


def test_regress_rejects_bad_outcomes():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    with pytest.raises(ValueError):
        regress([(np.array([0.1, 0.1]), 0, 1.5)], env.basis, 0.1, 2.0, OMEGA, S)
    with pytest.raises(ValueError):
        regress([], env.basis, 0.1, 2.0, OMEGA, S)


def test_predict_cdf_is_valid_cdf():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8)
    rng = np.random.default_rng(33)
    data = generate_dataset(env, 64, rng)
    est = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    for _ in range(5):
        f = predict_cdf(est, env.basis, rng.random(2), int(rng.integers(5)), OMEGA, S)
        assert np.all(np.diff(f.values) >= -1e-9)
        assert np.all(f.values >= -1e-9) and np.all(f.values <= 1.0 + 1e-9)
        assert f.values[-1] == pytest.approx(1.0, abs=1e-9)


def test_regress_deterministic():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    rng = np.random.default_rng(41)
    data = generate_dataset(env, 32, rng)
    a = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    b = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    assert np.array_equal(a.theta_hat.values, b.theta_hat.values)
