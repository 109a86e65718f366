"""The truncated-spectral regression oracle: truncation rule, empirical
target, loss, projection onto C, and error budgets."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from cdfreg import (
    DesignOperator,
    Environment,
    GridFunction,
    QuadratureGrid,
    SpectralDecomposition,
    basis_values,
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    design_operator,
    empirical_target,
    error_budget,
    estimate_eigendecay,
    generate_dataset,
    heldout_cdf_error,
    loss,
    make_catalog_env,
    make_functional,
    predict_cdf,
    project_to_C,
    pseudo_inverse_apply,
    regress,
    sample_context,
    select_truncation,
    spectral_decompose,
    true_cdf,
    weighted_norm,
)
from cdfreg import regression
from cdfreg.numerics import MAX_GRID_NODES
from cdfreg.operators import BASIS_CHUNK, basis_chunks, weighted_quadratic
from cdfreg.regression import KKT_TOLERANCE

OMEGA = build_uniform_grid(32)
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
    assert plan.retained_eigenvalues.shape == (plan.n_eps,)


def test_pseudo_inverse_apply_is_zero_when_nothing_is_retained():
    # n=1, gamma=1 retains nothing (see above): the (n, 0) eigenfunction
    # block gives +0.0 at every node, with no warning
    env, spec = _rank1_spec()
    plan = select_truncation(spec, 1, 1.0)
    assert plan.n_eps == 0
    g = empirical_target(regression.Dataset([[0.5, 0.5]], [0], [0.3]), env.basis, OMEGA, S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pseudo_inverse_apply(spec, plan, g)
    assert out.grid is spec.grid
    assert np.array_equal(out.values, np.zeros(OMEGA.size))
    assert not np.signbit(out.values).any()


def test_select_truncation_override_retains_mode():
    # 8 pairs: the single eigenvalue 8 * 0.3412 clears the threshold 8^(1/3) = 2
    env, spec = _rank1_spec(n_pairs=8)
    plan = select_truncation(spec, 8, 1.0)
    assert plan.n_eps == 1
    assert plan.retained_eigenvalues.shape == (1,)
    assert plan.retained_eigenvalues[0] >= plan.threshold
    assert plan.retained_eigenvalues[0] / 8 == pytest.approx(0.3412, abs=1e-3)


def test_empirical_target_rank1_at_zero():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    target = empirical_target(regression.Dataset([[0.5, 0.5]], [0], [0.0]), env.basis, OMEGA, S)
    # y=0 makes the indicator 1 everywhere, so the target is the
    # right-endpoint quadrature of s over [0,1] at every omega node
    expected = sum(j / 64 for j in range(1, 65)) / 64
    assert np.allclose(target.values, expected, atol=1e-12)


def test_loss_empty_dataset_is_zero():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    theta = GridFunction(OMEGA, np.ones(OMEGA.size))
    assert loss(theta, regression.Dataset(np.empty((0, 2)), [], []), env.basis, OMEGA, S) == 0.0


def test_loss_zero_theta_full_indicator():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    theta = GridFunction(OMEGA, np.zeros(OMEGA.size))
    value = loss(theta, regression.Dataset([[0.2, 0.2]], [0], [0.0]), env.basis, OMEGA, S)
    assert value == pytest.approx(1.0, abs=1e-2)


def test_least_squares_is_a_loss_minimum():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(5)
    data = generate_dataset(env, 32, rng)
    op = design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
    spec = spectral_decompose(op)
    plan = select_truncation(spec, len(data), 0.1)
    theta_d = pseudo_inverse_apply(spec, plan, empirical_target(data, env.basis, OMEGA, S))
    base = loss(theta_d, data, env.basis, OMEGA, S)
    for j in range(plan.n_eps):
        e = spec.eigenfunctions[:, j]
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
    # NaN passed an "M < 1" test and then divided by zero; C needs a finite M
    for M in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="M must be"):
            project_to_C(GridFunction(OMEGA, np.ones(OMEGA.size)), op, M)


def test_projection_refuses_theta_on_another_grid():
    # a theta on another 32-node grid was projected and came back on the
    # operator's grid; one on a 64-node grid raised an IndexError
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    op = design_operator(env.basis, [(np.array([0.3, 0.6]), 1)], OMEGA, S)
    for grid in (build_cdf_grid(OMEGA.size), build_uniform_grid(64)):
        with pytest.raises(ValueError, match="different grid"):
            project_to_C(GridFunction(grid, np.ones(grid.size)), op, 2.0)


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
    # an active-set solver that loses all mass forces the fallback to the start
    monkeypatch.setattr(regression, "_active_set",
                        lambda b_mat, bx, w, M, start: (np.zeros_like(start), 0.0, 1))
    est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
    assert not est.diagnostics.converged
    assert np.array_equal(est.theta_hat.values, _clipped_start(x, 2.0))


def test_projection_certifies_points_on_the_cap():
    # a point of C is its own projection; on a 256-pair design the returned
    # point, the solver's candidate or, if round-off refuses that, the
    # start, is within 1e-12 of it and certified by its KKT residual
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 256, np.random.default_rng(0))
    op = design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = _clipped_start(rng.exponential(size=OMEGA.size) ** 3, 2.0)
        assert GridFunction(OMEGA, x).norm() == pytest.approx(2.0, abs=1e-12)
        est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
        assert est.diagnostics.converged
        assert np.max(np.abs(est.theta_hat.values - x)) <= 1e-12
        # the active set stops when a feasible face repeats instead of
        # cycling among faces until MAX_FACES
        assert est.diagnostics.projection_iterations <= 40


def test_projection_returns_a_face_whose_uniform_density_is_on_the_cap(monkeypatch):
    # the uniform density on 8 of 32 nodes has norm exactly M = 2: on its
    # face u = M^2, so the face holds one point of C and _face_minimizer
    # returns it without an eigensolve
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 256, np.random.default_rng(1))
    op = regression.data_statistics(data, env.basis, OMEGA, S).design_operator()
    faces, face_minimizer = [], regression._face_minimizer

    def spy(b_mat, bx, w, free, M, mu_guess):
        faces.append(M * M - 1.0 / float(w[free].sum()))
        return face_minimizer(b_mat, bx, w, free, M, mu_guess)

    monkeypatch.setattr(regression, "_face_minimizer", spy)
    x = np.zeros(OMEGA.size)
    x[5:13] = 4.0
    assert GridFunction(OMEGA, x).norm() == 2.0
    est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
    assert faces == [0.0]
    assert np.array_equal(est.theta_hat.values, x)
    diag = est.diagnostics
    assert (diag.projection_iterations, diag.converged, diag.projection_residual) == (1, True, 0.0)


def _reference_face(quad, bx, w, start):
    """The active-set face solver with least-squares KKT solves, as the
    bisection reference below used it."""
    n = start.shape[0]
    current = np.maximum(start, 0.0)
    active = current <= 1e-12
    for _ in range(200):
        free = np.nonzero(~active)[0]
        if free.size == 0:
            break
        nf = free.size
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = quad[np.ix_(free, free)]
        kkt[:nf, nf] = -w[free]
        kkt[nf, :nf] = w[free]
        sol = np.linalg.lstsq(kkt, np.concatenate([bx[free], [1.0]]), rcond=None)[0]
        cand = np.zeros(n)
        cand[free] = sol[:nf]
        if np.min(cand[free]) >= -1e-12:
            cand = np.maximum(cand, 0.0)
            mult = (quad @ cand - bx - sol[nf] * w)[active]
            current = cand
            if mult.size == 0 or np.min(mult) >= -1e-10:
                break
            active[np.nonzero(active)[0][int(np.argmin(mult))]] = False
        else:
            direction = cand - current
            shrinking = direction < -1e-15
            steps = -current[shrinking] / direction[shrinking]
            alpha = min(1.0, float(np.min(steps))) if steps.size else 1.0
            current = np.maximum(current + alpha * direction, 0.0)
            active = current <= 1e-12
    return current


def _reference_projection(x, op, M, ridge):
    """Projection onto C in the metric W K W / tr + ridge W, with the
    norm-cap multiplier found by doubling and 60 bisection halvings: slow,
    but simple enough to trust."""
    w = OMEGA.weights
    b_mat = w[:, None] * op.kernel_matrix * w[None, :]
    b_mat = b_mat / np.sum(np.diag(b_mat) / w) + ridge * np.diag(w)
    bx = b_mat @ x

    def penalized(mu, warm):
        return _reference_face(b_mat + mu * np.diag(w), bx, w, warm)

    def norm_of(v):
        return float(np.sqrt(w @ v**2))

    cand = penalized(0.0, _clipped_start(x, M))
    if norm_of(cand) > M:
        lo, hi = 0.0, 1.0
        cand = penalized(hi, cand)
        while norm_of(cand) > M:
            lo, hi = hi, 2.0 * hi
            cand = penalized(hi, cand)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            mid_cand = penalized(mid, cand)
            if norm_of(mid_cand) > M:
                lo = mid
            else:
                hi, cand = mid, mid_cand
    return cand / float(w @ cand)


def test_projection_matches_bisection_reference():
    # the reference solves the ridged problem project_to_C solves; at
    # M = 1.5 its cap binds on all 12 inputs (at M = 2 on only 8)
    M = 1.5
    for seed in (60, 61, 62):
        rng = np.random.default_rng(seed)
        op = _criterion4_operator(rng)
        b_mat = regression._unit_trace_design(op)
        for _ in range(4):
            x = rng.normal(1.0, 0.8, OMEGA.size)
            ref = _reference_projection(x, op, M, regression.RIDGE)
            assert GridFunction(OMEGA, ref).norm() == pytest.approx(M, abs=1e-7)  # cap binds
            est = project_to_C(GridFunction(OMEGA, x), op, M)
            theta = est.theta_hat.values
            assert est.diagnostics.converged
            assert est.diagnostics.projection_residual <= KKT_TOLERANCE
            assert est.theta_hat.norm() <= M + 1e-9
            assert (np.sqrt(weighted_quadratic(op, theta - ref))
                    <= 1e-8 * np.sqrt(weighted_quadratic(op, ref)))
            objective, ref_objective = ((v - x) @ b_mat @ (v - x) for v in (theta, ref))
            assert objective <= ref_objective * (1.0 + 1e-8)


def test_excess_bound_covers_the_unridged_projection():
    # the ridged projection's unridged objective exceeds the exact (ridge 0)
    # projection's by at most projection_excess_bound, on 50 inputs on each
    # of six criterion-4 designs
    M, w = 2.0, OMEGA.weights
    worst = 0.0
    for seed in range(404, 410):
        rng = np.random.default_rng(seed)
        op = _criterion4_operator(rng)
        b_unit = regression._unit_trace_design(op) - regression.RIDGE * np.diag(w)
        for _ in range(50):
            x = rng.normal(1.0, 0.8, OMEGA.size)
            est = project_to_C(GridFunction(OMEGA, x), op, M)
            bound = est.diagnostics.projection_excess_bound
            assert est.diagnostics.converged and bound > 0.0
            exact = _reference_projection(x, op, M, 0.0)
            excess = ((est.theta_hat.values - x) @ b_unit @ (est.theta_hat.values - x)
                      - (exact - x) @ b_unit @ (exact - x)) / 2.0
            worst = max(worst, excess / bound)
    assert worst <= 1.0


@pytest.mark.parametrize("name,n_pairs", [("kumaraswamy", 1), ("kumaraswamy", 2),
                                          ("kumaraswamy", 4), ("rank1-uniform", 1),
                                          ("rank1-uniform", 4)])
def test_projection_on_rank_deficient_designs(name, n_pairs):
    env = make_catalog_env(name, OMEGA, S)
    rng = np.random.default_rng(80 + n_pairs)
    pairs = [(sample_context(env, rng), int(rng.integers(env.action_count)))
             for _ in range(n_pairs)]
    op = design_operator(env.basis, pairs, OMEGA, S)
    for _ in range(5):
        # a spiky input: its clipped start has norm above M
        x = rng.exponential(size=OMEGA.size) ** 3
        est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
        theta = est.theta_hat
        assert est.diagnostics.converged
        assert est.diagnostics.projection_residual <= KKT_TOLERANCE
        assert np.min(theta.values) >= 0.0
        assert theta.integral() == pytest.approx(1.0, abs=1e-12)
        assert theta.norm() <= 2.0 + 1e-9
        if name == "kumaraswamy":
            assert theta.norm() == pytest.approx(2.0, abs=1e-9)  # the cap binds
        # rank1-uniform's kernel is constant, so the objective is constant
        # on the unit-mass set and the cap never has to bind


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_projection_is_invariant_to_operator_scale(scale):
    # scaling B leaves the minimizer alone; at M = 2 the cap binds, at M = 6
    # it does not and the unpenalized (mu = 0) solve decides, so every
    # tolerance on both paths must be relative to B's scale
    rng = np.random.default_rng(48)
    op = _criterion4_operator(rng)
    scaled = DesignOperator(scale * op.kernel_matrix, OMEGA, op.data_count)
    for _ in range(5):
        x = GridFunction(OMEGA, rng.normal(1.0, 0.8, OMEGA.size))
        for M in (2.0, 6.0):
            theta = project_to_C(x, op, M).theta_hat.values
            est = project_to_C(x, scaled, M)
            assert est.diagnostics.converged
            diff = est.theta_hat.values - theta
            assert (np.sqrt(weighted_quadratic(op, diff))
                    <= 1e-8 * np.sqrt(weighted_quadratic(op, theta)))


def _criterion4_inputs(count):
    """The criterion-4 design (seed 404) and its first ``count`` inputs."""
    rng = np.random.default_rng(404)
    op = _criterion4_operator(rng)
    return op, [rng.normal(1.0, 0.8, OMEGA.size) for _ in range(count)]


def test_certificate_sees_a_loose_cap():
    # criterion-4 input 315 (0-based): its exact projection with the cap at
    # M' = 1.99 is stationary at mu = 2.2e-9, while at M = 2 the cap is
    # loose (the projection's norm is 1.9907), so that point's objective is
    # above the optimum; only the duality gap sees it, as mu (M^2 - ||y||^2)
    # is tiny next to B's entries
    op, inputs = _criterion4_inputs(316)
    x, w, M = inputs[315], OMEGA.weights, 2.0
    b_mat = regression._unit_trace_design(op)
    y, mu, _ = regression._active_set(b_mat, b_mat @ x, w, 1.99, _clipped_start(x, 1.99))
    assert mu > 0.0
    assert GridFunction(OMEGA, y).norm() == pytest.approx(1.99, abs=1e-12)
    # M enters only the gap term, so stationarity holds against both caps
    assert regression._kkt_residual(y, x, b_mat, w, mu, 1.99) <= KKT_TOLERANCE
    assert regression._kkt_residual(y, x, b_mat, w, mu, M) > KKT_TOLERANCE
    est = project_to_C(GridFunction(OMEGA, x), op, M)
    assert est.diagnostics.converged
    theta = est.theta_hat.values
    assert (theta - x) @ b_mat @ (theta - x) < (y - x) @ b_mat @ (y - x)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
def test_projection_certifies_points_near_C(eps):
    # x = p + eps (x0 - p) has the projection p, on the cap, and an
    # objective of order eps^2, so a norm error near round-off is a large
    # relative duality gap
    op, inputs = _criterion4_inputs(20)
    for x0 in inputs:
        p = project_to_C(GridFunction(OMEGA, x0), op, 2.0).theta_hat.values
        est = project_to_C(GridFunction(OMEGA, p + eps * (x0 - p)), op, 2.0)
        assert est.diagnostics.converged


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_cap_multiplier_stops_when_its_steps_reach_round_off(monkeypatch, eps):
    # on these inputs 17 faces (mu 5e-13 to 4e-10) ran all 100 Newton
    # steps: their steps cycled in round-off at 1.5e-12 to 1.2e-9 mu, above
    # the 1e-12 mu stop
    steps, cap_multiplier = [], regression._cap_multiplier

    def spy(*args):
        mu, n = cap_multiplier(*args)
        steps.append(n)
        return mu, n

    monkeypatch.setattr(regression, "_cap_multiplier", spy)
    op, inputs = _criterion4_inputs(20)
    for x0 in inputs:
        p = project_to_C(GridFunction(OMEGA, x0), op, 2.0).theta_hat.values
        project_to_C(GridFunction(OMEGA, p + eps * (x0 - p)), op, 2.0)
    assert steps and max(steps) <= 20


def test_projection_solve_count():
    # the criterion-4 inputs: 200 pairs of projections on one 16-pair design
    op, inputs = _criterion4_inputs(400)
    faces = [project_to_C(GridFunction(OMEGA, x), op, 2.0).diagnostics.projection_iterations
             for x in inputs]
    # the median is 6 faces (7 without the ridge); without the ridge,
    # dropping one negative entry per step before the first release,
    # instead of all of them, took 21
    assert np.median(faces) <= 14


def test_ridge_keeps_estimates_off_the_norm_cap():
    # on these n = 256 kumaraswamy/bumps datasets the unridged projection put
    # 79 of 80 estimates on the cap, at 13.1 faces a call; the ridge leaves
    # 1 of 80 there, at 5.2 faces (||theta*|| is 1.186)
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(1)
    on_cap, faces = 0, []
    for _ in range(80):
        est = regress(generate_dataset(env, 256, rng), env.basis, 0.1, 2.0, OMEGA, S)
        assert est.diagnostics.converged
        on_cap += est.theta_hat.norm() >= 2.0 - 1e-9
        faces.append(est.diagnostics.projection_iterations)
    assert on_cap <= 20
    assert np.mean(faces) <= 8.0


def test_projection_zero_operator_returns_start():
    x = np.random.default_rng(47).normal(1.0, 0.8, OMEGA.size)
    op = DesignOperator(np.zeros((OMEGA.size, OMEGA.size)), OMEGA, 1)
    est = project_to_C(GridFunction(OMEGA, x), op, 2.0)
    assert est.diagnostics.converged and est.diagnostics.projection_iterations == 0
    assert np.array_equal(est.theta_hat.values, _clipped_start(x, 2.0))


def test_projection_at_M_one_returns_the_uniform_density():
    # at M = 1 the uniform density is C's one point, and the start; the
    # KKT check found no multiplier there (Slater's condition fails) and
    # reported the projection as not converged
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    rng = np.random.default_rng(5)
    op = design_operator(env.basis, [(rng.random(2), int(rng.integers(5))) for _ in range(8)],
                         OMEGA, S)
    for _ in range(5):
        est = project_to_C(GridFunction(OMEGA, rng.normal(1.0, 0.8, OMEGA.size)), op, 1.0)
        assert np.array_equal(est.theta_hat.values, np.ones(OMEGA.size))
        assert est.diagnostics == regression.Diagnostics()


def _refusal_cases():
    """name -> (call, message) for input refusals across the oracle's layers."""
    basis = make_catalog_env("kumaraswamy", OMEGA, S).basis
    ones, grid2 = np.ones(OMEGA.size), build_uniform_grid(2)
    op = design_operator(basis, [(np.array([0.3, 0.6]), 1)], OMEGA, S)
    spec = spectral_decompose(op)
    other = GridFunction(build_uniform_grid(16), np.ones(16))
    tilted = ones.copy()
    tilted[:2] = -0.5, 2.5
    penalty = make_functional("expected_penalty", loss_row=[0.0, 1.0])
    return {
        "env-negative-theta": (lambda: Environment(basis, GridFunction(OMEGA, tilted), S,
                                                   2, 5), "nonnegative"),
        "env-theta-mass": (lambda: Environment(basis, GridFunction(OMEGA, 2.0 * ones), S,
                                               2, 5), "integrate to 1"),
        "grid-counts": (lambda: QuadratureGrid(np.zeros(3), [0.5, 0.5]), "counts differ"),
        "grid-2d-nodes": (lambda: QuadratureGrid([[0.25], [0.75]], [0.5, 0.5]), "1-d array"),
        "grid-scalar-node": (lambda: QuadratureGrid(0.5, [1.0]), "1-d array"),
        "grid-mass": (lambda: QuadratureGrid([0.25, 0.75], [0.5, 0.6]), "sum to 1"),
        "grid-box": (lambda: QuadratureGrid([0.5, 1.5], [0.5, 0.5]), "outside the unit box"),
        "function-count": (lambda: GridFunction(OMEGA, np.ones(3)), "value count"),
        "function-nan": (lambda: GridFunction(OMEGA, np.full(OMEGA.size, np.nan)), "finite"),
        "spectrum-negative": (lambda: SpectralDecomposition([1.0, -0.5], np.eye(2), grid2),
                              "nonnegative"),
        # NaN never met the checks' failure conditions, and inf passed them
        "spectrum-nan-first": (lambda: SpectralDecomposition([np.nan, 1.0], np.eye(2), grid2),
                               "^eigenvalues must be finite and nonnegative$"),
        "spectrum-inf-first": (lambda: SpectralDecomposition([np.inf, 1.0], np.eye(2), grid2),
                               "^eigenvalues must be finite and nonnegative$"),
        "spectrum-nan-last": (lambda: SpectralDecomposition([1.0, np.nan], np.eye(2), grid2),
                              "^eigenvalues must be finite and nonnegative$"),
        "spectrum-ascending": (lambda: SpectralDecomposition([0.5, 1.0], np.eye(2), grid2),
                               "descending"),
        "kernel-eig-size": (lambda: degenerate_kernel_eig(np.minimum, 1000, 3),
                            r"^n\*r must be an integer in \[1, 2000\], not 3000$"),
        "design-shape": (lambda: DesignOperator(np.zeros((3, 3)), OMEGA, 1), "does not match"),
        "design-no-pairs": (lambda: design_operator(basis, [], OMEGA, S), "nonempty"),
        "eigendecay-no-pairs": (lambda: estimate_eigendecay(basis, np.zeros((0, 2)), [], OMEGA,
                                                            S), "at least one sample pair"),
        "cdf-grid-size": (lambda: build_cdf_grid(MAX_GRID_NODES + 1), r"^n_nodes must be an "
                          r"integer in \[2, %d\], not %d$" % (MAX_GRID_NODES, MAX_GRID_NODES + 1)),
        "uniform-grid-size": (lambda: build_uniform_grid(10**30), r"^n_nodes must be an integer "
                              r"in \[2, %d\], not %d$" % (MAX_GRID_NODES, 10**30)),
        "norm-other-grid": (lambda: weighted_norm(other, op), "different grid"),
        "norm-indefinite": (lambda: weighted_norm(GridFunction(OMEGA, ones),
                                                  DesignOperator(-np.eye(OMEGA.size), OMEGA, 1)),
                            "semidefinite"),
        "pinv-other-grid": (lambda: pseudo_inverse_apply(spec, select_truncation(spec, 1, 1.0),
                                                         other), "different grid"),
        "truncation-gamma-0": (lambda: select_truncation(spec, 8, 0.0), r"gamma must be"),
        "truncation-gamma-1.5": (lambda: select_truncation(spec, 8, 1.5), r"gamma must be"),
        "penalty-negative-weights": (lambda: penalty([-0.5, 1.0], build_cdf_grid(2)),
                                     "nonnegative"),
    }


@pytest.mark.parametrize("case", sorted(_refusal_cases()))
def test_inputs_outside_the_contract_are_refused(case):
    call, message = _refusal_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()


def _grid_checked_sites():
    """site -> (the grid it expects, a call that hands it another grid g in
    its place, the refusal's <what>) for every grid-checked site."""
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    data = generate_dataset(env, 16, np.random.default_rng(0))
    op = design_operator(env.basis, zip(data.X, data.A), OMEGA, S)
    spec = spectral_decompose(op)
    plan = select_truncation(spec, len(data), 1.0)

    def ones(g):
        return GridFunction(g, np.ones(g.size))

    def regress_with_statistics_on(omega, s):
        stats = regression.data_statistics(data, env.basis, omega, s)
        return regress(data, env.basis, 1.0, 2.0, OMEGA, S, statistics=stats)

    return {
        "pseudo_inverse_apply": (OMEGA, lambda g: pseudo_inverse_apply(spec, plan, ones(g)),
                                 "input"),
        "project_to_C": (OMEGA, lambda g: project_to_C(ones(g), op, 2.0), "theta"),
        "weighted_norm": (OMEGA, lambda g: weighted_norm(ones(g), op), "theta"),
        "loss": (OMEGA, lambda g: loss(ones(g), data, env.basis, OMEGA, S), "theta"),
        "heldout_cdf_error": (OMEGA, lambda g: heldout_cdf_error(
            regression.CoefficientEstimate(ones(g), regression.Diagnostics()), env, 8,
            np.random.default_rng(0)), "estimate"),
        "regress-statistics-omega": (OMEGA, lambda g: regress_with_statistics_on(g, S),
                                     "statistics' design kernel"),
        "regress-statistics-outcome": (S, lambda g: regress_with_statistics_on(OMEGA, g),
                                       "statistics' outcome indicator"),
    }


def _other_grids(grid):
    """A grid of ``grid``'s size with other nodes, and one with its nodes
    under other weights."""
    other_nodes = (build_uniform_grid if grid.nodes[-1] == 1.0 else build_cdf_grid)(grid.size)
    w = 1.0 + grid.nodes
    return {"other-nodes": other_nodes, "other-weights": QuadratureGrid(grid.nodes, w / w.sum())}


@pytest.mark.parametrize("other", ["other-nodes", "other-weights"])
@pytest.mark.parametrize("site", sorted(_grid_checked_sites()))
def test_grid_checked_sites_refuse_another_grid(site, other):
    # loss paired theta on another grid with omega_grid's weights (2.94 for
    # theta = 1 on the 32-node CDF grid and this dataset), regress took
    # statistics summed on other grids without a word, and every site took a
    # grid with the same nodes and other weights
    expected, call, what = _grid_checked_sites()[site]
    grid = _other_grids(expected)[other]
    assert np.array_equal(grid.nodes, expected.nodes) == (other == "other-weights")
    with pytest.raises(ValueError, match="^%s lives on a different grid$" % what):
        call(grid)
    call(QuadratureGrid(expected.nodes, expected.weights))  # an equal copy passes


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


def test_error_budget_rejects_nan_s0():
    kwargs = dict(n=64, delta=0.1, gamma=0.5, M=2.0, L=1.0, L0=2.5, A=1.0, d=1, eta=0.2)
    with pytest.raises(ValueError):
        error_budget(s0=np.nan, **kwargs)


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
        regress(regression.Dataset([[0.1, 0.1]], [0], [1.5]), env.basis, 0.1, 2.0, OMEGA, S)
    with pytest.raises(ValueError):
        regress(regression.Dataset(np.empty((0, 2)), [], []), env.basis, 0.1, 2.0, OMEGA, S)


def test_predict_cdf_is_valid_cdf():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8)
    rng = np.random.default_rng(33)
    data = generate_dataset(env, 64, rng)
    est = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    for _ in range(5):
        f = predict_cdf(est, env.basis, rng.random(2), int(rng.integers(5)), S)
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


def _per_sample_statistics(data, basis):
    """Reference sums with one B=1 evaluation per sample."""
    kernel = np.zeros((OMEGA.size, OMEGA.size))
    target = np.zeros(OMEGA.size)
    indicator_sq = 0.0
    for x, a, y in data:
        phi = basis_values(basis, [x], [a], OMEGA.nodes, S.nodes)[0]
        indicator = (S.nodes >= y).astype(float)
        kernel += (phi * S.weights) @ phi.T
        target += phi @ (S.weights * indicator)
        indicator_sq += float(S.weights @ indicator**2)
    return (kernel + kernel.T) / 2.0, target, indicator_sq


@pytest.mark.parametrize("n", [1, 2 * BASIS_CHUNK + 5])
def test_chunked_statistics_match_per_sample_sums(n):
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, n, np.random.default_rng(53))
    kernel, target, indicator_sq = _per_sample_statistics(data, env.basis)
    stats = regression.data_statistics(data, env.basis, OMEGA, S)
    op = stats.design_operator()

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert op.data_count == n
    assert close(op.kernel_matrix, kernel)
    assert close(design_operator(env.basis, [(x, a) for x, a, _ in data], OMEGA, S)
                 .kernel_matrix, kernel)
    assert close(stats.target, target)
    assert close(empirical_target(data, env.basis, OMEGA, S).values, target)
    assert stats.indicator_sq == pytest.approx(indicator_sq, rel=1e-12)
    theta = env.theta_star
    direct = sum(float(S.weights @ ((S.nodes >= y) - true_cdf(env, x, a).values) ** 2)
                 for x, a, y in data)
    assert loss(theta, data, env.basis, OMEGA, S) == pytest.approx(direct, rel=1e-12)


def test_regress_loss_diagnostic_matches_loss():
    for name, params in (("kumaraswamy", {"theta_star": "bumps"}), ("finite-rank-r", {"rank": 8})):
        env = make_catalog_env(name, OMEGA, S, **params)
        data = generate_dataset(env, 300, np.random.default_rng(59))
        est = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
        direct = loss(est.theta_hat, data, env.basis, OMEGA, S)
        assert est.diagnostics.loss == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("name, params, n", [
    pytest.param("kumaraswamy", {"theta_star": "bumps"}, 37, id="kumaraswamy-params0"),
    pytest.param("finite-rank-r", {"rank": 8}, 37, id="finite-rank-r-params1"),
    pytest.param("kumaraswamy", {"theta_star": "bumps"}, 149, id="kumaraswamy-149"),
    pytest.param("finite-rank-r", {"rank": 8}, 149, id="finite-rank-r-149")])
def test_regress_from_statistics_equals_dataset_path(name, params, n):
    # 37 pairs are one evaluation batch; 149 are two 64-pair batches and a
    # remainder
    env = make_catalog_env(name, OMEGA, S, **params)
    data = generate_dataset(env, n, np.random.default_rng(61))
    stats = regression.data_statistics(data, env.basis, OMEGA, S)
    fresh = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    given = regress(data, env.basis, 0.1, 2.0, OMEGA, S, statistics=stats)
    assert given.theta_hat.values.tobytes() == fresh.theta_hat.values.tobytes()
    assert given.diagnostics == fresh.diagnostics
    # the accumulator adds chunk by chunk, so the same chunks give the same bits
    again = regression.DataStatistics(OMEGA, S)
    for lo in range(0, len(data), BASIS_CHUNK):
        sl = slice(lo, lo + BASIS_CHUNK)
        again.add(basis_values(env.basis, data.X[sl], data.A[sl], OMEGA.nodes, S.nodes), data.y[sl])
    assert again.kernel.tobytes() == stats.kernel.tobytes()
    assert again.target.tobytes() == stats.target.tobytes()
    assert (again.indicator_sq, again.count) == (stats.indicator_sq, stats.count)


@pytest.mark.parametrize("omega_nodes, s_nodes, batch", [(32, 64, 64), (64, 512, BASIS_CHUNK)])
def test_data_statistics_evaluates_phi_in_batches_of_chunks(omega_nodes, s_nodes, batch):
    # a chunk of phi is 256 KB on 32 x 64 grids, so four chunks make a
    # 1 MiB batch; on 64 x 512 grids one chunk is 4 MiB and its own batch
    omega, s = build_uniform_grid(omega_nodes), build_cdf_grid(s_nodes)
    env = make_catalog_env("kumaraswamy", omega, s, theta_star="bumps")
    n = 149
    data = generate_dataset(env, n, np.random.default_rng(71))
    sizes = []

    def counted(X, A, omega_nodes, s_nodes):
        sizes.append(len(A))
        return env.basis.eval_matrix(X, A, omega_nodes, s_nodes)

    basis = dataclasses.replace(env.basis, eval_matrix=counted)
    stats = regression.data_statistics(data, basis, omega, s)
    assert stats.count == n
    assert len(sizes) == math.ceil(n / batch) and max(sizes) == batch
    # consumers still see BASIS_CHUNK-row chunks, contiguous in memory
    chunks = list(basis_chunks(env.basis, data.X, data.A, omega, s))
    assert [sl for sl, _ in chunks] == [slice(lo, lo + BASIS_CHUNK)
                                        for lo in range(0, n, BASIS_CHUNK)]
    assert [phi.shape[0] for _, phi in chunks] == [BASIS_CHUNK] * (n // BASIS_CHUNK) + [n % BASIS_CHUNK]
    assert all(phi.flags.c_contiguous for _, phi in chunks)


def test_regress_refuses_statistics_of_another_dataset():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 20, np.random.default_rng(67))
    stats = regression.data_statistics(data, env.basis, OMEGA, S)
    longer = regression.Dataset(*(np.concatenate([col, col[:1]])
                                  for col in (data.X, data.A, data.y)))
    shorter = regression.Dataset(data.X[:-1], data.A[:-1], data.y[:-1])
    for other in (shorter, longer, regression.Dataset(np.empty((0, 2)), [], [])):
        with pytest.raises(ValueError, match="statistics count"):
            regress(other, env.basis, 0.1, 2.0, OMEGA, S, statistics=stats)
    with pytest.raises(ValueError, match="outside the support"):
        stats.add(basis_values(env.basis, data.X[:1], [0], OMEGA.nodes, S.nodes), [1.5])


def test_dataset_is_iterable_over_read_only_columns():
    # sized and iterable over read-only views of its columns; no indexing
    X, A, y = np.arange(12.0).reshape(4, 3), np.array([0, 2, 1, 2]), np.linspace(0, 1, 4)
    data = regression.Dataset(X, A, y)
    assert len(data) == 4
    assert np.shares_memory(data.X, X) and np.shares_memory(data.A, A)
    assert not (data.X.flags.writeable or data.A.flags.writeable or data.y.flags.writeable)
    for i, (x, a, out) in enumerate(data):
        assert np.array_equal(x, X[i]) and (a, out) == (A[i], y[i])
        assert type(a) is int and type(out) is float
    assert [r[1:] for r in data] == [r[1:] for r in data] != []  # re-iterable
    with pytest.raises(TypeError):
        data[0]
    with pytest.raises(ValueError, match="dataset columns"):
        regression.Dataset(X, A[:3], y)


@pytest.mark.parametrize("bad", [1.7, -0.5, float("nan"), float("inf"), 1e19])
def test_dataset_refuses_non_integral_actions(bad):
    X, y = np.zeros((2, 2)), np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="actions must be integers"):
        regression.Dataset(X, [1.0, bad], y)
    with pytest.raises(ValueError, match="actions must be integers"):
        regression.Dataset(X, np.array([1.0, bad]), y)
    # integral floats are actions; an int column is viewed, not copied
    assert regression.Dataset(X, [1.0, 2.0], y).A.tolist() == [1, 2]
    A = np.array([1, 2])
    assert np.shares_memory(regression.Dataset(X, A, y).A, A)


def test_basis_values_and_regress_refuse_non_integral_actions():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 32, np.random.default_rng(43))
    with pytest.raises(ValueError, match="actions must be integers"):
        basis_values(env.basis, data.X[:2], data.A[:2] + 0.7, OMEGA.nodes, S.nodes)
    # formerly truncated to the integer-action theta_hat
    with pytest.raises(ValueError, match="actions must be integers"):
        regress(regression.Dataset(data.X, data.A + 0.7, data.y), env.basis, 0.1, 2.0, OMEGA, S)
    nodes = OMEGA.nodes, S.nodes
    assert np.array_equal(basis_values(env.basis, data.X[:2], data.A[:2] + 0.0, *nodes),
                          basis_values(env.basis, data.X[:2], data.A[:2], *nodes))
