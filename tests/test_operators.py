"""Point and design integral operators: kernel bounds, spectral invariants,
and the eigendecay ladder."""

import dataclasses

import numpy as np
import pytest

from cdfreg import (
    CdfBasis,
    Dataset,
    DesignOperator,
    GridFunction,
    basis_values,
    build_cdf_grid,
    build_uniform_grid,
    design_operator,
    eigendecay_prepass,
    estimate_eigendecay,
    generate_dataset,
    make_catalog_env,
    point_kernel,
    regress,
    sample_context,
    spectral_decompose,
    sym_eig,
    weighted_norm,
)
from cdfreg import numerics, operators
from cdfreg.environments import BASIS_CATALOG
from cdfreg.harness import DECAY_PAIRS, _draw_records
from cdfreg.numerics import quadrature_eigvals
from cdfreg.operators import BASIS_CHUNK, GAMMA_LADDER, S0_BUDGET, TAU_FLOOR

OMEGA = build_uniform_grid(32)
S = build_cdf_grid(64)


def _envs():
    # finite-rank-r at its default rank, 8
    return [make_catalog_env(name, OMEGA, S) for name in BASIS_CATALOG]


def _random_pairs(env, count, seed):
    rng = np.random.default_rng(seed)
    return [(sample_context(env, rng), int(rng.integers(env.action_count)))
            for _ in range(count)]


def _columns(pairs):
    """(context, action) pairs as columns X (n, d) and A (n,)."""
    X, A = zip(*pairs)
    return np.array(X), np.array(A)


def test_batched_rows_equal_single_pair_evaluations():
    for env in _envs() + [make_catalog_env("kumaraswamy", OMEGA, S, context_dim=11)]:
        rng = np.random.default_rng(3)
        X = rng.random((37, env.context_dim))
        A = rng.integers(env.action_count, size=37)
        phi = basis_values(env.basis, X, A, OMEGA.nodes, S.nodes)
        assert phi.shape == (37, OMEGA.size, S.size)
        for b in range(37):
            one = basis_values(env.basis, [X[b]], [A[b]], OMEGA.nodes, S.nodes)
            assert np.array_equal(one[0], phi[b])


def test_basis_contract_violations_raise():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    x, a = np.array([0.2, 0.4]), 1

    def per_pair(X, A, omega_nodes, s):
        # the single-pair (n_w, n_s) shape is not the batched contract
        return env.basis.eval_matrix(X, A, omega_nodes, s)[0]

    def out_of_range(X, A, omega_nodes, s):
        return 1.5 * env.basis.eval_matrix(X, A, omega_nodes, s)

    def nan_entry(X, A, omega_nodes, s):
        phi = env.basis.eval_matrix(X, A, omega_nodes, s)
        phi[:, 0, 0] = np.nan
        return phi

    for evaluator in (per_pair, out_of_range, nan_entry):
        basis = CdfBasis("broken", evaluator, lipschitz_L0=1.0, kernel_floor_eta=0.1)
        with pytest.raises(ValueError):
            basis_values(basis, [x, x], [a, a], OMEGA.nodes, S.nodes)
        with pytest.raises(ValueError):
            point_kernel(basis, x, a, OMEGA, S)
        with pytest.raises(ValueError):
            regress(Dataset([x] * 3, [a] * 3, [0.5] * 3), basis, 0.1, 2.0, OMEGA, S)


def test_rank1_kernel_is_constant_second_moment():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    k = point_kernel(env.basis, np.array([0.3, 0.9]), 2, OMEGA, S)
    # phi(s) = s for every argument, so every entry is the quadrature
    # value of the integral of s^2 over S under the right-endpoint rule
    expected = sum((j / 64) ** 2 for j in range(1, 65)) / 64
    assert np.allclose(k, expected, atol=1e-12)


def test_kernel_entries_bounded_and_floored():
    for env in _envs():
        for x, a in _random_pairs(env, 10, 5):
            k = point_kernel(env.basis, x, a, OMEGA, S)
            assert np.max(np.abs(k - k.T)) < 1e-12
            assert np.min(k) >= env.basis.kernel_floor_eta - 1e-12
            assert np.max(k) <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["kumaraswamy", "rank1-uniform"])
def test_declared_lipschitz_L0_bounds_phi_in_w(name):
    # L0 bounds |phi(x,a,w,s) - phi(x,a,r,s)| / |w - r|. finite-rank-r is
    # left out: its phi is piecewise constant in w, so its declared 60 is
    # not a Lipschitz constant (ROADMAP item 6)
    env = make_catalog_env(name, OMEGA, S)
    L0 = env.basis.lipschitz_L0
    rng = np.random.default_rng(61)
    X = rng.random((32, env.context_dim))
    A = rng.integers(env.action_count, size=32)
    # every pair of Omega nodes
    w = OMEGA.nodes
    phi = basis_values(env.basis, X, A, OMEGA.nodes, S.nodes)
    jump = np.max(np.abs(phi[:, :, None, :] - phi[:, None, :, :]), axis=-1)
    dist = np.abs(w[:, None] - w[None, :])
    apart = dist > 0
    assert np.all(jump[:, apart] <= L0 * dist[apart] + 1e-12)
    # neighbours on a fine w-grid, whose slopes bound every pair on it
    fine = build_uniform_grid(4001)
    for b in range(X.shape[0]):
        phi = basis_values(env.basis, X[b:b + 1], A[b:b + 1], fine.nodes, S.nodes)[0]
        jump = np.max(np.abs(np.diff(phi, axis=0)), axis=-1)
        assert np.all(jump <= L0 * np.diff(fine.nodes) + 1e-12)


def test_point_operator_spectral_invariants():
    for env in _envs():
        for x, a in _random_pairs(env, 5, 7):
            op = design_operator(env.basis, [(x, a)], OMEGA, S)
            spec = spectral_decompose(op)
            trace = op.quadrature_trace()
            assert trace <= 1.0 + 1e-6
            assert spec.eigenvalues[0] <= 1.0 + 1e-6
            # lambda_k * k <= trace for every k
            ks = np.arange(1, spec.eigenvalues.shape[0] + 1)
            assert np.all(spec.eigenvalues * ks <= trace + 1e-6)


def test_design_operator_additivity():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    pairs = _random_pairs(env, 6, 13)
    left = design_operator(env.basis, pairs[:3], OMEGA, S)
    right = design_operator(env.basis, pairs[3:], OMEGA, S)
    both = design_operator(env.basis, pairs, OMEGA, S)
    # float addition is not associative, so entrywise equality holds only
    # up to reordering round-off
    assert np.max(np.abs(both.kernel_matrix
                         - (left.kernel_matrix + right.kernel_matrix))) < 1e-12


def test_design_operator_rejects_nan_kernel():
    kernel = np.eye(OMEGA.size)
    kernel[0, 0] = np.nan
    with pytest.raises(ValueError):
        DesignOperator(kernel, OMEGA, 1)


def test_design_operator_holds_an_exactly_symmetric_copy_of_its_kernel():
    # a kernel asymmetric within the tolerance used to be held as given,
    # and the caller's own array was frozen in place
    rng = np.random.default_rng(3)
    base = rng.random((OMEGA.size, OMEGA.size))
    kernel = base @ base.T + 1e-12 * np.triu(rng.random((OMEGA.size, OMEGA.size)), 1)
    op = DesignOperator(kernel, OMEGA, 1)
    assert np.array_equal(op.kernel_matrix, op.kernel_matrix.T)
    assert np.array_equal(op.kernel_matrix, (kernel + kernel.T) / 2.0)
    assert not op.kernel_matrix.flags.writeable and op.kernel_matrix.flags.c_contiguous
    kernel[0, 1] = 5.0
    assert op.kernel_matrix[0, 1] != 5.0


@pytest.mark.parametrize("name, value", [("omega_dim", 1), ("covering_constant_A", 1.0)],
                         ids=["omega_dim", "covering_constant_A"])
def test_omega_dim_is_a_class_constant_not_a_field(name, value):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    assert name not in {f.name for f in dataclasses.fields(CdfBasis)}
    assert getattr(env.basis, name) == value
    assert getattr(dataclasses.replace(env.basis, name="copy"), name) == value


def test_the_last_gamma_rung_always_fits_the_budget():
    # tau_k <= 1/k (each point operator has quadrature trace at most 1, with
    # phi allowed 1e-9 above 1) and n_w <= MAX_EIG_SIZE, so at gamma = 1 the
    # power sum is at most the harmonic number H_MAX_EIG_SIZE; the pre-pass
    # picks its rung with next() and relies on this
    assert GAMMA_LADDER[-1] == 1.0
    harmonic = sum(1.0 / k for k in range(1, numerics.MAX_EIG_SIZE + 1))
    assert harmonic * (1 + 1e-9) ** 2 < S0_BUDGET


def test_weighted_norm_triangle_inequality():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    op = design_operator(env.basis, _random_pairs(env, 8, 19), OMEGA, S)
    rng = np.random.default_rng(19)
    for _ in range(200):
        f = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
        g = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
        s = GridFunction(OMEGA, f.values + g.values)
        assert weighted_norm(s, op) <= weighted_norm(f, op) + weighted_norm(g, op) + 1e-9


def test_weighted_norm_accepts_every_eigenfunction_at_every_scale():
    # the semidefiniteness check is relative to the size of the form's terms,
    # so the form's round-off passes at any scale of theta or of the kernel
    # (an absolute -1e-10 refused eigenfunction 26 times 100)
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 4096, np.random.default_rng(0))
    op = design_operator(env.basis, zip(data.X, data.A), OMEGA, S)
    spec = spectral_decompose(op)
    for theta_scale, kernel_scale in ((1.0, 1.0), (100.0, 1.0), (1000.0, 1.0), (1.0, 1000.0)):
        scaled = DesignOperator(kernel_scale * op.kernel_matrix, OMEGA, op.data_count)
        size = theta_scale**2 * kernel_scale
        for lam, e in zip(spec.eigenvalues, spec.eigenfunctions.T):
            norm = weighted_norm(GridFunction(OMEGA, theta_scale * e), scaled)
            # the form is lambda_k up to round-off of the size of lambda_1
            assert abs(norm**2 - size * lam) <= 1e-14 * size * spec.eigenvalues[0]


def test_functional_determinant_bounded():
    for env in _envs():
        for x, a in _random_pairs(env, 5, 23):
            spec = spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA, S))
            # prod (1 + lambda_i) <= exp(sum lambda_i) = exp(trace) <= e
            det = np.prod(1.0 + spec.eigenvalues)
            assert det <= np.e + 1e-6


def test_regress_decomposes_design_operator_once(monkeypatch):
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 16, np.random.default_rng(31))
    calls = []

    def counting_sym_eig(matrix):
        calls.append(matrix.shape)
        return sym_eig(matrix)

    monkeypatch.setattr(numerics, "sym_eig", counting_sym_eig)
    regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    assert calls == [(OMEGA.size, OMEGA.size)]


@pytest.mark.parametrize("n_pairs", [1, 16, 20, 33])
def test_estimate_eigendecay_makes_one_eigensolve_per_chunk(monkeypatch, n_pairs):
    # the pre-pass solves eigenvalues only: one quadrature_eigvals call per
    # chunk of pairs, and no call of the eigenvector solver sym_eig
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    pairs = _random_pairs(env, n_pairs, 47)
    calls, eigh_calls = [], []

    def counting_eigvals(matrix, grid):
        calls.append(matrix.shape)
        return quadrature_eigvals(matrix, grid)

    def counting_sym_eig(matrix):
        eigh_calls.append(matrix.shape)
        return sym_eig(matrix)

    monkeypatch.setattr(operators, "quadrature_eigvals", counting_eigvals)
    monkeypatch.setattr(numerics, "sym_eig", counting_sym_eig)
    estimate_eigendecay(env.basis, *_columns(pairs), OMEGA, S)
    sizes = [min(BASIS_CHUNK, n_pairs - lo) for lo in range(0, n_pairs, BASIS_CHUNK)]
    assert len(calls) == -(-n_pairs // BASIS_CHUNK)
    assert calls == [(b, OMEGA.size, OMEGA.size) for b in sizes]
    assert eigh_calls == []


def test_eigenfunctions_quadrature_orthonormal():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8)
    op = design_operator(env.basis, _random_pairs(env, 16, 37), OMEGA, S)
    spec = spectral_decompose(op)
    funcs = spec.eigenfunctions
    gram = funcs.T @ (OMEGA.weights[:, None] * funcs)
    assert np.allclose(gram, np.eye(funcs.shape[1]), atol=1e-8)


def test_estimate_eigendecay_rank1():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    fit = estimate_eigendecay(env.basis, *_columns(_random_pairs(env, 5, 41)), OMEGA, S)
    # rank one: a single eigenvalue ~1/3, every gamma on the ladder works
    assert fit.gamma == 0.1
    assert fit.tau[0] == pytest.approx(0.3412, abs=1e-3)
    assert np.all(fit.tau[1:] < 1e-8)
    assert fit.s0 == pytest.approx(np.sum(fit.tau ** fit.gamma))


def test_estimate_eigendecay_dominates_samples():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    pairs = _random_pairs(env, 10, 43)
    fit = estimate_eigendecay(env.basis, *_columns(pairs), OMEGA, S)
    assert fit.tau.shape == (OMEGA.size,)
    for x, a in pairs:
        spec = spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA, S))
        assert np.all(spec.eigenvalues <= fit.tau + 1e-12)
    assert np.sum(fit.tau ** fit.gamma) <= 10.0 + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(BASIS_CATALOG))
def test_estimate_eigendecay_equals_per_pair_reference(name, seed):
    # the pre-pass evaluates phi for all its pairs in one batch and
    # eigensolves each pair's kernel; tau must equal the per-pair path's bit
    # for bit. Both sides solve eigenvalues only and apply the same floor.
    env = make_catalog_env(name, OMEGA, S)
    batches = []

    def counting(X, A, omega_nodes, s):
        batches.append(A.shape[0])
        return env.basis.eval_matrix(X, A, omega_nodes, s)

    pairs = _random_pairs(env, 20, seed)
    basis = dataclasses.replace(env.basis, eval_matrix=counting)
    fit = estimate_eigendecay(basis, *_columns(pairs), OMEGA, S)
    assert batches == [20]
    tau = np.zeros(OMEGA.size)
    for x, a in pairs:
        tau = np.maximum(tau, quadrature_eigvals(point_kernel(env.basis, x, a, OMEGA, S), OMEGA))
    tau[tau < TAU_FLOOR * tau[0]] = 0.0
    assert np.array_equal(fit.tau, tau)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name, params", [("kumaraswamy", {"theta_star": "bumps"}),
                                          ("finite-rank-r", {"rank": 8})])
def test_estimate_eigendecay_fit_agrees_with_a_full_eigensolve(name, params, seed):
    # with the floor, the eigenvalue-only solve and the eigenpair solve give
    # the same (gamma, s0): they differ only in round-off eigenvalues, which
    # the floor sets to 0 (without it s0 moved by up to 7.8e-4 relative)
    env = make_catalog_env(name, OMEGA, S, **params)
    pairs = _random_pairs(env, 20, seed)
    fit = estimate_eigendecay(env.basis, *_columns(pairs), OMEGA, S)
    tau = np.zeros(OMEGA.size)
    for x, a in pairs:
        tau = np.maximum(tau, spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA,
                                                                 S)).eigenvalues)
    tau[tau < TAU_FLOOR * tau[0]] = 0.0
    gamma = next(g for g in GAMMA_LADDER if np.sum(tau**g) <= S0_BUDGET)
    assert fit.gamma == gamma
    assert fit.s0 == pytest.approx(np.sum(tau**gamma), rel=1e-6, abs=0)


@pytest.mark.parametrize("name, params, rank",
                         [("finite-rank-r", {"rank": r}, r) for r in (2, 4, 8, 12, 16)]
                         + [("rank1-uniform", {}, 1)])
def test_floored_prepass_keeps_exactly_the_rank(name, params, rank):
    env = make_catalog_env(name, OMEGA, S, **params)
    for seed in range(10):
        tau = eigendecay_prepass(env, seed).tau
        assert np.count_nonzero(tau) == rank
        assert np.all(tau[:rank] > 0) and np.all(tau[rank:] == 0)


def test_prepass_reads_the_whole_floored_spectrum_above_16_nodes():
    # finite-rank-20 has 20 resolved eigenvalues; a cut at 16 entries read
    # 16 of them, gamma 0.1 and s0 9.104
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=20)
    fit = eigendecay_prepass(env, 0)
    assert fit.tau.shape == (OMEGA.size,) and np.count_nonzero(fit.tau) == 20
    assert fit.gamma == 0.2
    assert fit.s0 == pytest.approx(np.sum(fit.tau[:20] ** 0.2), rel=1e-15)
    assert fit.s0 == pytest.approx(6.228, abs=1e-3)


def _fit_cut_at_16(env, X, A):
    """The pre-pass with tau cut at its first 16 entries, as it ran before
    the floor alone decided which eigenvalues count."""
    tau = np.zeros(16)
    for _, phi in operators.basis_chunks(env.basis, X, A, env.omega_grid, env.s_grid):
        k = operators.pair_kernels(phi, env.s_grid.weights)
        vals = quadrature_eigvals((k + k.transpose(0, 2, 1)) / 2, env.omega_grid)
        tau = np.maximum(tau, vals[:, :16].max(axis=0))
    tau[tau < TAU_FLOOR * tau[0]] = 0.0
    gamma = next((g for g in GAMMA_LADDER if np.sum(tau**g) <= S0_BUDGET), 1.0)
    return tau, gamma, float(np.sum(tau**gamma))


@pytest.mark.parametrize("grids", [(32, 64), (64, 256), (24, 100), (30, 37)],
                         ids=["32x64", "64x256", "24x100", "30x37"])
@pytest.mark.parametrize("name, params", [
    ("kumaraswamy", {}), ("kumaraswamy", {"theta_star": "bumps"}),
    ("finite-rank-r", {"rank": 8}), ("finite-rank-r", {"rank": 16}), ("rank1-uniform", {})],
    ids=["kumaraswamy-uniform", "kumaraswamy-bumps", "rank-8", "rank-16", "rank1-uniform"])
def test_prepass_fit_equals_the_cut_at_16_where_at_most_16_taus_count(name, params, grids):
    # where at most 16 eigenvalues clear the floor, the whole spectrum and
    # its first 16 entries give the same (gamma, s0) bit for bit, and every
    # entry past 16 is 0
    omega, s = build_uniform_grid(grids[0]), build_cdf_grid(grids[1])
    env = make_catalog_env(name, omega, s, **params)
    for seed in range(10):
        fit = eigendecay_prepass(env, seed)
        X, A, _ = _draw_records(env, DECAY_PAIRS, np.random.default_rng(seed))
        tau, gamma, s0 = _fit_cut_at_16(env, X, A)
        assert fit.tau.shape == (omega.size,)
        assert np.array_equal(fit.tau[:16], tau) and np.all(fit.tau[16:] == 0)
        assert (fit.gamma, fit.s0) == (gamma, s0)
