"""Point and design integral operators: kernel bounds, spectral invariants,
and the eigendecay ladder."""

import numpy as np
import pytest

from cdfreg import (
    GridFunction,
    apply_operator,
    build_cdf_grid,
    build_uniform_grid,
    design_operator,
    estimate_eigendecay,
    functional_determinant,
    generate_dataset,
    make_catalog_env,
    point_kernel,
    regress,
    sample_context,
    spectral_decompose,
    sym_eig,
    weighted_norm,
)
from cdfreg import operators

OMEGA = build_uniform_grid(1, 32)
S = build_cdf_grid(64)


def _envs():
    return [
        make_catalog_env("rank1-uniform", OMEGA, S),
        make_catalog_env("kumaraswamy", OMEGA, S),
        make_catalog_env("finite-rank-r", OMEGA, S, rank=8),
    ]


def _random_pairs(env, count, seed):
    rng = np.random.default_rng(seed)
    return [(sample_context(env, rng), int(rng.integers(env.action_count)))
            for _ in range(count)]


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


def test_apply_operator_linear():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    op = design_operator(env.basis, _random_pairs(env, 4, 17), OMEGA, S)
    rng = np.random.default_rng(17)
    f = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
    g = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
    combo = GridFunction(OMEGA, 2.0 * f.values - 0.5 * g.values)
    lhs = apply_operator(op, combo).values
    rhs = 2.0 * apply_operator(op, f).values - 0.5 * apply_operator(op, g).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_weighted_norm_triangle_inequality():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    op = design_operator(env.basis, _random_pairs(env, 8, 19), OMEGA, S)
    rng = np.random.default_rng(19)
    for _ in range(200):
        f = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
        g = GridFunction(OMEGA, rng.normal(size=OMEGA.size))
        s = GridFunction(OMEGA, f.values + g.values)
        assert weighted_norm(s, op) <= weighted_norm(f, op) + weighted_norm(g, op) + 1e-9


def test_functional_determinant_bounded():
    for env in _envs():
        for x, a in _random_pairs(env, 5, 23):
            spec = spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA, S))
            det = functional_determinant(spec, spec.eigenvalues.shape[0])
            assert det <= np.e + 1e-6


def test_functional_determinant_cutoff_validation():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    spec = spectral_decompose(design_operator(env.basis, _random_pairs(env, 1, 29), OMEGA, S))
    with pytest.raises(ValueError):
        functional_determinant(spec, -1)
    with pytest.raises(ValueError):
        functional_determinant(spec, spec.eigenvalues.shape[0] + 1)


def test_regress_decomposes_design_operator_once(monkeypatch):
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    data = generate_dataset(env, 16, np.random.default_rng(31))
    calls = []

    def counting_sym_eig(matrix):
        calls.append(matrix.shape)
        return sym_eig(matrix)

    monkeypatch.setattr(operators, "sym_eig", counting_sym_eig)
    regress(data, env.basis, 0.1, 2.0, OMEGA, S)
    assert calls == [(OMEGA.size, OMEGA.size)]


def test_eigenfunctions_quadrature_orthonormal():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8)
    op = design_operator(env.basis, _random_pairs(env, 16, 37), OMEGA, S)
    spec = spectral_decompose(op)
    funcs = spec.eigenfunction_matrix()
    gram = funcs.T @ (OMEGA.weights[:, None] * funcs)
    assert np.allclose(gram, np.eye(funcs.shape[1]), atol=1e-8)


def test_estimate_eigendecay_rank1():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    fit = estimate_eigendecay(env.basis, _random_pairs(env, 5, 41), 6, OMEGA, S)
    # rank one: a single eigenvalue ~1/3, every gamma on the ladder works
    assert fit.gamma == 0.1
    assert fit.tau[0] == pytest.approx(0.3412, abs=1e-3)
    assert np.all(fit.tau[1:] < 1e-8)
    assert fit.s0 == pytest.approx(np.sum(fit.tau ** fit.gamma))


def test_estimate_eigendecay_dominates_samples():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    pairs = _random_pairs(env, 10, 43)
    fit = estimate_eigendecay(env.basis, pairs, 8, OMEGA, S)
    for x, a in pairs:
        spec = spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA, S))
        k = min(8, spec.eigenvalues.shape[0])
        assert np.all(spec.eigenvalues[:k] <= fit.tau[:k] + 1e-12)
    assert np.sum(fit.tau ** fit.gamma) <= 10.0 + 1e-9
