"""Quadrature grids, Gauss-Legendre rules, symmetric eigensolvers, and the
piecewise-Gauss degenerate kernel eigensolver."""

import numpy as np
import pytest

from cdfreg import (
    GridFunction,
    QuadratureGrid,
    SpectralDecomposition,
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    sym_eig,
)
from cdfreg.numerics import MAX_EIG_SIZE, MAX_GRID_NODES, quadrature_eig, quadrature_eigvals


def test_uniform_grid_1d_two_nodes():
    grid = build_uniform_grid(2)
    assert np.allclose(grid.nodes, [0.25, 0.75])
    assert np.allclose(grid.weights, [0.5, 0.5])


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_descending_order_is_judged_relative_to_lambda_1(scale):
    # the order check allowed an absolute rise of 1e-12: it took [1e-13,
    # 5e-13] as descending, and refused a rise of round-off size at 1e13
    grid = build_uniform_grid(2)
    with pytest.raises(ValueError, match="^eigenvalues must be descending$"):
        SpectralDecomposition(scale * np.array([1.0, 5.0]), np.eye(2), grid)
    for vals in ([5.0, 1.0], [5.0, 5.0 * (1.0 + 1e-12)]):
        SpectralDecomposition(scale * np.array(vals), np.eye(2), grid)


def test_uniform_grid_weights_sum_to_volume():
    grid = build_uniform_grid(7)
    assert grid.nodes.shape == grid.weights.shape == (7,)
    assert abs(grid.weights.sum() - 1.0) < 1e-12


def test_uniform_grid_refuses_huge_grids():
    with pytest.raises(ValueError, match=r"^n_nodes must be an integer in \[2, %d\], not %d$"
                       % (MAX_GRID_NODES, 10**8)):
        build_uniform_grid(10**8)


def test_cdf_grid_right_endpoint():
    grid = build_cdf_grid(64)
    coords = grid.nodes
    assert coords[-1] == 1.0
    assert np.allclose(np.diff(coords), 1.0 / 64)
    assert abs(grid.weights.sum() - 1.0) < 1e-12

def test_grid_function_integral_and_norm():
    grid = build_uniform_grid(128)
    f = GridFunction(grid, grid.nodes)
    assert abs(f.integral() - 0.5) < 1e-4
    assert abs(f.norm() - np.sqrt(1.0 / 3.0)) < 1e-4

def test_quadrature_grid_rejects_nan_weight():
    with pytest.raises(ValueError):
        QuadratureGrid([0.25, 0.75], [0.5, np.nan])

def test_gauss_legendre_exact_for_polynomials():
    # the degenerate-kernel grid is a 6-point Gauss-Legendre rule per cell;
    # degree 11 is the highest degree such a rule integrates exactly
    grid = degenerate_kernel_eig(lambda s, t: s * t, 3, 6).grid
    nodes, weights = grid.nodes, grid.weights
    assert abs(weights @ nodes**10 - 1.0 / 11.0) < 1e-13
    assert abs(weights @ nodes**11 - 1.0 / 12.0) < 1e-13

def test_gauss_legendre_rejects_bad_order():
    # the rule's order r must lie in [1, 16], and the cell count n >= 1
    for n, r in ((0, 4), (4, 0), (4, 17)):
        with pytest.raises(ValueError):
            degenerate_kernel_eig(lambda s, t: s * t, n, r)

def test_degenerate_kernel_rejects_non_vectorized_kernel():
    for kernel in (lambda s, t: 1.0, lambda s, t: min(s, t)):
        with pytest.raises(ValueError):
            degenerate_kernel_eig(kernel, 4, 2)

def test_sym_eig_descending_and_orthonormal():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 20))
    sym = a + a.T
    vals, vecs = sym_eig(sym)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(20), atol=1e-10)
    assert np.allclose(sym @ vecs, vecs * vals, atol=1e-9)

def test_sym_eig_rejects_asymmetric():
    for matrix in ([[0.0, 1.0], [0.0, 0.0]], [[1.0, np.nan], [np.nan, 1.0]],
                   [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            sym_eig(np.array(matrix))

def _psd_stack(rng, lead, n, rank):
    """Random PSD matrices G G^T of rank ``rank``, stacked on ``lead``;
    below full rank their smallest eigenvalues are round-off."""
    g = rng.normal(size=lead + (n, rank))
    return g @ np.swapaxes(g, -1, -2)

def test_sym_eig_refuses_a_bad_matrix():
    matrix = _psd_stack(np.random.default_rng(17), (), 8, 8)
    sym_eig(matrix)
    for bad in (1e-6, np.nan):
        broken = matrix.copy()
        broken[0, 1] += bad
        with pytest.raises(ValueError, match="not finite and symmetric"):
            sym_eig(broken)
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"^matrix size must be an integer in \[0, 2000\], "
                       r"not 2001$"):
        sym_eig(np.broadcast_to(0.0, (MAX_EIG_SIZE + 1, MAX_EIG_SIZE + 1)))

@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_quadrature_eig_refuses_an_indefinite_kernel(scale):
    # the allowance is relative to lambda_1 alone, so scaling the kernel down
    # does not hide its negative eigenvalue (an absolute 1e-12 floor did)
    grid = build_uniform_grid(8)
    kernel = scale * _psd_stack(np.random.default_rng(19), (), 8, 4)
    quadrature_eig(kernel, grid)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        quadrature_eig(kernel - scale * np.eye(8), grid)

def test_sym_eig_and_quadrature_eig_refuse_a_stack():
    grid = build_uniform_grid(8)
    stack = _psd_stack(np.random.default_rng(29), (2,), 8, 8)
    refusal = r"one \(n, n\) matrix, not an array of shape \(2, 8, 8\)"
    with pytest.raises(ValueError, match=refusal):
        sym_eig(stack)
    with pytest.raises(ValueError, match=refusal):
        quadrature_eig(stack, grid)

@pytest.mark.parametrize("rank", [3, 12])
def test_quadrature_eigvals_on_a_stack_equals_per_matrix_calls(rank):
    rng = np.random.default_rng(7 + rank)
    w = rng.uniform(0.5, 1.5, size=12)
    grid = QuadratureGrid(np.linspace(0.02, 0.98, 12), w / w.sum())
    stack = _psd_stack(rng, (33,), 12, rank)
    vals = quadrature_eigvals(stack, grid)
    assert vals.shape == (33, 12)
    assert np.all(vals >= 0) and np.all(np.diff(vals, axis=-1) <= 0)
    for i, kernel in enumerate(stack):
        assert vals[i].tobytes() == quadrature_eigvals(kernel, grid).tobytes()
        # the eigenvalue-only solver agrees with the eigenpair one up to round-off
        full = quadrature_eig(kernel, grid).eigenvalues
        assert np.allclose(vals[i], full, rtol=0, atol=1e-12 * np.max(full))

def test_quadrature_eigvals_refuses_what_quadrature_eig_refuses():
    grid = build_uniform_grid(8)
    stack = _psd_stack(np.random.default_rng(23), (6,), 8, 4)
    quadrature_eigvals(stack, grid)
    # (stack, grid, message, index of the one member that fails)
    cases = []
    for bad in (1e-6, np.nan):
        broken = stack.copy()
        broken[4, 0, 1] += bad
        cases.append((broken, grid, "not finite and symmetric", 4))
    indefinite = stack.copy()
    indefinite[2] -= np.eye(8)
    cases.append((indefinite, grid, "not positive semidefinite", 2))
    big = build_uniform_grid(MAX_EIG_SIZE + 1)
    cases.append((np.broadcast_to(0.0, (1, big.size, big.size)), big,
                  r"^matrix size must be an integer in \[0, 2000\], not 2001$", 0))
    for kernels, g, message, i in cases:
        with pytest.raises(ValueError, match=message):
            quadrature_eigvals(kernels, g)
        with pytest.raises(ValueError, match=message):
            quadrature_eig(kernels[i], g)

def test_degenerate_kernel_min_spectrum():
    """Brownian motion kernel min(s,t): eigenvalues 1/((k-1/2)^2 pi^2)."""
    spec = degenerate_kernel_eig(lambda s, t: np.minimum(s, t), 16, 4)
    analytic = 1.0 / ((np.arange(1, 6) - 0.5) ** 2 * np.pi**2)
    rel = np.abs(spec.eigenvalues[:5] - analytic) / analytic
    assert np.all(rel < 0.01)

def test_degenerate_kernel_rank_one_product():
    spec = degenerate_kernel_eig(lambda s, t: s * t, 16, 4)
    assert abs(spec.eigenvalues[0] - 1.0 / 3.0) < 1e-6
    assert np.all(spec.eigenvalues[1:] < 1e-10)

def test_degenerate_kernel_eigenfunctions_orthonormal():
    spec = degenerate_kernel_eig(lambda s, t: np.minimum(s, t), 8, 3)
    funcs = spec.eigenfunctions  # functions are columns
    gram = funcs.T @ (spec.grid.weights[:, None] * funcs)
    k = min(6, funcs.shape[1])
    assert np.allclose(gram[:k, :k], np.eye(k), atol=1e-8)

@pytest.mark.parametrize("kernel", [lambda s, t: s * t, lambda s, t: np.ones_like(s + t)],
                         ids=["prod", "const"])
def test_degenerate_kernel_keeps_all_eigenpairs(kernel):
    # rank one: every eigenvalue past the first is round-off, clamped to 0
    # and kept, whatever its sign came out as
    spec = degenerate_kernel_eig(kernel, 8, 4)
    assert spec.eigenvalues.shape == (32,)
    assert np.all(spec.eigenvalues[1:] < 1e-10)
    funcs = spec.eigenfunctions
    gram = funcs.T @ (spec.grid.weights[:, None] * funcs)
    assert np.allclose(gram, np.eye(32), atol=1e-10)

def _min_kernel_plus(eps):
    """min(s, t) plus an asymmetric part of size eps."""
    return lambda s, t: np.minimum(s, t) + eps * (s > t)

@pytest.mark.parametrize("n, eps", [(1, 1e-9), (16, 5e-9)])
def test_degenerate_kernel_symmetrizes_nearly_symmetric_kernel(n, eps):
    spec = degenerate_kernel_eig(_min_kernel_plus(eps), n, 4)
    symmetrized = degenerate_kernel_eig(
        lambda s, t: np.minimum(s, t) + 0.5 * eps * (s != t), n, 4)
    assert np.max(np.abs(spec.eigenvalues - symmetrized.eigenvalues)) <= 1e-8

def test_degenerate_kernel_rejects_asymmetric_kernel():
    with pytest.raises(ValueError):
        degenerate_kernel_eig(_min_kernel_plus(1e-7), 16, 4)

def test_spectral_decomposition_checks_eigenfunction_array():
    grid = build_uniform_grid(4)
    vals = np.array([2.0, 1.0])
    spec = SpectralDecomposition(vals, np.eye(4)[:, :2], grid)
    assert spec.eigenfunctions.shape == (4, 2)
    assert not spec.eigenfunctions.flags.writeable
    with pytest.raises(ValueError):
        SpectralDecomposition(vals, np.eye(4)[:, :3], grid)
    with pytest.raises(ValueError):
        SpectralDecomposition(vals, np.full((4, 2), np.nan), grid)

def test_constructors_hold_copies_of_their_callers_arrays():
    # each constructor used to freeze the array it was handed
    nodes, weights, values = np.array([0.25, 0.75]), np.array([0.5, 0.5]), np.array([1.0, 2.0])
    vals, vecs = np.array([2.0, 1.0]), np.eye(2)
    grid = QuadratureGrid(nodes, weights)
    objects = (grid, GridFunction(grid, values), SpectralDecomposition(vals, vecs, grid))
    for caller in (nodes, weights, values, vals, vecs):
        assert caller.flags.writeable
        caller[0] = 0.5
    assert np.array_equal(grid.nodes, [0.25, 0.75]) and np.array_equal(grid.weights, [0.5, 0.5])
    assert np.array_equal(objects[1].values, [1.0, 2.0])
    assert np.array_equal(objects[2].eigenvalues, [2.0, 1.0])
    assert np.array_equal(objects[2].eigenfunctions, np.eye(2))
    for held in (grid.nodes, grid.weights, objects[1].values, objects[2].eigenfunctions):
        assert not held.flags.writeable


def test_degenerate_kernel_rejects_indefinite():
    with pytest.raises(ValueError):
        degenerate_kernel_eig(lambda s, t: np.sin(8.0 * (s - t)), 8, 3)
