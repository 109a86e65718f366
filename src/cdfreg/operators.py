"""Point and design integral operators built from a CDF basis family.

The kernel of the point operator at (x, a) is the outcome-space integral
of phi(x,a,w,.)*phi(x,a,r,.); the design operator sums point kernels over a
dataset's (context, action) pairs and plays the role the normal matrix
plays in least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    GridFunction,
    QuadratureGrid,
    SpectralDecomposition,
    sym_eig,
)


@dataclass(frozen=True, eq=False)
class CdfBasis:
    """A family of CDFs phi(x, a, w, .) indexed by w, with its regularity
    constants.

    ``eval_matrix(x, a, omega_nodes, s_coords)`` returns the (n_w, n_s)
    array of phi values; it must broadcast over nodes. ``lipschitz_L0``
    bounds |phi(x,a,w,s) - phi(x,a,r,s)| / ||w - r||_inf, ``kernel_floor_eta``
    lower-bounds the point-kernel entries, ``coeff_norm_bound_M`` bounds the
    L2 norm of admissible coefficient functions, and ``covering_constant_A``
    enters the covering-number constant of the random-design error bound.
    """

    name: str
    eval_matrix: callable = field(repr=False)
    lipschitz_L0: float
    kernel_floor_eta: float
    coeff_norm_bound_M: float
    covering_constant_A: float
    context_dim: int
    omega_dim: int


@dataclass(frozen=True, eq=False)
class DesignOperator:
    """Sum of point-operator kernels over dataset (context, action) pairs,
    discretized on an Omega quadrature grid."""

    kernel_matrix: np.ndarray
    grid: QuadratureGrid
    data_count: int

    def __post_init__(self):
        k = np.asarray(self.kernel_matrix, dtype=float)
        if k.shape != (self.grid.size, self.grid.size):
            raise ValueError("kernel matrix does not match the grid")
        if np.max(np.abs(k - k.T)) > 1e-10 * max(1.0, np.max(np.abs(k))):
            raise ValueError("design kernel matrix is not symmetric")
        k = np.ascontiguousarray(k)
        k.flags.writeable = False
        object.__setattr__(self, "kernel_matrix", k)

    def quadrature_trace(self) -> float:
        return float(self.grid.weights @ np.diag(self.kernel_matrix))


@dataclass(frozen=True)
class EigendecayFit:
    """A dominating sequence tau with the fitted decay exponent gamma and
    the achieved budget s0 = sum tau_k^gamma."""

    tau: np.ndarray
    gamma: float
    s0: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        if np.any(np.diff(tau) > 1e-12):
            raise ValueError("tau must be descending")
        if self.s0 + 1e-12 < float(np.sum(np.maximum(tau, 0.0) ** self.gamma)):
            raise ValueError("s0 smaller than the achieved prefix sum")
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)


def point_kernel(basis: CdfBasis, x, a: int, omega_grid: QuadratureGrid,
                 s_grid: QuadratureGrid) -> np.ndarray:
    """Kernel matrix K[i,j] = sum_k s_w_k phi(x,a,w_i,s_k) phi(x,a,w_j,s_k)."""
    phi = np.asarray(basis.eval_matrix(x, a, omega_grid.nodes, s_grid.coords()))
    if phi.shape != (omega_grid.size, s_grid.size):
        raise ValueError("basis evaluator returned a wrong-shaped matrix")
    if np.min(phi) < -1e-9 or np.max(phi) > 1.0 + 1e-9:
        raise ValueError("basis contract violation: phi outside [0, 1]")
    k = (phi * s_grid.weights) @ phi.T
    return (k + k.T) / 2.0


def design_operator(basis: CdfBasis, pairs, omega_grid: QuadratureGrid,
                    s_grid: QuadratureGrid) -> DesignOperator:
    """Sum point kernels over (context, action) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pair list must be nonempty")
    total = np.zeros((omega_grid.size, omega_grid.size))
    for x, a in pairs:
        total += point_kernel(basis, x, a, omega_grid, s_grid)
    return DesignOperator(total, omega_grid, len(pairs))


def spectral_decompose(op: DesignOperator) -> SpectralDecomposition:
    """Eigenpairs of the design operator under the quadrature inner product.

    With D = diag(weights) the weighted problem K D e = lambda e is
    symmetrized as D^(1/2) K D^(1/2); eigenfunctions D^(-1/2) v are then
    orthonormal under the quadrature inner product.
    """
    sqw = np.sqrt(op.grid.weights)
    sym = sqw[:, None] * op.kernel_matrix * sqw[None, :]
    vals, vecs = sym_eig(sym)
    vals = np.maximum(vals, 0.0)  # the operator is provably positive
    funcs = [GridFunction(op.grid, vecs[:, j] / sqw) for j in range(vals.shape[0])]
    return SpectralDecomposition(vals, funcs, op.grid)


def apply_operator(op: DesignOperator, theta: GridFunction) -> GridFunction:
    """(U theta)(w_i) = sum_j weight_j K[i,j] theta_j."""
    if theta.grid is not op.grid and not np.array_equal(theta.grid.nodes, op.grid.nodes):
        raise ValueError("theta lives on a different grid than the operator")
    return GridFunction(op.grid, op.kernel_matrix @ (op.grid.weights * theta.values))


def weighted_quadratic(op: DesignOperator, theta_values: np.ndarray) -> float:
    """<theta, U theta> as a raw quadratic form on node values."""
    wv = op.grid.weights * theta_values
    return float(wv @ op.kernel_matrix @ wv)


def weighted_norm(theta: GridFunction, op: DesignOperator) -> float:
    """The seminorm sqrt(<theta, U_D theta>)."""
    if theta.grid is not op.grid and not np.array_equal(theta.grid.nodes, op.grid.nodes):
        raise ValueError("theta lives on a different grid than the operator")
    q = weighted_quadratic(op, theta.values)
    if q < -1e-10:
        raise ValueError("design operator violated positive semidefiniteness")
    return float(np.sqrt(max(q, 0.0)))


def functional_determinant(spec: SpectralDecomposition, cutoff: int) -> float:
    """Truncated functional determinant prod_{i<=cutoff} (1 + lambda_i)."""
    if cutoff < 0 or cutoff > spec.eigenvalues.shape[0]:
        raise ValueError("cutoff out of range")
    return float(np.prod(1.0 + spec.eigenvalues[:cutoff]))


GAMMA_LADDER = tuple(round(0.1 * k, 1) for k in range(1, 11))


def estimate_eigendecay(basis: CdfBasis, sample_pairs, k_max: int,
                        omega_grid: QuadratureGrid, s_grid: QuadratureGrid,
                        s0_budget: float = 10.0) -> EigendecayFit:
    """Empirical dominating sequence over sampled point operators.

    tau_k is the max over the sampled (x, a) of the k-th point-operator
    eigenvalue; gamma is the smallest ladder value whose prefix power sum
    stays within ``s0_budget`` (gamma = 1 if none does).
    """
    sample_pairs = list(sample_pairs)
    if not sample_pairs:
        raise ValueError("need at least one sample pair")
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    k_max = min(k_max, omega_grid.size)
    tau = np.zeros(k_max)
    for x, a in sample_pairs:
        op = DesignOperator(point_kernel(basis, x, a, omega_grid, s_grid), omega_grid, 1)
        vals = spectral_decompose(op).eigenvalues[:k_max]
        tau[: vals.shape[0]] = np.maximum(tau[: vals.shape[0]], vals)
    for gamma in GAMMA_LADDER:
        s = float(np.sum(tau**gamma))
        if s <= s0_budget:
            return EigendecayFit(tau, gamma, s)
    return EigendecayFit(tau, 1.0, float(np.sum(tau)))
