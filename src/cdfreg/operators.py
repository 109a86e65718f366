"""Point and design integral operators built from a CDF basis family.

The kernel of the point operator at (x, a) is the outcome-space integral
of phi(x,a,w,.)*phi(x,a,r,.); the design operator sums point kernels over a
dataset's (context, action) pairs and plays the role the normal matrix
plays in least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .numerics import (
    PSD_ROUNDOFF,
    GridFunction,
    QuadratureGrid,
    SpectralDecomposition,
    checked_count,
    quadrature_eig,
    quadrature_eigvals,
    readonly_copy,
    same_grid,
    symmetrized,
)

# Passes over a dataset use two sizes. The statistics chunk: they hand
# their consumers phi in chunks of BASIS_CHUNK pairs, which is also the
# engine's block of rounds, whose one basis call holds BASIS_CHUNK * K pairs
# of phi (1.3 MB at K = 5), so that each block's chosen rows are one chunk
# of the oracle's statistics and both add the same sums bit for bit. The
# evaluation batch: ``basis_chunks`` evaluates phi for as many whole chunks
# as fit in EVAL_BYTES of doubles, and at least one (64 pairs on the default
# 32 x 64 grids, 16 where one chunk already exceeds it), so that the
# evaluator's per-call overhead is paid less often while no pass holds an
# array that grows with the dataset.
BASIS_CHUNK = 16
EVAL_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CdfBasis:
    """A family of CDFs phi(x, a, w, .) indexed by w, with its regularity
    constants.

    ``eval_matrix(X, A, omega_nodes, s_nodes)`` is batched: for B contexts
    X of shape (B, d), B actions A of shape (B,) and Omega nodes of shape
    (n_w,) it returns the (B, n_w, n_s) array of phi values, row b for the
    pair (X[b], A[b]). A single pair is a batch of one. Callers go through
    ``basis_values``, the one entry that calls it, which checks the shape
    and the [0, 1] range once per batch. The value at s_k must not depend
    on the other outcome nodes of the call (phi is pointwise in s, as a
    function of s is): the outcome draw (``environments.draw_outcomes``)
    evaluates phi at a few outcome nodes at a time.
    ``lipschitz_L0`` bounds |phi(x,a,w,s) - phi(x,a,r,s)| / |w - r|,
    ``kernel_floor_eta`` lower-bounds the point-kernel entries, and the
    class constants ``covering_constant_A`` = 1 and ``omega_dim`` = 1 (Omega
    is [0, 1]) are the constant A and the dimension d of the covering
    number in the random-design error bound. The norm bound M of the
    admissible set C is not a property of the basis: the oracle and the
    engine take it as an argument, and ``environments.check_norm_bound``
    checks theta* against it.
    """

    name: str
    eval_matrix: callable = field(repr=False)
    lipschitz_L0: float
    kernel_floor_eta: float
    covering_constant_A: ClassVar[float] = 1.0
    omega_dim: ClassVar[int] = 1


@dataclass(frozen=True, eq=False)
class DesignOperator:
    """Sum of point-operator kernels over dataset (context, action) pairs,
    discretized on an Omega quadrature grid, held as a read-only copy of
    ``numerics.symmetrized``'s exactly symmetric (k + k^T) / 2."""

    kernel_matrix: np.ndarray
    grid: QuadratureGrid
    data_count: int

    def __post_init__(self):
        k = symmetrized(self.kernel_matrix, what="design kernel matrix")
        if k.shape != (self.grid.size, self.grid.size):
            raise ValueError("kernel matrix does not match the grid")
        object.__setattr__(self, "kernel_matrix", readonly_copy(k))
        object.__setattr__(self, "data_count", checked_count(self.data_count, "data_count", 1))

    def quadrature_trace(self) -> float:
        return float(self.grid.weights @ np.diag(self.kernel_matrix))


@dataclass(frozen=True)
class EigendecayFit:
    """A dominating sequence tau with the fitted decay exponent gamma and
    the achieved budget s0 = sum tau_k^gamma."""

    tau: np.ndarray
    gamma: float
    s0: float


def integer_actions(A) -> np.ndarray:
    """``A`` as an int array, a view when it already is one; an action
    whose value is not an integer (1.7, NaN, inf) raises ``ValueError``
    instead of being truncated."""
    A = np.asarray(A)
    if A.dtype.kind == "f":
        # the test states the pass condition, so NaN and inf fail it
        integral = (A == np.trunc(A)) & (np.abs(A) < 2.0**63)
        if not np.all(integral):
            raise ValueError("actions must be integers, not %r" % A[~integral][:3].tolist())
    return np.asarray(A, dtype=int)


def basis_values(basis: CdfBasis, X, A, omega_nodes: np.ndarray,
                 s_nodes: np.ndarray) -> np.ndarray:
    """phi[b, i, k] = phi(X[b], A[b], omega_nodes[i], s_nodes[k]), the one
    call of ``CdfBasis.eval_matrix``, checked against the basis contract:
    shape (B, n_w, n_s) and values in [0, 1]; a non-integral action raises
    ``ValueError``."""
    A = integer_actions(A).reshape(-1)
    X = np.asarray(X, dtype=float).reshape(A.shape[0], -1)
    phi = np.asarray(basis.eval_matrix(X, A, omega_nodes, s_nodes))
    if phi.shape != (A.shape[0], omega_nodes.shape[0], s_nodes.shape[0]):
        raise ValueError("basis evaluator returned a wrong-shaped array")
    if not (np.min(phi) >= -1e-9 and np.max(phi) <= 1.0 + 1e-9):  # NaN fails
        raise ValueError("basis contract violation: phi outside [0, 1]")
    return phi


def basis_chunks(basis: CdfBasis, X, A, omega_grid: QuadratureGrid,
                 s_grid: QuadratureGrid):
    """Yield (slice, phi) over successive chunks of BASIS_CHUNK pairs, phi a
    contiguous view into one evaluation batch of whole chunks."""
    X, A = np.asarray(X, dtype=float), integer_actions(A)
    pair_bytes = 8 * omega_grid.size * s_grid.size
    batch = BASIS_CHUNK * max(1, EVAL_BYTES // (BASIS_CHUNK * pair_bytes))
    for lo in range(0, A.shape[0], batch):
        phi = basis_values(basis, X[lo:lo + batch], A[lo:lo + batch], omega_grid.nodes,
                           s_grid.nodes)
        for c in range(0, phi.shape[0], BASIS_CHUNK):
            yield slice(lo + c, lo + c + BASIS_CHUNK), phi[c:c + BASIS_CHUNK]


def pair_kernels(phi: np.ndarray, s_weights: np.ndarray) -> np.ndarray:
    """K[b, i, j] = sum_k s_w_k phi[b,i,k] phi[b,j,k], one point kernel per
    pair of the chunk in one batched product; not symmetrized."""
    return (phi * s_weights) @ phi.transpose(0, 2, 1)


def point_kernel(basis: CdfBasis, x, a: int, omega_grid: QuadratureGrid,
                 s_grid: QuadratureGrid) -> np.ndarray:
    """Kernel matrix K[i,j] = sum_k s_w_k phi(x,a,w_i,s_k) phi(x,a,w_j,s_k)."""
    return design_operator(basis, [(x, a)], omega_grid, s_grid).kernel_matrix


def design_operator(basis: CdfBasis, pairs, omega_grid: QuadratureGrid,
                    s_grid: QuadratureGrid) -> DesignOperator:
    """Sum point kernels over (context, action) pairs, one contraction per
    chunk of pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pair list must be nonempty")
    X, A = zip(*pairs)
    total = np.zeros((omega_grid.size, omega_grid.size))
    for _, phi in basis_chunks(basis, X, A, omega_grid, s_grid):
        total += pair_kernels(phi, s_grid.weights).sum(axis=0)
    return DesignOperator(total, omega_grid, len(pairs))


def mixture_cdf(basis: CdfBasis, theta: GridFunction, x, a: int,
                s_grid: QuadratureGrid) -> GridFunction:
    """F(x, a, s_k) = sum_i w_i theta_i phi(x, a, w_i, s_k) on theta's grid."""
    phi = basis_values(basis, [x], [a], theta.grid.nodes, s_grid.nodes)[0]
    return GridFunction(s_grid, (theta.grid.weights * theta.values) @ phi)


def spectral_decompose(op: DesignOperator) -> SpectralDecomposition:
    """Eigenpairs of the design operator under the quadrature inner product
    (``numerics.quadrature_eig``)."""
    return quadrature_eig(op.kernel_matrix, op.grid)


def weighted_quadratic(op: DesignOperator, theta_values: np.ndarray) -> float:
    """<theta, U theta> as a raw quadratic form on node values."""
    wv = op.grid.weights * theta_values
    return float(wv @ op.kernel_matrix @ wv)


def weighted_norm(theta: GridFunction, op: DesignOperator) -> float:
    """The seminorm sqrt(<theta, U_D theta>); the form is refused below
    -PSD_ROUNDOFF times its terms' size |wv|^T |K| |wv|, wv = weights * theta."""
    if not same_grid(theta.grid, op.grid):
        raise ValueError("theta lives on a different grid than the operator")
    q = weighted_quadratic(op, theta.values)
    wv = np.abs(op.grid.weights * theta.values)
    if q < -PSD_ROUNDOFF * float(wv @ np.abs(op.kernel_matrix) @ wv):
        raise ValueError("design operator violated positive semidefiniteness")
    return float(np.sqrt(max(q, 0.0)))


GAMMA_LADDER = tuple(round(0.1 * k, 1) for k in range(1, 11))
S0_BUDGET = 10.0
# tau_k below TAU_FLOOR * tau_1 is eigensolver round-off, not spectrum: it
# counts as 0, so s0 = sum tau_k^gamma reads no solver noise
TAU_FLOOR = 1e-12


def estimate_eigendecay(basis: CdfBasis, X, A, omega_grid: QuadratureGrid,
                        s_grid: QuadratureGrid) -> EigendecayFit:
    """Empirical dominating sequence over sampled point operators.

    tau_k is the max over the sampled pairs, contexts X (n, d) and actions
    A (n,), of the k-th point-operator eigenvalue, one entry per Omega node,
    set to 0 below ``TAU_FLOOR * tau_1``; gamma is the smallest ladder value
    whose power sum stays within ``S0_BUDGET``, which gamma = 1 always does.
    Each chunk's point kernels are eigensolved as one stack, eigenvalues
    only, one ``quadrature_eigvals`` call per ``BASIS_CHUNK`` pairs.
    """
    if len(A) == 0:
        raise ValueError("need at least one sample pair")
    tau = np.zeros(omega_grid.size)
    for _, phi in basis_chunks(basis, X, A, omega_grid, s_grid):
        vals = quadrature_eigvals(pair_kernels(phi, s_grid.weights), omega_grid)
        tau = np.maximum(tau, vals.max(axis=0))
    tau[tau < TAU_FLOOR * tau[0]] = 0.0
    # the last rung, 1, always fits: each point operator has quadrature trace
    # at most 1 (phi in [0, 1], both weight sets sum to 1), so tau_k <= 1/k
    # and sum tau <= H_{n_w} <= H_MAX_EIG_SIZE (about 8.18) < S0_BUDGET
    gamma = next(g for g in GAMMA_LADDER if float(np.sum(tau**g)) <= S0_BUDGET)
    return EigendecayFit(tau, gamma, float(np.sum(tau**gamma)))
