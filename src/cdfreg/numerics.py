"""Quadrature grids, grid-function algebra, and integral-operator eigensolvers.

Functions on [0, 1] are represented by their values at quadrature
nodes, so every inner product and operator application is a finite weighted
sum. Two node layouts are used: midpoint rules for the coefficient domain,
and a right-endpoint rule for the outcome domain so that the last node sits
at the supremum of the support (where every CDF equals 1).
"""

from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

MAX_GRID_NODES = 10**7
MAX_EIG_SIZE = 2000
# below -PSD_ROUNDOFF times its terms' size, an eigenvalue or form is not round-off
PSD_ROUNDOFF = 1e-10


def checked_count(value, name: str, least: int, most: float = math.inf) -> int:
    """The package's one rule for counts: ``value`` as an int if it is an
    ``int`` or a numpy integer (never a bool) in [least, most]; otherwise
    ``ValueError("<name> must be an integer >= <least>, not <value!r>")``,
    reading "in [<least>, <most>]" when ``most`` is finite."""
    counted = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (counted and least <= value <= most):
        words = ">= %d" % least if most == math.inf else "in [%d, %d]" % (least, most)
        raise ValueError("%s must be an integer %s, not %r" % (name, words, value))
    return int(value)


# every real the package takes: name -> (interval test, the words for it)
REAL_RULES = {
    **dict.fromkeys(("delta", "q"), (lambda v: 0.0 < v < 1.0, "be in (0, 1)")),
    "gamma": (lambda v: 0.0 < v <= 1.0, "be in (0, 1]"),
    "M": (lambda v: 1.0 <= v < math.inf, "be finite and >= 1"),
    "L0": (lambda v: 0.0 <= v < math.inf, "be finite and >= 0"),
    **dict.fromkeys(("s0", "exploration_scale", "varsigma", "L", "A", "eta", "h"),
                    (lambda v: 0.0 < v < math.inf, "be finite and > 0")),
}


def checked_real(value, name: str) -> float:
    """The package's one rule for reals: ``value`` as a float if it is an int,
    float or numpy real (never a bool) that passes ``REAL_RULES[name]``'s test
    (NaN fails all); else ``ValueError("<name> must <words>, not <value!r>")``."""
    ok, words = REAL_RULES[name]
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    with contextlib.suppress(OverflowError):  # float() of an int beyond the float range
        if real and ok(float(value)):
            return float(value)
    raise ValueError("%s must %s, not %r" % (name, words, value))


def catalog_entry(catalog: dict, kind: str, name, params: dict):
    """The package's one rule for catalog entries: ``catalog[name](**params)``;
    a name not in ``catalog`` raises ``ValueError("unknown <kind> <name!r>")``,
    and parameters the entry's factory cannot bind raise ``TypeError`` naming
    the entry, before the factory runs."""
    if name not in catalog:
        raise ValueError("unknown %s %r" % (kind, name))
    try:
        inspect.signature(catalog[name]).bind(**params)
    except TypeError as exc:
        raise TypeError("%s %r: %s" % (kind, name, exc)) from None
    return catalog[name](**params)


def readonly_copy(a) -> np.ndarray:
    """A read-only C-contiguous float copy of ``a``: an object holding it
    neither freezes its caller's array nor sees a later write to it."""
    a = np.array(a, dtype=float, order="C")  # a scalar stays 0-d
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and positive weights on the unit interval [0,1].

    ``nodes`` and ``weights`` have shape (n,); the weights sum to 1, the
    length of the interval.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", readonly_copy(self.nodes))
        object.__setattr__(self, "weights", readonly_copy(self.weights))
        if self.nodes.ndim != 1:
            raise ValueError("nodes must be a 1-d array, not of shape %r" % (self.nodes.shape,))
        if self.nodes.shape != self.weights.shape:
            raise ValueError("node and weight counts differ")
        # each check states its pass condition, so a NaN fails it
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights do not sum to 1, the unit box's measure")
        if not (np.all(self.nodes >= -1e-12) and np.all(self.nodes <= 1.0 + 1e-12)):
            raise ValueError("nodes outside the unit box")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Point values of a function at the nodes of a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", readonly_copy(self.values))
        if self.values.shape != (self.grid.size,):
            raise ValueError("value count does not match node count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid-function values must be finite")

    def integral(self) -> float:
        return float(self.grid.weights @ self.values)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.weights @ self.values**2))


def check_grid(grid: QuadratureGrid, expected: QuadratureGrid, what: str) -> None:
    """The package's one grid rule: ``grid`` is ``expected`` or has its nodes and
    weights; else ``ValueError("<what> lives on a different grid")``."""
    if grid is not expected and not (np.array_equal(grid.nodes, expected.nodes)
                                     and np.array_equal(grid.weights, expected.weights)):
        raise ValueError("%s lives on a different grid" % what)


def _equal_weight_grid(n_nodes: int, offset: float) -> QuadratureGrid:
    n_nodes = checked_count(n_nodes, "n_nodes", 2, MAX_GRID_NODES)
    return QuadratureGrid((np.arange(n_nodes) + offset) / n_nodes, np.full(n_nodes, 1.0 / n_nodes))


def build_uniform_grid(n_nodes: int) -> QuadratureGrid:
    """Midpoint rule on [0,1]."""
    return _equal_weight_grid(n_nodes, 0.5)


def build_cdf_grid(n_nodes: int) -> QuadratureGrid:
    """Right-endpoint rule on [0,1]; the last node is exactly 1, so that on
    the outcome support indicator integrals, CDF terminal values and
    inverse-CDF sampling agree."""
    return _equal_weight_grid(n_nodes, 1.0)


def symmetrized(matrix, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    """The package's one kernel-matrix rule: ``matrix`` as a float stack
    (..., n, n), each matrix finite and symmetric within ``tol`` of max(1, its
    largest |entry|), returned as (a + a^T) / 2; one that fails refuses the
    stack with ``ValueError("<what> is not finite and symmetric")``."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("%s must be square" % what)
    at = np.swapaxes(a, -1, -2)
    if not np.all(np.max(np.abs(a - at), axis=(-2, -1))
                  <= tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))):
        raise ValueError("%s is not finite and symmetric" % what)
    return (a + at) / 2.0


def _eig_sized(a: np.ndarray) -> np.ndarray:
    """``a`` (..., n, n) if n is within the eigensolvers' size limit."""
    checked_count(a.shape[-1], "matrix size", 0, MAX_EIG_SIZE)
    return a


def sym_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of one
    (n, n) matrix that passes ``symmetrized``; a stack (..., n, n) is refused.
    The package relies on LAPACK's residuals, within 1e-8 * ||A||."""
    if np.ndim(matrix) > 2:
        raise ValueError("expected one (n, n) matrix, not an array of shape %r"
                         % (np.shape(matrix),))
    vals, vecs = np.linalg.eigh(_eig_sized(symmetrized(matrix)))
    # eigh returns the eigenvalues in ascending order
    return vals[::-1], vecs[:, ::-1]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Descending nonnegative eigenvalues (n_eigs,) with
    quadrature-orthonormal eigenfunctions of one positive self-adjoint
    integral operator.

    ``eigenfunctions`` holds the eigenfunction values at the grid nodes as
    columns, shape (n_nodes, n_eigs).
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray = field(repr=False)
    grid: QuadratureGrid

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", readonly_copy(self.eigenvalues))
        object.__setattr__(self, "eigenfunctions", readonly_copy(self.eigenfunctions))
        vals = self.eigenvalues
        if vals.ndim != 1 or self.eigenfunctions.shape != (self.grid.size, vals.size):
            raise ValueError("eigenvalues must be an (n_eigs,) and eigenfunctions an "
                             "(n_nodes, n_eigs) array")
        if not np.all(np.isfinite(self.eigenfunctions)):
            raise ValueError("eigenfunction values must be finite")
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValueError("eigenvalues must be finite and nonnegative")
        # a rise above round-off of the largest eigenvalue, as in ``_clamped``
        if np.any(np.diff(vals) > PSD_ROUNDOFF * np.max(vals, initial=0.0)):
            raise ValueError("eigenvalues must be descending")


def _clamped(vals: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (..., n) clamped to zero; one below
    -PSD_ROUNDOFF max(lambda_1, 0) refuses the operator."""
    if np.any(vals[..., -1] < -PSD_ROUNDOFF * np.maximum(vals[..., 0], 0.0)):
        raise ValueError("kernel operator is not positive semidefinite")
    return np.maximum(vals, 0.0)


def _weighted(kernel_matrix, grid: QuadratureGrid) -> np.ndarray:
    """D^(1/2) K D^(1/2), D = diag(weights), of the kernel stack K (..., n, n)
    averaged by ``symmetrized`` first: the step both quadrature solvers share."""
    sqw = np.sqrt(grid.weights)
    return sqw[:, None] * symmetrized(kernel_matrix) * sqw[None, :]


def quadrature_eig(kernel_matrix: np.ndarray, grid: QuadratureGrid) -> SpectralDecomposition:
    """Eigenpairs of the integral operator whose symmetric positive
    semidefinite kernel has values ``kernel_matrix`` (n, n) at the grid's
    nodes, by one ``sym_eig`` call; a stack of kernel matrices is refused.

    With D = diag(weights) the weighted problem K D e = lambda e is
    symmetrized as D^(1/2) K D^(1/2); the eigenfunctions D^(-1/2) v are then
    orthonormal under the grid's quadrature. Negative eigenvalues are
    round-off for a positive operator (``_clamped``): they are clamped to
    zero and kept, so n nodes give n eigenpairs.
    """
    vals, vecs = sym_eig(_weighted(kernel_matrix, grid))
    return SpectralDecomposition(_clamped(vals), vecs / np.sqrt(grid.weights)[:, None], grid)


def quadrature_eigvals(kernel_matrix: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """The eigenvalues of ``quadrature_eig`` without eigenfunctions,
    descending and clamped, (..., n) for a stack (..., n, n). LAPACK's
    eigenvalue-only solver runs on each matrix of a stack as on that matrix
    alone, so a stack's eigenvalues equal the per-matrix calls' bit for bit;
    they can differ from ``quadrature_eig``'s in the last digits, and
    entirely in the round-off eigenvalues."""
    return _clamped(np.linalg.eigvalsh(_eig_sized(_weighted(kernel_matrix, grid)))[..., ::-1])


def degenerate_kernel_eig(kernel, n: int, r: int) -> SpectralDecomposition:
    """Eigenpairs of the integral operator with symmetric kernel on [0,1]^2.

    ``kernel(s, t)`` must be vectorized: called on two node arrays it
    returns the array of kernel values of their shape. The kernel is
    interpolated at piecewise Gauss-Legendre points (n uniform cells, r
    points each, 1 <= r <= 16), which reduces the operator eigenproblem to
    an (n*r) x (n*r) matrix eigenproblem. Because the Lagrange interpolants
    at Gauss points are exactly orthogonal in L^2, their Gram matrix is the
    diagonal of quadrature weights, and the eigenfunctions come out exactly
    orthonormal under the returned grid's quadrature.

    The kernel matrix must pass ``symmetrized`` within 1e-8; ``quadrature_eig``
    then gives all n*r eigenpairs, round-off negatives clamped to zero.
    """
    n, r = checked_count(n, "n", 1), checked_count(r, "r", 1, 16)
    checked_count(n * r, "n*r", 1, MAX_EIG_SIZE)

    y, gw = np.polynomial.legendre.leggauss(r)
    h = 1.0 / n
    # mapped Gauss points per cell, ascending over [0,1]
    cells = np.arange(n)[:, None]
    omega = (cells * h + (y[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(gw * h / 2.0, n)

    kmat = np.asarray(kernel(*np.meshgrid(omega, omega, indexing="ij")), dtype=float)
    if kmat.shape != (omega.size, omega.size):
        raise ValueError("kernel must map node arrays to an array of their shape")
    return quadrature_eig(symmetrized(kmat, 1e-8, "kernel"), QuadratureGrid(omega, weights))
