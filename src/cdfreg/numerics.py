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


def checked_count(value, least: int, refusal: str) -> int:
    """The package's one rule for counts: ``value`` as an int if it is an
    ``int`` or a numpy integer (never a bool) of at least ``least``;
    otherwise ``ValueError(refusal % value)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(refusal % (value,))
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


def same_grid(a: QuadratureGrid, b: QuadratureGrid) -> bool:
    if a is b:
        return True
    return a.size == b.size and np.array_equal(a.nodes, b.nodes)


def _checked_node_count(n_nodes, rule: str) -> int:
    """The node count of a grid rule: an int of at least 2 and at most
    ``MAX_GRID_NODES``."""
    n = checked_count(n_nodes, 2, rule + " needs n_nodes >= 2, not %r")
    if n > MAX_GRID_NODES:
        raise ValueError("grid would exceed the %d node limit: n_nodes = %r" % (MAX_GRID_NODES, n))
    return n


def build_uniform_grid(n_nodes: int) -> QuadratureGrid:
    """Midpoint rule on [0,1]."""
    n_nodes = _checked_node_count(n_nodes, "build_uniform_grid")
    nodes = (np.arange(n_nodes) + 0.5) / n_nodes
    return QuadratureGrid(nodes, np.full(n_nodes, n_nodes ** -1.0))


def build_cdf_grid(n_nodes: int) -> QuadratureGrid:
    """Right-endpoint rule on [0,1]; the last node is exactly 1.

    Used for the outcome support so that indicator integrals, CDF terminal
    values, and inverse-CDF sampling are mutually consistent on the grid.
    """
    n_nodes = _checked_node_count(n_nodes, "build_cdf_grid")
    nodes = (np.arange(n_nodes) + 1.0) / n_nodes
    return QuadratureGrid(nodes, np.full(n_nodes, 1.0 / n_nodes))


def _symmetrized(matrix) -> np.ndarray:
    """``matrix`` as a float stack (..., n, n), symmetrized as (a + a^T) / 2
    after the size limit and the symmetry check, which apply to each matrix:
    one that fails refuses the whole stack."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if a.shape[-1] > MAX_EIG_SIZE:
        raise ValueError("matrix exceeds the %d size limit" % MAX_EIG_SIZE)
    at = np.swapaxes(a, -1, -2)
    if not np.all(np.max(np.abs(a - at), axis=(-2, -1))
                  <= 1e-10 * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))):
        raise ValueError("matrix is not finite and symmetric")
    return (a + at) / 2.0


def sym_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of one
    symmetric (n, n) matrix; a stack (..., n, n) is refused.

    Backed by LAPACK's symmetric solver; the contract (residuals within
    1e-8 * ||A||, orthonormal vectors) is what the rest of the package
    relies on.
    """
    if np.ndim(matrix) > 2:
        raise ValueError("expected one (n, n) matrix, not an array of shape %r"
                         % (np.shape(matrix),))
    vals, vecs = np.linalg.eigh(_symmetrized(matrix))
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
        if np.any(vals < 0):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(vals) > 1e-12):
            raise ValueError("eigenvalues must be descending")


def _clamped(vals: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (..., n) clamped to zero after the positive
    semidefiniteness check that both quadrature solvers share (see
    ``quadrature_eig``)."""
    if np.any(vals[..., -1] < -np.maximum(1e-10 * np.maximum(vals[..., 0], 0.0), 1e-12)):
        raise ValueError("kernel operator is not positive semidefinite")
    return np.maximum(vals, 0.0)


def quadrature_eig(kernel_matrix: np.ndarray, grid: QuadratureGrid) -> SpectralDecomposition:
    """Eigenpairs of the integral operator whose symmetric positive
    semidefinite kernel has values ``kernel_matrix`` (n, n) at the grid's
    nodes, by one ``sym_eig`` call; a stack of kernel matrices is refused.

    With D = diag(weights) the weighted problem K D e = lambda e is
    symmetrized as D^(1/2) K D^(1/2); the eigenfunctions D^(-1/2) v are then
    orthonormal under the grid's quadrature. Negative eigenvalues are
    round-off for a positive operator: they are clamped to zero and kept,
    so n nodes give n eigenpairs. One below -max(1e-10 lambda_1, 1e-12)
    means the kernel is not positive semidefinite.
    """
    sqw = np.sqrt(grid.weights)
    vals, vecs = sym_eig(sqw[:, None] * kernel_matrix * sqw[None, :])
    return SpectralDecomposition(_clamped(vals), vecs / sqw[:, None], grid)


def quadrature_eigvals(kernel_matrix: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """The eigenvalues of ``quadrature_eig`` without eigenfunctions:
    descending and clamped, (..., n) for a stack (..., n, n); a matrix
    that fails its checks refuses the whole stack. LAPACK's eigenvalue-only
    solver takes about half the time and runs on each matrix of a stack as
    on that matrix alone, so a stack's eigenvalues equal the per-matrix
    calls' bit for bit. Being another algorithm, it can differ from
    ``quadrature_eig`` in the last digits, and entirely in the round-off
    eigenvalues.
    """
    sqw = np.sqrt(grid.weights)
    weighted = _symmetrized(sqw[:, None] * kernel_matrix * sqw[None, :])
    return _clamped(np.linalg.eigvalsh(weighted)[..., ::-1])


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

    The kernel matrix must be symmetric to 1e-8 relative to its largest
    entry; it is then symmetrized and solved by ``quadrature_eig``, so all
    n*r eigenpairs are returned, round-off negatives clamped to zero.
    """
    checked_count(n, 1, "degenerate_kernel_eig needs n >= 1 cells, not %r")
    if checked_count(r, 1, "degenerate_kernel_eig needs 1 <= r <= 16, not r = %r") > 16:
        raise ValueError("degenerate_kernel_eig needs 1 <= r <= 16, not r = %r" % r)
    if n * r > MAX_EIG_SIZE:
        raise ValueError("n*r exceeds the %d limit" % MAX_EIG_SIZE)

    y, gw = np.polynomial.legendre.leggauss(r)
    h = 1.0 / n
    # mapped Gauss points per cell, ascending over [0,1]
    cells = np.arange(n)[:, None]
    omega = (cells * h + (y[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(gw * h / 2.0, n)

    kmat = np.asarray(kernel(*np.meshgrid(omega, omega, indexing="ij")), dtype=float)
    if kmat.shape != (omega.size, omega.size):
        raise ValueError("kernel must map node arrays to an array of their shape")
    if not np.max(np.abs(kmat - kmat.T)) <= 1e-8 * max(1.0, np.max(np.abs(kmat))):
        raise ValueError("kernel is not finite and symmetric")
    return quadrature_eig((kmat + kmat.T) / 2.0, QuadratureGrid(omega, weights))
