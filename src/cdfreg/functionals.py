"""Lipschitz utility functionals acting on grid CDFs.

Each catalog entry declares the constant L bounding |T(F) - T(G)| by
L ||F - G||_{L2(S,m)}. Exact quantiles are not L2-Lipschitz, so the catalog
carries a logistic-smoothed surrogate instead.

A functional maps CDF values of shape (..., n_s) to shape (...); one CDF is
a batch of one. Identical rows give bitwise-equal values, so argmax ties
break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import QuadratureGrid, catalog_entry, checked_real


@dataclass(frozen=True, eq=False)
class UtilityFunctional:
    name: str
    lipschitz_L: float
    evaluator: callable = field(repr=False)

    def __call__(self, F, s_grid: QuadratureGrid):
        """T(F) for CDF values F of shape (..., n_s) on ``s_grid``; the
        result has shape (...)."""
        return self.evaluator(F, s_grid)


def _check_cdf(F, grid: QuadratureGrid) -> np.ndarray:
    """F as an array of CDF values (..., n_s) on the grid, checked once per
    batch: one value per node, finite, and nondecreasing along each row."""
    F = np.asarray(F, dtype=float)
    if F.shape[-1:] != (grid.size,):
        raise ValueError("CDF values do not match the grid's node count")
    if not np.isfinite(F).all():
        raise ValueError("CDF values must be finite")
    if (np.diff(F, axis=-1) < -1e-9).any():
        raise ValueError("not a valid CDF: values decrease along the grid")
    return F


def _integrate(values, grid: QuadratureGrid):
    """Quadrature integral over the last axis. A BLAS matrix-vector product
    sums rows in different orders depending on their position; a sum along
    the last axis reduces every row the same way."""
    return (values * grid.weights).sum(axis=-1)


def eval_mean(F, grid: QuadratureGrid):
    """Mean of a distribution on [0,1] from its CDF, via the survival
    function: E[Y] = integral (1 - F)."""
    return _integrate(1.0 - _check_cdf(F, grid), grid)


def eval_variance(F, grid: QuadratureGrid):
    """Variance from the CDF: E[Y^2] = integral 2 s (1 - F(s))."""
    survival = 1.0 - _check_cdf(F, grid)
    ey = _integrate(survival, grid)
    ey2 = _integrate(2.0 * grid.nodes * survival, grid)
    return ey2 - ey**2


def smoothed_quantile_functional(q: float, h: float = 0.05) -> UtilityFunctional:
    """Logistic-smoothed level-q quantile: integral sigma((q - F(s)) / h)
    for q in (0, 1) and a finite h > 0. It converges to the exact quantile
    as h -> 0 and is Lipschitz with constant 1/(4h) on L2(S,m), m(S) = 1."""
    q, h = checked_real(q, "q"), checked_real(h, "h")

    def evaluator(F, grid: QuadratureGrid):
        z = (q - _check_cdf(F, grid)) / h
        return _integrate(1.0 / (1.0 + np.exp(-z)), grid)

    return UtilityFunctional("smoothed_quantile", 1.0 / (4.0 * h), evaluator)


def expected_penalty_functional(loss_row) -> UtilityFunctional:
    """T(F) = -sum_k l_k F(s_k) on a ``build_cdf_grid`` outcome grid.

    By Cauchy-Schwarz, |sum_k l_k d_k| <= sqrt(sum_k l_k^2 / w_k)
    * sqrt(sum_k w_k d_k^2), so with the grid's weights w_k = 1/n_s the
    constant is L = sqrt(n_s) ||l||. Grids with other weights are refused.
    ``loss_row`` must be a nonempty 1-d array of finite numbers; its length
    is checked against the grid's at evaluation, where F values below 0 are
    refused.
    """
    loss_row = np.asarray(loss_row, dtype=float)
    if loss_row.ndim != 1 or loss_row.size == 0 or not np.isfinite(loss_row).all():
        raise ValueError("loss_row must be a nonempty 1-d array of finite numbers, not %r"
                         % (loss_row.tolist(),))
    s_weights = np.full(loss_row.shape, 1.0 / loss_row.size)

    def evaluator(F, grid: QuadratureGrid):
        if not np.array_equal(grid.weights, s_weights):
            raise ValueError("expected_penalty needs a uniform outcome grid of len(loss_row) nodes")
        F = _check_cdf(F, grid)
        if np.any(F < 0):
            raise ValueError("posterior weights must be nonnegative")
        return -(F * loss_row).sum(axis=-1)

    L = float(np.sqrt(np.sum(loss_row**2 / s_weights)))
    return UtilityFunctional("expected_penalty", L, evaluator)


FUNCTIONAL_CATALOG = {
    "mean": lambda: UtilityFunctional("mean", 1.0, eval_mean),
    # conservative: |2s| <= 2 plus the mean term's contribution
    "variance": lambda: UtilityFunctional("variance", 3.0, eval_variance),
    "smoothed_quantile": smoothed_quantile_functional,
    "expected_penalty": expected_penalty_functional,
}


def make_functional(name: str, **params) -> UtilityFunctional:
    return catalog_entry(FUNCTIONAL_CATALOG, "functional", name, params)
