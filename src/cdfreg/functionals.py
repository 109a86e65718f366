"""Lipschitz utility functionals acting on grid CDFs.

Each catalog entry declares the constant L bounding |T(F) - T(G)| by
L ||F - G||_{L2(S,m)}. Exact quantiles are not L2-Lipschitz, so the catalog
carries a logistic-smoothed surrogate instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import GridFunction


@dataclass(frozen=True, eq=False)
class UtilityFunctional:
    name: str
    lipschitz_L: float
    evaluator: callable = field(repr=False)
    parameters: dict = field(default_factory=dict)

    def __call__(self, cdf: GridFunction) -> float:
        return self.evaluator(cdf)


def _check_cdf(F: GridFunction):
    if np.any(np.diff(F.values) < -1e-9):
        raise ValueError("not a valid CDF: values decrease along the grid")


def eval_mean(F: GridFunction) -> float:
    """Mean of a distribution on [0,1] from its CDF, via the survival
    function: E[Y] = integral (1 - F)."""
    _check_cdf(F)
    return float(F.grid.weights @ (1.0 - F.values))


def eval_variance(F: GridFunction) -> float:
    """Variance from the CDF: E[Y^2] = integral 2 s (1 - F(s))."""
    _check_cdf(F)
    s = F.grid.coords()
    ey = float(F.grid.weights @ (1.0 - F.values))
    ey2 = float(F.grid.weights @ (2.0 * s * (1.0 - F.values)))
    return ey2 - ey**2


def eval_smoothed_quantile(F: GridFunction, q: float, h: float) -> float:
    """Logistic-smoothed level-q quantile: integral sigma((q - F(s)) / h).

    Converges to the exact quantile as h -> 0; Lipschitz with constant
    1/(4h) on L2(S,m) with m(S) = 1.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if h <= 0.0:
        raise ValueError("bandwidth h must be positive")
    z = (q - F.values) / h
    sigma = 1.0 / (1.0 + np.exp(-z))
    return float(F.grid.weights @ sigma)


def eval_expected_penalty(weights, loss_row) -> float:
    """Negated expected penalty of a hypothesis choice under posterior
    weights (maximization convention)."""
    weights = np.asarray(weights, dtype=float)
    loss_row = np.asarray(loss_row, dtype=float)
    if weights.shape != loss_row.shape:
        raise ValueError("weights and losses have different lengths")
    if np.any(weights < 0):
        raise ValueError("posterior weights must be nonnegative")
    return -float(weights @ loss_row)


def mean_functional() -> UtilityFunctional:
    return UtilityFunctional("mean", 1.0, eval_mean)


def variance_functional() -> UtilityFunctional:
    # conservative: |2s| <= 2 plus the mean term's contribution
    return UtilityFunctional("variance", 3.0, eval_variance)


def smoothed_quantile_functional(q: float, h: float = 0.05) -> UtilityFunctional:
    def evaluator(F: GridFunction) -> float:
        return eval_smoothed_quantile(F, q, h)

    return UtilityFunctional(
        "smoothed_quantile", 1.0 / (4.0 * h), evaluator, {"q": q, "h": h}
    )


def expected_penalty_functional(loss_row) -> UtilityFunctional:
    """T(F) = -sum_k l_k F(s_k) on a ``build_cdf_grid`` outcome grid.

    By Cauchy-Schwarz, |sum_k l_k d_k| <= sqrt(sum_k l_k^2 / w_k)
    * sqrt(sum_k w_k d_k^2), so with the grid's weights w_k = 1/n_s the
    constant is L = sqrt(n_s) ||l||. Grids with other weights are refused.
    """
    loss_row = np.asarray(loss_row, dtype=float)
    s_weights = np.full(loss_row.shape, 1.0 / loss_row.size)

    def evaluator(F: GridFunction) -> float:
        if not np.array_equal(F.grid.weights, s_weights):
            raise ValueError("expected_penalty needs a uniform outcome grid of len(loss_row) nodes")
        return eval_expected_penalty(F.values, loss_row)

    L = float(np.sqrt(np.sum(loss_row**2 / s_weights)))
    return UtilityFunctional("expected_penalty", L, evaluator, {"loss_row": loss_row.tolist()})


FUNCTIONAL_CATALOG = {
    "mean": mean_functional,
    "variance": variance_functional,
    "smoothed_quantile": smoothed_quantile_functional,
    "expected_penalty": expected_penalty_functional,
}


def make_functional(name: str, **params) -> UtilityFunctional:
    if name not in FUNCTIONAL_CATALOG:
        raise ValueError("unknown functional %r" % name)
    return FUNCTIONAL_CATALOG[name](**params)
