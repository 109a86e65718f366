"""Synthetic ground-truth worlds: catalog CDF basis families, a hidden
coefficient function, and context and outcome sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import (MAX_GRID_NODES, GridFunction, QuadratureGrid, catalog_entry, checked_count,
                       checked_real, same_grid)
from .operators import EVAL_BYTES, CdfBasis, basis_chunks, basis_values, mixture_cdf


@dataclass(frozen=True, eq=False)
class Environment:
    basis: CdfBasis
    theta_star: GridFunction
    omega_grid: QuadratureGrid
    s_grid: QuadratureGrid
    context_dim: int
    action_count: int

    def __post_init__(self):
        th = self.theta_star
        if not same_grid(th.grid, self.omega_grid):
            raise ValueError("theta_star must live on omega_grid")
        if np.min(th.values) < -1e-9:
            raise ValueError("theta_star must be nonnegative")
        if abs(th.integral() - 1.0) > 1e-9:
            raise ValueError("theta_star must integrate to 1")


def check_norm_bound(env: Environment, M: float) -> float:
    """M as a float if it is finite, at least 1 and at least ||theta*||, so
    that theta* lies in the set C the oracle projects onto; else raise."""
    M = checked_real(M, "M")
    if not env.theta_star.norm() <= M + 1e-9:
        raise ValueError("theta_star exceeds the norm bound M = %r" % M)
    return M


# Catalog evaluators take contexts X (B, d), actions A (B,), Omega nodes
# (n_w,) and outcome coordinates s (n_s,), and return (B, n_w, n_s).

def _rank1_eval(X, A, omega_nodes, s):
    return np.broadcast_to(s, (A.shape[0], omega_nodes.shape[0], s.shape[0])).copy()


def _kumaraswamy_eval(X, A, omega_nodes, s):
    xm = X.mean(axis=1)[:, None]
    a1 = (A + 1)[:, None]
    g1 = 0.5 * (1.0 + np.sin(2.0 * np.pi * (xm + 0.7 * omega_nodes + 0.31 * a1)))
    g2 = 0.5 * (1.0 + np.cos(2.0 * np.pi * (0.8 * xm + 0.57 * omega_nodes + 0.13 * a1)))
    alpha = 1.0 + g1
    beta = 1.0 + g2
    # 1 - (1 - s^alpha)^beta as 1 - exp(beta log(1 - exp(alpha log s))), in
    # place on one (B, n_w, n_s) array.  log 0 = -inf, so s = 0 and s = 1
    # give exactly 0 and 1 (alpha, beta >= 1: no inf * 0).  The outer
    # product alpha log s goes through einsum, which gives the broadcast
    # product's values and measured faster at B = 16 and 40.
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    out = np.einsum("bw,s->bws", alpha, log_s)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.multiply(out, beta[:, :, None], out=out)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    return out


def _finite_rank_eval(rank, X, A, omega_nodes, s):
    # cell c carries the CDF of a uniform law on a short interval inside
    # [c/rank, (c+1)/rank] whose offset moves with (x, a), evaluated once per
    # cell and repeated over its nodes. The staggered supports keep all `rank`
    # Gram eigenvalues well separated from zero, unlike smooth families.
    xm = X.mean(axis=1)[:, None]
    a1 = (A + 1)[:, None]
    cell, node_cell = np.unique(np.minimum((omega_nodes * rank).astype(int), rank - 1),
                                return_inverse=True)
    u = 0.5 * (1.0 + np.sin(2.0 * np.pi * (0.9 * xm + 0.41 * a1 + 1.7 * (cell + 1) / rank)))
    width = 0.5 / rank
    left = cell / rank + (1.0 / rank - width) * u
    out = np.subtract(s, left[:, :, None])
    return np.take(np.clip(np.divide(out, width, out=out), 0.0, 1.0, out=out), node_cell, axis=1)


# (center, height, width) of each Gaussian bump added to the uniform density
BUMPS = ((0.3, 2.0, 0.12), (0.75, -0.8, 0.1))


def _bump_theta_star(omega_grid: QuadratureGrid) -> GridFunction:
    values = np.ones(omega_grid.size)
    for center, height, width in BUMPS:
        values = values + height * np.exp(-(omega_grid.nodes - center) ** 2 / (2.0 * width**2))
    values = np.maximum(values, 0.0)
    values = values / float(omega_grid.weights @ values)
    return GridFunction(omega_grid, values)


def _finite_rank_basis(rank=8):
    if checked_count(rank, 1, "rank must be a positive integer, got %r") > MAX_GRID_NODES:
        raise ValueError("rank must be at most the %d node limit, not %r" % (MAX_GRID_NODES, rank))
    return "finite-rank-%d" % rank, partial(_finite_rank_eval, rank), 60.0, 1.0 / (8.0 * rank)


# name -> factory of (basis name, evaluator, L0, eta) from the entry's own
# parameters; ``catalog_entry`` refuses a parameter the factory does not take
# with a TypeError naming the entry.
# Every entry has covering constant A = 1. finite-rank-r's L0 is an empirical
# constant for the random-pair spot check (phi jumps at cell edges); its eta
# is the last cell's ramp mass width/3 = 1/(6 rank) with a safety margin.
BASIS_CATALOG = {
    "rank1-uniform": lambda: ("rank1-uniform", _rank1_eval, 0.0, 1.0 / 3.0),
    "kumaraswamy": lambda: ("kumaraswamy", _kumaraswamy_eval, 2.5, 0.2),
    "finite-rank-r": _finite_rank_basis,
}


def make_catalog_env(name: str, omega_grid: QuadratureGrid, s_grid: QuadratureGrid,
                     context_dim: int = 2, action_count: int = 5,
                     theta_star: str = "uniform", **params) -> Environment:
    """Catalog environment ``name``, its basis built by ``BASIS_CATALOG[name](**params)``.

    rank1-uniform: phi(x,a,w,s) = s for every argument (degenerate sanity
    world). kumaraswamy: phi = 1 - (1 - s^alpha)^beta with smooth bounded
    context/action/index dependence. finite-rank-r: phi piecewise constant
    in w over ``rank`` slabs, so the point operators have rank <= rank.
    ``rank``, ``context_dim`` and ``action_count`` must be positive integers,
    and no grid resolves more than ``MAX_GRID_NODES`` slabs, so neither may rank.
    """
    checked_count(context_dim, 1, "context_dim must be a positive integer, got %r")
    checked_count(action_count, 1, "action_count must be a positive integer, got %r")
    basis = CdfBasis(*catalog_entry(BASIS_CATALOG, "catalog environment", name, params),
                     covering_constant_A=1.0)

    if theta_star == "uniform":
        theta = GridFunction(omega_grid, np.ones(omega_grid.size))
    elif theta_star == "bumps":
        theta = _bump_theta_star(omega_grid)
    else:
        raise ValueError("unknown theta_star %r" % theta_star)
    return Environment(basis, theta, omega_grid, s_grid, context_dim, action_count)


def true_cdf(env: Environment, x, a: int) -> GridFunction:
    """F*(x, a, s_k) as the quadrature mixture of basis CDFs."""
    return mixture_cdf(env.basis, env.theta_star, x, a, env.s_grid)


def sample_context(env: Environment, rng: np.random.Generator) -> np.ndarray:
    """A context uniform on [0, 1)^d: exactly ``rng.random(d)``. The engine's
    ``run_episode`` draws its contexts as the first d columns of one
    ``rng.random((T, d + 2))`` array per episode and relies on this rule."""
    return rng.random(env.context_dim)


def inverse_cdf(cdf_values: np.ndarray, u, s_coords: np.ndarray):
    """Inverse-CDF draws snapped to the outcome grid: CDF rows (..., n_s)
    against uniforms (...), broadcast together. For each uniform u the draw
    is the smallest node s_k with F(s_k) >= u, clamped to the last node; its
    index is the count of F < u, which is searchsorted(F, u, "left") on a
    nondecreasing row."""
    idx = np.count_nonzero(np.asarray(cdf_values) < np.asarray(u)[..., None], axis=-1)
    return s_coords[np.minimum(idx, s_coords.shape[0] - 1)]


def draw_outcomes(env: Environment, X, A, u) -> np.ndarray:
    """``inverse_cdf(F*, u, s)`` for the records (X[b], A[b], u[b]), F* =
    (weights * theta*) @ phi(X[b], A[b]) on the outcome grid, with F*
    evaluated only where each crossing can lie.

    A coarse pass evaluates F* at every ceil(sqrt(n_s))-th node and at the
    last one (8 of 64 nodes on the default grid); the count of coarse
    values below u brackets the crossing, and one call per occupied bracket
    evaluates its interior nodes (at most 7 more). Records go in chunks
    whose phi fits in
    ``EVAL_BYTES``. Two summation orders of a mixture whose weights sum to
    1 differ by at most n_w eps, and F* is nondecreasing, so every node
    compares with u as on the full row unless an examined node has |F - u|
    <= 4 n_w eps (2.8e-14 on 32 Omega nodes); such a record is drawn from
    its full row instead, chunk by chunk as ``basis_chunks`` evaluates it.
    """
    X, A, u = np.asarray(X, dtype=float), np.asarray(A), np.asarray(u, dtype=float)
    s = env.s_grid.nodes
    nodes, n_w = env.omega_grid.nodes, env.omega_grid.size
    w_theta = env.omega_grid.weights * env.theta_star.values
    margin = 4 * n_w * np.finfo(float).eps
    step = math.isqrt(s.shape[0] - 1) + 1  # ceil(sqrt(n_s))
    coarse = np.append(np.arange(step - 1, s.shape[0] - 1, step), s.shape[0] - 1)
    # bracket j holds nodes starts[j]..coarse[j] - 1; the nodes before it
    # lie below u, and j = coarse.size, above the last node, has none
    starts = np.append(0, coarse + 1)
    chunk = max(1, EVAL_BYTES // (8 * n_w * (coarse.size + step - 1)))
    y = np.empty(len(u))
    for lo in range(0, len(u), chunk):
        Xc, Ac, uc = X[lo:lo + chunk], A[lo:lo + chunk], u[lo:lo + chunk, None]
        F = w_theta @ basis_values(env.basis, Xc, Ac, nodes, s[coarse])
        bracket = np.count_nonzero(F < uc, axis=1)
        tie = np.any(np.abs(F - uc) <= margin, axis=1)
        idx = starts[bracket]
        for j in np.unique(bracket[bracket < coarse.size]):
            rows = np.flatnonzero(bracket == j)
            if starts[j] < coarse[j]:
                Fj = w_theta @ basis_values(env.basis, Xc[rows], Ac[rows], nodes,
                                            s[starts[j]:coarse[j]])
                idx[rows] += np.count_nonzero(Fj < uc[rows], axis=1)
                tie[rows] |= np.any(np.abs(Fj - uc[rows]) <= margin, axis=1)
        y[lo:lo + chunk] = s[np.minimum(idx, s.shape[0] - 1)]
        tied = lo + np.flatnonzero(tie)
        for sl, phi in basis_chunks(env.basis, X[tied], A[tied], env.omega_grid, env.s_grid):
            y[tied[sl]] = inverse_cdf(w_theta @ phi, u[tied[sl]], s)
    return y


def sample_outcomes(env: Environment, x, a: int, size: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``size`` inverse-CDF draws from F*(x, a, .) on the outcome grid; a
    negative, non-integral or boolean size raises ``ValueError``."""
    checked_count(size, 0, "sample_outcomes needs size >= 0 draws, not %r")
    f = true_cdf(env, x, a)
    return inverse_cdf(f.values, rng.random(size), f.grid.nodes)
