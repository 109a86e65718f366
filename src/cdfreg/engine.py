"""Epoch-batched inverse-gap-weighting decision engine.

Epochs double in length; the regression oracle is refreshed once per epoch
on the previous epoch's data, so a T-round run makes O(log T) oracle calls.
Within an epoch the action distribution puts mass on each non-greedy action
inversely proportional to K plus the scaled utility gap to the greedy one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environments import Environment, check_norm_bound, inverse_cdf
from .functionals import UtilityFunctional
from .numerics import checked_count, checked_real
from .operators import BASIS_CHUNK, basis_values
from .regression import DataStatistics, Dataset, ErrorBudget, error_budget, regress


@dataclass(frozen=True, eq=False)
class RegretTrace:
    """Per-round regret accounting plus a run summary.

    The episode is held as read-only columns over rounds 1..T: ``epochs``,
    ``contexts`` (T, d), ``actions``, ``optimal_actions``, ``gaps`` and
    ``cum_regret``. ``records`` builds from them, on each access and
    without caching, the list of T rows (round, epoch, context, action,
    optimal_action, gap, cum_regret) of Python ints, floats and a tuple of
    context floats. ``summary`` echoes the configuration and holds final
    regret, dyadic checkpoints, and the oracle-call count.
    """

    epochs: np.ndarray = field(repr=False)
    contexts: np.ndarray = field(repr=False)
    actions: np.ndarray = field(repr=False)
    optimal_actions: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    cum_regret: np.ndarray = field(repr=False)
    summary: dict

    @property
    def records(self) -> list:
        return list(zip(range(1, self.gaps.shape[0] + 1), self.epochs.tolist(),
                        map(tuple, self.contexts.tolist()), self.actions.tolist(),
                        self.optimal_actions.tolist(), self.gaps.tolist(),
                        self.cum_regret.tolist()))


def dyadic_checkpoints(cum_regret) -> list[tuple[int, float]]:
    """(2^k, cumulative regret after round 2^k) for k >= 1 while 2^k <= T,
    where ``cum_regret[t - 1]`` is the cumulative regret after round t."""
    return [(2**k, float(cum_regret[2**k - 1]))
            for k in range(1, len(cum_regret).bit_length())]


def igw_distribution(utilities, varsigma: float) -> np.ndarray:
    """Inverse-gap-weighting distributions over the last axis.

    Utilities of shape (..., K) give probabilities of shape (..., K); one
    vector is a batch of one. In each row p(a) = 1 / (K + varsigma * (v_max
    - v_a)) for non-greedy a, and the greedy action (the first maximizer)
    absorbs the remainder, so the row sums to 1 exactly. A row of equal
    utilities is uniform.
    """
    v = np.asarray(utilities, dtype=float)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError("utilities must have a nonempty last axis")
    if not np.all(np.isfinite(v)):
        raise ValueError("utilities must be finite")
    varsigma = checked_real(varsigma, "varsigma")
    K = v.shape[-1]
    rows = v.reshape(-1, K)
    idx = np.arange(rows.shape[0])
    best = np.argmax(rows, axis=1)
    v_best = rows[idx, best][:, None]
    p = 1.0 / (K + varsigma * (v_best - rows))
    p[idx, best] = 0.0
    p[idx, best] = 1.0 - p.sum(axis=1)
    p[np.all(rows == v_best, axis=1)] = 1.0 / K
    return p.reshape(v.shape)


def _choose_actions(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise draws from distributions p (B, K) with uniforms u (B,).

    Each row gets what ``rng.choice(K, p=p[b])`` returns when its one
    ``random()`` is u[b]: the count of entries of cumsum(p[b]) /
    cumsum(p[b])[-1] that are <= u[b], i.e. searchsorted(..., "right").
    The rows are ``igw_distribution``'s or uniform, so they are finite,
    nonnegative and sum to 1 by construction.
    """
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=-1)


def exploration_param(K: int, budget: ErrorBudget, scale: float = 1.0) -> float:
    """varsigma_m = scale * (1/2) * sqrt(K / est) for epoch m >= 2, where the
    caller computes the budget at confidence delta / (2 m^2) on the previous
    epoch's sample count."""
    K = checked_count(K, 1, "exploration_param needs K >= 1 actions, not %r")
    scale = checked_real(scale, "exploration_scale")
    return scale * 0.5 * math.sqrt(K / budget.est)


def run_episode(env: Environment, functional: UtilityFunctional, T: int,
                delta: float, gamma: float, M: float, seed: int,
                exploration_scale: float = 1.0, s0: float = 1.0,
                gamma_source: str = "config") -> RegretTrace:
    """One full run of the epoch-batched IGW algorithm.

    Epoch 1 plays uniformly at random (no estimate exists yet); each later
    epoch refreshes the regression oracle on exactly the previous epoch's
    data and plays IGW with varsigma_m from the closed-form error budget.

    Each round takes d + 2 doubles from the seeded generator, in this order:
    the context (d), the uniform that picks the action as
    ``rng.choice(K, p=p)`` would, and the uniform of the outcome's
    inverse-CDF draw. The episode draws all T rounds as one (T, d + 2)
    array and fills episode-wide columns; an epoch is a slice of them. The
    oracle is frozen within an epoch, so each epoch plays in blocks of
    ``BASIS_CHUNK`` rounds; the records equal those of a round-by-round
    loop bit for bit. Each block's chosen (context, action) rows of phi are
    exactly one ``data_statistics`` chunk of the epoch's dataset, so the
    engine accumulates the oracle's ``DataStatistics`` from the phi it has
    already evaluated; the next epoch hands them to ``regress`` with this
    epoch's slice of the columns as a ``Dataset`` of views, so no record is
    copied. The last epoch, which is never regressed, accumulates none. The
    returned trace keeps the columns (``RegretTrace``).
    """
    T = checked_count(T, 2, "horizon T must be an integer >= 2, not %r")
    delta, gamma, s0, exploration_scale = (checked_real(v, name) for name, v in zip(
        ("delta", "gamma", "s0", "exploration_scale"), (delta, gamma, s0, exploration_scale)))
    M = check_norm_bound(env, M)
    rng = np.random.default_rng(seed)
    # doubling epoch boundaries 0 < 2 < 4 < ... capped at T; epoch m plays
    # rounds bounds[m-1]+1 .. bounds[m]
    bounds = [0] + [min(2**m, T) for m in range(1, (T - 1).bit_length() + 1)]
    K, d = env.action_count, env.context_dim
    basis = env.basis
    omega_grid, s_grid = env.omega_grid, env.s_grid
    w_theta_star = omega_grid.weights * env.theta_star.values

    draws = rng.random((T, d + 2))
    # the contexts are a C-contiguous copy: the trace keeps them, and a view
    # would keep the whole draw array, spent uniforms included, alive
    X, u_action, u_outcome = draws[:, :d].copy(), draws[:, d], draws[:, d + 1]
    actions, optimal = np.empty(T, dtype=int), np.empty(T, dtype=int)
    gaps, y = np.empty(T), np.empty(T)
    varsigmas, diagnostics, stats = [], [], None
    varsigma, w_theta_hat = 1.0, None  # epoch 1 has no estimate

    for m in range(1, len(bounds)):
        if m >= 2:
            prev = slice(bounds[m - 2], bounds[m - 1])
            budget = error_budget(
                n=prev.stop - prev.start, delta=delta / (2.0 * m * m), gamma=gamma,
                s0=s0, M=M, L=functional.lipschitz_L, L0=basis.lipschitz_L0,
                A=basis.covering_constant_A, d=basis.omega_dim,
                eta=basis.kernel_floor_eta,
            )
            varsigma = exploration_param(K, budget, exploration_scale)
            data = Dataset(X[prev], actions[prev], y[prev])  # views, not copies
            estimate = regress(data, basis, gamma, M, omega_grid, s_grid, statistics=stats)
            diagnostics.append(estimate.diagnostics)
            w_theta_hat = omega_grid.weights * estimate.theta_hat.values
        varsigmas.append(varsigma)

        stats = DataStatistics(omega_grid, s_grid) if m < len(bounds) - 1 else None
        for lo in range(bounds[m - 1], bounds[m], BASIS_CHUNK):
            B = min(BASIS_CHUNK, bounds[m] - lo)
            block, rows = slice(lo, lo + B), np.arange(B)
            # pair b * K + a is (context of round lo + b, action a)
            phi = basis_values(basis, np.repeat(X[block], K, axis=0),
                               np.tile(np.arange(K), B), omega_grid.nodes, s_grid.nodes)
            true_cdfs = (w_theta_star @ phi).reshape(B, K, s_grid.size)
            true_utils = functional(true_cdfs, s_grid)
            if w_theta_hat is None:
                p = np.full((B, K), 1.0 / K)
            else:
                hat_cdfs = (w_theta_hat @ phi).reshape(B, K, s_grid.size)
                p = igw_distribution(functional(hat_cdfs, s_grid), varsigma)
            chosen = _choose_actions(p, u_action[block])
            y[block] = inverse_cdf(true_cdfs[rows, chosen], u_outcome[block], s_grid.nodes)
            if stats is not None:
                stats.add(phi[rows * K + chosen], y[block])
            del phi  # free it before the next block allocates its own (peak RSS)
            best = np.argmax(true_utils, axis=-1)
            actions[block], optimal[block] = chosen, best
            gaps[block] = true_utils[rows, best] - true_utils[rows, chosen]

    epochs = np.repeat(np.arange(1, len(bounds)), np.diff(bounds))
    cum_regret = np.cumsum(gaps)  # adds in round order, as a running float sum does
    columns = (epochs, X, actions, optimal, gaps, cum_regret)
    for col in columns:
        col.flags.writeable = False

    summary = {
        "T": T,
        "seed": seed,
        "K": K,
        "delta": delta,
        "gamma": gamma,
        "gamma_source": gamma_source,
        "s0": s0,
        "M": M,
        "exploration_scale": exploration_scale,
        "final_regret": float(cum_regret[-1]),
        "checkpoints": dyadic_checkpoints(cum_regret),
        "oracle_calls": len(diagnostics),
        "varsigmas": varsigmas,
        "nonconverged_projections": sum(not g.converged for g in diagnostics),
        "max_projection_residual": max([0.0, *(g.projection_residual for g in diagnostics)]),
        "environment": env.basis.name,
        "functional": functional.name,
    }
    return RegretTrace(*columns, summary)
