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

from .environments import Environment, inverse_cdf, sample_context
from .functionals import UtilityFunctional
from .operators import basis_values
from .regression import ErrorBudget, error_budget, regress


@dataclass(frozen=True, eq=False)
class RegretTrace:
    """Per-round regret accounting plus a run summary.

    ``records`` rows are (round, epoch, context, action, optimal_action,
    gap, cum_regret); ``summary`` echoes the configuration and holds final
    regret, dyadic checkpoints, and the oracle-call count.
    """

    records: list = field(repr=False)
    summary: dict

    def checkpoints(self) -> list[tuple[int, float]]:
        return [(int(r), float(v)) for r, v in self.summary["checkpoints"]]


def igw_distribution(utilities, varsigma: float) -> np.ndarray:
    """Inverse-gap-weighting distribution over K actions.

    p(a) = 1 / (K + varsigma * (v_max - v_a)) for non-greedy a; the greedy
    action absorbs the remainder, so the vector sums to 1 exactly.
    """
    v = np.asarray(utilities, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("utilities must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("utilities must be finite")
    if varsigma <= 0:
        raise ValueError("varsigma must be positive")
    K = v.size
    best = int(np.argmax(v))
    if np.all(v == v[best]):
        return np.full(K, 1.0 / K)
    p = 1.0 / (K + varsigma * (v[best] - v))
    p[best] = 0.0
    p[best] = 1.0 - p.sum()
    return p


def exploration_param(m: int, K: int, budget: ErrorBudget, scale: float = 1.0) -> float:
    """varsigma_m = scale * (1/2) * sqrt(K / est) for epoch m, where the
    caller computes the budget at confidence delta / (2 m^2) on the previous
    epoch's sample count."""
    if m < 2:
        raise ValueError("exploration_param is defined for epochs m >= 2")
    if K < 1 or scale <= 0:
        raise ValueError("K must be positive and scale > 0")
    return scale * 0.5 * math.sqrt(K / budget.est)


def run_episode(env: Environment, functional: UtilityFunctional, T: int,
                delta: float, gamma: float, M: float, seed: int,
                exploration_scale: float = 1.0, s0: float = 1.0,
                gamma_source: str = "config") -> RegretTrace:
    """One full run of the epoch-batched IGW algorithm.

    Epoch 1 plays uniformly at random (no estimate exists yet); each later
    epoch refreshes the regression oracle on exactly the previous epoch's
    data and plays IGW with varsigma_m from the closed-form error budget.
    """
    if T < 2:
        raise ValueError("horizon T must be at least 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    # doubling epoch boundaries 0 < 2 < 4 < ... capped at T; epoch m plays
    # rounds bounds[m-1]+1 .. bounds[m]
    bounds = [0] + [min(2**m, T) for m in range(1, (T - 1).bit_length() + 1)]
    K = env.action_count
    basis = env.basis
    omega_grid, s_grid = env.omega_grid, env.s_grid
    s_coords = s_grid.coords()
    w_theta_star = omega_grid.weights * env.theta_star.values
    actions = np.arange(K)
    contexts = np.empty((K, env.context_dim))  # the round's context, once per action

    records = []
    cum_regret = 0.0
    oracle_calls = 0
    varsigmas = []
    nonconverged = 0
    max_residual = 0.0
    prev_epoch_data: list = []
    varsigma, w_theta_hat = 1.0, None  # epoch 1 has no estimate

    for m in range(1, len(bounds)):
        if m >= 2:
            n_prev = bounds[m - 1] - bounds[m - 2]
            budget = error_budget(
                n=n_prev, delta=delta / (2.0 * m * m), gamma=gamma, s0=s0,
                M=M, L=functional.lipschitz_L, L0=basis.lipschitz_L0,
                A=basis.covering_constant_A, d=basis.omega_dim,
                eta=basis.kernel_floor_eta,
            )
            varsigma = exploration_param(m, K, budget, exploration_scale)
            estimate = regress(prev_epoch_data, basis, gamma, M, omega_grid, s_grid)
            oracle_calls += 1
            if not estimate.diagnostics.converged:
                nonconverged += 1
            max_residual = max(max_residual, estimate.diagnostics.projection_residual)
            w_theta_hat = omega_grid.weights * estimate.theta_hat.values
        varsigmas.append(varsigma)

        epoch_data = []
        for t in range(bounds[m - 1] + 1, bounds[m] + 1):
            x = sample_context(env, rng)
            contexts[:] = x
            phi = basis_values(basis, contexts, actions, omega_grid, s_grid)
            true_cdfs = w_theta_star @ phi
            true_utils = functional(true_cdfs, s_grid)
            if w_theta_hat is None:
                p = np.full(K, 1.0 / K)
            else:
                p = igw_distribution(functional(w_theta_hat @ phi, s_grid), varsigma)
            a_t = int(rng.choice(K, p=p))
            y = float(inverse_cdf(true_cdfs[a_t], rng.random(), s_coords))
            a_star = int(np.argmax(true_utils))
            gap = float(true_utils[a_star] - true_utils[a_t])
            cum_regret += gap
            records.append((t, m, tuple(x), a_t, a_star, gap, cum_regret))
            epoch_data.append((x, a_t, y))
        prev_epoch_data = epoch_data

    checkpoints = []
    k = 1
    while 2**k <= T:
        checkpoints.append((2**k, records[2**k - 1][6]))
        k += 1
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
        "final_regret": cum_regret,
        "checkpoints": checkpoints,
        "oracle_calls": oracle_calls,
        "varsigmas": varsigmas,
        "nonconverged_projections": nonconverged,
        "max_projection_residual": max_residual,
        "environment": env.basis.name,
        "functional": functional.name,
    }
    return RegretTrace(records, summary)
