"""Epoch schedule, inverse-gap-weighting distribution, exploration
parameter, and full episodes."""

import math

import numpy as np
import pytest

from cdfreg import (
    EpochSchedule,
    PolicyState,
    build_cdf_grid,
    build_uniform_grid,
    error_budget,
    exploration_param,
    igw_distribution,
    make_catalog_env,
    make_functional,
    run_episode,
)
from cdfreg.regression import KKT_TOLERANCE

OMEGA = build_uniform_grid(1, 32)
S = build_cdf_grid(64)


def test_doubling_schedule():
    sched = EpochSchedule.doubling(64)
    assert sched.boundaries == (0, 2, 4, 8, 16, 32, 64)
    capped = EpochSchedule.doubling(100)
    assert capped.boundaries[-1] == 100
    assert capped.boundaries[-2] == 64


def test_schedule_rejects_nonincreasing():
    with pytest.raises(ValueError):
        EpochSchedule((0, 2, 2, 4))


def test_igw_hand_value():
    p = igw_distribution([1.0, 0.5], 1.0)
    assert np.allclose(p, [0.6, 0.4])
    assert p.sum() == 1.0


def test_igw_zero_gaps_uniform():
    p = igw_distribution([0.3, 0.3, 0.3, 0.3], 5.0)
    assert np.allclose(p, 0.25)


def test_igw_small_varsigma_near_uniform():
    p = igw_distribution([1.0, 0.2, 0.7], 1e-12)
    assert np.allclose(p, 1.0 / 3.0, atol=1e-9)


def test_igw_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        utils = rng.normal(size=k)
        varsigma = float(10 ** rng.uniform(-3, 4))
        p = igw_distribution(utils, varsigma)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0)
        assert int(np.argmax(p)) == int(np.argmax(utils))
        assert p[np.argmax(utils)] >= 1.0 / k - 1e-12


def test_igw_rejects_bad_inputs():
    with pytest.raises(ValueError):
        igw_distribution([np.inf, 0.0], 1.0)
    with pytest.raises(ValueError):
        igw_distribution([1.0, 0.0], 0.0)


def _budget(est):
    # build a consistent ErrorBudget-like value through error_budget by
    # scaling L so that est comes out as requested
    b = error_budget(4, 0.1, 1.0, 1.0, 1.0, 1.0, 2.5, 1.0, 1, 0.2)
    scale = math.sqrt(est / b.est)
    return error_budget(4, 0.1, 1.0, 1.0, 1.0, scale, 2.5, 1.0, 1, 0.2)


def test_exploration_param_hand_value():
    budget = _budget(1.25)  # K/4 with K=5
    assert exploration_param(2, 0.1, 5, budget) == pytest.approx(1.0, rel=1e-9)


def test_exploration_param_scale_homogeneous():
    budget = _budget(0.7)
    one = exploration_param(3, 0.1, 4, budget, scale=1.0)
    two = exploration_param(3, 0.1, 4, budget, scale=2.0)
    assert two == pytest.approx(2.0 * one)


def test_exploration_param_monotone_in_est():
    lo = exploration_param(2, 0.1, 5, _budget(0.5))
    hi = exploration_param(2, 0.1, 5, _budget(2.0))
    assert hi < lo


def test_exploration_param_rejects_first_epoch():
    with pytest.raises(ValueError):
        exploration_param(1, 0.1, 5, _budget(1.0))


def test_policy_state_validation():
    with pytest.raises(ValueError):
        PolicyState(2, 1.0, None)
    with pytest.raises(ValueError):
        PolicyState(1, -1.0, None)


def test_run_episode_smoke():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8, theta_star="uniform")
    fn = make_functional("mean")
    trace = run_episode(env, fn, 128, 0.1, 0.1, 2.0, seed=0,
                        exploration_scale=100.0, s0=2.0)
    assert len(trace.records) == 128
    cums = [rec[6] for rec in trace.records]
    assert np.all(np.diff(cums) >= -1e-12)
    gaps = [rec[5] for rec in trace.records]
    assert min(gaps) >= -1e-9
    assert trace.summary["oracle_calls"] <= math.ceil(math.log2(128)) + 1
    assert trace.summary["nonconverged_projections"] == 0
    assert 0.0 <= trace.summary["max_projection_residual"] <= KKT_TOLERANCE
    rounds = [r for r, _ in trace.checkpoints()]
    assert rounds == [2, 4, 8, 16, 32, 64, 128]


def test_run_episode_reproducible():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    fn = make_functional("mean")
    a = run_episode(env, fn, 64, 0.1, 1.0, 2.0, seed=5)
    b = run_episode(env, fn, 64, 0.1, 1.0, 2.0, seed=5)
    assert a.summary["final_regret"] == b.summary["final_regret"]
    assert [r[3] for r in a.records] == [r[3] for r in b.records]


def test_run_episode_rejects_bad_horizon():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    fn = make_functional("mean")
    with pytest.raises(ValueError):
        run_episode(env, fn, 1, 0.1, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        run_episode(env, fn, 64, 1.5, 1.0, 2.0, seed=0)
