"""Epoch schedule, inverse-gap-weighting distribution, exploration
parameter, and full episodes."""

import dataclasses
import math
import re

import numpy as np
import pytest

from cdfreg import (
    Dataset,
    basis_values,
    build_cdf_grid,
    build_uniform_grid,
    error_budget,
    exploration_param,
    igw_distribution,
    inverse_cdf,
    make_catalog_env,
    make_functional,
    regress,
    run_episode,
    sample_context,
    sweep_regression_error,
)
from cdfreg.regression import KKT_TOLERANCE

OMEGA = build_uniform_grid(32)
S = build_cdf_grid(64)


def _rounds_by_epoch(trace):
    rounds = {}
    for t, m, *_ in trace.records:
        rounds.setdefault(m, []).append(t)
    return rounds


def test_doubling_schedule():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    fn = make_functional("mean")
    trace = run_episode(env, fn, 64, 0.1, 1.0, 2.0, seed=0)
    rounds = _rounds_by_epoch(trace)
    assert sorted(rounds) == list(range(1, 7))
    assert rounds[1] == [1, 2]
    for m in range(2, 7):
        assert rounds[m] == list(range(2 ** (m - 1) + 1, 2**m + 1))
    assert trace.summary["oracle_calls"] == len(rounds) - 1
    # a horizon between powers of two caps the last epoch
    capped = run_episode(env, fn, 100, 0.1, 1.0, 2.0, seed=0)
    rounds = _rounds_by_epoch(capped)
    assert sorted(rounds) == list(range(1, 8))
    assert rounds[7] == list(range(65, 101))
    assert capped.summary["oracle_calls"] == len(rounds) - 1


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
    with pytest.raises(ValueError):
        igw_distribution(np.zeros((3, 0)), 1.0)


def test_igw_rejects_nan_varsigma():
    with pytest.raises(ValueError):
        igw_distribution([1.0, 0.0], np.nan)


def test_igw_rejects_infinite_varsigma():
    # inf * 0 at a tied maximum would make the row NaN
    with pytest.raises(ValueError):
        igw_distribution([1.0, 1.0, 0.0], np.inf)


def _igw_vector_reference(v, varsigma):
    """The one-vector inverse-gap weighting, written out directly."""
    v = np.asarray(v, dtype=float)
    K = v.size
    best = int(np.argmax(v))
    if np.all(v == v[best]):
        return np.full(K, 1.0 / K)
    p = 1.0 / (K + varsigma * (v[best] - v))
    p[best] = 0.0
    p[best] = 1.0 - p.sum()
    return p


def test_igw_batched_rows_equal_vector_calls():
    rng = np.random.default_rng(29)
    for K in range(1, 10):
        # one decimal makes tied maxima common; the first rows tie throughout
        utils = np.round(rng.normal(size=(60, K)), 1)
        utils[:3] = utils[:3, :1]
        varsigma = float(10 ** rng.uniform(-3, 4))
        batched = igw_distribution(utils, varsigma)
        assert batched.shape == (60, K)
        for row, v in zip(batched, utils):
            assert np.array_equal(row, igw_distribution(v, varsigma))
            assert np.array_equal(row, _igw_vector_reference(v, varsigma))
        stacked = igw_distribution(utils.reshape(3, 20, K), varsigma)
        assert np.array_equal(stacked.reshape(60, K), batched)


def _budget(est):
    # build a consistent ErrorBudget-like value through error_budget by
    # scaling L so that est comes out as requested
    b = error_budget(4, 0.1, 1.0, 1.0, 1.0, 1.0, 2.5, 1.0, 1, 0.2)
    scale = math.sqrt(est / b.est)
    return error_budget(4, 0.1, 1.0, 1.0, 1.0, scale, 2.5, 1.0, 1, 0.2)


def test_exploration_param_hand_value():
    budget = _budget(1.25)  # K/4 with K=5
    assert exploration_param(5, budget) == pytest.approx(1.0, rel=1e-9)


def test_exploration_param_scale_homogeneous():
    budget = _budget(0.7)
    one = exploration_param(4, budget, scale=1.0)
    two = exploration_param(4, budget, scale=2.0)
    assert two == pytest.approx(2.0 * one)


def test_exploration_param_monotone_in_est():
    lo = exploration_param(5, _budget(0.5))
    hi = exploration_param(5, _budget(2.0))
    assert hi < lo


def test_exploration_param_rejects_nan_scale():
    with pytest.raises(ValueError):
        exploration_param(5, _budget(1.0), scale=np.nan)


def test_exploration_param_rejects_infinite_scale():
    with pytest.raises(ValueError):
        exploration_param(5, _budget(1.0), scale=np.inf)


def test_run_episode_ties_break_to_lowest_action():
    # every action of rank1-uniform has the same CDF, so all utilities tie
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    trace = run_episode(env, make_functional("mean"), 64, 0.1, 1.0, 2.0, seed=2)
    assert len(trace.records) == 64
    assert all(a_star == 0 and gap == 0.0 for _, _, _, _, a_star, gap, _ in trace.records)
    assert trace.summary["final_regret"] == 0.0


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
    rounds = [r for r, _ in trace.summary["checkpoints"]]
    assert rounds == [2, 4, 8, 16, 32, 64, 128]


def test_dyadic_checkpoints():
    from cdfreg.engine import dyadic_checkpoints
    cum = [0.5 * t for t in range(1, 11)]
    assert dyadic_checkpoints(cum) == [(2, 1.0), (4, 2.0), (8, 4.0)]
    assert dyadic_checkpoints(cum[:8]) == [(2, 1.0), (4, 2.0), (8, 4.0)]
    assert dyadic_checkpoints(cum[:1]) == []


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
    for T in (1, 0, 64.0, 2.5, True):
        with pytest.raises(ValueError, match=r"^T must be an integer >= 2, not %s$"
                           % re.escape(repr(T))):
            run_episode(env, fn, T, 0.1, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        run_episode(env, fn, 64, 1.5, 1.0, 2.0, seed=0)
    assert len(run_episode(env, fn, np.int64(8), 0.1, 1.0, 2.0, seed=0).records) == 8


def test_run_episode_at_M_one_reports_converged_projections():
    # at M = 1 every projection returns C's one point, the uniform density;
    # all 7 used to be reported as not converged, with residuals up to 0.13
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    summary = run_episode(env, make_functional("mean"), 256, 0.1, 1.0, 1.0, seed=0).summary
    assert summary["oracle_calls"] == 7
    assert summary["nonconverged_projections"] == 0
    assert summary["max_projection_residual"] == 0.0


def test_run_episode_rejects_M_below_theta_star_norm():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    assert 1.1 < env.theta_star.norm() < 1.2
    fn = make_functional("mean")
    with pytest.raises(ValueError):
        run_episode(env, fn, 16, 0.1, 1.0, 1.1, seed=0)
    with pytest.raises(ValueError):
        sweep_regression_error(env, (16,), tuple(range(5)), 0.1, 1.1)
    run_episode(env, fn, 16, 0.1, 1.0, 1.2, seed=0)


def _per_round_reference(env, functional, T, delta, gamma, M, seed, scale, s0):
    """The engine as a round-by-round loop: per round a context from
    sample_context, an action from rng.choice, and an outcome from
    rng.random() through inverse_cdf. Returns (records, varsigmas,
    oracle_calls)."""
    rng = np.random.default_rng(seed)
    bounds = [0] + [min(2**m, T) for m in range(1, (T - 1).bit_length() + 1)]
    K, basis, omega = env.action_count, env.basis, env.omega_grid
    w_star = omega.weights * env.theta_star.values
    records, varsigmas, calls, cum, prev = [], [], 0, 0.0, []
    varsigma, w_hat = 1.0, None
    for m in range(1, len(bounds)):
        if m >= 2:
            budget = error_budget(bounds[m - 1] - bounds[m - 2], delta / (2.0 * m * m),
                                  gamma, s0, M, functional.lipschitz_L, basis.lipschitz_L0,
                                  basis.covering_constant_A, basis.omega_dim,
                                  basis.kernel_floor_eta)
            varsigma = exploration_param(K, budget, scale)
            prev = Dataset(*map(np.array, zip(*prev)))
            w_hat = omega.weights * regress(prev, basis, gamma, M, omega, S).theta_hat.values
            calls += 1
        varsigmas.append(varsigma)
        data = []
        for t in range(bounds[m - 1] + 1, bounds[m] + 1):
            x = sample_context(env, rng)
            phi = basis_values(basis, np.tile(x, (K, 1)), np.arange(K), omega.nodes, S.nodes)
            true_cdfs = w_star @ phi
            true_utils = functional(true_cdfs, S)
            if w_hat is None:
                p = np.full(K, 1.0 / K)
            else:
                p = _igw_vector_reference(functional(w_hat @ phi, S), varsigma)
            a = int(rng.choice(K, p=p))
            y = float(inverse_cdf(true_cdfs[a], rng.random(), S.nodes))
            a_star = int(np.argmax(true_utils))
            gap = float(true_utils[a_star] - true_utils[a])
            cum += gap
            records.append((t, m, tuple(x), a, a_star, gap, cum))
            data.append((x, a, y))
        prev = data
    return records, varsigmas, calls


@pytest.mark.parametrize("functional", ["mean", "smoothed_quantile"])
@pytest.mark.parametrize("context_dim", [1, 3])
@pytest.mark.parametrize("K", [1, 3, 7])
def test_block_engine_equals_per_round_loop(K, context_dim, functional):
    # T = 100: blocks end inside epochs, and the last epoch is capped at 36
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=context_dim,
                           action_count=K, theta_star="bumps")
    fn = make_functional(functional, **({"q": 0.4} if functional != "mean" else {}))
    args = (env, fn, 100, 0.1, 0.5, 2.0, 11, 1e4, 2.0)
    trace = run_episode(*args)
    records, varsigmas, calls = _per_round_reference(*args)
    assert trace.records == records
    assert trace.summary["varsigmas"] == varsigmas
    assert trace.summary["oracle_calls"] == calls
    if K > 1:
        assert len({r[3] for r in records}) > 1


@pytest.mark.parametrize("name, params", [("kumaraswamy", {"theta_star": "bumps"}),
                                          ("finite-rank-r", {"rank": 8})])
@pytest.mark.parametrize("K", [1, 3])
def test_engine_statistics_equal_data_statistics(monkeypatch, name, params, K):
    # T = 100: epochs of 2, 2, 4 and 8 rounds are shorter than one block,
    # the epoch of 32 is two blocks, and the capped last epoch of 36 ends
    # mid-block and is never regressed
    from cdfreg import engine, regression
    env = make_catalog_env(name, OMEGA, S, action_count=K, **params)
    built, handed = [], []

    class Counted(regression.DataStatistics):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def oracle(data, *args, statistics=None, **kwargs):
        handed.append((data, statistics))
        return regression.regress(data, *args, statistics=statistics, **kwargs)

    monkeypatch.setattr(engine, "DataStatistics", Counted)
    monkeypatch.setattr(engine, "regress", oracle)
    trace = run_episode(env, make_functional("mean"), 100, 0.1, 0.5, 2.0, seed=13,
                        exploration_scale=1e4)
    assert trace.summary["oracle_calls"] == len(handed) == 6
    assert [len(data) for data, _ in handed] == [2, 2, 4, 8, 16, 32]
    assert [id(stats) for _, stats in handed] == [id(stats) for stats in built]
    for data, stats in handed:
        fresh = regression.data_statistics(data, env.basis, OMEGA, S)
        assert stats.kernel.tobytes() == fresh.kernel.tobytes()
        assert stats.target.tobytes() == fresh.target.tobytes()
        assert stats.indicator_sq == fresh.indicator_sq
        assert stats.count == fresh.count == len(data)


def test_summary_aggregates_the_oracle_diagnostics(monkeypatch):
    # T = 100 makes 6 oracle calls; the third is marked as a projection that
    # did not converge, with a residual above every converged one
    from cdfreg import engine, regression
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    calls = []

    def oracle(data, *args, **kwargs):
        estimate = regression.regress(data, *args, **kwargs)
        calls.append(estimate.diagnostics)
        if len(calls) == 3:
            diag = dataclasses.replace(estimate.diagnostics, converged=False,
                                       projection_residual=0.25)
            estimate = regression.CoefficientEstimate(estimate.theta_hat, diag)
        return estimate

    monkeypatch.setattr(engine, "regress", oracle)
    summary = run_episode(env, make_functional("mean"), 100, 0.1, 0.5, 2.0, seed=13,
                          exploration_scale=1e4).summary
    assert all(diag.converged and diag.projection_residual < 0.25 for diag in calls)
    assert summary["oracle_calls"] == len(calls) == 6
    assert summary["nonconverged_projections"] == 1
    assert summary["max_projection_residual"] == 0.25


def test_trace_holds_read_only_columns_and_builds_records_on_demand():
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=3)
    trace = run_episode(env, make_functional("mean"), 100, 0.1, 1.0, 2.0, seed=5,
                        exploration_scale=1e4)
    columns = (trace.epochs, trace.contexts, trace.actions, trace.optimal_actions,
               trace.gaps, trace.cum_regret)
    assert [c.shape for c in columns] == [(100,), (100, 3)] + [(100,)] * 4
    assert not any(c.flags.writeable for c in columns)
    records = trace.records
    assert records is not trace.records  # built on each access, never cached
    assert records == trace.records
    assert [type(v) for v in records[-1]] == [int, int, tuple, int, int, float, float]
    assert records == list(zip(range(1, 101), trace.epochs.tolist(),
                               map(tuple, trace.contexts.tolist()), trace.actions.tolist(),
                               trace.optimal_actions.tolist(), trace.gaps.tolist(),
                               trace.cum_regret.tolist()))
    assert trace.summary["final_regret"] == records[-1][6]
    assert type(trace.summary["final_regret"]) is float


def test_episode_hands_the_oracle_views_of_its_columns(monkeypatch):
    # wrapped as the benchmark wraps the oracle: each epoch's dataset is the
    # previous epoch's slice of the episode's columns, not a copy
    from cdfreg import engine, regression
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    seen = []

    def oracle(data, *args, **kwargs):
        seen.append(data)
        return regression.regress(data, *args, **kwargs)

    monkeypatch.setattr(engine, "regress", oracle)
    trace = run_episode(env, make_functional("mean"), 100, 0.1, 0.5, 2.0, seed=13,
                        exploration_scale=1e4)
    bounds = [0, 2, 4, 8, 16, 32, 64]
    assert len(seen) == trace.summary["oracle_calls"] == len(bounds) - 1
    for data, lo, hi in zip(seen, bounds, bounds[1:]):
        assert isinstance(data, regression.Dataset) and len(data) == hi - lo
        assert np.shares_memory(data.X, trace.contexts)
        assert np.shares_memory(data.A, trace.actions)
        assert np.array_equal(data.X, trace.contexts[lo:hi])
        assert np.array_equal(data.A, trace.actions[lo:hi])


def test_a_held_trace_costs_under_64_bytes_per_round():
    # the columns cost 56 B per round (d = 2): the contexts are a copy, not
    # a view that would keep the round's two spent uniforms alive (72 B); the
    # list of 7-tuples the trace used to hold cost about 283 B
    import gc
    import tracemalloc
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    fn = make_functional("mean")
    run_episode(env, fn, 64, 0.1, 1.0, 2.0, seed=3)  # warm every lazy set-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_episode(env, fn, 4096, 0.1, 1.0, 2.0, seed=3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.gaps) == 4096
    assert held < 64 * 4096, "%.1f B per round" % (held / 4096)
    assert trace.contexts.base is None and trace.contexts.flags.c_contiguous
