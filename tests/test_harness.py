"""Experiment configs, dataset/trace round-trips, slope fitting, and the
command-line front end."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from cdfreg import (
    CoefficientEstimate,
    Dataset,
    DesignOperator,
    Environment,
    ErrorBudget,
    ExperimentConfig,
    GridFunction,
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    design_operator,
    eigendecay_prepass,
    error_budget,
    estimate_eigendecay,
    exploration_param,
    fit_loglog_slope,
    heldout_cdf_error,
    igw_distribution,
    make_catalog_env,
    make_functional,
    project_to_C,
    regress,
    regret_slope,
    run_episode,
    sample_outcomes,
    select_truncation,
    spectral_decompose,
    sweep_regression_error,
)
from cdfreg.cli import main
from cdfreg.environments import BASIS_CATALOG, check_norm_bound
from cdfreg.functionals import FUNCTIONAL_CATALOG
from cdfreg.harness import (
    build_environment,
    build_functional,
    generate_dataset,
    read_dataset_csv,
    read_trace_csv,
    resolve_gamma,
    run_config,
    write_dataset_csv,
    write_summary_json,
    write_trace_csv,
)
from cdfreg.numerics import MAX_EIG_SIZE, MAX_GRID_NODES, REAL_RULES
from cdfreg.regression import KKT_TOLERANCE, Diagnostics

OMEGA = build_uniform_grid(32)
S = build_cdf_grid(64)


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(environment={"name": "finite-rank-r", "rank": 4},
                           horizon=64, gamma="estimate", seeds=(0, 1, 2))
    path = tmp_path / "config.json"
    cfg.save(path)
    back = ExperimentConfig.load(path)
    assert back == cfg
    assert back.seeds == (0, 1, 2)


def test_build_environment_and_functional():
    cfg = ExperimentConfig(environment={"name": "kumaraswamy", "theta_star": "bumps"},
                           functional={"name": "smoothed_quantile", "q": 0.3})
    env = build_environment(cfg)
    assert env.basis.name == "kumaraswamy"
    fn = build_functional(cfg)
    assert fn.lipschitz_L == pytest.approx(1.0 / (4 * 0.05))


def test_dataset_csv_round_trip(tmp_path):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    rng = np.random.default_rng(1)
    data = generate_dataset(env, 20, rng)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    assert len(back) == 20
    for (x, a, y), (x2, a2, y2) in zip(data, back):
        assert np.allclose(x, x2)
        assert a == a2 and y == pytest.approx(y2)


def _counting_env(env, calls):
    """``env`` whose evaluator appends (pairs, outcome coordinates) per call."""
    inner = env.basis.eval_matrix

    def counting(X, A, omega_nodes, s):
        calls.append((A.shape[0], s))
        return inner(X, A, omega_nodes, s)

    return dataclasses.replace(env, basis=dataclasses.replace(env.basis, eval_matrix=counting))


def test_generate_dataset_equals_per_sample_draws():
    # iterated, the Dataset gives the records generate_dataset used to
    # return as a list, element types included, and its columns hold them;
    # the outcomes equal full-row draws on outcome grids of 64 nodes, 2 (a
    # single coarse node), 10 (a short last bracket) and 4096, over several
    # chunks
    from cdfreg import Dataset, sample_context, sample_outcomes
    envs = (("kumaraswamy", {"theta_star": "bumps"}), ("finite-rank-r", {"rank": 8}),
            ("rank1-uniform", {}))
    for s_grid, n in ((S, 53), (S, 600), (build_cdf_grid(2), 2100), (build_cdf_grid(10), 700),
                      (build_cdf_grid(4096), 70)):
        for name, params in envs:
            calls = []
            env = _counting_env(make_catalog_env(name, OMEGA, s_grid, **params), calls)
            rng, ref_rng = np.random.default_rng(61), np.random.default_rng(61)
            data = generate_dataset(env, n, rng)
            assert isinstance(data, Dataset) and len(data) == n
            y_ref = np.empty(n)
            for i in range(n):
                x_ref = sample_context(env, ref_rng)
                a_ref = int(ref_rng.integers(env.action_count))
                y_ref[i] = sample_outcomes(env, x_ref, a_ref, 1, ref_rng)[0]
                assert np.array_equal(data.X[i], x_ref) and data.A[i] == a_ref
            assert np.array_equal(data.y, y_ref)
            assert rng.random() == ref_rng.random()
            # one coarse call per chunk: the calls short of the full row
            # that reach the last node
            chunks = sum(1 for _, s in calls if s[-1] == 1.0 and s.size < s_grid.size)
            assert chunks >= (2 if n > 53 else 1)
    for i, (x, a, y) in enumerate(list(data)):
        assert [type(v) for v in (x, a, y)] == [np.ndarray, int, float]
        assert x.shape == (env.context_dim,)
        assert np.array_equal(data.X[i], x) and (data.A[i], data.y[i]) == (a, y)


def test_generate_dataset_evaluates_at_most_15_of_64_outcome_nodes_per_record():
    # a coarse pass of 8 nodes and one bracket of at most 7; the full row,
    # all 64 nodes, is evaluated only for a record whose uniform lies
    # within 4 n_w eps of an examined F value
    calls = []
    env = _counting_env(make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps"), calls)
    generate_dataset(env, 256, np.random.default_rng(3))
    full_rows = sum(b for b, s in calls if s.size == S.size)
    assert full_rows <= 2
    assert sum(b * s.size for b, s in calls) <= 256 * 15 + S.size * full_rows


def test_counts_refused_by_name():
    # numpy used to refuse these as "negative dimensions are not allowed"
    # or a bare TypeError, naming neither the function nor the value
    from cdfreg import CoefficientEstimate, GridFunction, heldout_cdf_error, sample_outcomes
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    estimate = CoefficientEstimate(GridFunction(OMEGA, np.ones(OMEGA.size)), Diagnostics())
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError, match=r"^size must be an integer >= 0, not %r$"
                           % (bad,)):
            sample_outcomes(env, np.zeros(2), 0, bad, rng)
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, not %r$"
                           % (bad,)):
            generate_dataset(env, bad, rng)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match=r"^n_pairs must be an integer >= 1, not %r$"
                           % (bad,)):
            heldout_cdf_error(estimate, env, bad, rng)
    assert rng.bit_generator.state == state  # refused before any draw
    assert sample_outcomes(env, np.zeros(2), 0, np.int64(3), rng).shape == (3,)
    assert len(generate_dataset(env, np.int64(2), rng)) == 2


def _env():
    return make_catalog_env("kumaraswamy", OMEGA, S)


def _spec():
    return spectral_decompose(design_operator(_env().basis, [(np.zeros(2), 0)], OMEGA, S))


def _heldout(n_pairs):
    estimate = CoefficientEstimate(GridFunction(OMEGA, np.ones(OMEGA.size)), Diagnostics())
    return heldout_cdf_error(estimate, _env(), n_pairs, np.random.default_rng(0))


# every count the package takes: name -> (least value, call on a value)
COUNT_INPUTS = {
    "build_uniform_grid-n_nodes": (2, build_uniform_grid),
    "build_cdf_grid-n_nodes": (2, build_cdf_grid),
    "degenerate_kernel_eig-n": (1, lambda v: degenerate_kernel_eig(np.minimum, v, 4)),
    "select_truncation-n": (1, lambda v: select_truncation(_spec(), v, 1.0)),
    "error_budget-n": (1, lambda v: error_budget(v, 0.1, 1.0, 1.0, 2.0, 1.0, 2.5, 1.0, 1, 0.2)),
    "error_budget-d": (1, lambda v: error_budget(2, 0.1, 1.0, 1.0, 2.0, 1.0, 2.5, 1.0, v, 0.2)),
    "DesignOperator-data_count": (1, lambda v: DesignOperator(np.eye(OMEGA.size), OMEGA, v)),
    "make_catalog_env-context_dim": (1, lambda v: make_catalog_env(
        "kumaraswamy", OMEGA, S, context_dim=v)),
    "make_catalog_env-action_count": (1, lambda v: make_catalog_env(
        "kumaraswamy", OMEGA, S, action_count=v)),
    "make_catalog_env-rank": (1, lambda v: make_catalog_env("finite-rank-r", OMEGA, S, rank=v)),
    "Environment-context_dim": (1, lambda v: Environment(
        _env().basis, _env().theta_star, S, v, 5)),
    "Environment-action_count": (1, lambda v: Environment(
        _env().basis, _env().theta_star, S, 2, v)),
    "sample_outcomes-size": (0, lambda v: sample_outcomes(
        _env(), np.zeros(2), 0, v, np.random.default_rng(0))),
    "run_episode-T": (2, lambda v: run_episode(_env(), make_functional("mean"), v, 0.1, 1.0,
                                               2.0, seed=0)),
    "run_episode-seed": (0, lambda v: run_episode(_env(), make_functional("mean"), 8, 0.1, 1.0,
                                                  2.0, seed=v)),
    "generate_dataset-n": (0, lambda v: generate_dataset(_env(), v, np.random.default_rng(0))),
    "heldout_cdf_error-n_pairs": (1, _heldout),
    "eigendecay_prepass-n_pairs": (1, lambda v: eigendecay_prepass(_env(), 0, v)),
    "eigendecay_prepass-seed": (0, lambda v: eigendecay_prepass(_env(), v)),
    "sweep_regression_error-seed": (0, lambda v: sweep_regression_error(
        _env(), [], (0, 1, 2, 3, v), 1.0, 2.0)),
    "config-horizon": (2, lambda v: ExperimentConfig(horizon=v)),
    "config-seeds": (0, lambda v: ExperimentConfig(seeds=(0, v))),
    "config-sweep_n": (1, lambda v: ExperimentConfig(sweep_n=(16, v))),
    "config-heldout_pairs": (1, lambda v: ExperimentConfig(heldout_pairs=v)),
    "config-omega_nodes": (2, lambda v: ExperimentConfig(omega_nodes=v)),
    "config-s_nodes": (2, lambda v: ExperimentConfig(s_nodes=v)),
    "exploration_param-K": (1, lambda v: exploration_param(v, ErrorBudget(1.0, 1.0, 1.0))),
}


@pytest.mark.parametrize("name", list(COUNT_INPUTS))
def test_every_count_follows_one_rule(name):
    # a bool, a float and a value below the least are refused by name;
    # before numerics.checked_count some passed, some ran as the int they
    # rounded to and some raised a bare TypeError, and np.int64 was refused
    # by the config while the engine took it
    least, call = COUNT_INPUTS[name]
    for bad in (True, 2.0, least - 1):
        with pytest.raises(ValueError) as exc:
            call(bad)
        # the rule's one wording, naming the count (an entry by its index)
        assert re.fullmatch(r"%s(\[\d\])? must be an integer (>= %d|in \[%d, \d+\]), not %s" % (
            re.escape(name.rsplit("-", 1)[1]), least, least, re.escape(repr(bad))),
            str(exc.value)), exc
    call(np.int64(least))


# every count with an upper bound: name -> (its name in the refusal, bound, call on a value)
BOUNDED_COUNTS = {
    "build_uniform_grid-n_nodes": ("n_nodes", MAX_GRID_NODES, build_uniform_grid),
    "build_cdf_grid-n_nodes": ("n_nodes", MAX_GRID_NODES, build_cdf_grid),
    "make_catalog_env-rank": ("rank", MAX_GRID_NODES, lambda v: make_catalog_env(
        "finite-rank-r", OMEGA, S, rank=v)),
    "degenerate_kernel_eig-r": ("r", 16, lambda v: degenerate_kernel_eig(np.minimum, 1, v)),
    "degenerate_kernel_eig-n*r": ("n*r", MAX_EIG_SIZE, lambda v: degenerate_kernel_eig(
        np.minimum, v, 1)),
    "config-omega_nodes": ("omega_nodes", MAX_EIG_SIZE, lambda v: ExperimentConfig(omega_nodes=v)),
    "config-s_nodes": ("s_nodes", MAX_GRID_NODES, lambda v: ExperimentConfig(s_nodes=v)),
}


@pytest.mark.parametrize("name", list(BOUNDED_COUNTS))
def test_every_bounded_count_refuses_the_value_above_its_bound(name):
    # the refusal names the count, its interval and the value; before the
    # bounds went through numerics.checked_count, n*r and the eigensolver
    # size limit named no value, and s_nodes had no bound at load
    word, most, call = BOUNDED_COUNTS[name]
    with pytest.raises(ValueError, match=r"^%s must be an integer in \[\d+, %d\], not %d$"
                       % (re.escape(word), most, most + 1)):
        call(most + 1)


def test_numpy_integer_counts_are_kept_as_ints(tmp_path):
    # make_catalog_env checked np.int64 counts but kept them, and run_episode
    # kept its seed, so json.dumps of the summary's K and seed raised TypeError
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=np.int64(2),
                           action_count=np.int64(5))
    assert (type(env.context_dim), type(env.action_count)) == (int, int)
    fn = make_functional("mean")
    trace = run_episode(env, fn, 16, 0.1, 1.0, 2.0, seed=np.int64(3))
    assert trace.summary == run_episode(_env(), fn, 16, 0.1, 1.0, 2.0, seed=3).summary
    write_summary_json(trace, tmp_path / "summary.json")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["K"], summary["seed"]) == (5, 3)
    assert (type(trace.summary["K"]), type(trace.summary["seed"])) == (int, int)


@pytest.mark.parametrize("setting", [
    {"seeds": [0, 1.5]}, {"seeds": [0, True]}, {"seeds": [0, -1]}, {"omega_nodes": 32.0},
    {"omega_nodes": 1}, {"s_nodes": True}, {"s_nodes": 64.0}, {"omega_nodes": 10**30},
    {"environment": {"name": "finite-rank-r", "rank": 10**30}},
    {"environment": {"name": "kumaraswamy", "action_count": 10**30}}, {"omega_nodes": 2500},
    {"s_nodes": MAX_GRID_NODES + 1},
], ids=["seed-1.5", "seed-true", "seed-minus-1", "omega-32.0", "omega-1", "s-true", "s-64.0",
        "omega-huge", "rank-huge", "action-count-huge", "omega-above-eig-limit",
        "s-above-node-limit"])
def test_cli_run_refuses_bad_counts_at_load(tmp_path, capsys, setting):
    # seeds [0, 1.5] used to write seed 0's trace and summary, then exit 2;
    # omega_nodes 32.0 ran as 32; omega_nodes 10**30 ended in numpy's
    # TypeError (exit 2) and rank 10**30 in an OverflowError (exit 1);
    # action_count 10**30 loads, and still ends in run_episode's OverflowError,
    # which exited 1 with a traceback; omega_nodes 2500 loaded and was refused
    # only by the first eigensolve
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(setting, horizon=8, output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(cpath)]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_keeps_omega_nodes_within_the_eigensolver_limit():
    # every oracle call and the pre-pass eigensolve an omega_nodes-sized kernel
    assert ExperimentConfig(omega_nodes=MAX_EIG_SIZE).omega_nodes == MAX_EIG_SIZE
    with pytest.raises(ValueError, match=r"^omega_nodes must be an integer in \[2, 2000\], "
                       r"not 2001$"):
        ExperimentConfig(omega_nodes=MAX_EIG_SIZE + 1)
    ExperimentConfig(s_nodes=MAX_EIG_SIZE + 1)


def test_cli_run_exits_3_when_an_episode_runs_out_of_memory(tmp_path, capsys, monkeypatch):
    # a horizon of 10**11 ended in numpy's MemoryError traceback (exit 1);
    # the error is raised here, since a real allocation of that size could
    # start writing terabytes on a machine that overcommits memory
    from cdfreg import harness

    def out_of_memory(config, seed):
        raise MemoryError("Unable to allocate 2.91 TiB")

    monkeypatch.setattr(harness, "run_config", out_of_memory)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cpath)]) == 3
    assert "too large to run (MemoryError('Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# error_budget's keyword arguments, each inside its interval
BUDGET = dict(n=2, delta=0.1, gamma=1.0, s0=1.0, M=2.0, L=1.0, L0=2.5, A=1.0, d=1, eta=0.2)


def _episode(**reals):
    reals = dict(dict(delta=0.1, gamma=1.0, M=2.0, s0=1.0, exploration_scale=1.0), **reals)
    return run_episode(_env(), make_functional("mean"), 2, seed=0, **reals)


def _projection(M):
    op = design_operator(_env().basis, [(np.zeros(2), 0)], OMEGA, S)
    return project_to_C(GridFunction(OMEGA, np.ones(OMEGA.size)), op, M)


ABOVE_ONE, BELOW_ONE = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
# name -> (the nearest refused value below its interval, the nearest above,
# a value inside)
EPISODE_REALS = {"delta": (0.0, 1.0, 0.1), "gamma": (0.0, ABOVE_ONE, 0.5),
                 "s0": (0.0, math.inf, 2.0), "M": (BELOW_ONE, math.inf, 2.0),
                 "exploration_scale": (0.0, math.inf, 2.0)}
BUDGET_REALS = dict({k: EPISODE_REALS[k] for k in ("delta", "gamma", "s0", "M")},
                    L=(0.0, math.inf, 2.0), A=(0.0, math.inf, 2.0), eta=(0.0, math.inf, 0.2),
                    L0=(-5e-324, math.inf, 2.5))
# every real the package takes: name -> (below, above, inside, call on a value)
REAL_INPUTS = {
    **{"config-" + k: (*v, lambda x, k=k: ExperimentConfig(**{k: x}))
       for k, v in EPISODE_REALS.items()},
    **{"run_episode-" + k: (*v, lambda x, k=k: _episode(**{k: x}))
       for k, v in EPISODE_REALS.items()},
    **{"error_budget-" + k: (*v, lambda x, k=k: error_budget(**dict(BUDGET, **{k: x})))
       for k, v in BUDGET_REALS.items()},
    "check_norm_bound-M": (BELOW_ONE, math.inf, 2.0, lambda v: check_norm_bound(_env(), v)),
    "select_truncation-gamma": (0.0, ABOVE_ONE, 0.5, lambda v: select_truncation(_spec(), 8, v)),
    "project_to_C-M": (BELOW_ONE, math.inf, 2.0, _projection),
    "exploration_param-exploration_scale": (0.0, math.inf, 2.0, lambda v: exploration_param(
        5, ErrorBudget(1.0, 1.0, 1.0), scale=v)),
    "igw_distribution-varsigma": (0.0, math.inf, 2.0, lambda v: igw_distribution([1.0, 0.0], v)),
    "smoothed_quantile-q": (0.0, 1.0, 0.5, lambda v: make_functional("smoothed_quantile", q=v)),
    "smoothed_quantile-h": (0.0, math.inf, 0.05, lambda v: make_functional(
        "smoothed_quantile", q=0.5, h=v)),
}


@pytest.mark.parametrize("name", list(REAL_INPUTS))
def test_every_real_parameter_follows_one_rule(name):
    # True, NaN, a string and the nearest values outside the interval are
    # refused by name; before numerics.checked_real some were taken (True
    # as 1, M = True projected with M = 1), some were refused without their
    # value, and the config refused np.float32 while taking np.float64; an
    # int beyond the float range ended in an OverflowError
    below, above, inside, call = REAL_INPUTS[name]
    for bad in (True, math.nan, str(inside), below, above, 10**400, -10**400):
        with pytest.raises(ValueError) as exc:
            call(bad)
        message = str(exc.value)
        assert message.startswith(name.partition("-")[2] + " must be "), message
        assert message.endswith(", not " + repr(bad)), message
    call(np.float32(inside))


def test_every_real_rule_has_its_boundary_row():
    # a rule added to numerics.REAL_RULES without a row above is untested
    assert {name.partition("-")[2] for name in REAL_INPUTS} == set(REAL_RULES)


def test_config_stores_reals_as_floats():
    config = ExperimentConfig(delta=np.float32(0.5), gamma=1, s0=np.int64(3), M=2,
                              exploration_scale=np.float64(1e8))
    assert [type(getattr(config, k)) for k in ("delta", "gamma", "s0", "M",
                                               "exploration_scale")] == [float] * 5
    assert (config.delta, config.gamma, config.s0, config.M) == (0.5, 1.0, 3.0, 2.0)
    summary = run_episode(_env(), make_functional("mean"), 2, 0.1, 1, 2, seed=0).summary
    assert [type(summary[k]) for k in ("delta", "gamma", "s0", "M",
                                       "exploration_scale")] == [float] * 5


@pytest.mark.parametrize("setting", [{"delta": 2}, {"s0": -1}, {"exploration_scale": 0},
                                     {"delta": "0.1"}, {"M": 10**400}],
                         ids=["delta-2", "s0-minus-1", "scale-0", "delta-string", "M-huge"])
def test_cli_run_refuses_bad_reals_at_load(tmp_path, capsys, setting):
    # each used to load: delta = 2 was refused by run_episode without its
    # value, s0 = -1 and exploration_scale = 0 only at the second epoch,
    # "0.1" ended in a TypeError (exit 2) and M = 10**400 in an OverflowError
    # (exit 1); now each is refused at load by name
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(setting, horizon=8, output_dir=str(tmp_path / "out"))))
    with pytest.raises(ValueError):
        ExperimentConfig.load(cpath)
    assert main(["run", "--config", str(cpath)]) == 3
    assert capsys.readouterr().err.rstrip().endswith("not %r" % (*setting.values(),))
    assert not (tmp_path / "out").exists()


def test_config_stores_sequences_as_tuples():
    assert ExperimentConfig(seeds=[0, 1], sweep_n=[16]) == ExperimentConfig(seeds=(0, 1),
                                                                            sweep_n=(16,))


def test_generate_dataset_refuses_negative_n_by_name():
    # numpy used to refuse it as "negative dimensions are not allowed"
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    with pytest.raises(ValueError, match="^n must be an integer >= 0, not -1$"):
        generate_dataset(env, -1, np.random.default_rng(0))
    empty = generate_dataset(env, 0, np.random.default_rng(0))
    assert len(empty) == 0 and empty.X.shape == (0, env.context_dim)


def test_heldout_cdf_error_refuses_an_estimate_off_the_omega_grid():
    # an estimate on 32 CDF-grid nodes, scored against the 32-node uniform
    # grid, used to return an error of about 2e-3
    from cdfreg import CoefficientEstimate, GridFunction, heldout_cdf_error
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    off = build_cdf_grid(32)
    estimate = CoefficientEstimate(GridFunction(off, np.ones(off.size)), Diagnostics())
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="different grid"):
        heldout_cdf_error(estimate, env, 8, rng)
    assert rng.bit_generator.state == state  # refused before any pair is drawn


def test_heldout_cdf_error_equals_per_pair_reference():
    from cdfreg import heldout_cdf_error, predict_cdf, regress, sample_context, true_cdf
    for name, params in (("kumaraswamy", {"theta_star": "bumps"}), ("finite-rank-r", {"rank": 8})):
        env = make_catalog_env(name, OMEGA, S, **params)
        data = generate_dataset(env, 64, np.random.default_rng(62))
        estimate = regress(data, env.basis, 0.1, 2.0, OMEGA, S)
        rng, ref_rng = np.random.default_rng(63), np.random.default_rng(63)
        err = heldout_cdf_error(estimate, env, 37, rng)
        total = 0.0
        for _ in range(37):
            x = sample_context(env, ref_rng)
            a = int(ref_rng.integers(env.action_count))
            diff = (predict_cdf(estimate, env.basis, x, a, S).values
                    - true_cdf(env, x, a).values)
            total += float(S.weights @ diff**2)
        assert err > 0.0
        assert err == pytest.approx(total / 37, rel=1e-12, abs=0.0)
        assert rng.random() == ref_rng.random()


def test_dataset_csv_round_trip_keeps_context_order(tmp_path):
    rng = np.random.default_rng(12)
    data = Dataset(rng.random((4, 12)), rng.integers(5, size=4), rng.random(4))
    path = tmp_path / "data12.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    assert np.allclose(back.X, data.X)


def _former_write_dataset_csv(dataset, path):
    """The record-by-record writer that ``write_dataset_csv`` replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(np.atleast_1d(dataset[0][0]))
        writer.writerow(["round"] + ["x%d" % i for i in range(dim)] + ["action", "y"])
        for i, (x, a, y) in enumerate(dataset):
            writer.writerow([i + 1, *np.atleast_1d(x), a, y])


def _former_write_trace_csv(records, path):
    """The writer over ``trace.records`` that ``write_trace_csv`` replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "epoch"] + ["x%d" % i for i in range(len(records[0][2]))]
                        + ["action", "optimal_action", "gap", "cum_regret"])
        for t, m, x, a, a_star, gap, cum in records:
            writer.writerow([t, m, *x, a, a_star, gap, cum])


@pytest.mark.parametrize("context_dim", [1, 2, 5])
def test_csv_writers_write_the_former_bytes(tmp_path, context_dim):
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=context_dim,
                           theta_star="bumps")
    trace = run_episode(env, make_functional("mean"), 300, 0.1, 1.0, 2.0, seed=2,
                        exploration_scale=1e8)
    write_trace_csv(trace, tmp_path / "trace.csv")
    _former_write_trace_csv(trace.records, tmp_path / "former_trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "former_trace.csv").read_bytes()
    data = generate_dataset(env, 100, np.random.default_rng(2))
    write_dataset_csv(data, tmp_path / "data.csv")
    _former_write_dataset_csv(list(data), tmp_path / "former_data.csv")
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "former_data.csv").read_bytes()


def test_empty_dataset_csv_round_trips_and_regress_refuses_it(tmp_path, capsys):
    # writing used to read dataset[0] and raise IndexError
    cpath, _data, env = _regress_dataset_files(tmp_path)
    empty = generate_dataset(env, 0, np.random.default_rng(0))
    dpath = tmp_path / "data.csv"
    write_dataset_csv(empty, dpath)
    assert dpath.read_text().splitlines() == ["round,x0,x1,action,y"]
    back = read_dataset_csv(dpath)
    assert len(back) == 0 and back.X.shape == (0, env.context_dim)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == 3
    assert "dataset must be nonempty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("context_dim", [1, 2, 12])
def test_dataset_csv_round_trip_regresses_identically(tmp_path, context_dim):
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=context_dim,
                           theta_star="bumps")
    data = generate_dataset(env, 64, np.random.default_rng(1))
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    assert len(back) == len(data)
    for (x, a, y), (x2, a2, y2) in zip(data, back):
        assert np.array_equal(x, x2) and a == a2 and y == y2
    theta = regress(data, env.basis, 0.1, 2.0, OMEGA, S).theta_hat.values
    theta_back = regress(back, env.basis, 0.1, 2.0, OMEGA, S).theta_hat.values
    assert np.array_equal(theta, theta_back)


def test_trace_round_trip_and_summary(tmp_path):
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=4, theta_star="uniform")
    trace = run_episode(env, make_functional("mean"), 64, 0.1, 0.1, 2.0, seed=3)
    tpath = tmp_path / "trace.csv"
    write_trace_csv(trace, tpath)
    cols = read_trace_csv(tpath)
    assert len(cols["cum_regret"]) == 64
    assert cols["cum_regret"][-1] == trace.summary["final_regret"]
    spath = tmp_path / "summary.json"
    write_summary_json(trace, spath, wall_time=1.0)
    summary = json.loads(spath.read_text())
    assert summary["T"] == 64
    assert summary["oracle_calls"] <= 7


def _assert_trace_columns(cols, trace):
    """``read_trace_csv`` columns hold the trace's, value for value, with
    C-contiguous contexts."""
    T = trace.gaps.shape[0]
    assert sorted(cols) == sorted(["round", "epoch", "context", "action", "optimal_action",
                                   "gap", "cum_regret"])
    for key, col in (("round", np.arange(1, T + 1)), ("epoch", trace.epochs),
                     ("context", trace.contexts), ("action", trace.actions),
                     ("optimal_action", trace.optimal_actions), ("gap", trace.gaps),
                     ("cum_regret", trace.cum_regret)):
        assert cols[key].shape == col.shape and cols[key].dtype == col.dtype
        assert np.array_equal(cols[key], col), key
    assert cols["context"].flags.c_contiguous


@pytest.mark.parametrize("context_dim", [1, 2, 12])
def test_trace_csv_round_trips_contexts(tmp_path, capsys, context_dim):
    env = make_catalog_env("kumaraswamy", OMEGA, S, context_dim=context_dim)
    trace = run_episode(env, make_functional("mean"), 64, 0.1, 1.0, 2.0, seed=4,
                        exploration_scale=100.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[2:2 + context_dim] == ["x%d" % i for i in range(context_dim)]
    _assert_trace_columns(read_trace_csv(path), trace)
    capsys.readouterr()
    assert main(["fit-slope", str(path)]) == 0
    assert "slope" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["dataset", "trace"])
def test_csv_readers_skip_blank_lines(tmp_path, kind):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    path = tmp_path / "records.csv"
    if kind == "dataset":
        data = generate_dataset(env, 20, np.random.default_rng(2))
        write_dataset_csv(data, path)
        read = read_dataset_csv
    else:
        trace = run_episode(env, make_functional("mean"), 20, 0.1, 1.0, 2.0, seed=2)
        write_trace_csv(trace, path)
        read = read_trace_csv
    lines = path.read_text().splitlines()
    # a blank line after the header, between rows and at the end
    path.write_text("\n".join(lines[:1] + [""] + lines[1:5] + ["", ""] + lines[5:] + [""]) + "\n")
    back = read(path)
    if kind == "dataset":
        for col in ("X", "A", "y"):
            assert np.array_equal(getattr(back, col), getattr(data, col))
    else:
        _assert_trace_columns(back, trace)


def test_trace_csv_reads_back_bit_for_bit(tmp_path, capsys):
    from cdfreg.engine import dyadic_checkpoints
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    trace = run_episode(env, make_functional("mean"), 1024, 0.1, 1.0, 2.0, seed=1)
    tpath = tmp_path / "trace.csv"
    write_trace_csv(trace, tpath)
    cols = read_trace_csv(tpath)
    assert len(cols["round"]) == 1024
    _assert_trace_columns(cols, trace)
    checkpoints = dyadic_checkpoints(cols["cum_regret"])
    assert checkpoints == trace.summary["checkpoints"]
    assert fit_loglog_slope(checkpoints) == regret_slope(trace)
    spath = tmp_path / "summary.json"
    write_summary_json(trace, spath)
    capsys.readouterr()
    assert main(["fit-slope", str(tpath)]) == 0
    assert main(["fit-slope", str(spath)]) == 0
    from_csv, from_json = capsys.readouterr().out.splitlines()
    assert from_csv == from_json == "slope = %.6g" % regret_slope(trace)


def test_fit_loglog_slope_analytic():
    rounds = [2.0**k for k in range(1, 11)]
    assert fit_loglog_slope([(r, r) for r in rounds]) == pytest.approx(1.0, abs=1e-9)
    assert fit_loglog_slope([(r, np.sqrt(r)) for r in rounds]) == pytest.approx(0.5, abs=1e-9)
    assert fit_loglog_slope([(r, r ** (5.0 / 6.0)) for r in rounds]) == pytest.approx(
        0.8333, abs=1e-3)


def test_fit_loglog_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(2, 1.0), (4, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(2, 1.0), (4, 0.0), (8, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(4, 1.0), (2, 2.0), (8, 3.0)])


@pytest.mark.parametrize("bad", [
    [(2, np.nan), (4, 2.0), (8, 3.0)],
    [(2, 1.0), (4, np.inf), (8, 3.0)],
    [(2, 1.0), (np.nan, 2.0), (8, 3.0)],
    [(2, 1.0), (4, 2.0), (np.inf, 3.0)],
    [(0, 1.0), (4, 2.0), (8, 3.0)],
])
def test_fit_loglog_slope_rejects_nan_inf_and_zero(bad):
    with pytest.raises(ValueError, match="must be finite"):
        fit_loglog_slope(bad)


def test_regret_slope_skips_leading_zeros():
    class Fake:
        summary = {"checkpoints": [(2, 0.0), (4, 0.0), (8, 1.0), (16, 2.0), (32, 4.0)]}

    assert regret_slope(Fake()) == pytest.approx(1.0, abs=1e-9)


def test_regret_slope_needs_three_nonzero_checkpoints():
    class Fake:
        summary = {"checkpoints": [(2, 0.0), (4, 0.0), (8, 1.0), (16, 2.0)]}

    assert regret_slope(Fake()) is None


def test_regret_slope_rejects_nan_checkpoint():
    class Fake:
        summary = {"checkpoints": [(2, np.nan), (4, 0.0), (8, 1.0), (16, 2.0), (32, 4.0)]}

    with pytest.raises(ValueError, match="must be finite"):
        regret_slope(Fake())


def test_run_config_uses_estimated_gamma():
    cfg = ExperimentConfig(environment={"name": "finite-rank-r", "rank": 4,
                                        "theta_star": "uniform"},
                           horizon=64, gamma="estimate", exploration_scale=100.0)
    trace = run_config(cfg, seed=0)
    assert trace.summary["gamma_source"] == "estimate"
    assert 0.0 < trace.summary["gamma"] <= 1.0


# parameters for the catalog entries that need them
FUNCTIONAL_PARAMS = {
    "smoothed_quantile": {"q": 0.9},
    # one loss per outcome node, so s_nodes entries
    "expected_penalty": {"loss_row": [float(s > 0.5) for s in
                                      build_cdf_grid(ExperimentConfig().s_nodes).nodes]},
}


@pytest.mark.parametrize("functional", sorted(FUNCTIONAL_CATALOG))
@pytest.mark.parametrize("basis", sorted(BASIS_CATALOG))
def test_every_catalog_functional_runs_through_a_config(tmp_path, basis, functional):
    cfg = ExperimentConfig(environment={"name": basis},
                           functional={"name": functional, **FUNCTIONAL_PARAMS.get(functional, {})},
                           horizon=64, gamma="estimate")
    path = tmp_path / "config.json"
    cfg.save(path)
    back = ExperimentConfig.load(path)
    assert back == cfg
    trace = run_config(back, seed=0)
    assert len(trace.records) == 64
    assert trace.summary["oracle_calls"] > 0
    assert trace.summary["nonconverged_projections"] == 0


def test_sweep_needs_five_seeds():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    with pytest.raises(ValueError):
        sweep_regression_error(env, (16,), (0, 1), 0.1, 2.0)


def test_cli_eig_named_kernel(capsys):
    assert main(["eig", "--kernel", "min", "--n", "32", "--r", "4", "--top", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    lam1 = float(lines[0].split("=")[1])
    assert lam1 == pytest.approx(1.0 / (0.25 * np.pi**2), rel=1e-3)


def test_cli_eig_takes_only_named_kernels(tmp_path):
    cpath = tmp_path / "config.json"
    ExperimentConfig().save(cpath)
    for argv in (["eig"], ["eig", "--config", str(cpath)],
                 ["eig", "--kernel", "min", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("top", ["0", "-3"])
def test_cli_eig_rejects_top_below_one(capsys, top):
    # --top 0 printed nothing and -3 dropped the last three eigenvalues
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--kernel", "min", "--top", top])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--top must be an integer >= 1, not %s" % top in captured.err


@pytest.mark.parametrize("environment", [{"name": "finite-rank-r", "rank": 8},
                                         {"name": "kumaraswamy"}])
@pytest.mark.parametrize("seed", [0, 3])
def test_cli_decay_one_pair_prints_its_spectrum(tmp_path, capsys, environment, seed):
    from cdfreg import design_operator, sample_context
    from cdfreg.numerics import quadrature_eigvals
    from cdfreg.operators import TAU_FLOOR
    cfg = ExperimentConfig(environment=environment)
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    capsys.readouterr()
    assert main(["decay", "--config", str(cpath), "--pairs", "1",
                 "--seed", str(seed)]) == 0
    tau_line = capsys.readouterr().out.splitlines()[2]
    env = build_environment(cfg)
    rng = np.random.default_rng(seed)
    pair = (sample_context(env, rng), int(rng.integers(env.action_count)))
    op = design_operator(env.basis, [pair], env.omega_grid, env.s_grid)
    # the pair's whole spectrum, one entry per Omega node, those below the
    # floor printed as 0
    top = quadrature_eigvals(op.kernel_matrix, env.omega_grid)
    top[top < TAU_FLOOR * top[0]] = 0.0
    assert tau_line == "tau = " + " ".join("%.10g" % lam for lam in top)


@pytest.mark.parametrize("seed", [0, 3])
def test_cli_decay_prints_the_estimated_gamma(tmp_path, capsys, seed):
    cfg = ExperimentConfig(environment={"name": "finite-rank-r", "rank": 8},
                           gamma="estimate")
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    capsys.readouterr()
    assert main(["decay", "--config", str(cpath), "--seed", str(seed)]) == 0
    gamma_line, s0_line = capsys.readouterr().out.splitlines()[:2]
    gamma, s0, source = resolve_gamma(cfg, build_environment(cfg), seed=seed)
    assert source == "estimate"
    assert (gamma_line, s0_line) == ("gamma = %.2f" % gamma, "s0 = %.6g" % s0)


def test_eigendecay_prepass_draws_context_then_action_per_pair(monkeypatch):
    # the pre-pass draws through harness's own sample_context binding (the
    # one the benchmark tracer wraps) and leaves its generator where the
    # per-pair reference leaves its own
    from cdfreg import estimate_eigendecay, harness, sample_context
    used = []

    def spy(env, rng):
        used.append(rng)
        return sample_context(env, rng)

    monkeypatch.setattr(harness, "sample_context", spy)
    for name, params in (("kumaraswamy", {"theta_star": "bumps"}), ("finite-rank-r", {"rank": 8})):
        env = make_catalog_env(name, OMEGA, S, **params)
        for seed in (0, 5):
            used.clear()
            fit = harness.eigendecay_prepass(env, seed)
            ref_rng = np.random.default_rng(seed)
            X, A = zip(*[(sample_context(env, ref_rng), int(ref_rng.integers(env.action_count)))
                         for _ in range(harness.DECAY_PAIRS)])
            ref = estimate_eigendecay(env.basis, np.array(X), np.array(A), OMEGA, S)
            assert np.array_equal(fit.tau, ref.tau)
            assert (fit.gamma, fit.s0) == (ref.gamma, ref.s0)
            assert len(used) == harness.DECAY_PAIRS and len({id(r) for r in used}) == 1
            assert used[0].bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_cli_decay_refuses_fewer_than_one_pair(tmp_path, capsys, pairs):
    cpath = tmp_path / "config.json"
    ExperimentConfig().save(cpath)
    assert main(["decay", "--config", str(cpath), "--pairs", pairs]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_pairs must be an integer >= 1, not %s" % pairs in captured.err


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["decay", "--config", "/nonexistent/config.json"]) == 4
    assert main(["run", "--config", "/nonexistent/config.json"]) == 4
    assert main(["fit-slope", "/nonexistent/summary.json"]) == 4
    assert main(["fit-slope", "/nonexistent/trace.csv"]) == 4
    cpath = tmp_path / "config.json"
    ExperimentConfig().save(cpath)
    assert main(["regress", "--config", str(cpath),
                 "--dataset", "/nonexistent/data.csv"]) == 4


def test_config_rejects_empty_seeds(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"seeds": [], "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cpath)]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", [
    {"name": "finite-rank-r", "rank": 0},
    {"name": "finite-rank-r", "rank": -3},
    {"name": "finite-rank-r", "rank": 2.5},
    {"name": "kumaraswamy", "context_dim": 0},
])
def test_cli_run_rejects_bad_catalog_parameters(tmp_path, capsys, params):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"environment": params, "horizon": 8,
                                 "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cpath)]) == 3
    (name, value), = [(k, v) for k, v in params.items() if k != "name"]
    err = capsys.readouterr().err
    assert err.startswith("contract violation: %s must be an integer" % name), err
    assert err.endswith(", not %r\n" % (value,)), err
    assert not (tmp_path / "out" / "trace_seed0.csv").exists()


@pytest.mark.parametrize("params", [
    {"name": "smoothed_quantile", "q": 0.5, "h": 0},
    {"name": "smoothed_quantile", "q": 0.5, "h": -0.1},
    {"name": "smoothed_quantile", "q": 0.5, "h": float("inf")},
    {"name": "smoothed_quantile", "q": 0.5, "h": float("nan")},
    {"name": "smoothed_quantile", "q": 1.5},
    {"name": "smoothed_quantile", "q": 0},
    {"name": "smoothed_quantile", "q": float("nan")},
    {"name": "expected_penalty", "loss_row": []},
    {"name": "expected_penalty", "loss_row": [[1.0, 2.0]]},
    {"name": "expected_penalty", "loss_row": [1.0, float("nan")]},
    {"name": "expected_penalty", "loss_row": [1.0, float("inf")]},
])
def test_cli_run_rejects_bad_functional_parameters(tmp_path, capsys, params):
    # refused when the entry is built: h = 0 and an empty loss_row used to
    # raise ZeroDivisionError there, and q = 1.5 was refused only at the
    # first evaluation, after the pre-pass
    with pytest.raises(ValueError):
        make_functional(**params)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"functional": params, "horizon": 8,
                                 "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cpath)]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NOT_A_NAMED_DICT = [
    {"environment": "kumaraswamy"},
    {"environment": ["name"]},
    {"environment": {"rank": 8}},
    {"functional": "mean"},
    # a name that is not a string used to end in "unhashable type"
    {"environment": {"name": ["x"]}},
    {"functional": {"name": {"a": 1}}},
]

# each used to end in an error naming no field: seeds 5 in "'int' object is
# not iterable" (exit 2), seeds "01" and sweep_n "abc" read character by
# character (exit 3)
NOT_A_LIST_OR_STRING = [{"seeds": 5}, {"seeds": "01"}, {"sweep_n": "abc"}, {"output_dir": 5}]


@pytest.mark.parametrize("setting", NOT_A_NAMED_DICT)
def test_config_refuses_an_entry_that_is_not_a_named_dict(setting):
    (name, _value), = setting.items()
    with pytest.raises(TypeError, match="^%s must be a dict with a \"name\" key" % name):
        ExperimentConfig(**setting)


@pytest.mark.parametrize("setting", NOT_A_LIST_OR_STRING)
def test_config_refuses_a_sequence_or_directory_of_the_wrong_type(tmp_path, capsys, setting):
    (name, _value), = setting.items()
    with pytest.raises(TypeError, match="^%s must be a (list|string), not " % name):
        ExperimentConfig(**setting)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict({"horizon": 8, "output_dir": str(tmp_path / "out")},
                                     **setting)))
    assert main(["run", "--config", str(cpath)]) == 2
    assert "malformed config or input: %s must be" % name in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("make, message", [
    (lambda: make_catalog_env("kumaraswamy", OMEGA, S, rank=3),
     "catalog environment 'kumaraswamy': got an unexpected keyword argument 'rank'"),
    (lambda: make_functional("mean", q=0.5),
     "functional 'mean': got an unexpected keyword argument 'q'"),
    (lambda: make_functional("expected_penalty"),
     "functional 'expected_penalty': missing a required argument: 'loss_row'"),
])
def test_catalog_entries_name_themselves_when_refusing_a_parameter(make, message):
    # the refusal used to read "<lambda>() got an unexpected keyword argument"
    with pytest.raises(TypeError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("config", [
    # a parameter the catalog entry does not take
    {"environment": {"name": "kumaraswamy", "rank": 8}},
    # omega_dim is no longer a config field: Omega is always 1-d
    {"omega_dim": 1},
    # a string or list used to pass the config and end in a dict() error
    # naming no field, with exit 3
    *NOT_A_NAMED_DICT,
])
def test_cli_run_refuses_unknown_settings_as_malformed(tmp_path, capsys, config):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(config, horizon=8, output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(cpath)]) == 2
    assert "malformed config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma", ["abc", "", "estimat", "0.5", 0, -0.1, 1.5, float("nan"),
                                   True])
def test_config_rejects_bad_gamma(tmp_path, gamma):
    # the config file is where gamma is set, so its rule is checked at load
    with pytest.raises(ValueError, match="gamma must be"):
        ExperimentConfig(gamma=gamma)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"gamma": gamma, "output_dir": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match="gamma must be"):
        ExperimentConfig.load(cpath)
    assert main(["run", "--config", str(cpath)]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [64.0, 2.5, True, 1, 0, -8, "64", None])
def test_config_rejects_bad_horizon(tmp_path, capsys, horizon):
    # a float horizon used to reach run_episode and crash in bit_length
    with pytest.raises(ValueError, match="horizon must be"):
        ExperimentConfig(horizon=horizon)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"horizon": horizon, "output_dir": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match="horizon must be"):
        ExperimentConfig.load(cpath)
    assert main(["run", "--config", str(cpath)]) == 3
    assert "horizon must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("M", [float("nan"), float("inf"), float("-inf"), 0.5, 0, "2",
                               True, None])
def test_config_rejects_bad_M(tmp_path, capsys, M):
    # a NaN M used to end regress in a ZeroDivisionError, and an infinite one
    # to write a theta_hat; both are refused at load
    with pytest.raises(ValueError, match="M must be"):
        ExperimentConfig(M=M)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"M": M, "horizon": 8, "output_dir": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match="M must be"):
        ExperimentConfig.load(cpath)
    dpath = tmp_path / "data.csv"
    write_dataset_csv(generate_dataset(build_environment(ExperimentConfig()), 16,
                                       np.random.default_rng(0)), dpath)
    for argv in (["regress", "--config", str(cpath), "--dataset", str(dpath)],
                 ["run", "--config", str(cpath)]):
        assert main(argv) == 3
        assert "M must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("M", [1, 1.0, 2.0, 1e6])
def test_config_accepts_finite_M_of_at_least_one(M):
    assert ExperimentConfig(M=M).M == M


@pytest.mark.parametrize("gamma", ["estimate", 1e-9, 0.5, 1, 1.0])
def test_config_accepts_estimate_or_gamma_in_unit_interval(gamma):
    assert ExperimentConfig(gamma=gamma).gamma == gamma


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_run_and_sweep_take_only_a_config(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: cdfreg %s [-h] --config CONFIG\n" % command)
    cpath = tmp_path / "config.json"
    ExperimentConfig().save(cpath)
    for flag, value in (("--gamma", "0.5"), ("--horizon", "8"), ("--seeds", "1"),
                        ("--output-dir", str(tmp_path / "out"))):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cpath), flag, value])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_failed_run_writes_nothing(tmp_path, capsys):
    # bumps has norm above 1.1, so check_norm_bound refuses the first episode
    cfg = ExperimentConfig(environment={"name": "kumaraswamy", "theta_star": "bumps"},
                           horizon=8, M=1.1, output_dir=str(tmp_path / "out"))
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    assert main(["run", "--config", str(cpath)]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_and_fit_slope(tmp_path, capsys):
    cfg = ExperimentConfig(environment={"name": "finite-rank-r", "rank": 4,
                                        "theta_star": "uniform"},
                           horizon=64, gamma=0.1, exploration_scale=100.0,
                           seeds=(0,), output_dir=str(tmp_path / "out"))
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    assert main(["run", "--config", str(cpath)]) == 0
    trace_path = tmp_path / "out" / "trace_seed0.csv"
    summary_path = tmp_path / "out" / "summary_seed0.json"
    assert trace_path.exists() and summary_path.exists()
    capsys.readouterr()
    assert main(["fit-slope", str(summary_path)]) == 0
    assert "slope" in capsys.readouterr().out


def test_cli_fit_slope_synthetic_five_sixths(tmp_path, capsys):
    summary = {"checkpoints": [[2**k, float(2**k) ** (5.0 / 6.0)]
                               for k in range(1, 11)]}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert main(["fit-slope", str(path)]) == 0
    slope = float(capsys.readouterr().out.split("=")[1])
    assert slope == pytest.approx(5.0 / 6.0, abs=1e-3)


@pytest.mark.parametrize("first", [float("nan"), -1.0])
def test_cli_fit_slope_rejects_nan_or_negative_checkpoint(tmp_path, first):
    summary = {"checkpoints": [[2, first]] + [[2**k, float(2**k)] for k in range(2, 11)]}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert main(["fit-slope", str(path)]) == 3


@pytest.mark.parametrize("point", [[4, "x"], [4, 1.0, 2.0], [True, 4.0], [4, True], 5],
                         ids=["string-value", "triple", "true-round", "true-value", "not-a-list"])
def test_cli_fit_slope_refuses_a_checkpoint_that_is_not_a_pair_of_numbers(tmp_path, capsys,
                                                                           point):
    # a string value and a triple used to exit 3 as a contract violation, a
    # JSON true was read as 1 and fitted with exit 0, and checkpoints that
    # are not a list were refused without naming the file
    tail = [[2**k, float(2**k)] for k in range(3, 11)]
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"checkpoints": point if point == 5 else [point] + tail}))
    assert main(["fit-slope", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed config or input: %s: checkpoint %r"
                                   % (path, point)), captured.err


def test_cli_sweep_rejects_zero_heldout_pairs(tmp_path):
    # refused at load, before any regression has run
    cfg = ExperimentConfig(gamma=0.1, seeds=(0, 1, 2, 3, 4), sweep_n=(16,),
                           output_dir=str(tmp_path / "out")).to_dict()
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(cfg, heldout_pairs=0)))
    assert main(["sweep", "--config", str(cpath)]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    {"sweep_n": [16, 64.5]}, {"sweep_n": [16, -5]}, {"sweep_n": [0]}, {"sweep_n": [16, True]},
    {"sweep_n": ["16"]}, {"heldout_pairs": 0}, {"heldout_pairs": -2}, {"heldout_pairs": 8.0},
    {"heldout_pairs": True},
], ids=["n-64.5", "n-minus-5", "n-0", "n-true", "n-string", "pairs-0", "pairs-minus-2",
        "pairs-8.0", "pairs-true"])
def test_config_refuses_bad_sweep_sizes(tmp_path, capsys, setting):
    # each used to fail only mid-sweep, some after a size had already run
    (name, value), = setting.items()
    refused = value[-1] if name == "sweep_n" else value
    with pytest.raises(ValueError, match=r"^(sweep_n\[\d\]|heldout_pairs) must be an integer "
                       r">= 1, not %s$" % re.escape(repr(refused))):
        ExperimentConfig(**{k: tuple(v) if k == "sweep_n" else v for k, v in setting.items()})
    cfg = ExperimentConfig(gamma=0.1, seeds=(0, 1, 2, 3, 4), sweep_n=(16,),
                           output_dir=str(tmp_path / "out")).to_dict()
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(cfg, **setting)))
    assert main(["sweep", "--config", str(cpath)]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep_n, heldout_pairs", [((), 1), ((1, 4096), 64)])
def test_config_accepts_positive_integer_sweep_sizes(sweep_n, heldout_pairs):
    cfg = ExperimentConfig(sweep_n=sweep_n, heldout_pairs=heldout_pairs)
    assert (cfg.sweep_n, cfg.heldout_pairs) == (sweep_n, heldout_pairs)


def test_cli_regress_and_sweep(tmp_path, capsys):
    cfg = ExperimentConfig(environment={"name": "kumaraswamy", "theta_star": "bumps"},
                           gamma=0.1, seeds=(0, 1, 2, 3, 4), sweep_n=(16, 32),
                           heldout_pairs=8, output_dir=str(tmp_path / "out"))
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    env = build_environment(cfg)
    data = generate_dataset(env, 32, np.random.default_rng(0))
    dpath = tmp_path / "data.csv"
    write_dataset_csv(data, dpath)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == 0
    with open(tmp_path / "out" / "theta_hat.csv", newline="") as fh:
        theta_rows = list(csv.DictReader(fh))
    assert list(theta_rows[0]) == ["w0", "theta"]
    theta_hat = regress(data, env.basis, 0.1, cfg.M, env.omega_grid, env.s_grid).theta_hat
    assert np.array_equal([float(r["w0"]) for r in theta_rows], env.omega_grid.nodes)
    assert np.array_equal([float(r["theta"]) for r in theta_rows], theta_hat.values)
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert list(diag) == [f.name for f in dataclasses.fields(Diagnostics)]
    assert diag["n_eps"] >= 1
    assert diag["converged"] is True
    assert 0.0 <= diag["projection_residual"] <= KKT_TOLERANCE
    capsys.readouterr()
    assert main(["sweep", "--config", str(cpath)]) == 0
    sweep_rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert sweep_rows[0] == "n,median,q1,q3"
    assert len(sweep_rows) == 3
    expected = sweep_regression_error(env, cfg.sweep_n, cfg.seeds, 0.1, cfg.M,
                                      cfg.heldout_pairs)
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        for row, want in zip(csv.DictReader(fh), expected):
            assert int(row["n"]) == want["n"]
            assert [float(row[k]) for k in ("median", "q1", "q3")] == [
                want["median"], want["q1"], want["q3"]]


def _regress_dataset_files(tmp_path):
    """A default config (kumaraswamy, K = 5, d = 2) and 64 generated
    records, as a config path, the dataset and its environment."""
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
    cpath = tmp_path / "config.json"
    cfg.save(cpath)
    env = build_environment(cfg)
    return cpath, generate_dataset(env, 64, np.random.default_rng(0)), env


@pytest.mark.parametrize("mutate", [
    lambda data: Dataset(data.X, np.r_[9, data.A[1:]], data.y),
    lambda data: Dataset(data.X, np.r_[-3, data.A[1:]], data.y),
    lambda data: Dataset(data.X[:, :1], data.A, data.y),
], ids=["action-9", "action-minus-3", "one-context-column"])
def test_cli_regress_refuses_records_the_environment_cannot_produce(tmp_path, capsys, mutate):
    cpath, data, env = _regress_dataset_files(tmp_path)
    assert (env.action_count, env.context_dim) == (5, 2)
    dpath = tmp_path / "data.csv"
    write_dataset_csv(mutate(data), dpath)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == 3
    assert "contract violation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, value, code", [
    ("y", "abc", 2), ("action", "1.5", 2), ("y", "nan", 3)])
def test_cli_regress_exit_code_of_a_bad_number(tmp_path, capsys, column, value, code):
    # an unparsable field is malformed input (exit 2); NaN parses, and the
    # oracle refuses it as out of range (exit 3)
    cpath, data, _env = _regress_dataset_files(tmp_path)
    dpath = tmp_path / "data.csv"
    write_dataset_csv(data, dpath)
    with open(dpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[5][column] = value
    with open(dpath, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == code
    err = capsys.readouterr().err
    assert err.startswith("malformed config or input" if code == 2 else "contract violation")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "round,x0,xa,action,y\n",
    "round,x0,xa,action,y\n1,0.1,0.2,1,0.5\n",
    "round,x0,x0,action,y\n1,0.1,0.2,1,0.5\n",
    "round,x0,x2,action,y\n1,0.1,0.2,1,0.5\n",
    "round,x0,x1,y\n",
    "round,x0,x1,action\n",
    "",
], ids=["xa-header-only", "xa", "x0-twice", "x0-x2", "no-action", "no-y", "empty"])
def test_cli_regress_exit_code_of_a_bad_header(tmp_path, capsys, text):
    # the header is checked once, before any row: these used to exit 3
    # ("dataset must be nonempty", a failed reshape, or an int() of "a" on
    # a header-only file), 2 only once a row was read, or 0 with x0,x2
    # taken for a 2-d context
    cpath, _data, _env = _regress_dataset_files(tmp_path)
    dpath = tmp_path / "data.csv"
    dpath.write_text(text)
    with pytest.raises(csv.Error, match=r"data\.csv line 1: header"):
        read_dataset_csv(dpath)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed config or input") and "line 1" in err
    assert not (tmp_path / "out").exists()


def test_cli_fit_slope_refuses_a_trace_without_cum_regret(tmp_path, capsys):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    path = tmp_path / "trace.csv"
    write_trace_csv(run_episode(env, make_functional("mean"), 32, 0.1, 1.0, 2.0, seed=0), path)
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in path.read_text().splitlines()))
    with pytest.raises(csv.Error, match=r"trace\.csv line 1: header"):
        read_trace_csv(path)
    assert main(["fit-slope", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed config or input") and "line 1" in err


def test_cli_fit_slope_unparsable_trace_number_is_malformed_input(tmp_path, capsys):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    trace = run_episode(env, make_functional("mean"), 32, 0.1, 1.0, 2.0, seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    head, row = lines[0].split(","), lines[3].split(",")
    row[head.index("cum_regret")] = "abc"
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit-slope", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed config or input")


def _set_field(path, line, column, value):
    """Rewrite ``path`` with ``column`` of its ``line``-th line (1-based)
    set to ``value``."""
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", ["dataset", "trace"])
def test_cli_an_int_field_beyond_int64_is_malformed_input(tmp_path, capsys, kind):
    # int() parses it, and it used to reach np.array(..., dtype=int) and end
    # in an OverflowError traceback (exit 1)
    cpath, data, env = _regress_dataset_files(tmp_path)
    path = tmp_path / (kind + ".csv")
    if kind == "dataset":
        write_dataset_csv(data, path)
        column, reader = "action", read_dataset_csv
        argv = ["regress", "--config", str(cpath), "--dataset", str(path)]
    else:
        write_trace_csv(run_episode(env, make_functional("mean"), 32, 0.1, 1.0, 2.0, seed=0),
                        path)
        column, reader, argv = "round", read_trace_csv, ["fit-slope", str(path)]
    _set_field(path, 4, column, "99999999999999999999")
    with pytest.raises(csv.Error, match=r"%s\.csv line 4: %s = 99999999999999999999 lies "
                       "outside the int64 range" % (kind, column)):
        reader(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed config or input") and "line 4" in err
    assert not (tmp_path / "out").exists()


def _append_field(path, line):
    """Rewrite ``path`` with one more field on its ``line``-th line (1-based)."""
    lines = path.read_text().splitlines()
    lines[line - 1] += ",9"
    path.write_text("\n".join(lines) + "\n")


def test_read_dataset_csv_refuses_a_row_with_extra_fields(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("round,x0,x1,action,y\n1,0.1,0.2,1,0.5\n2,0.3,0.4,0,0.25,9\n")
    with pytest.raises(csv.Error, match=r"data\.csv line 3: 1 field\(s\) more than the header"):
        read_dataset_csv(path)
    path.write_text("round,x0,x1,action,y\n1,0.1,0.2,1\n")
    with pytest.raises(csv.Error, match=r"data\.csv line 2: fewer fields than the header"):
        read_dataset_csv(path)


def test_read_trace_csv_refuses_a_row_with_extra_fields(tmp_path):
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    path = tmp_path / "trace.csv"
    write_trace_csv(run_episode(env, make_functional("mean"), 8, 0.1, 1.0, 2.0, seed=0), path)
    _append_field(path, 4)
    with pytest.raises(csv.Error, match=r"trace\.csv line 4: 1 field\(s\) more than the header"):
        read_trace_csv(path)


@pytest.mark.parametrize("order", ["thinned", "shuffled"])
def test_cli_fit_slope_refuses_rounds_out_of_order(tmp_path, capsys, order):
    # dyadic_checkpoints reads cum_regret by row position: this trace's
    # slope is 1.338, and its thinned and shuffled copies used to give
    # 1.128 and 0.150
    path = tmp_path / "trace.csv"
    write_trace_csv(run_config(ExperimentConfig(horizon=64), 0), path)
    header, *rows = path.read_text().splitlines()
    if order == "thinned":
        rows = rows[1::2]
    else:
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(csv.Error, match=r"trace\.csv: round \d+ stands where round \d+ "
                       r"belongs; a trace holds rounds 1\.\.T in file order"):
        read_trace_csv(path)
    assert main(["fit-slope", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed config or input")


def test_cli_regress_exits_2_on_a_row_with_extra_fields(tmp_path, capsys):
    cpath, data, _env = _regress_dataset_files(tmp_path)
    dpath = tmp_path / "data.csv"
    write_dataset_csv(data, dpath)
    _append_field(dpath, 6)
    assert main(["regress", "--config", str(cpath), "--dataset", str(dpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed config or input") and "line 6" in err
    assert not (tmp_path / "out").exists()


def test_package_reads_and_writes_records_as_columns_only(tmp_path, capsys, monkeypatch):
    # the tuple views stay for outside callers; every command and the CSV
    # round trip run with them raising
    from cdfreg import RegretTrace

    def tuple_view(*_args):
        raise AssertionError("a tuple view of the records was read")

    monkeypatch.setattr(RegretTrace, "records", property(tuple_view))
    monkeypatch.setattr(Dataset, "__iter__", tuple_view)
    cfg = ExperimentConfig(horizon=64, gamma="estimate", seeds=(0, 1, 2, 3, 4),
                           sweep_n=(16, 32), heldout_pairs=8, output_dir=str(tmp_path / "out"))
    cpath, dpath = tmp_path / "config.json", tmp_path / "data.csv"
    cfg.save(cpath)
    data = generate_dataset(build_environment(cfg), 64, np.random.default_rng(0))
    write_dataset_csv(data, dpath)
    back = read_dataset_csv(dpath)
    for got, want in ((back.X, data.X), (back.A, data.A), (back.y, data.y)):
        assert np.array_equal(got, want)
    for argv in (["decay", "--config", str(cpath)], ["run", "--config", str(cpath)],
                 ["regress", "--config", str(cpath), "--dataset", str(dpath)],
                 ["sweep", "--config", str(cpath)],
                 ["fit-slope", str(tmp_path / "out" / "trace_seed0.csv")],
                 ["fit-slope", str(tmp_path / "out" / "summary_seed0.json")]):
        assert main(argv) == 0, argv
    from_csv, from_json = capsys.readouterr().out.splitlines()[-2:]
    assert from_csv == from_json
