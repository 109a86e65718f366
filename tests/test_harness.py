"""Experiment configs, dataset/trace round-trips, slope fitting, and the
command-line front end."""

import json

import numpy as np
import pytest

from cdfreg import (
    ExperimentConfig,
    build_cdf_grid,
    build_uniform_grid,
    fit_loglog_slope,
    make_catalog_env,
    make_functional,
    regret_slope,
    run_episode,
)
from cdfreg.cli import main
from cdfreg.harness import (
    build_environment,
    build_functional,
    generate_dataset,
    read_dataset_csv,
    read_trace_csv,
    run_config,
    write_dataset_csv,
    write_summary_json,
    write_trace_csv,
)
from cdfreg.regression import KKT_TOLERANCE

OMEGA = build_uniform_grid(1, 32)
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


def test_dataset_csv_round_trip_keeps_context_order(tmp_path):
    rng = np.random.default_rng(12)
    data = [(rng.random(12), int(rng.integers(5)), float(rng.random())) for _ in range(4)]
    path = tmp_path / "data12.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    for (x, _, _), (x2, _, _) in zip(data, back):
        assert np.allclose(x, x2)


def test_trace_round_trip_and_summary(tmp_path):
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=4, theta_star="uniform")
    trace = run_episode(env, make_functional("mean"), 64, 0.1, 0.1, 2.0, seed=3)
    tpath = tmp_path / "trace.csv"
    write_trace_csv(trace, tpath)
    rows = read_trace_csv(tpath)
    assert len(rows) == 64
    assert rows[-1]["cum_regret"] == pytest.approx(trace.summary["final_regret"])
    spath = tmp_path / "summary.json"
    write_summary_json(trace, spath, wall_time=1.0)
    summary = json.loads(spath.read_text())
    assert summary["T"] == 64
    assert summary["oracle_calls"] <= 7


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


def test_regret_slope_skips_leading_zeros():
    class Fake:
        summary = {"checkpoints": [(2, 0.0), (4, 0.0), (8, 1.0), (16, 2.0), (32, 4.0)]}

        def checkpoints(self):
            return self.summary["checkpoints"]

    assert regret_slope(Fake()) == pytest.approx(1.0, abs=1e-9)


def test_run_config_uses_estimated_gamma():
    cfg = ExperimentConfig(environment={"name": "finite-rank-r", "rank": 4,
                                        "theta_star": "uniform"},
                           horizon=64, gamma="estimate", exploration_scale=100.0)
    trace = run_config(cfg, seed=0)
    assert trace.summary["gamma_source"] == "estimate"
    assert 0.0 < trace.summary["gamma"] <= 1.0


def test_sweep_needs_five_seeds():
    from cdfreg import sweep_regression_error
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


def test_cli_missing_config_exit_code():
    assert main(["decay", "--config", "/nonexistent/config.json"]) == 4


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
    assert (tmp_path / "out" / "theta_hat.csv").exists()
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["n_eps"] >= 1
    assert diag["converged"] is True
    assert 0.0 <= diag["projection_residual"] <= KKT_TOLERANCE
    capsys.readouterr()
    assert main(["sweep", "--config", str(cpath)]) == 0
    sweep_rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert sweep_rows[0] == "n,median,q1,q3"
    assert len(sweep_rows) == 3
