"""Catalog environments: basis contracts, ground-truth CDFs, and outcome
sampling."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from cdfreg import (
    GridFunction,
    basis_values,
    build_cdf_grid,
    build_uniform_grid,
    design_operator,
    draw_outcomes,
    inverse_cdf,
    make_catalog_env,
    sample_context,
    sample_outcomes,
    spectral_decompose,
    true_cdf,
)
from cdfreg.environments import (BASIS_CATALOG, Environment, _finite_rank_eval, _kumaraswamy_eval,
                                 check_norm_bound)
from cdfreg.numerics import MAX_GRID_NODES

OMEGA = build_uniform_grid(32)
S = build_cdf_grid(64)


def test_rank1_true_cdf_is_identity():
    env = make_catalog_env("rank1-uniform", OMEGA, S)
    f = true_cdf(env, np.array([0.4, 0.8]), 3)
    assert np.allclose(f.values, S.nodes, atol=1e-12)


def test_environment_omega_grid_is_theta_stars_grid():
    # the Omega grid used to be a second field that had to match theta*'s
    # nodes; it is theta*'s grid, so the two cannot disagree
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    assert env.omega_grid is env.theta_star.grid is OMEGA
    assert "omega_grid" not in {f.name for f in dataclasses.fields(Environment)}
    with pytest.raises(AttributeError):
        env.omega_grid = S
    other = build_cdf_grid(OMEGA.size)
    moved = Environment(env.basis, GridFunction(other, np.ones(other.size)), S,
                        env.context_dim, env.action_count)
    assert moved.omega_grid is other
    assert dataclasses.replace(env, basis=env.basis).omega_grid is OMEGA


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        make_catalog_env("no-such-world", OMEGA, S)
    with pytest.raises(ValueError):
        make_catalog_env("kumaraswamy", OMEGA, S, theta_star="spikes")


@pytest.mark.parametrize("params", [
    {"rank": 0}, {"rank": -3}, {"rank": 2.5}, {"rank": True},
    {"context_dim": 0}, {"action_count": 0},
])
def test_bad_catalog_parameters_rejected(params):
    (name, value), = params.items()
    with pytest.raises(ValueError, match=r"^%s must be an integer .*, not %s$"
                       % (name, re.escape(repr(value)))):
        make_catalog_env("finite-rank-r", OMEGA, S, **params)


@pytest.mark.parametrize("name, params", [
    ("kumaraswamy", {"rank": 8}), ("rank1-uniform", {"rank": 2}),
    ("finite-rank-r", {"width": 0.1}),
])
def test_catalog_entry_refuses_parameters_it_does_not_take(name, params):
    with pytest.raises(TypeError):
        make_catalog_env(name, OMEGA, S, **params)


def test_catalog_rank_accepts_numpy_integer():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=np.int64(4))
    assert env.basis.name == "finite-rank-4"


def test_catalog_rank_stops_at_the_node_limit():
    # no grid resolves more slabs than MAX_GRID_NODES; rank 10**30 used to
    # warn on the cast to int, then end in an OverflowError
    assert make_catalog_env("finite-rank-r", OMEGA, S, rank=MAX_GRID_NODES).basis.name == (
        "finite-rank-%d" % MAX_GRID_NODES)
    for rank in (MAX_GRID_NODES + 1, 10**30):
        with pytest.raises(ValueError, match=r"^rank must be an integer in \[1, %d\], not %d$"
                           % (MAX_GRID_NODES, rank)):
            make_catalog_env("finite-rank-r", OMEGA, S, rank=rank)


def test_theta_star_bumps_in_C():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    th = env.theta_star
    assert np.min(th.values) >= 0.0
    assert th.integral() == pytest.approx(1.0, abs=1e-9)
    check_norm_bound(env, 2.0)


def test_finite_rank_spectrum_bounded_by_rank():
    env = make_catalog_env("finite-rank-r", OMEGA, S, rank=8)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, a = rng.random(2), int(rng.integers(5))
        spec = spectral_decompose(design_operator(env.basis, [(x, a)], OMEGA, S))
        assert int(np.sum(spec.eigenvalues > 1e-10)) <= 8


def test_true_cdf_valid_for_all_catalog_envs():
    rng = np.random.default_rng(6)
    for name in BASIS_CATALOG:
        env = make_catalog_env(name, OMEGA, S, theta_star="bumps")
        for _ in range(10):
            f = true_cdf(env, sample_context(env, rng), int(rng.integers(5)))
            assert np.all(np.diff(f.values) >= -1e-12)
            assert np.all((f.values >= -1e-12) & (f.values <= 1.0 + 1e-12))
            assert f.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_basis_kernel_floor_spot_check():
    rng = np.random.default_rng(10)
    from cdfreg import point_kernel
    for name in BASIS_CATALOG:
        env = make_catalog_env(name, OMEGA, S)
        for _ in range(20):
            k = point_kernel(env.basis, sample_context(env, rng),
                             int(rng.integers(5)), OMEGA, S)
            assert np.min(k) >= env.basis.kernel_floor_eta - 1e-12
            assert np.max(k) <= 1.0 + 1e-9


def test_sample_outcome_uniform_inversion():
    env = make_catalog_env("rank1-uniform", OMEGA, S)

    class FixedRng:
        def random(self, size=None):
            return np.full(size, 0.3) if size else 0.3

    y = sample_outcomes(env, np.array([0.5, 0.5]), 0, 3, FixedRng())
    # smallest node with F(s) = s >= 0.3 on the 64-point right grid
    assert np.allclose(y, np.ceil(0.3 * 64) / 64)


def test_inverse_cdf_is_clamped_left_searchsorted():
    from cdfreg import inverse_cdf
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    F = true_cdf(env, np.array([0.3, 0.6]), 2).values
    u = np.array([0.0, F[10], 0.5, 0.999, 1.0])
    expected = S.nodes[np.minimum(np.searchsorted(F, u, side="left"), S.size - 1)]
    assert np.array_equal(inverse_cdf(F, u, S.nodes), expected)
    assert inverse_cdf(F, F[10], S.nodes) == S.nodes[10]
    # uniforms beyond the last CDF value clamp to the last node
    assert inverse_cdf(np.full(S.size, 0.5), 0.9, S.nodes) == S.nodes[-1]


def test_inverse_cdf_rows_equal_per_row_calls():
    from cdfreg import inverse_cdf
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(7)
    F = np.array([[true_cdf(env, rng.random(2), a).values for a in range(5)]
                  for _ in range(3)])
    F[0, 0] = 0.5  # a flat row: uniforms above it clamp to the last node
    u = rng.random((3, 5))
    u[1, 2] = F[1, 2, 10]  # a tie with a node's CDF value
    u[2, 4] = 0.0
    rows = inverse_cdf(F, u, S.nodes)
    assert rows.shape == (3, 5)
    for i in range(3):
        for a in range(5):
            assert rows[i, a] == inverse_cdf(F[i, a], u[i, a], S.nodes)


@pytest.mark.parametrize("name", sorted(BASIS_CATALOG))
def test_draw_outcomes_equals_full_rows_at_ties(name):
    # uniforms on, one ulp either side of, and just above F values of the
    # full rows: each record lies within 4 n_w eps of an examined node, so
    # all of them are drawn again from full rows, and the draws equal
    # inverse_cdf on the full rows
    full = []
    env = make_catalog_env(name, OMEGA, S)
    inner = env.basis.eval_matrix

    def counting(X, A, omega_nodes, s):
        if s.shape[0] == S.size:
            full.append(A.shape[0])
        return inner(X, A, omega_nodes, s)

    traced = dataclasses.replace(env, basis=dataclasses.replace(env.basis, eval_matrix=counting))
    rng = np.random.default_rng(5)
    X, A = rng.random((40, 2)), rng.integers(0, 5, size=40)
    F = (OMEGA.weights * env.theta_star.values) @ basis_values(env.basis, X, A, OMEGA.nodes,
                                                               S.nodes)
    Fk = F[np.arange(40), rng.integers(0, S.size, size=40)]
    u = np.concatenate([Fk, np.nextafter(Fk, 2.0), np.nextafter(Fk, -1.0),
                        np.nextafter(F[:, -1], 2.0)])
    y = draw_outcomes(traced, np.tile(X, (4, 1)), np.tile(A, 4), u)
    assert np.array_equal(y, inverse_cdf(np.tile(F, (4, 1)), u, S.nodes))
    assert sum(full) == 160
    assert np.all(y[120:] == 1.0)


def test_sample_outcome_mass_at_first_node():
    from cdfreg import inverse_cdf
    # a CDF identically 1 puts all mass on the first node
    draws = inverse_cdf(np.ones(S.size), np.array([0.0, 0.5, 0.999, 1.0]), S.nodes)
    assert np.all(draws == S.nodes[0])


def test_sampling_reproducible_under_seed():
    env = make_catalog_env("kumaraswamy", OMEGA, S)
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        draws.append([sample_outcomes(env, np.array([0.2, 0.9]), 1, 1, rng)[0]
                      for _ in range(50)])
    assert draws[0] == draws[1]


def test_sampling_ks_fidelity():
    env = make_catalog_env("kumaraswamy", OMEGA, S, theta_star="bumps")
    rng = np.random.default_rng(15)
    x, a = sample_context(env, rng), 2
    y = sample_outcomes(env, x, a, 20000, rng)
    f = true_cdf(env, x, a)
    coords = S.nodes
    ecdf = np.searchsorted(np.sort(y), coords, side="right") / y.size
    assert np.max(np.abs(ecdf - f.values)) <= 0.01 + 1.0 / 64


def _kumaraswamy_pow(X, A, omega_nodes, s):
    """The catalog formula 1 - (1 - s^alpha)^beta as two array pows, and
    alpha, beta of shape (B, n_w, 1)."""
    xm = X.mean(axis=1)[:, None]
    a1 = (A + 1)[:, None]
    alpha = 1.0 + 0.5 * (1.0 + np.sin(2.0 * np.pi * (xm + 0.7 * omega_nodes + 0.31 * a1)))
    beta = 1.0 + 0.5 * (1.0 + np.cos(2.0 * np.pi * (0.8 * xm + 0.57 * omega_nodes + 0.13 * a1)))
    alpha, beta = alpha[:, :, None], beta[:, :, None]
    return 1.0 - (1.0 - s ** alpha) ** beta, alpha, beta


def _finite_rank_out_of_place(rank, X, A, omega_nodes, s):
    xm = X.mean(axis=1)[:, None]
    a1 = (A + 1)[:, None]
    cell = np.minimum((omega_nodes * rank).astype(int), rank - 1)
    u = 0.5 * (1.0 + np.sin(2.0 * np.pi * (0.9 * xm + 0.41 * a1 + 1.7 * (cell + 1) / rank)))
    width = 0.5 / rank
    left = cell / rank + (1.0 / rank - width) * u
    return np.clip((s - left[:, :, None]) / width, 0.0, 1.0)


@pytest.mark.parametrize("B", [1, 5, 16, 80, 333])
def test_in_place_evaluators_equal_out_of_place_expressions(B):
    rng = np.random.default_rng(B)
    X, A = rng.random((B, 3)), rng.integers(0, 7, size=B)
    nodes, s = OMEGA.nodes, S.nodes
    for rank in (1, 3, 4, 5, 8, 12, 20):
        assert np.array_equal(_finite_rank_eval(rank, X, A, nodes, s),
                              _finite_rank_out_of_place(rank, X, A, nodes, s))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is not extended precision here")
@pytest.mark.parametrize("n_s", [64, 4096])
@pytest.mark.parametrize("B", [1, 5, 16, 80, 333])
def test_kumaraswamy_eval_within_4_eps_of_longdouble(B, n_s):
    # the exp/log evaluator and the two-pow expression both lie within
    # 4 eps (absolute) of the formula in 80-bit arithmetic, end to end on
    # the support: s = 0 gives exactly 0 and s = 1 exactly 1
    rng = np.random.default_rng(B)
    X, A = rng.random((B, 3)), rng.integers(0, 7, size=B)
    nodes = OMEGA.nodes if n_s == 64 else build_uniform_grid(2).nodes
    s = np.concatenate(([0.0], build_cdf_grid(n_s).nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = _kumaraswamy_eval(X, A, nodes, s)
        phi_pow, alpha, beta = _kumaraswamy_pow(X, A, nodes, s)
        ld = np.longdouble
        with np.errstate(divide="ignore"):
            log_s = np.log(s.astype(ld))
            ref = 1 - np.exp(beta.astype(ld) * np.log(1 - np.exp(alpha.astype(ld) * log_s)))
    tol = 4 * np.finfo(float).eps
    assert np.max(np.abs(phi - ref)) <= tol
    assert np.max(np.abs(phi_pow - ref)) <= tol
    assert np.all(phi[..., 0] == 0.0) and np.all(phi[..., -1] == 1.0)
    assert np.min(phi) >= 0.0 and np.max(phi) <= 1.0
    assert np.all(np.diff(phi, axis=-1) >= 0.0)
