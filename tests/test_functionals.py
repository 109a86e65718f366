"""Lipschitz utility functionals over CDFs on the outcome grid."""

import numpy as np
import pytest

from cdfreg import (
    GridFunction,
    build_cdf_grid,
    eval_expected_penalty,
    eval_mean,
    eval_smoothed_quantile,
    eval_variance,
    make_functional,
)

S = build_cdf_grid(256)
COORDS = S.coords()


def _uniform_cdf():
    return GridFunction(S, COORDS.copy())


def _step_cdf(at):
    return GridFunction(S, (COORDS >= at).astype(float))


def test_mean_of_uniform():
    # right-endpoint rule biases the survival sum by half a grid step
    fine = build_cdf_grid(512)
    F = GridFunction(fine, fine.coords().copy())
    assert eval_mean(F) == pytest.approx(0.5, abs=1e-3)


def test_mean_of_mass_at_zero():
    assert eval_mean(GridFunction(S, np.ones(S.size))) == pytest.approx(0.0, abs=1e-12)


def test_mean_of_point_mass():
    assert eval_mean(_step_cdf(0.7)) == pytest.approx(0.7, abs=1.0 / 256)


def test_mean_linearity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = np.sort(rng.random(S.size))
        v = np.sort(rng.random(S.size))
        u[-1] = v[-1] = 1.0
        lam = rng.random()
        mix = GridFunction(S, lam * u + (1 - lam) * v)
        split = lam * eval_mean(GridFunction(S, u)) + (1 - lam) * eval_mean(GridFunction(S, v))
        assert eval_mean(mix) == pytest.approx(split, abs=1e-9)


def test_variance_of_point_mass():
    assert eval_variance(_step_cdf(0.7)) == pytest.approx(0.0, abs=1.0 / 64)


def test_variance_of_uniform():
    assert eval_variance(_uniform_cdf()) == pytest.approx(1.0 / 12.0, abs=1e-2)


def test_variance_of_bernoulli_half():
    half = GridFunction(S, np.where(COORDS >= 1.0, 1.0, 0.5))
    assert eval_variance(half) == pytest.approx(0.25, abs=1e-2)


def test_smoothed_quantile_of_uniform():
    assert eval_smoothed_quantile(_uniform_cdf(), 0.5, 0.01) == pytest.approx(0.5, abs=1e-2)


def test_smoothed_quantile_of_mass_at_zero():
    val = eval_smoothed_quantile(GridFunction(S, np.ones(S.size)), 0.5, 0.01)
    assert val == pytest.approx(0.0, abs=1e-6)


def test_smoothed_quantile_monotone_in_q():
    rng = np.random.default_rng(8)
    for _ in range(100):
        vals = np.sort(rng.random(S.size))
        vals[-1] = 1.0
        F = GridFunction(S, vals)
        qs = np.linspace(0.1, 0.9, 5)
        out = [eval_smoothed_quantile(F, q, 0.05) for q in qs]
        assert np.all(np.diff(out) >= -1e-12)


def test_expected_penalty_examples():
    assert eval_expected_penalty([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)
    assert eval_expected_penalty([0.5, 0.5], [2.0, 4.0]) == pytest.approx(-3.0)
    assert eval_expected_penalty([0.3, 0.7], [0.0, 0.0]) == pytest.approx(0.0)


def test_expected_penalty_rejects_mismatch():
    with pytest.raises(ValueError):
        eval_expected_penalty([1.0], [0.0, 1.0])


def test_make_functional_catalog():
    for name, params in (("mean", {}), ("variance", {}),
                         ("smoothed_quantile", {"q": 0.5})):
        fn = make_functional(name, **params)
        assert fn.lipschitz_L > 0
        assert np.isfinite(fn(_uniform_cdf()))
    with pytest.raises(ValueError):
        make_functional("no-such-functional")


def test_functional_empirical_lipschitz():
    """|T(F) - T(G)| <= L ||F - G||_{L2(S)} on random CDF pairs."""
    rng = np.random.default_rng(14)
    fns = [make_functional("mean"), make_functional("variance"),
           make_functional("smoothed_quantile", q=0.5, h=0.05)]
    for _ in range(50):
        u = np.sort(rng.random(S.size))
        v = np.sort(rng.random(S.size))
        u[-1] = v[-1] = 1.0
        F, G = GridFunction(S, u), GridFunction(S, v)
        dist = np.sqrt(float(S.weights @ (u - v) ** 2))
        for fn in fns:
            assert abs(fn(F) - fn(G)) <= fn.lipschitz_L * dist + 1e-9


def _random_cdf_pair(rng, grid):
    """Two monotone CDFs ending at 1: random mixtures of a smooth part and
    a few point masses, so the pair ranges from near-equal to far apart."""
    def draw():
        mass = rng.dirichlet(np.full(grid.size, rng.choice([0.05, 1.0, 20.0])))
        steps = np.zeros(grid.size)
        steps[rng.integers(grid.size, size=3)] += rng.dirichlet(np.ones(3))
        t = rng.random()
        return np.cumsum(t * mass + (1.0 - t) * steps)

    F = np.minimum(draw(), 1.0)
    G = F + rng.choice([1e-3, 1.0]) * (np.minimum(draw(), 1.0) - F)
    F[-1] = G[-1] = 1.0
    return GridFunction(grid, F), GridFunction(grid, G)


@pytest.mark.parametrize("name,params", [
    ("mean", {}),
    ("variance", {}),
    ("smoothed_quantile", {"q": 0.3, "h": 0.05}),
    ("expected_penalty", {"loss_row": np.random.default_rng(3).random(64) * 1.2}),
])
def test_declared_lipschitz_constant_holds(name, params):
    grid = build_cdf_grid(64)
    fn = make_functional(name, **params)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(2000):
        F, G = _random_cdf_pair(rng, grid)
        dist = float(np.sqrt(grid.weights @ (F.values - G.values) ** 2))
        if dist > 0.0:
            worst = max(worst, abs(fn(F) - fn(G)) / dist)
    assert worst <= fn.lipschitz_L * (1.0 + 1e-9), (worst, fn.lipschitz_L)


def test_expected_penalty_constant_uses_quadrature_weights():
    grid = build_cdf_grid(64)
    row = np.linspace(1.0, 0.0, 64)
    fn = make_functional("expected_penalty", loss_row=row)
    assert fn.lipschitz_L == pytest.approx(8.0 * np.linalg.norm(row), rel=1e-12)
    # the bound is attained by a difference proportional to l / w: a point
    # mass at the first node against the CDF 1 - l
    F = GridFunction(grid, np.ones(64))
    G = GridFunction(grid, 1.0 - row)
    dist = float(np.sqrt(grid.weights @ (F.values - G.values) ** 2))
    assert abs(fn(F) - fn(G)) / dist == pytest.approx(fn.lipschitz_L, rel=1e-12)
    with pytest.raises(ValueError):
        fn(GridFunction(build_cdf_grid(128), np.ones(128)))
