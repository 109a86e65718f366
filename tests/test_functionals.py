"""Lipschitz utility functionals over CDFs on the outcome grid."""

import numpy as np
import pytest

from cdfreg import (
    GridFunction,
    build_cdf_grid,
    eval_mean,
    eval_variance,
    make_functional,
)

S = build_cdf_grid(256)
COORDS = S.nodes


def _uniform_cdf():
    return GridFunction(S, COORDS.copy())


def _step_cdf(at):
    return GridFunction(S, (COORDS >= at).astype(float))


def test_mean_of_uniform():
    # right-endpoint rule biases the survival sum by half a grid step
    fine = build_cdf_grid(512)
    F = GridFunction(fine, fine.nodes.copy())
    assert eval_mean(F.values, F.grid) == pytest.approx(0.5, abs=1e-3)


def test_mean_of_mass_at_zero():
    F = GridFunction(S, np.ones(S.size))
    assert eval_mean(F.values, F.grid) == pytest.approx(0.0, abs=1e-12)


def test_mean_of_point_mass():
    F = _step_cdf(0.7)
    assert eval_mean(F.values, F.grid) == pytest.approx(0.7, abs=1.0 / 256)


def test_mean_linearity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = np.sort(rng.random(S.size))
        v = np.sort(rng.random(S.size))
        u[-1] = v[-1] = 1.0
        lam = rng.random()
        mix = GridFunction(S, lam * u + (1 - lam) * v)
        split = lam * eval_mean(u, S) + (1 - lam) * eval_mean(v, S)
        assert eval_mean(mix.values, mix.grid) == pytest.approx(split, abs=1e-9)


def test_variance_of_point_mass():
    F = _step_cdf(0.7)
    assert eval_variance(F.values, F.grid) == pytest.approx(0.0, abs=1.0 / 64)


def test_variance_of_uniform():
    F = _uniform_cdf()
    assert eval_variance(F.values, F.grid) == pytest.approx(1.0 / 12.0, abs=1e-2)


def test_variance_of_bernoulli_half():
    half = GridFunction(S, np.where(COORDS >= 1.0, 1.0, 0.5))
    assert eval_variance(half.values, half.grid) == pytest.approx(0.25, abs=1e-2)


def test_smoothed_quantile_of_uniform():
    F = _uniform_cdf()
    median = make_functional("smoothed_quantile", q=0.5, h=0.01)
    assert median(F.values, F.grid) == pytest.approx(0.5, abs=1e-2)


def test_smoothed_quantile_of_mass_at_zero():
    F = GridFunction(S, np.ones(S.size))
    val = make_functional("smoothed_quantile", q=0.5, h=0.01)(F.values, F.grid)
    assert val == pytest.approx(0.0, abs=1e-6)


def test_smoothed_quantile_monotone_in_q():
    rng = np.random.default_rng(8)
    for _ in range(100):
        vals = np.sort(rng.random(S.size))
        vals[-1] = 1.0
        F = GridFunction(S, vals)
        qs = np.linspace(0.1, 0.9, 5)
        out = [make_functional("smoothed_quantile", q=q, h=0.05)(F.values, F.grid)
               for q in qs]
        assert np.all(np.diff(out) >= -1e-12)


def _expected_penalty(F, loss_row):
    fn = make_functional("expected_penalty", loss_row=loss_row)
    return fn(F, build_cdf_grid(len(loss_row)))


def test_expected_penalty_examples():
    assert _expected_penalty([0.0, 1.0], [5.0, 0.0]) == pytest.approx(0.0)
    assert _expected_penalty([0.5, 0.5], [2.0, 4.0]) == pytest.approx(-3.0)
    assert _expected_penalty([0.3, 0.7], [0.0, 0.0]) == pytest.approx(0.0)
    assert _expected_penalty([0.25, 0.5, 1.0], [4.0, 2.0, 1.0]) == pytest.approx(-3.0)


def test_expected_penalty_rejects_mismatch():
    fn = make_functional("expected_penalty", loss_row=[0.0, 1.0])
    with pytest.raises(ValueError, match="uniform outcome grid"):
        fn([0.0, 0.5, 1.0], build_cdf_grid(3))
    with pytest.raises(ValueError, match="node count"):
        fn([1.0], build_cdf_grid(2))


def test_make_functional_catalog():
    for name, params in (("mean", {}), ("variance", {}),
                         ("smoothed_quantile", {"q": 0.5})):
        fn = make_functional(name, **params)
        assert fn.lipschitz_L > 0
        F = _uniform_cdf()
        assert np.isfinite(fn(F.values, F.grid))
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
            assert abs(fn(F.values, F.grid) - fn(G.values, G.grid)) <= fn.lipschitz_L * dist + 1e-9


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


# every catalog functional, with parameters for a 64-node outcome grid
CATALOG = [
    ("mean", {}),
    ("variance", {}),
    ("smoothed_quantile", {"q": 0.3, "h": 0.05}),
    ("expected_penalty", {"loss_row": np.random.default_rng(3).random(64) * 1.2}),
]


@pytest.mark.parametrize("name,params", CATALOG)
def test_declared_lipschitz_constant_holds(name, params):
    grid = build_cdf_grid(64)
    fn = make_functional(name, **params)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(2000):
        F, G = _random_cdf_pair(rng, grid)
        dist = float(np.sqrt(grid.weights @ (F.values - G.values) ** 2))
        if dist > 0.0:
            worst = max(worst, abs(fn(F.values, F.grid) - fn(G.values, G.grid)) / dist)
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
    assert abs(fn(F.values, F.grid) - fn(G.values, G.grid)) / dist == pytest.approx(fn.lipschitz_L, rel=1e-12)
    with pytest.raises(ValueError):
        F = GridFunction(build_cdf_grid(128), np.ones(128))
        fn(F.values, F.grid)


@pytest.mark.parametrize("name,params", CATALOG)
def test_batch_matches_row_by_row(name, params):
    grid = build_cdf_grid(64)
    fn = make_functional(name, **params)
    rng = np.random.default_rng(77)
    batch = np.array([F.values for _ in range(20) for F in _random_cdf_pair(rng, grid)])
    values = fn(batch, grid)
    assert values.shape == (batch.shape[0],)
    rows = np.array([fn(row, grid) for row in batch])
    np.testing.assert_allclose(values, rows, rtol=0.0, atol=1e-14)
    assert np.shape(fn(batch[0], grid)) == ()
    assert fn(batch.reshape(5, 8, 64), grid).shape == (5, 8)


@pytest.mark.parametrize("name,params", CATALOG)
def test_identical_rows_give_bitwise_equal_values(name, params):
    # argmax ties must break to the lowest index, whatever K is
    grid = build_cdf_grid(64)
    fn = make_functional(name, **params)
    F, _ = _random_cdf_pair(np.random.default_rng(5), grid)
    single = fn(F.values, grid)
    for K in range(1, 9):
        values = fn(np.tile(F.values, (K, 1)), grid)
        assert np.all(values == single), (K, values - single)
        assert int(np.argmax(values)) == 0


@pytest.mark.parametrize("name,params", CATALOG)
def test_invalid_cdf_batch_raises(name, params):
    grid = build_cdf_grid(64)
    fn = make_functional(name, **params)
    batch = np.tile(grid.nodes, (4, 1))
    fn(batch, grid)
    decreasing = batch.copy()
    decreasing[2, 10] = decreasing[2, 11] + 0.1
    not_finite = batch.copy()
    not_finite[1, 5] = np.nan
    for bad in (decreasing, not_finite, batch[:, :1], batch[:, :-1]):
        with pytest.raises(ValueError):
            fn(bad, grid)
