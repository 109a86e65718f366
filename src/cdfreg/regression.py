"""The functional regression oracle: spectral truncation, pseudo-inverse,
least squares against indicator targets, and projection onto the admissible
coefficient set.

The admissible set C consists of nonnegative functions with unit integral
and L2 norm at most M; estimates are projected onto it under the
design-operator seminorm. The projection is a small convex quadratic
program, solved exactly by an active-set method (Nocedal and Wright,
Numerical Optimization, ch. 16) with bisection on the norm-cap multiplier,
and certified by its KKT residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import GridFunction, QuadratureGrid, SpectralDecomposition
from .operators import (
    CdfBasis,
    DesignOperator,
    design_operator,
    spectral_decompose,
    weighted_quadratic,
)

# Relative KKT residual at or below which a projection counts as converged;
# exact solves land near 1e-14 on the designs the tests and benchmark use.
KKT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class TruncationPlan:
    """Retained leading eigenvalues: everything at or above n * epsilon."""

    epsilon: float
    threshold: float
    n_eps: int
    retained_eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.retained_eigenvalues, dtype=float)
        if vals.shape[0] != self.n_eps:
            raise ValueError("retained eigenvalue count does not match n_eps")
        if np.any(vals < self.threshold):
            raise ValueError("retained eigenvalue below the threshold")
        vals.flags.writeable = False
        object.__setattr__(self, "retained_eigenvalues", vals)


@dataclass(frozen=True)
class Diagnostics:
    loss: float | None = None
    n_eps: int | None = None
    projection_iterations: int = 0
    converged: bool = True
    projection_residual: float = 0.0


@dataclass(frozen=True, eq=False)
class CoefficientEstimate:
    """A feasible coefficient function (in C) with fit diagnostics."""

    theta_hat: GridFunction
    norm_bound_M: float
    diagnostics: Diagnostics

    def __post_init__(self):
        th = self.theta_hat
        if np.min(th.values) < -1e-9:
            raise ValueError("estimate has negative values")
        if abs(th.integral() - 1.0) > 1e-6:
            raise ValueError("estimate does not integrate to 1")
        if th.norm() > self.norm_bound_M + 1e-6:
            raise ValueError("estimate exceeds the norm bound M")


@dataclass(frozen=True)
class ErrorBudget:
    """Closed-form error budget: the high-probability regression bound
    e_delta, the random-design constant c_const, and est = L^2 c e^2."""

    e_delta: float
    c_const: float
    est: float
    inputs: dict

    def __post_init__(self):
        expected = self.inputs["L"] ** 2 * self.c_const * self.e_delta**2
        if abs(self.est - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError("est is inconsistent with its factors")


def select_truncation(spec: SpectralDecomposition, n: int, gamma: float,
                      epsilon: float | None = None) -> TruncationPlan:
    """Truncation at threshold n * epsilon with epsilon = n^(-2/(gamma+2)).

    ``epsilon`` may be overridden for experiments with other schedules.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if epsilon is None:
        epsilon = float(n) ** (-2.0 / (gamma + 2.0))
    threshold = n * epsilon
    vals = spec.eigenvalues
    n_eps = int(np.sum(vals >= threshold))
    return TruncationPlan(epsilon, threshold, n_eps, vals[:n_eps])


def pseudo_inverse_apply(spec: SpectralDecomposition, plan: TruncationPlan,
                         g: GridFunction) -> GridFunction:
    """sum_{i <= N_eps} (1/lambda_i) <g, e_i> e_i; zero when nothing is retained."""
    if g.grid is not spec.grid and not np.array_equal(g.grid.nodes, spec.grid.nodes):
        raise ValueError("input lives on a different grid")
    out = np.zeros(spec.grid.size)
    if plan.n_eps == 0:
        return GridFunction(spec.grid, out)
    emat = spec.eigenfunction_matrix()[:, : plan.n_eps]
    coeffs = emat.T @ (spec.grid.weights * g.values)
    out = emat @ (coeffs / plan.retained_eigenvalues)
    return GridFunction(spec.grid, out)


def _check_dataset(dataset):
    dataset = list(dataset)
    for _, _, y in dataset:
        if not 0.0 <= y <= 1.0:
            raise ValueError("outcome outside the support S = [0, 1]")
    return dataset


def empirical_target(dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                     s_grid: QuadratureGrid) -> GridFunction:
    """sum_j integral_S 1{y_j <= s} phi(x_j, a_j, w, s) dm(s) on the Omega grid."""
    dataset = _check_dataset(dataset)
    s = s_grid.coords()
    total = np.zeros(omega_grid.size)
    for x, a, y in dataset:
        phi = np.asarray(basis.eval_matrix(x, a, omega_grid.nodes, s))
        indicator = (s >= y).astype(float)
        total += phi @ (s_grid.weights * indicator)
    return GridFunction(omega_grid, total)


def loss(theta: GridFunction, dataset, basis: CdfBasis,
         omega_grid: QuadratureGrid, s_grid: QuadratureGrid) -> float:
    """Summed squared L2(S) distance between indicator targets and the
    mixture CDFs induced by theta."""
    dataset = _check_dataset(dataset)
    s = s_grid.coords()
    wtheta = omega_grid.weights * theta.values
    total = 0.0
    for x, a, y in dataset:
        phi = np.asarray(basis.eval_matrix(x, a, omega_grid.nodes, s))
        predicted = wtheta @ phi
        indicator = (s >= y).astype(float)
        total += float(s_grid.weights @ (indicator - predicted) ** 2)
    return total


def solve_least_squares(dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                        s_grid: QuadratureGrid, spec: SpectralDecomposition,
                        plan: TruncationPlan) -> GridFunction:
    """Least-squares solution over the retained eigenspace: the pseudo-inverse
    applied to the empirical target."""
    target = empirical_target(dataset, basis, omega_grid, s_grid)
    return pseudo_inverse_apply(spec, plan, target)


def _project_unit_mass(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted projection onto {y >= 0, sum w_i y_i = 1}: y = max(v - t, 0)
    with t solving the mass constraint (water filling)."""
    order = np.argsort(values)[::-1]
    v = values[order]
    w = weights[order]
    cum_wv = np.cumsum(w * v)
    cum_w = np.cumsum(w)
    t_candidates = (cum_wv - 1.0) / cum_w
    # largest active set whose threshold stays below the smallest active value
    idx = np.nonzero(t_candidates < v)[0][-1]
    t = t_candidates[idx]
    return np.maximum(values - t, 0.0)


def _cap_l2_norm(values: np.ndarray, weights: np.ndarray, m_bound: float) -> np.ndarray:
    """Shrink toward the uniform density until the L2 norm is at most M.

    The map y -> 1 + t (y - 1) preserves nonnegativity and the unit
    integral, and ||1 + t(y-1)||^2 = 1 + t^2 (||y||^2 - 1).
    """
    sq = float(weights @ values**2)
    if sq <= m_bound**2:
        return values
    t = math.sqrt((m_bound**2 - 1.0) / (sq - 1.0))
    return 1.0 + t * (values - 1.0)


def _active_set_face(quad, bx, w, start, max_faces=200):
    """Minimize y' quad y / 2 - bx . y over {y >= 0, w . y = 1}.

    On each face (a fixed zero set) the minimizer solves a linear KKT
    system; faces are swapped primal-dual style until the bound
    multipliers are all nonnegative. Returns the minimizer and the number
    of KKT systems solved.
    """
    n = start.shape[0]
    current = np.maximum(start, 0.0)
    active = current <= 1e-12
    solves = 0
    for _ in range(max_faces):
        free = np.nonzero(~active)[0]
        if free.size == 0:
            break
        nf = free.size
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = quad[np.ix_(free, free)]
        kkt[:nf, nf] = -w[free]
        kkt[nf, :nf] = w[free]
        rhs = np.concatenate([bx[free], [1.0]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        solves += 1
        cand = np.zeros(n)
        cand[free] = sol[:nf]
        lam = sol[nf]
        if np.min(cand[free]) >= -1e-12:
            cand = np.maximum(cand, 0.0)
            mult = (quad @ cand - bx - lam * w)[active]
            current = cand
            if mult.size == 0 or np.min(mult) >= -1e-10:
                break
            release = np.nonzero(active)[0][int(np.argmin(mult))]
            active[release] = False
        else:
            # walk toward the face minimizer until the first bound hits
            direction = cand - current
            shrinking = direction < -1e-15
            with np.errstate(divide="ignore"):
                steps = -current[shrinking] / direction[shrinking]
            alpha = min(1.0, float(np.min(steps))) if steps.size else 1.0
            current = np.maximum(current + alpha * direction, 0.0)
            active = current <= 1e-12
    return current, solves


def _kkt_residual(y, x, b_mat, w, mu, M) -> float:
    """Relative KKT residual of y for min (y-x)' B (y-x) / 2 over C.

    At the minimizer g = B (y - x) + mu w y equals lam w + nu, with nu >= 0
    vanishing on the support of y and mu >= 0 the norm-cap multiplier. With
    lam fitted on the support, the residual is the worst stationarity error
    on the support, sign error of nu off it, or norm-cap complementarity
    gap, relative to the largest term entering g.
    """
    by, bx, w_max = b_mat @ y, b_mat @ x, float(np.max(w))
    g = by - bx + mu * w * y
    support = y > 0.0
    lam = float(w[support] @ g[support]) / float(w[support] @ w[support])
    nu = g - lam * w
    worst = max(float(np.max(np.abs(nu[support]))), float(np.max(-nu[~support], initial=0.0)),
                mu * w_max * abs(M**2 - float(w @ y**2)) / M)
    scale = max(float(np.max(np.abs(by))), float(np.max(np.abs(bx))),
                abs(lam) * w_max, mu * w_max * float(np.max(y)))
    return worst / scale if scale > 0.0 else 0.0


def _solve_projection(start: np.ndarray, x: np.ndarray, op: DesignOperator,
                      M: float) -> tuple[np.ndarray, Diagnostics]:
    """Exact projection of x onto C by active-set solves from a feasible start.

    The active-set solver handles nonnegativity and mass; when the norm cap
    binds, its multiplier mu is found by bisection, since the norm of the
    mu-penalized solution decreases monotonically in mu. The candidate is
    accepted only when it has positive mass, is feasible and is no worse
    than the start; otherwise the start is returned with converged=False.
    """
    w = op.grid.weights
    b_mat = w[:, None] * op.kernel_matrix * w[None, :]
    bx = b_mat @ x
    w_diag = np.diag(w)
    solves = 0

    def penalized(mu, warm):
        nonlocal solves
        y, k = _active_set_face(b_mat + mu * w_diag, bx, w, warm)
        solves += k
        return y

    def norm_of(v):
        return math.sqrt(float(w @ v**2))

    cand, mu = penalized(0.0, start), 0.0
    if norm_of(cand) > M:
        lo, hi = 0.0, 1.0
        hi_cand = penalized(hi, cand)
        for _ in range(60):
            if norm_of(hi_cand) <= M:
                break
            lo, hi = hi, 2.0 * hi
            hi_cand = penalized(hi, hi_cand)
        cand, mu = hi_cand, hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            mid_cand = penalized(mid, cand)
            if norm_of(mid_cand) > M:
                lo = mid
            else:
                hi = mid
                cand, mu = mid_cand, mid

    mass = float(w @ cand)
    cand = cand / mass if mass > 0.0 else start
    accepted = (mass > 0.0 and norm_of(cand) <= M + 1e-9
                and weighted_quadratic(op, cand - x)
                <= weighted_quadratic(op, start - x) + 1e-15)
    y, mu = (cand, mu) if accepted else (start, 0.0)
    residual = _kkt_residual(y, x, b_mat, w, mu, M)
    return y, Diagnostics(projection_iterations=solves,
                          converged=accepted and residual <= KKT_TOLERANCE,
                          projection_residual=residual)


def project_to_C(theta: GridFunction, op: DesignOperator, M: float) -> CoefficientEstimate:
    """Exact projection onto C = {theta >= 0, integral = 1, ||theta|| <= M}
    under the design-operator seminorm.

    The input is clipped and renormalized into C (the canonical selection
    when the seminorm has a kernel), and that start is sharpened by one
    active-set solve of the projection's quadratic program, with bisection
    on the norm-cap multiplier. ``projection_iterations`` counts the KKT
    systems solved; ``converged`` means the solve was accepted and its KKT
    residual ``projection_residual`` is at most ``KKT_TOLERANCE``. Under a
    zero operator every point of C is a projection and the start is
    returned.
    """
    if M < 1.0:
        raise ValueError("M must be at least 1 (C must contain the uniform density)")
    weights = op.grid.weights
    start = _cap_l2_norm(_project_unit_mass(theta.values, weights), weights, M)
    if not np.any(op.kernel_matrix):
        return CoefficientEstimate(GridFunction(op.grid, start), M, Diagnostics())
    y, diag = _solve_projection(start, theta.values, op, M)
    return CoefficientEstimate(GridFunction(op.grid, y), M, diag)


def error_budget(n: int, delta: float, gamma: float, s0: float, M: float,
                 L: float, L0: float, A: float, d: int, eta: float) -> ErrorBudget:
    """Closed-form budgets: e_delta(n), the random-design constant, and
    est = L^2 * c_const * e_delta^2 at the confidence level passed in."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if min(n, s0, M, L, A, d, eta) <= 0 or L0 < 0 or not 0.0 < gamma <= 1.0:
        raise ValueError("all budget inputs must be positive (L0 nonnegative)")
    log_inv_delta = math.log(1.0 / delta)
    e_delta = 2.0 * math.sqrt(log_inv_delta) + (
        2.0 * math.sqrt(s0 * math.log(1.0 + n)) + M
    ) * float(n) ** (gamma / (gamma + 2.0))
    # d*log(2 L0 A) can go negative for very flat bases; clamp at 0
    cover = max(d * math.log(2.0 * L0 * A), 0.0) if L0 * A > 0 else 0.0
    c_const = 1.0 + (48.0 * math.sqrt(cover) + 2.0 * math.sqrt(log_inv_delta)) / eta
    est = L**2 * c_const * e_delta**2
    inputs = dict(n=n, delta=delta, gamma=gamma, s0=s0, M=M, L=L, L0=L0, A=A, d=d, eta=eta)
    return ErrorBudget(e_delta, c_const, est, inputs)


def predict_cdf(estimate: CoefficientEstimate, basis: CdfBasis, x, a: int,
                omega_grid: QuadratureGrid, s_grid: QuadratureGrid) -> GridFunction:
    """F_hat(x, a, s_k) = sum_i w_i theta_hat_i phi(x, a, w_i, s_k)."""
    phi = np.asarray(basis.eval_matrix(x, a, omega_grid.nodes, s_grid.coords()))
    values = (omega_grid.weights * estimate.theta_hat.values) @ phi
    return GridFunction(s_grid, values)


def regress(dataset, basis: CdfBasis, gamma: float, M: float,
            omega_grid: QuadratureGrid, s_grid: QuadratureGrid,
            epsilon: float | None = None) -> CoefficientEstimate:
    """The full oracle: design operator, spectral truncation, least squares,
    projection onto C. Deterministic given its inputs."""
    dataset = _check_dataset(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    op = design_operator(basis, [(x, a) for x, a, _ in dataset], omega_grid, s_grid)
    spec = spectral_decompose(op)
    plan = select_truncation(spec, len(dataset), gamma, epsilon=epsilon)
    theta_d = solve_least_squares(dataset, basis, omega_grid, s_grid, spec, plan)
    estimate = project_to_C(theta_d, op, M)
    diag = replace(estimate.diagnostics, n_eps=plan.n_eps,
                   loss=loss(estimate.theta_hat, dataset, basis, omega_grid, s_grid))
    return CoefficientEstimate(estimate.theta_hat, M, diag)
