"""The functional regression oracle: spectral truncation, pseudo-inverse,
least squares against indicator targets, and projection onto the admissible
coefficient set.

The admissible set C consists of nonnegative functions with unit integral
and L2 norm at most M; estimates are projected onto it under the
design-operator seminorm. The projection is a small convex quadratic
program, solved exactly by an active-set method (Nocedal and Wright,
Numerical Optimization, ch. 16) on the unit-trace design, with safeguarded
Newton steps on the norm-cap multiplier's secular equation (More and
Sorensen 1983), and certified by its KKT residual and duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import GridFunction, QuadratureGrid, SpectralDecomposition, same_grid
from .operators import (
    CdfBasis,
    DesignOperator,
    basis_chunks,
    mixture_cdf,
    pair_kernels,
    spectral_decompose,
    weighted_quadratic,
)

# Relative KKT residual at or below which a projection counts as converged;
# exact solves land below 1e-10 on the designs the tests and benchmark use.
KKT_TOLERANCE = 1e-8

# Faces one active-set solve visits at most.
MAX_FACES = 200


@dataclass(frozen=True)
class TruncationPlan:
    """Retained leading eigenvalues: everything at or above n * epsilon."""

    epsilon: float
    threshold: float
    n_eps: int
    retained_eigenvalues: np.ndarray


@dataclass(frozen=True)
class Diagnostics:
    loss: float | None = None
    n_eps: int | None = None
    projection_iterations: int = 0
    converged: bool = True
    projection_residual: float = 0.0


@dataclass(frozen=True, eq=False)
class CoefficientEstimate:
    """A coefficient function in C, as ``project_to_C`` certifies it, with
    fit diagnostics."""

    theta_hat: GridFunction
    diagnostics: Diagnostics


@dataclass(frozen=True)
class ErrorBudget:
    """Closed-form error budget: the high-probability regression bound
    e_delta, the random-design constant c_const, and est = L^2 c e^2."""

    e_delta: float
    c_const: float
    est: float


def select_truncation(spec: SpectralDecomposition, n: int, gamma: float) -> TruncationPlan:
    """Truncation at threshold n * epsilon with epsilon = n^(-2/(gamma+2))."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    epsilon = float(n) ** (-2.0 / (gamma + 2.0))
    threshold = n * epsilon
    vals = spec.eigenvalues
    n_eps = int(np.sum(vals >= threshold))
    return TruncationPlan(epsilon, threshold, n_eps, vals[:n_eps])


def pseudo_inverse_apply(spec: SpectralDecomposition, plan: TruncationPlan,
                         g: GridFunction) -> GridFunction:
    """sum_{i <= N_eps} (1/lambda_i) <g, e_i> e_i; zero when nothing is retained."""
    if not same_grid(g.grid, spec.grid):
        raise ValueError("input lives on a different grid")
    out = np.zeros(spec.grid.size)
    if plan.n_eps == 0:
        return GridFunction(spec.grid, out)
    emat = spec.eigenfunctions[:, : plan.n_eps]
    coeffs = emat.T @ (spec.grid.weights * g.values)
    out = emat @ (coeffs / plan.retained_eigenvalues)
    return GridFunction(spec.grid, out)


def _indicators(y, s_coords: np.ndarray) -> np.ndarray:
    """Indicator targets 1{s_k >= y_j}, shape (B, n_s), of outcomes y (B,)."""
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y) & (y <= 1.0)):  # NaN fails
        raise ValueError("outcome outside the support S = [0, 1]")
    return (s_coords >= y[:, None]).astype(float)


class DataStatistics:
    """The four sums the oracle reads from a dataset of (x, a, y) records:
    the design kernel (summed ``pair_kernels``, not yet symmetrized), the
    empirical target, the summed squared L2(S) norm of the indicator
    targets, and the record count.

    ``add`` takes one chunk, so the same chunks in the same order give the
    same sums bit for bit: ``data_statistics`` adds a dataset in
    ``BASIS_CHUNK`` chunks, and the engine adds each block's chosen rows of
    the phi it has already evaluated.
    """

    def __init__(self, omega_grid: QuadratureGrid, s_grid: QuadratureGrid):
        self.omega_grid, self.s_grid = omega_grid, s_grid
        self.kernel = np.zeros((omega_grid.size, omega_grid.size))
        self.target = np.zeros(omega_grid.size)
        self.indicator_sq = 0.0
        self.count = 0

    def add(self, phi: np.ndarray, y) -> None:
        """Add B records: phi (B, n_w, n_s) of their pairs and outcomes y (B,)."""
        s_w = self.s_grid.weights
        indicator = _indicators(y, self.s_grid.coords())
        self.kernel += pair_kernels(phi, s_w).sum(axis=0)
        self.target += np.einsum("bws,bs->w", phi, indicator * s_w)
        self.indicator_sq += float(np.sum(indicator @ s_w))  # 0/1, so ind^2 = ind
        self.count += phi.shape[0]

    def design_operator(self) -> DesignOperator:
        return DesignOperator((self.kernel + self.kernel.T) / 2.0, self.omega_grid, self.count)


def _dataset_chunks(dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                    s_grid: QuadratureGrid):
    """(phi, y) over successive ``BASIS_CHUNK`` chunks of a dataset of
    (x, a, y) records, from ``basis_chunks``, which evaluates phi once per
    batch of whole chunks up to ``EVAL_BYTES``."""
    dataset = list(dataset)
    if not dataset:
        return
    X, A, y = zip(*dataset)
    y = np.array(y, dtype=float)
    for sl, phi in basis_chunks(basis, X, A, omega_grid, s_grid):
        yield phi, y[sl]


def data_statistics(dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                    s_grid: QuadratureGrid) -> DataStatistics:
    """Everything the oracle needs from a dataset, from one basis pass."""
    stats = DataStatistics(omega_grid, s_grid)
    for phi, y in _dataset_chunks(dataset, basis, omega_grid, s_grid):
        stats.add(phi, y)
    return stats


def empirical_target(dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                     s_grid: QuadratureGrid) -> GridFunction:
    """sum_j integral_S 1{y_j <= s} phi(x_j, a_j, w, s) dm(s) on the Omega grid."""
    return GridFunction(omega_grid, data_statistics(dataset, basis, omega_grid, s_grid).target)


def loss(theta: GridFunction, dataset, basis: CdfBasis,
         omega_grid: QuadratureGrid, s_grid: QuadratureGrid) -> float:
    """Summed squared L2(S) distance between indicator targets and the
    mixture CDFs induced by theta."""
    wtheta = omega_grid.weights * theta.values
    s_coords = s_grid.coords()
    total = 0.0
    for phi, y in _dataset_chunks(dataset, basis, omega_grid, s_grid):
        total += float(np.sum((_indicators(y, s_coords) - wtheta @ phi) ** 2 @ s_grid.weights))
    return total


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


def _face_system(quad, w, free):
    """The bordered KKT matrix of a face: the free block of the quadratic,
    bordered by the mass constraint's weights."""
    nf = free.size
    kkt = np.zeros((nf + 1, nf + 1))
    kkt[:nf, :nf] = quad[np.ix_(free, free)]
    kkt[:nf, nf] = -w[free]
    kkt[nf, :nf] = w[free]
    return kkt


def _face_solve(kkt, rhs, mu):
    """Solve a face system. For mu > 0 it is nonsingular and is solved
    directly; at mu = 0, or where round-off on a rank-deficient design makes
    the factorization singular, by least squares."""
    if mu > 0.0:
        try:
            return np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0]


def _active_set_face(b_mat, bx, w, mu, start):
    """Minimize y' (B + mu W) y / 2 - bx . y over {y >= 0, w . y = 1}, with
    W = diag(w).

    On each face (a fixed zero set) the minimizer solves a linear KKT
    system; faces are swapped primal-dual style until the bound
    multipliers are all nonnegative to 1e-13 of the largest entry of bx,
    a tolerance that scales with B, or until a feasible face repeats (at
    mu = 0 on a rank-deficient B, round-off in the multipliers can
    otherwise cycle among faces). Returns the minimizer (the last iterate
    if ``MAX_FACES`` faces do not reach it) and the number of KKT systems
    solved.
    """
    n = start.shape[0]
    quad = b_mat + mu * np.diag(w)
    mult_tol = 1e-13 * float(np.max(np.abs(bx)))
    current = np.maximum(start, 0.0)
    active = current <= 1e-12
    solves, seen = 0, set()
    for _ in range(MAX_FACES):
        free = np.nonzero(~active)[0]
        if free.size == 0:
            break
        nf = free.size
        rhs = np.concatenate([bx[free], [1.0]])
        sol = _face_solve(_face_system(quad, w, free), rhs, mu)
        solves += 1
        cand = np.zeros(n)
        cand[free] = sol[:nf]
        lam = sol[nf]
        if np.min(cand[free]) >= -1e-12:
            cand = np.maximum(cand, 0.0)
            mult = (quad @ cand - bx - lam * w)[active]
            current = cand
            face = active.tobytes()
            if mult.size == 0 or np.min(mult) >= -mult_tol or face in seen:
                break
            seen.add(face)
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


def _face_derivative(b_mat, w, mu, y):
    """d y / d mu of the penalized minimizer y on its face (the support of
    y): the face's KKT system with the right-hand side (-w_F y_F, 0)."""
    free = np.nonzero(y > 0.0)[0]
    kkt = _face_system(b_mat + mu * np.diag(w), w, free)
    sol = _face_solve(kkt, np.concatenate([-w[free] * y[free], [0.0]]), mu)
    dy = np.zeros_like(y)
    dy[free] = sol[: free.size]
    return dy


def _newton_step(y, dy, w, mu, M):
    """The Newton step on psi(mu) = 1/||e|| - 1/E over y's face, and the
    step of the power law ||e|| ~ mu^s through y; NaN where undefined.

    e = y - y_inf is the deviation from the face's uniform density (the
    limit of y as mu grows), so ||y||^2 = ||y_inf||^2 + ||e||^2 and
    E^2 = M^2 - ||y_inf||^2. On a fixed face ||e||^2 is a sum of
    c_i^2 / (lambda_i + mu)^2, as in a trust-region subproblem, so psi is
    concave and nearly linear (More and Sorensen 1983), while ||y|| itself
    is flat far from the root."""
    face = y > 0.0
    face_w = float(w[face].sum())
    if face_w <= 0.0 or M * M <= 1.0 / face_w:
        return math.nan, math.nan
    e = y - face / face_w
    e_sq = float(w @ e**2)
    de = float(w @ (e * dy))  # (d ||e||^2 / d mu) / 2
    if e_sq <= 0.0 or mu * de >= 0.0:
        return math.nan, math.nan
    E_sq = M * M - 1.0 / face_w
    newton = mu - (1.0 / math.sqrt(e_sq) - 1.0 / math.sqrt(E_sq)) * e_sq**1.5 / -de
    # d log ||e|| / d log mu = mu de / e_sq; clamped against overflow
    power = mu * math.exp(min(max(0.5 * math.log(E_sq / e_sq) * e_sq / (mu * de), -50.0), 50.0))
    return newton, power


def _kkt_residual(y, x, b_mat, w, mu, M) -> float:
    """Relative KKT residual of y for min f(y) = (y-x)' B (y-x) / 2 over C.

    At the minimizer g = B (y - x) + mu w y equals lam w + nu, with nu >= 0
    vanishing on the support of y and mu >= 0 the norm-cap multiplier. With
    lam fitted on the support, the residual is the worst stationarity error
    on the support or sign error of nu off it, relative to the largest term
    entering g, or if larger the duality gap mu (M^2 - ||y||^2) / 2 (f minus
    the Lagrangian dual bound at a stationary point) relative to f(y).
    """
    by, bx, w_max = b_mat @ y, b_mat @ x, float(np.max(w))
    g = by - bx + mu * w * y
    support = y > 0.0
    lam = float(w[support] @ g[support]) / float(w[support] @ w[support])
    nu = g - lam * w
    worst = max(float(np.max(np.abs(nu[support]))), float(np.max(-nu[~support], initial=0.0)))
    scale = max(float(np.max(np.abs(by))), float(np.max(np.abs(bx))),
                abs(lam) * w_max, mu * w_max * float(np.max(y)))
    f, gap = float((y - x) @ (by - bx)) / 2.0, mu * abs(M * M - float(w @ y**2)) / 2.0
    return max(worst / scale if scale > 0.0 else 0.0, gap / f if f > 0.0 else 0.0)


def _solve_projection(start: np.ndarray, x: np.ndarray, op: DesignOperator,
                      M: float) -> tuple[np.ndarray, Diagnostics]:
    """Exact projection of x onto C by active-set solves from a feasible start.

    B = W K W is divided by its quadrature trace sum_i B_ii / w_i, which
    leaves the minimizer alone, so mu and every tolerance are relative.
    At a fixed norm-cap multiplier mu the active-set solver handles
    nonnegativity and mass; the norm r(mu) of its minimizer decreases in
    mu. From mu = 1, mu solves r(mu) = M by Newton steps (``_newton_step``),
    each solve warm-started from the last minimizer moved along its face
    derivative to the new mu, inside a bracket [lo, hi] with
    r(lo) > M >= r(hi). A step that leaves it is replaced by its geometric
    midpoint, by tenfold growth while hi is unknown, or, while lo is 0, by
    the power-law step held within [1e-3, 0.5] mu. Only if r stays at or
    below M down to mu = 1e-12 does the unpenalized solve from the start
    decide whether the cap binds at all. The iteration stops when r is
    within 1e-10 of M, or when the bracket collapses or r stops approaching
    M within 1e-8 M (round-off on ill-conditioned designs); the last solve
    with r <= M is the candidate. It is accepted when it has positive mass,
    is feasible and its objective is within 1 + 1e-12 times the start's;
    otherwise the start is returned with mu = 0. Either way ``converged``
    certifies the returned point by ``_kkt_residual``.
    """
    w = op.grid.weights
    b_mat = w[:, None] * op.kernel_matrix * w[None, :]
    b_mat /= float(np.sum(np.diag(b_mat) / w))
    bx = b_mat @ x
    solves = 0

    def penalized(mu, warm):
        nonlocal solves
        y, k = _active_set_face(b_mat, bx, w, mu, warm)
        solves += k
        return y

    def norm_of(v):
        return math.sqrt(float(w @ v**2))

    mu, lo, hi = 1.0, 0.0, math.inf
    y = penalized(mu, start)
    cand, gap, closest, stale, zero_checked = None, math.inf, math.inf, 0, False
    for _ in range(100):
        r = norm_of(y)
        if abs(r - M) <= 1e-10:
            cand = (y, mu)
            break
        if r > M:
            lo = mu
        else:
            hi, cand, gap = mu, (y, mu), M - r
        stale = 0 if abs(r - M) < closest else stale + 1
        closest = min(closest, abs(r - M))
        if hi - lo <= 1e-12 * hi < math.inf or (stale >= 2 and gap <= 1e-8 * M):
            break
        dy = _face_derivative(b_mat, w, mu, y)
        newton, power = _newton_step(y, dy, w, mu, M)
        solves += 1
        mu_prev = mu
        if lo < newton < hi:
            mu = newton
        elif lo > 0.0:
            mu = math.sqrt(lo * hi) if math.isfinite(hi) else 10.0 * mu
        else:
            mu = min(max(power, 1e-3 * mu), 0.5 * mu) if power > 0.0 else 1e-3 * mu
        if lo == 0.0 and mu < 1e-12 and not zero_checked:
            zero_checked = True
            y0 = penalized(0.0, start)
            if norm_of(y0) <= M:
                cand = (y0, 0.0)
                break
        # warm start: y moved to first order along its face, back onto unit mass
        guess = np.maximum(y + (mu - mu_prev) * dy, 0.0)
        mass = float(w @ guess)
        y = penalized(mu, guess / mass if mass > 0.0 else y)
    cand, mu = cand if cand is not None else (y, mu)

    mass = float(w @ cand)
    cand = cand / mass if mass > 0.0 else start
    accepted = (mass > 0.0 and norm_of(cand) <= M + 1e-9
                and (cand - x) @ b_mat @ (cand - x)
                <= (start - x) @ b_mat @ (start - x) * (1.0 + 1e-12))
    y, mu = (cand, mu) if accepted else (start, 0.0)
    residual = _kkt_residual(y, x, b_mat, w, mu, M)
    return y, Diagnostics(projection_iterations=solves,
                          converged=residual <= KKT_TOLERANCE,
                          projection_residual=residual)


def project_to_C(theta: GridFunction, op: DesignOperator, M: float) -> CoefficientEstimate:
    """Exact projection onto C = {theta >= 0, integral = 1, ||theta|| <= M}
    under the design-operator seminorm, for a finite M >= 1.

    The input is clipped and renormalized into C (the canonical selection
    when the seminorm has a kernel), and that start is sharpened by
    active-set solves of the projection's quadratic program, with Newton
    steps on the norm-cap multiplier (``_solve_projection``).
    ``projection_iterations`` counts the KKT systems solved, one per
    active-set step and one per Newton derivative; ``converged`` means the
    relative residual ``projection_residual`` (``_kkt_residual``) of the
    returned point, candidate or start, is at most ``KKT_TOLERANCE``.
    Scaling the operator moves all three by round-off only. Under a zero
    operator every point of C is a projection and the start is returned.
    """
    if not 1.0 <= M < math.inf:  # NaN fails
        raise ValueError("M must be finite and at least 1 (C holds the uniform density)")
    weights = op.grid.weights
    start = _cap_l2_norm(_project_unit_mass(theta.values, weights), weights, M)
    if not np.any(op.kernel_matrix):
        return CoefficientEstimate(GridFunction(op.grid, start), Diagnostics())
    y, diag = _solve_projection(start, theta.values, op, M)
    return CoefficientEstimate(GridFunction(op.grid, y), diag)


def error_budget(n: int, delta: float, gamma: float, s0: float, M: float,
                 L: float, L0: float, A: float, d: int, eta: float) -> ErrorBudget:
    """Closed-form budgets: e_delta(n), the random-design constant, and
    est = L^2 * c_const * e_delta^2 at the confidence level passed in."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not (all(v > 0 for v in (n, s0, M, L, A, d, eta)) and L0 >= 0
            and 0.0 < gamma <= 1.0):  # NaN fails
        raise ValueError("all budget inputs must be positive (L0 nonnegative)")
    log_inv_delta = math.log(1.0 / delta)
    e_delta = 2.0 * math.sqrt(log_inv_delta) + (
        2.0 * math.sqrt(s0 * math.log(1.0 + n)) + M
    ) * float(n) ** (gamma / (gamma + 2.0))
    # d*log(2 L0 A) can go negative for very flat bases; clamp at 0
    cover = max(d * math.log(2.0 * L0 * A), 0.0) if L0 * A > 0 else 0.0
    c_const = 1.0 + (48.0 * math.sqrt(cover) + 2.0 * math.sqrt(log_inv_delta)) / eta
    return ErrorBudget(e_delta, c_const, L**2 * c_const * e_delta**2)


def predict_cdf(estimate: CoefficientEstimate, basis: CdfBasis, x, a: int,
                s_grid: QuadratureGrid) -> GridFunction:
    """F_hat(x, a, s_k) = sum_i w_i theta_hat_i phi(x, a, w_i, s_k)."""
    return mixture_cdf(basis, estimate.theta_hat, x, a, s_grid)


def regress(dataset, basis: CdfBasis, gamma: float, M: float,
            omega_grid: QuadratureGrid, s_grid: QuadratureGrid,
            statistics: DataStatistics | None = None) -> CoefficientEstimate:
    """The full oracle: design operator, spectral truncation, least squares,
    projection onto C. Deterministic given its inputs.

    Everything it reads from the dataset is its ``DataStatistics``, whose
    sums also give the loss diagnostic. Without ``statistics`` they come
    from one basis pass over the dataset (``data_statistics``); a caller
    that already holds phi for the dataset's pairs, as the engine does,
    passes the statistics it accumulated instead, and no basis is
    evaluated. Statistics whose count is not the dataset's are refused.
    """
    if statistics is None:
        statistics = data_statistics(dataset, basis, omega_grid, s_grid)
    elif statistics.count != len(dataset):
        raise ValueError("statistics count %d does not match the dataset's %d records"
                         % (statistics.count, len(dataset)))
    if statistics.count == 0:
        raise ValueError("dataset must be nonempty")
    op = statistics.design_operator()
    target = GridFunction(omega_grid, statistics.target)
    spec = spectral_decompose(op)
    plan = select_truncation(spec, op.data_count, gamma)
    theta_d = pseudo_inverse_apply(spec, plan, target)
    estimate = project_to_C(theta_d, op, M)
    # loss = sum_j ||ind_j - F_theta_j||^2 expanded over the pass's sums
    theta = estimate.theta_hat
    fit = (statistics.indicator_sq
           - 2.0 * float((omega_grid.weights * theta.values) @ target.values)
           + weighted_quadratic(op, theta.values))
    diag = replace(estimate.diagnostics, n_eps=plan.n_eps, loss=fit)
    return CoefficientEstimate(theta, diag)
