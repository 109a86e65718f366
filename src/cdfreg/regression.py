"""The functional regression oracle: spectral truncation, pseudo-inverse,
least squares against indicator targets, and projection onto the admissible
coefficient set.

The admissible set C consists of nonnegative functions with unit integral
and L2 norm at most M; estimates are projected onto it under the
design-operator seminorm plus a ridge of RIDGE times the L2 norm, both
relative to the design's trace. The ridge breaks ties along directions no
CDF can see, which the bare seminorm would settle on the norm cap. The
projection is a strictly convex quadratic program, solved exactly on the
ridged unit-trace design by a primal active-set method over the faces of C
(Nocedal and Wright, Numerical Optimization, ch. 16). Each face, norm cap
included, is minimized in closed form from one eigendecomposition, with
Newton steps on the cap multiplier's secular equation (More and Sorensen
1983). The result is certified by its KKT residual and duality gap, and its
excess over the unridged optimum is bounded in its diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (GridFunction, QuadratureGrid, SpectralDecomposition, check_grid,
                       checked_count, checked_real)
from .operators import (
    CdfBasis,
    DesignOperator,
    basis_chunks,
    integer_actions,
    mixture_cdf,
    pair_kernels,
    spectral_decompose,
    weighted_quadratic,
)

# Relative KKT residual at or below which a projection counts as converged;
# exact solves land below 1e-10 on the designs the tests and benchmark use.
KKT_TOLERANCE = 1e-8

# The L2 ridge added to the unit-trace design before projecting: directions
# the design cannot see no longer push the estimate onto the norm cap, and
# every face's reduced matrix is positive definite.
RIDGE = 1e-6

# Faces one projection visits at most.
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
    projection_excess_bound: float = 0.0


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
    n = checked_count(n, "n", 1)
    gamma = checked_real(gamma, "gamma")
    epsilon = float(n) ** (-2.0 / (gamma + 2.0))
    threshold = n * epsilon
    vals = spec.eigenvalues
    n_eps = int(np.sum(vals >= threshold))
    return TruncationPlan(epsilon, threshold, n_eps, vals[:n_eps])


def pseudo_inverse_apply(spec: SpectralDecomposition, plan: TruncationPlan,
                         g: GridFunction) -> GridFunction:
    """sum_{i <= N_eps} (1/lambda_i) <g, e_i> e_i; zero when nothing is retained."""
    check_grid(g.grid, spec.grid, "input")
    # with nothing retained, emat is (n, 0) and the product is +0.0 everywhere
    emat = spec.eigenfunctions[:, : plan.n_eps]
    coeffs = emat.T @ (spec.grid.weights * g.values)
    out = emat @ (coeffs / plan.retained_eigenvalues)
    return GridFunction(spec.grid, out)


def _indicators(y, s_nodes: np.ndarray) -> np.ndarray:
    """Indicator targets 1{s_k >= y_j}, shape (B, n_s), of outcomes y (B,)."""
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y) & (y <= 1.0)):  # NaN fails
        raise ValueError("outcome outside the support S = [0, 1]")
    return (s_nodes >= y[:, None]).astype(float)


class DataStatistics:
    """The four sums the oracle reads from a dataset of (x, a, y) records:
    the design kernel (summed ``pair_kernels``, which ``DesignOperator``
    symmetrizes), the empirical target, the summed squared L2(S) norm of
    the indicator targets, and the record count.

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
        indicator = _indicators(y, self.s_grid.nodes)
        self.kernel += pair_kernels(phi, s_w).sum(axis=0)
        self.target += np.einsum("bws,bs->w", phi, indicator * s_w)
        self.indicator_sq += float(np.sum(indicator @ s_w))  # 0/1, so ind^2 = ind
        self.count += phi.shape[0]

    def design_operator(self) -> DesignOperator:
        return DesignOperator(self.kernel, self.omega_grid, self.count)


class Dataset:
    """A dataset of (x, a, y) records held as read-only columns: contexts
    X (n, d), actions A (n,) and outcomes y (n,).

    It is sized and iterable, not indexable: iteration gives record i as
    ``(X[i], int(A[i]), float(y[i]))``. Columns that already are float and
    int arrays are viewed, not copied, so the engine hands the oracle each
    epoch's slice of its episode-wide columns. An action whose value is not
    an integer raises ``ValueError`` instead of being truncated.
    """

    __slots__ = ("X", "A", "y")

    def __init__(self, X, A, y):
        X, A, y = np.asarray(X, dtype=float), integer_actions(A), np.asarray(y, dtype=float)
        if X.ndim != 2 or A.shape != (X.shape[0],) or y.shape != A.shape:
            raise ValueError("dataset columns must be X (n, d), A (n,) and y (n,), not %s, %s "
                             "and %s" % (X.shape, A.shape, y.shape))
        for name, col in (("X", X), ("A", A), ("y", y)):
            col = col.view()
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self) -> int:
        return self.A.shape[0]

    def __iter__(self):
        return zip(self.X, self.A.tolist(), self.y.tolist())


def data_statistics(dataset: Dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                    s_grid: QuadratureGrid) -> DataStatistics:
    """Everything the oracle needs from a dataset, from one basis pass."""
    stats = DataStatistics(omega_grid, s_grid)
    for sl, phi in basis_chunks(basis, dataset.X, dataset.A, omega_grid, s_grid):
        stats.add(phi, dataset.y[sl])
    return stats


def empirical_target(dataset: Dataset, basis: CdfBasis, omega_grid: QuadratureGrid,
                     s_grid: QuadratureGrid) -> GridFunction:
    """sum_j integral_S 1{y_j <= s} phi(x_j, a_j, w, s) dm(s) on the Omega grid."""
    return GridFunction(omega_grid, data_statistics(dataset, basis, omega_grid, s_grid).target)


def loss(theta: GridFunction, dataset: Dataset, basis: CdfBasis,
         omega_grid: QuadratureGrid, s_grid: QuadratureGrid) -> float:
    """Summed squared L2(S) distance between indicator targets and the
    mixture CDFs induced by theta, which must live on ``omega_grid``."""
    check_grid(theta.grid, omega_grid, "theta")
    wtheta = omega_grid.weights * theta.values
    total = 0.0
    for sl, phi in basis_chunks(basis, dataset.X, dataset.A, omega_grid, s_grid):
        ind = _indicators(dataset.y[sl], s_grid.nodes)
        total += float(np.sum((ind - wtheta @ phi) ** 2 @ s_grid.weights))
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


def _face_minimizer(b_mat, bx, w, free, M, mu_guess):
    """Minimize y' B y / 2 - bx . y over the face of C on ``free`` (y zero
    off it, w . y = 1, ||y|| <= M), without sign bounds. Returns the
    minimizer and its norm-cap multiplier mu.

    On the face y = u + N z: u = 1 / sum(w_F) is the uniform density and
    N = W_F^(-1/2) P, with P the last columns of the Householder reflector
    sending sqrt(w_F) / ||sqrt(w_F)|| to -e_1, so N' W N = I, w_F' N = 0
    and ||y||^2 = u + ||z||^2. With N' B_FF N = V diag(lam) V' (one eigh)
    this is a trust-region problem of radius E = sqrt(M^2 - u), solved by
    z(mu) = -V c / (lam + mu), c = V' N' (B_FF u - bx_F). B carries the
    ridge RIDGE W, so N' B_FF N holds RIDGE I and every lam is at least
    RIDGE: z(0) is the unique unconstrained minimizer. The cap binds if
    ||z(0)|| > E; mu then solves the concave equation 1/||z(mu)|| = 1/E
    (``_cap_multiplier``).
    """
    wf = w[free]
    u = 1.0 / float(wf.sum())
    y = np.zeros(bx.shape[0])
    y[free] = u
    E_sq = M * M - u
    if E_sq <= 0.0:  # the uniform density is the face's one point of C
        return y, 0.0
    v = np.sqrt(wf * u)  # sqrt(w_F) / ||sqrt(w_F)||, plus e_1 below
    v[0] += 1.0
    nmat = (np.eye(free.size)[:, 1:] - np.outer(v, v[1:] / v[0])) / np.sqrt(wf)[:, None]
    b_ff = b_mat[np.ix_(free, free)]
    lam, vecs = np.linalg.eigh(nmat.T @ b_ff @ nmat)
    c = vecs.T @ (nmat.T @ (u * b_ff.sum(axis=1) - bx[free]))
    mu = 0.0
    if float(np.sum((c / lam) ** 2)) > E_sq:
        mu = _cap_multiplier(c, lam, math.sqrt(E_sq), mu_guess)[0]
    y[free] -= nmat @ (vecs @ (c / (lam + mu)))
    return y, mu


def _cap_multiplier(c, lam, E, mu):
    """The root of 1/||c / (lam + mu)|| = 1/E and the count of Newton steps
    from ``mu``, which rise monotonically from the left (More and Sorensen
    1983). They stop at 1e-12 mu, or at one within 1e-8 mu that does not
    shrink: at mu below 4e-10 they can cycle in round-off at 1.5e-12 to
    1.2e-9 mu."""
    prev = math.inf
    for steps in range(1, 101):
        d = c / (lam + mu)
        r_sq = float(d @ d)
        step = r_sq * (math.sqrt(r_sq) / E - 1.0) / float(d @ (d / (lam + mu)))
        mu = max(mu + step, 0.0)
        if abs(step) <= 1e-12 * mu or abs(prev) <= abs(step) <= 1e-8 * mu:
            break
        prev = step
    return mu, steps


def _active_set(b_mat, bx, w, M, start):
    """Minimize y' B y / 2 - bx . y over C by a primal active-set method
    over its faces (Nocedal and Wright, ch. 16), from a start in C.

    Each face is minimized exactly, norm cap included (``_face_minimizer``).
    A feasible face minimizer becomes the iterate; the bound multipliers
    g - lam w off the face, with g = B y - bx + mu W y, decide whether to
    stop or to release the most negative one. Until the first release, an
    infeasible face minimizer drops every negative entry at once while the
    smaller face can still hold a point of C (sum(w_F) M^2 > 1), and the
    iterate becomes that face's uniform density; otherwise, and after the
    first release, the iterate steps toward the minimizer up to the first
    blocking bound. The method stops when every multiplier is at least
    -1e-13 of the largest entry of bx, a tolerance that scales with B, or
    when a feasible face repeats, or after ``MAX_FACES`` faces. Returns the
    iterate, its mu and the number of faces solved.
    """
    mult_tol = 1e-13 * float(np.max(np.abs(bx)))
    current = np.maximum(start, 0.0)
    active = current <= 1e-12
    mu, faces, released, seen = 0.0, 0, False, set()
    for _ in range(MAX_FACES):
        free = np.nonzero(~active)[0]
        cand, mu = _face_minimizer(b_mat, bx, w, free, M, mu)
        faces += 1
        if np.min(cand[free]) >= -1e-12:
            current = np.maximum(cand, 0.0)
            g = b_mat @ current - bx + mu * w * current
            lam = float(w[free] @ g[free]) / float(w[free] @ w[free])
            mult = (g - lam * w)[active]
            face = active.tobytes()
            if mult.size == 0 or np.min(mult) >= -mult_tol or face in seen:
                break
            seen.add(face)
            active[np.nonzero(active)[0][int(np.argmin(mult))]] = False
            released = True
            continue
        negative = free[cand[free] < 0.0]
        kept_w = float(w[free].sum() - w[negative].sum())
        if not released and kept_w * M * M > 1.0:
            active[negative] = True
            current = np.where(active, 0.0, 1.0 / kept_w)
        else:
            # walk toward the face minimizer until the first bound hits
            direction = cand - current
            shrinking = direction < -1e-15
            alpha = min(1.0, float(np.min(-current[shrinking] / direction[shrinking])))
            current = np.maximum(current + alpha * direction, 0.0)
            active = current <= 1e-12
    return current, mu, faces


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


def _unit_trace_design(op: DesignOperator) -> np.ndarray:
    """The projection's metric: B = W K W divided by its quadrature trace
    sum_i B_ii / w_i, plus the ridge RIDGE W.

    The division leaves the minimizer alone, so mu and every tolerance are
    relative to the design's scale; the ridge is relative to it too.
    """
    w = op.grid.weights
    b_mat = w[:, None] * op.kernel_matrix * w[None, :]
    b_mat /= float(np.sum(np.diag(b_mat) / w))
    b_mat[np.diag_indices_from(b_mat)] += RIDGE * w
    return b_mat


def _solve_projection(start: np.ndarray, x: np.ndarray, op: DesignOperator,
                      M: float) -> tuple[np.ndarray, Diagnostics]:
    """Exact projection of x onto C in the ``_unit_trace_design`` metric by
    ``_active_set`` from a feasible start.

    The candidate is accepted when it has positive mass, is feasible and
    its objective is within 1 + 1e-12 times the start's; otherwise the
    start is returned with mu = 0. Either way ``converged`` certifies the
    returned point by ``_kkt_residual``.
    """
    w = op.grid.weights
    b_mat = _unit_trace_design(op)
    cand, mu, faces = _active_set(b_mat, b_mat @ x, w, M, start)
    mass = float(w @ cand)
    cand = cand / mass if mass > 0.0 else start
    accepted = (mass > 0.0 and math.sqrt(float(w @ cand**2)) <= M + 1e-9
                and (cand - x) @ b_mat @ (cand - x)
                <= (start - x) @ b_mat @ (start - x) * (1.0 + 1e-12))
    y, mu = (cand, mu) if accepted else (start, 0.0)
    residual = _kkt_residual(y, x, b_mat, w, mu, M)
    excess = RIDGE / 2.0 * ((M + math.sqrt(float(w @ x**2))) ** 2 - float(w @ (y - x) ** 2))
    return y, Diagnostics(projection_iterations=faces,
                          converged=residual <= KKT_TOLERANCE,
                          projection_residual=residual,
                          projection_excess_bound=excess)


def project_to_C(theta: GridFunction, op: DesignOperator, M: float) -> CoefficientEstimate:
    """Exact projection onto C = {theta >= 0, integral = 1, ||theta|| <= M}
    under the design-operator seminorm plus a tiny L2 ridge, for a finite
    M >= 1.

    The metric is U + RIDGE tr W, with tr the design's quadrature trace
    (``_unit_trace_design``). The ridge breaks the ties among points of C
    that the seminorm cannot tell apart, which otherwise push the estimate
    onto the norm cap, and it makes the objective strictly convex. theta*
    lies in C, so the projection is nonexpansive in the ridged norm:
    ||theta_hat - theta*||_U^2 <= ||theta - theta*||_U^2
    + RIDGE tr ||theta - theta*||^2, an additive term in the error bound.
    The input is clipped and renormalized into C (the canonical selection
    when the seminorm has a kernel), and that start is sharpened by an
    active-set method over the faces of C (``_solve_projection``).
    ``projection_iterations`` counts the faces solved, one eigendecomposition
    each; ``converged`` means the relative residual ``projection_residual``
    (``_kkt_residual``) of the returned point, candidate or start, is at
    most ``KKT_TOLERANCE``. ``projection_excess_bound`` bounds, in
    unit-trace units, how far the returned point's unridged objective
    (y - x)' B (y - x) / 2 can exceed the exact unridged projection's:
    RIDGE/2 ((M + ||x||)^2 - ||y - x||^2), from f_ridge(y) <= f_ridge(y_0)
    and ||y_0|| <= M.
    Scaling the operator moves all four by round-off only. Under a zero
    operator every point of C is a projection, and at M = 1 C is the
    uniform density alone, which ``_cap_l2_norm`` makes the start: in both
    cases the start is returned with default ``Diagnostics``, converged.
    A theta on another grid than the operator's is refused.
    """
    M = checked_real(M, "M")
    check_grid(theta.grid, op.grid, "theta")
    weights = op.grid.weights
    start = _cap_l2_norm(_project_unit_mass(theta.values, weights), weights, M)
    if M == 1.0 or not np.any(op.kernel_matrix):
        return CoefficientEstimate(GridFunction(op.grid, start), Diagnostics())
    y, diag = _solve_projection(start, theta.values, op, M)
    return CoefficientEstimate(GridFunction(op.grid, y), diag)


def error_budget(n: int, delta: float, gamma: float, s0: float, M: float,
                 L: float, L0: float, A: float, d: int, eta: float) -> ErrorBudget:
    """Closed-form budgets: e_delta(n), the random-design constant, and
    est = L^2 * c_const * e_delta^2 at the confidence level passed in."""
    n = checked_count(n, "n", 1)
    d = checked_count(d, "d", 1)
    delta, gamma, s0, M, L, L0, A, eta = (checked_real(v, name) for name, v in zip(
        ("delta", "gamma", "s0", "M", "L", "L0", "A", "eta"),
        (delta, gamma, s0, M, L, L0, A, eta)))
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


def regress(dataset: Dataset, basis: CdfBasis, gamma: float, M: float,
            omega_grid: QuadratureGrid, s_grid: QuadratureGrid,
            statistics: DataStatistics | None = None) -> CoefficientEstimate:
    """The full oracle: design operator, spectral truncation, least squares,
    projection onto C. Deterministic given its inputs.

    Everything it reads from the dataset is its ``DataStatistics``, whose
    sums also give the loss diagnostic. Without ``statistics`` they come
    from one basis pass over the dataset (``data_statistics``); a caller
    that already holds phi for the dataset's pairs, as the engine does,
    passes the statistics it accumulated instead, and no basis is
    evaluated. Statistics of another count or on other grids are refused.
    """
    if statistics is None:
        statistics = data_statistics(dataset, basis, omega_grid, s_grid)
    elif statistics.count != len(dataset):
        raise ValueError("statistics count %d does not match the dataset's %d records"
                         % (statistics.count, len(dataset)))
    check_grid(statistics.omega_grid, omega_grid, "statistics' design kernel")
    check_grid(statistics.s_grid, s_grid, "statistics' outcome indicator")
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
