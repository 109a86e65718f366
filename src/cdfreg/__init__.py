"""Functional regression of contextual CDFs and an epoch-batched
inverse-gap-weighting decision engine, with synthetic environments and an
experiment harness."""

from .numerics import (
    GridFunction,
    QuadratureGrid,
    SpectralDecomposition,
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    sym_eig,
)
from .operators import (
    CdfBasis,
    DesignOperator,
    EigendecayFit,
    basis_values,
    design_operator,
    estimate_eigendecay,
    point_kernel,
    spectral_decompose,
    weighted_norm,
)
from .regression import (
    CoefficientEstimate,
    DataStatistics,
    Dataset,
    ErrorBudget,
    TruncationPlan,
    empirical_target,
    error_budget,
    loss,
    predict_cdf,
    project_to_C,
    pseudo_inverse_apply,
    regress,
    select_truncation,
)
from .functionals import (
    UtilityFunctional,
    eval_mean,
    eval_variance,
    make_functional,
)
from .environments import (
    Environment,
    draw_outcomes,
    inverse_cdf,
    make_catalog_env,
    sample_context,
    sample_outcomes,
    true_cdf,
)
from .engine import (
    RegretTrace,
    exploration_param,
    igw_distribution,
    run_episode,
)
from .harness import (
    ExperimentConfig,
    eigendecay_prepass,
    fit_loglog_slope,
    generate_dataset,
    heldout_cdf_error,
    regret_slope,
    run_config,
    sweep_regression_error,
)

__version__ = "0.1.0"
