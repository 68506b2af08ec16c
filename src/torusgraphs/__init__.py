"""Graphical models for multivariate circular data.

Exponential-family models on the torus with pairwise rotational and
reflectional coupling: score-matching estimation (closed form and
group-penalized), chi-squared edge and region inference with a sandwich
covariance, exact-conditional Gibbs sampling, closed-form phase-difference
marginals, pairwise phase-locking baselines, and a structure-recovery
benchmark harness.
"""

from .circular import (
    Resultant,
    bessel_i,
    bessel_ratio,
    circular_correlation,
    circular_mean_resultant,
    fisher_combine,
    harmonic_addition,
    ks_two_sample,
    plv,
    rayleigh_test,
    von_mises_sample,
    wrap_angle,
)
from .estimation import (
    FitResult,
    ScoreMatchingMoments,
    accumulate_moments,
    fit_closed_form,
    fit_group_lasso,
    select_lambda_cv,
    sm_objective,
)
from .exceptions import (
    ConvergenceError,
    DegenerateDataError,
    DegenerateTestError,
    DomainError,
    FamilyScopeError,
    NumericalError,
    ParseError,
    SchemaError,
    SingularMomentsError,
    TorusGraphError,
    UnidentifiedMeanError,
)
from .inference import (
    EdgeTest,
    GraphStructure,
    SandwichCov,
    asymptotic_cov,
    bootstrap_null_test,
    build_graph,
    edge_test,
    edge_tests,
    goodness_of_fit,
    group_edge_test,
    partial_plv,
    plv_tests,
)
from .io import Dataset, load_csv, load_graph, load_model, save_graph, save_model
from .margins import (
    DensityGrid,
    bivar_phase_diff_density,
    population_plv_from_grid,
    trivar_phase_diff_density,
)
from .model import (
    Family,
    MeanCenteredParams,
    SufficientStats,
    TorusGraphParams,
    apply_family,
    log_unnorm_density,
    sine_model_embed,
    suff_stats,
    to_mean_centered,
    to_natural,
)
from .sampling import GibbsConfig, conditional_von_mises, gibbs_sample, gibbs_sample_chains
from .simulation import (
    GeneratorSpec,
    RecoverySummary,
    TruthGraph,
    draw_replicates,
    gen_chain,
    gen_indirect_triple,
    gen_random_torus_graph,
    gen_uniform_null,
    plv_recovery_experiment,
    recovery_experiment,
)

__version__ = "0.1.0"
