"""Exact parameter learning for one-dimensional mixtures over discretized
parameter grids: moment/power-sum recovery, minimum-distance estimation,
TV-distance certificates, and identifiability verification."""

from .errors import (
    AmbiguityError,
    CapExceededError,
    CertificateUnavailableError,
    ContractError,
    DegeneracyError,
    DomainError,
    FamilyMismatchError,
    MixlearnError,
    MomentInconsistencyError,
    ParseError,
    ReconstructionError,
    UsageError,
)
from .grids import (
    ANALYTIC_FAMILIES,
    DISCRETE_FAMILIES,
    UNIT_STEP_FAMILIES,
    Family,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
    uniform_spec,
)
from .distributions import (
    cdf,
    char_fn,
    mixture_moment_exact,
    mixture_pmf_exact,
    pmf_or_pdf,
)
from .sampling import SampleDataset, derived_rng, sample
from .moments import (
    EmpiricalMoments,
    LatticeRounding,
    PlanEntry,
    SamplePlan,
    estimate_moments,
    estimate_pmf,
    moment_lattice_spacing,
    plan_samples,
    round_to_lattice,
)
from .powersums import (
    IdentifiabilityReport,
    PowerSumVector,
    log_of_theorem_bound,
    moments_to_power_sums,
    newton_to_elementary,
    pmf_to_power_sums,
    power_sum_signature,
    reconstruct_multiset,
    verify_identifiability,
)
from .littlewood import LittlewoodPoly, arc_max_batch, littlewood_arc_max
from .tv import (
    GTransform,
    SurveyRow,
    SurveySummary,
    TvCertificate,
    TvInterval,
    g_transform,
    separation_survey,
    tail_certificate,
    tv_exact,
    tv_lower_bound_charfn,
)
from .scheffe import (
    MdeResult,
    MdeTables,
    ScheffeSet,
    candidate_family,
    empirical_measure,
    mde_select,
    precompute_mde,
    scheffe_set,
    set_probability,
)
from .learners import (
    ExperimentConfig,
    ExperimentReport,
    LearnResult,
    TrialRow,
    learn,
    learn_binomial_moments,
    learn_geometric,
    learn_mde,
    mde_sample_size,
    run_experiment,
)

__version__ = "0.1.0"
