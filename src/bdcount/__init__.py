"""Stationary birth-death count distributions.

Base families and their birth-death ratio sequences, inflation-deflation
perturbations with their mixture equivalents, canonical exponential-family
structure, moments and dispersion analysis, maximum-likelihood fitting, and
Gillespie simulation of the underlying chains.
"""

from .errors import (
    DivergenceError,
    DomainError,
    SeriesCapError,
    StateExplosionError,
    UnsupportedFamilyError,
)
from .expfamily import (
    CanonicalForm,
    canonicalize,
    cumulant_identity_residual,
    cumulants,
    grad_A,
    hess_A,
)
from .fit import (
    CountSample,
    FitResult,
    fit_mle,
    loglik,
    profile_fit,
    sample_counts,
)
from .models import (
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    alpha_from_omega,
    log_weight_f,
    model_from_document,
    model_logpmf,
    model_pmf,
    model_ratio_sequence,
    modified_ratio,
    omega_from_alpha,
    omega_from_psi,
    psi_link,
    weight_f,
)
from .moments import (
    ClosedMoments,
    ContourResult,
    MomentSummary,
    SequenceClass,
    classify_sequence,
    dispersion_surface,
    equidispersion_contour,
    equidispersion_phi,
    moments_closed,
    moments_direct,
)
from .simulate import (
    BirthDeathRates,
    SimConfig,
    SimResult,
    canonical_rates,
    run_ctmc,
    tv_distance,
)
from .stationary import (
    DEFAULT_POLICY,
    BaseDistribution,
    RatioSequence,
    SeriesPolicy,
    StationaryPMF,
    WeightedPMF,
    WeightFunction,
    base_logpmf,
    base_pmf,
    base_ratio,
    base_ratio_sequence,
    catalogue_weight,
    log_ratio_series_sum,
)

__version__ = "0.1.0"
