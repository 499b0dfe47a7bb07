"""Stationary birth-death count distributions.

Base families and their birth-death ratio sequences, inflation-deflation
perturbations with their mixture equivalents, canonical exponential-family
structure, moments and dispersion analysis, maximum-likelihood fitting, and
Gillespie simulation of the underlying chains.

`import bdcount` loads no submodule: each public name is read from its home
module on every access (PEP 562), and that module is imported on first use.
A name patched on its home module is therefore also what the package returns.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "DivergenceError", "DomainError", "SeriesCapError", "StateExplosionError",
        "UnsupportedFamilyError",
    ),
    "expfamily": (
        "CanonicalForm", "canonicalize", "cumulant_identity_residual", "support_pass",
    ),
    "fit": (
        "CountSample", "FitResult", "fit_mle", "loglik", "profile_fit", "sample_counts",
    ),
    "models": (
        "InfDefDistribution", "InflationSpec", "MixtureModel", "alpha_from_omega", "log_weight_f",
        "model_from_document", "model_pmf", "model_ratio_sequence", "modified_log_ratio",
        "modified_ratio", "omega_from_alpha", "omega_from_psi", "psi_link",
    ),
    "moments": (
        "ClosedMoments", "ContourResult", "MomentSummary", "SequenceClass", "classify_sequence",
        "dispersion_surface", "equidispersion_contour", "equidispersion_phi", "moments_closed",
        "moments_direct",
    ),
    "simulate": (
        "BirthDeathRates", "SimConfig", "SimResult", "canonical_rates", "run_ctmc", "tv_distance",
    ),
    "stationary": (
        "DEFAULT_POLICY", "BaseDistribution", "RatioSequence", "SeriesPolicy", "StationaryPMF",
        "WeightedPMF", "WeightFunction", "base_log_ratio", "base_logpmf", "base_pmf", "base_ratio",
        "base_ratio_sequence", "catalogue_weight",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
