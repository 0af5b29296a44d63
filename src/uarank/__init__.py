"""Uncertainty-aware ranking distributions, stability metrics, and fairness audits."""

from .audit import (
    AuditReport,
    MultiaccuracyResult,
    MulticalibrationResult,
    NatureClosenessReport,
    PopulationModel,
    multiaccuracy_alpha,
    multicalibration_alpha,
    nature_closeness_check,
    theorem_gap_estimate,
    theorem_gap_exact,
    two_type_biased_model,
)
from .errors import BudgetExceededError, ValidationError
from .io import (
    load_population_model,
    load_prediction_matrix,
    load_utility_spec,
)
from .metrics import (
    CompositionCheck,
    StabilityReport,
    UtilityReport,
    if_composition_check,
    normalized_utility,
    stability_gap,
    utility,
)
from .rankers import (
    compute_ranking,
    min_rank,
    mix_rank,
    opt_rank,
    pl_rank,
    ua_rank,
    ua_rank_conditional,
    ua_rank_oracle,
)
from .types import PredictionMatrix, RankingDistribution, UtilitySpec

__all__ = [
    "AuditReport",
    "BudgetExceededError",
    "CompositionCheck",
    "MultiaccuracyResult",
    "MulticalibrationResult",
    "NatureClosenessReport",
    "PopulationModel",
    "PredictionMatrix",
    "RankingDistribution",
    "StabilityReport",
    "UtilityReport",
    "UtilitySpec",
    "ValidationError",
    "compute_ranking",
    "if_composition_check",
    "load_population_model",
    "load_prediction_matrix",
    "load_utility_spec",
    "min_rank",
    "mix_rank",
    "multiaccuracy_alpha",
    "multicalibration_alpha",
    "nature_closeness_check",
    "normalized_utility",
    "opt_rank",
    "pl_rank",
    "stability_gap",
    "theorem_gap_estimate",
    "theorem_gap_exact",
    "two_type_biased_model",
    "ua_rank",
    "ua_rank_conditional",
    "ua_rank_oracle",
    "utility",
]
