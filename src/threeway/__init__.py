"""Three-way decision regions over finite universes.

A universe with an equivalence partition is split into acceptance, rejection,
and non-commitment regions, either directly from inclusion ratios
(conditional probabilities) or through an evaluative linguistic expression.
Whenever the attained ratios stay ordered by region (always, for an increasing
expression) the library reconstructs exactly which probabilistic threshold
pairs reproduce the linguistic regions, checks the answer against a
brute-force sweep, and renders plain-language explanations for every
assignment.
"""

from .equivalence import (
    DegenerateRegionsError,
    EmptinessCase,
    Interval,
    NonMonotoneExpressionError,
    RegionBounds,
    SweepResult,
    ThresholdEquivalence,
    candidate_thresholds,
    check_bounds_ordering,
    coincides_with_pawlak,
    equivalent_threshold_intervals,
    region_bounds,
    sweep_equivalence_oracle,
    verify_equivalence,
)
from .explain import AnalysisReport, Decision, Explanation, explain_element, report
from .expressions import (
    BUILTIN_NAMES,
    DomainError,
    EvalExpr,
    ExpressionError,
    IdentityExpr,
    Segment,
    StepExpr,
    builtin,
    expression_from_json_dict,
    expression_to_json_dict,
    is_increasing,
    load_expression,
    quantifier_for,
)
from .regions import (
    RoughSetPair,
    Thresholds,
    ThresholdError,
    TriPartition,
    delta_regions,
    linguistic_regions,
    pawlak_rough_set,
    probabilistic_regions,
    rough_set_from_tripartition,
)
from .spaces import (
    ApproximationSpace,
    Concept,
    DataError,
    concept_from_column,
    from_attribute_table,
    load_table,
    relative_cardinality,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ApproximationSpace",
    "BUILTIN_NAMES",
    "Concept",
    "DataError",
    "Decision",
    "DegenerateRegionsError",
    "DomainError",
    "EmptinessCase",
    "EvalExpr",
    "Explanation",
    "ExpressionError",
    "IdentityExpr",
    "Interval",
    "NonMonotoneExpressionError",
    "RegionBounds",
    "RoughSetPair",
    "Segment",
    "StepExpr",
    "SweepResult",
    "ThresholdEquivalence",
    "ThresholdError",
    "Thresholds",
    "TriPartition",
    "builtin",
    "candidate_thresholds",
    "check_bounds_ordering",
    "coincides_with_pawlak",
    "concept_from_column",
    "delta_regions",
    "equivalent_threshold_intervals",
    "explain_element",
    "expression_from_json_dict",
    "expression_to_json_dict",
    "from_attribute_table",
    "is_increasing",
    "linguistic_regions",
    "load_expression",
    "load_table",
    "pawlak_rough_set",
    "probabilistic_regions",
    "quantifier_for",
    "region_bounds",
    "relative_cardinality",
    "report",
    "rough_set_from_tripartition",
    "sweep_equivalence_oracle",
    "verify_equivalence",
]
