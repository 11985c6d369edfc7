"""Forecast-driven provisioning planner.

The paper's end goal — "what resource capacity do I need in the next 6
months to a year?" — answered as a subsystem: enumerate candidate
provisioning blueprints (:mod:`~repro.planner.blueprint`), score them
against the forecast distributions the models already produce
(:mod:`~repro.planner.scoring`), pick the exact best estate plan block
by block (:mod:`~repro.planner.estate`), and decide
*when* to re-plan from streaming trigger evidence
(:mod:`~repro.planner.triggers`). :mod:`~repro.planner.escalation`
closes the loop inside the stream: sustained or escalated breaches
become :class:`PlanProposal` events on the alert channel.
"""

from .blueprint import (
    DEFAULT_CATALOG,
    Blueprint,
    BlueprintKind,
    CatalogTier,
    ResourceShape,
    enumerate_blueprints,
    enumerate_consolidations,
    metric_dimension,
    tier_named,
)
from .escalation import RESOLVED_PROBABILITY, PlanEscalator, PlanProposal
from .estate import EstatePlan, PlanChoice, plan_estate
from .reconcile import ReconciledEstate, ReconciledLevel, combine_bands, reconcile
from .scoring import (
    BlueprintScore,
    ForecastBand,
    InstanceDemand,
    ScoreWeights,
    demands_from_entries,
    rank_blueprints,
    score_blueprint,
)
from .triggers import TriggerPolicy, TriggerReason, TriggerTracker

__all__ = [
    "ResourceShape",
    "CatalogTier",
    "BlueprintKind",
    "Blueprint",
    "DEFAULT_CATALOG",
    "metric_dimension",
    "tier_named",
    "enumerate_blueprints",
    "enumerate_consolidations",
    "ForecastBand",
    "InstanceDemand",
    "ScoreWeights",
    "BlueprintScore",
    "score_blueprint",
    "rank_blueprints",
    "demands_from_entries",
    "ReconciledLevel",
    "ReconciledEstate",
    "combine_bands",
    "reconcile",
    "PlanChoice",
    "EstatePlan",
    "plan_estate",
    "TriggerReason",
    "TriggerPolicy",
    "TriggerTracker",
    "PlanProposal",
    "PlanEscalator",
    "RESOLVED_PROBABILITY",
]
