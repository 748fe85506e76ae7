"""The expression-level shuffle planning layer.

``repro.plan`` is the single surface every ``variant="auto"`` decision
flows through: :class:`JobSpec <repro.jobs.JobSpec>` resolution, the
dataframe's repartition/join/sort shuffles, the aggregation app, and
streaming jobs.  Applications build an abstract :class:`ShuffleExpr`,
optionally :meth:`~PlanNode.simplify` it, and lower it against a
:class:`ClusterProfile` to a concrete :class:`ShufflePlan`; the two
pre-existing planning surfaces -- the empirical two-way rule of
:mod:`repro.shuffle.select` and the six-variant cost model of
:mod:`repro.jobs.planner` -- survive as this layer's *lowering rules*
(and those modules as thin wrappers).

The :class:`AdaptivePlanner` closes the loop: subscribed to the event
bus, it can re-lower the remaining plan at stage/round boundaries when
observed spill throughput, memory pressure, or membership changes say
the original estimates were wrong -- emitting a causal ``plan.replan``
chain.  See ``docs/planner.md``.

Layering: this package consumes profiles and obs *events* only -- it
never imports the futures runtime, and the shuffle variants never
import it (the ``plan`` and ``plan-callers`` rows of
``tools/check_layering.py``).
"""

from repro.plan.adaptive import AdaptivePlanner, PlanSignals, planner_for_runtime
from repro.plan.cost import (
    DEFAULT_MERGE_FACTOR,
    PLAN_VARIANTS,
    PlanEstimate,
    cheapest_feasible,
    empirical_variant,
    estimate_variant,
    rank_variants,
)
from repro.plan.ir import LOWERING_RULES, PlanNode, ShuffleExpr, ShufflePlan
from repro.plan.profile import (
    MEMORY_HEADROOM,
    PARTITION_CROSSOVER,
    ClusterProfile,
    JobShape,
    fits_in_memory,
)

__all__ = [
    "AdaptivePlanner",
    "ClusterProfile",
    "DEFAULT_MERGE_FACTOR",
    "JobShape",
    "LOWERING_RULES",
    "MEMORY_HEADROOM",
    "PARTITION_CROSSOVER",
    "PLAN_VARIANTS",
    "PlanEstimate",
    "PlanNode",
    "PlanSignals",
    "ShuffleExpr",
    "ShufflePlan",
    "cheapest_feasible",
    "empirical_variant",
    "estimate_variant",
    "fits_in_memory",
    "planner_for_runtime",
    "rank_variants",
]
