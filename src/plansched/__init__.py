"""plansched: scheduling of prioritised task plans on unary resources.

A plan is an all-or-nothing vector of tasks tied by release/due windows,
precedence lags and resource needs.  The engine inserts plans one by one at
their earliest feasible position inside a fixed global time window, in
priority order layered by the plan precedence DAG, maximising the summed
priority of the plans that fit.  An independent validator, an exact
brute-force oracle for small instances, a benchmark generator and a Gantt
exporter round out the package.
"""

from .engine import ScheduleResult, build_schedule
from .gantt import render_gantt
from .model import (
    BadWindow,
    CyclicPlanDag,
    CyclicTaskGraph,
    Instance,
    InstanceError,
    Plan,
    Schedule,
    SchedulingError,
    Task,
    TaskId,
    TimeWindow,
    UnknownResource,
    UnknownTask,
    build_instance,
)
from .oracle import OracleResult, exact_max_weight
from .ordering import sort_plans
from .scenarios import SCENARIOS, BadScenario, generate_scenario
from .serialize import (
    ParseError,
    dumps_instance,
    dumps_schedule,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_schedule,
)
from .validate import (
    GLOBAL_WINDOW,
    INTRA_PLAN_PRECEDENCE,
    PARTIAL_PLAN,
    PLAN_ORDERING,
    RESOURCE_OVERLAP,
    TEMPORAL_WINDOW,
    TIME_LAG,
    ValidationReport,
    Violation,
    objective,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BadScenario",
    "BadWindow",
    "CyclicPlanDag",
    "CyclicTaskGraph",
    "GLOBAL_WINDOW",
    "INTRA_PLAN_PRECEDENCE",
    "Instance",
    "InstanceError",
    "OracleResult",
    "PARTIAL_PLAN",
    "PLAN_ORDERING",
    "ParseError",
    "Plan",
    "RESOURCE_OVERLAP",
    "SCENARIOS",
    "Schedule",
    "ScheduleResult",
    "SchedulingError",
    "TEMPORAL_WINDOW",
    "TIME_LAG",
    "Task",
    "TaskId",
    "TimeWindow",
    "UnknownResource",
    "UnknownTask",
    "ValidationReport",
    "Violation",
    "build_instance",
    "build_schedule",
    "dumps_instance",
    "dumps_schedule",
    "emit_instance",
    "emit_schedule",
    "exact_max_weight",
    "generate_scenario",
    "objective",
    "parse_instance",
    "parse_schedule",
    "render_gantt",
    "sort_plans",
    "validate_schedule",
]
