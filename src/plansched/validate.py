"""Independent feasibility checking and objective evaluation.

This module deliberately shares no logic with the engine: it re-derives every
constraint directly from the instance and the start times, so it can catch
engine bugs.  A schedule is feasible when every placed task sits inside its
own window and the global window, intra-plan precedences and lags hold, no
unary resource is held by two tasks at once, and plans are placed
all-or-nothing.

Ordering between plans tied by the plan-level DAG is reported as a warning
only: that relation directs insertion order, it does not constrain times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .model import Instance, Schedule, Task, TaskId, placed_tasks

TEMPORAL_WINDOW = "TemporalWindow"
GLOBAL_WINDOW = "GlobalWindow"
INTRA_PLAN_PRECEDENCE = "IntraPlanPrecedence"
TIME_LAG = "TimeLag"
RESOURCE_OVERLAP = "ResourceOverlap"
PLAN_ORDERING = "PlanOrdering"
PARTIAL_PLAN = "PartialPlan"


@dataclass(frozen=True)
class Violation:
    kind: str
    plan: int
    task: int | None
    detail: str


@dataclass
class ValidationReport:
    """Verdict of a validation run: violations, warnings and objective value."""

    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)
    objective: int = 0

    @property
    def feasible(self) -> bool:
        return not self.violations


def objective(instance: Instance, schedule: Schedule) -> int:
    """Sum of priorities over fully placed plans, read through :func:`plansched.model.placed_tasks`."""
    return placed_objective(instance, placed_tasks(schedule, instance))


def placed_objective(instance: Instance, placed: list[tuple[Task, int]]) -> int:
    """Sum of priorities over the plans whose every task is in ``placed``, a :func:`placed_tasks` list."""
    placed_of = Counter([task.plan_id for task, _ in placed])
    return sum(plan.priority for plan in instance.plans if placed_of[plan.id] == plan.task_count)


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check every constraint for ``schedule`` against ``instance``.

    The schedule is read through :func:`plansched.model.placed_tasks`, as
    :func:`objective` and every writer and render read it: a start, task id
    or listed plan id that is not an ``int``, or a plan listed twice in one
    list, raises :class:`SchedulingError`, and a task or plan the instance
    does not have raises :class:`UnknownTask`.  Every other problem lands in
    the report.
    """
    report = ValidationReport()
    window = instance.window

    # One pass over the placed tasks; each kind of violation keeps its own
    # list, and the report lists the kinds in a fixed order.  ``placed_tasks``
    # yields each plan's tasks in precedence order (``Plan`` sorts them), so a
    # placed predecessor's completion is in ``ends`` before a successor reads it.
    windows: list[Violation] = []
    precedences: list[Violation] = []
    by_resource: dict[int, list[tuple[int, int, TaskId]]] = {rho: [] for rho in instance.resources}
    placed_of: dict[int, int] = {}  # plan id -> how many of its tasks have a start
    ends: dict[TaskId, int] = {}
    for task, start in placed_tasks(schedule, instance):
        plan_id, index = task_id = task.id
        placed_of[plan_id] = placed_of.get(plan_id, 0) + 1
        end = ends[task_id] = start + task.processing_time
        if start < task.release or end > task.due:
            detail = f"[{start},{end}) outside task window [{task.release},{task.due}]"
            windows.append(Violation(TEMPORAL_WINDOW, plan_id, index, detail))
        if start < window.start or end > window.end:
            detail = f"[{start},{end}) outside global window [{window.start},{window.end}]"
            windows.append(Violation(GLOBAL_WINDOW, plan_id, index, detail))
        for j, lag in task.predecessors:
            pred_end = ends.get((plan_id, j))
            if pred_end is None:
                continue  # the partial-plan check reports this
            if start < pred_end:
                detail = f"starts at {start} before predecessor {j} completes at {pred_end}"
                precedences.append(Violation(INTRA_PLAN_PRECEDENCE, plan_id, index, detail))
            elif start < pred_end + lag:
                detail = f"starts at {start}, needs lag {lag} after {pred_end}"
                precedences.append(Violation(TIME_LAG, plan_id, index, detail))
        for rho in task.resources:
            by_resource[rho].append((start, end, task_id))
    report.violations = windows + precedences

    for rho in sorted(by_resource):
        intervals = sorted(by_resource[rho])
        for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                report.violations.append(
                    Violation(
                        RESOURCE_OVERLAP,
                        t2[0],
                        t2[1],
                        f"resource {rho}: task {t1} holds [{s1},{e1}) while task {t2} holds [{s2},{e2})",
                    )
                )

    scheduled, discarded = set(schedule.scheduled_plans), set(schedule.discarded_plans)
    covered = {plan.id for plan in instance.plans if placed_of.get(plan.id) == plan.task_count}
    for plan in instance.plans:
        placed = placed_of.get(plan.id, 0)
        if placed and plan.id not in covered:
            report.violations.append(
                Violation(
                    PARTIAL_PLAN,
                    plan.id,
                    None,
                    f"{placed} of {plan.task_count} tasks placed; plans are all-or-nothing",
                )
            )
        if plan.id in scheduled and plan.id not in covered:
            report.violations.append(
                Violation(PARTIAL_PLAN, plan.id, None, "marked scheduled without complete starts")
            )
        if plan.id in discarded and placed:
            report.violations.append(
                Violation(PARTIAL_PLAN, plan.id, None, "marked discarded but has placed tasks")
            )

    for a, b in sorted(instance.plan_dag):
        if a in covered and b in covered:
            first_a = min(schedule.starts[t.id] for t in instance.plan(a).tasks)
            first_b = min(schedule.starts[t.id] for t in instance.plan(b).tasks)
            if first_b < first_a:
                report.warnings.append(
                    Violation(
                        PLAN_ORDERING,
                        b,
                        None,
                        f"plan {b} starts at {first_b}, before its DAG predecessor {a} at {first_a}",
                    )
                )

    report.objective = sum(p.priority for p in instance.plans if p.id in covered)
    return report
