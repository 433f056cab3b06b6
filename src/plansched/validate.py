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

from dataclasses import dataclass, field

from .model import Instance, Schedule, TaskId, UnknownTask, check_schedule_ints, completion_time

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
    """Sum of priorities over fully placed plans."""
    starts = schedule.starts
    return sum(plan.priority for plan in instance.plans if all(task.id in starts for task in plan.tasks))


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check every constraint for ``schedule`` against ``instance``.

    Raises :class:`SchedulingError` when a start, task id or listed plan id is
    not an ``int`` (:func:`plansched.model.check_schedule_ints`, as ``dumps_schedule``
    does), and :class:`UnknownTask` when the schedule names a task or a plan
    the instance does not have; every other problem lands in the report.
    """
    check_schedule_ints(schedule)
    known = {task.id for task in instance.iter_tasks()}
    for task_id in schedule.starts:
        if task_id not in known:
            raise UnknownTask(f"schedule references unknown task {task_id}")
    scheduled, discarded = set(schedule.scheduled_plans), set(schedule.discarded_plans)
    unknown = (scheduled | discarded) - {plan.id for plan in instance.plans}
    if unknown:
        raise UnknownTask(f"schedule lists unknown plans {sorted(unknown)}")

    report = ValidationReport()
    window = instance.window
    starts = schedule.starts

    # One pass over the placed tasks; each kind of violation keeps its own
    # list, and the report lists the kinds in a fixed order.
    windows: list[Violation] = []
    precedences: list[Violation] = []
    by_resource: dict[int, list[tuple[int, int, TaskId]]] = {}
    placed_of: dict[int, int] = {}  # plan id -> how many of its tasks have a start
    for plan in instance.plans:
        placed = 0
        for task in plan.tasks:
            start = starts.get(task.id)
            if start is None:
                continue
            placed += 1
            end = completion_time(task, start)
            if start < task.release or end > task.due:
                windows.append(
                    Violation(
                        TEMPORAL_WINDOW,
                        plan.id,
                        task.index,
                        f"[{start},{end}) outside task window [{task.release},{task.due}]",
                    )
                )
            if start < window.start or end > window.end:
                windows.append(
                    Violation(
                        GLOBAL_WINDOW,
                        plan.id,
                        task.index,
                        f"[{start},{end}) outside global window [{window.start},{window.end}]",
                    )
                )
            for j, lag in task.predecessors:
                pred_start = starts.get((plan.id, j))
                if pred_start is None:
                    continue  # the partial-plan check reports this
                pred_end = completion_time(plan.task(j), pred_start)
                if start < pred_end:
                    precedences.append(
                        Violation(
                            INTRA_PLAN_PRECEDENCE,
                            plan.id,
                            task.index,
                            f"starts at {start} before predecessor {j} completes at {pred_end}",
                        )
                    )
                elif start < pred_end + lag:
                    precedences.append(
                        Violation(
                            TIME_LAG,
                            plan.id,
                            task.index,
                            f"starts at {start}, needs lag {lag} after {pred_end}",
                        )
                    )
            for rho in task.resources:
                by_resource.setdefault(rho, []).append((start, end, task.id))
        placed_of[plan.id] = placed
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

    covered = {plan.id for plan in instance.plans if placed_of[plan.id] == plan.task_count}
    for plan in instance.plans:
        placed = placed_of[plan.id]
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
