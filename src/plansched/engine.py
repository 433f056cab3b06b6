"""The scheduling engine: serial insertion of plans on per-resource busy timelines.

The working state is the start times plus one timeline per resource of the
instance (``Timelines``); every step below reads and writes only the
timelines of its own tasks' resources.

- :func:`schedule_task` places one task at its earliest feasible instant, or
  writes nothing; :func:`schedule_plan` places a plan's tasks in order and,
  on a failure, takes the plan out again with :func:`rollback_plan`,
  bit-exactly.
- :func:`idle_time_sum` measures the idle time a placed plan leaves.
- :func:`schedule_plan_set` commits a group of equal-priority plans, the
  smallest idle sum first, and states when a kept trial is patched or
  dropped.
- :func:`build_schedule` groups the plans of
  :func:`plansched.ordering.sort_plans` and returns a :class:`ScheduleResult`,
  whose event list is derived from the final start times on first access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .model import (
    Event,
    Instance,
    Plan,
    PredecessorUnscheduled,
    Schedule,
    Task,
    TimeWindow,
    completion_time,
    event_list,
)
from .ordering import sort_plans

Timelines = dict[int, tuple[list[int], list[int]]]
"""Busy intervals per resource: sorted starts and the parallel ends.

The intervals of one resource are disjoint because resources are unary, so
the ends are sorted too.  Callers seed every resource of the instance with
``([], [])``; a timeline stays in the map when it empties.
"""


@dataclass
class ScheduleResult:
    """Outcome of a full build: the schedule, and its event list on demand."""

    schedule: Schedule
    instance: Instance = field(repr=False)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The event list of the schedule, built on first access."""
        return event_list(self.schedule, self.instance)

    @property
    def scheduled_plans(self) -> list[int]:
        return self.schedule.scheduled_plans

    @property
    def discarded_plans(self) -> list[int]:
        return self.schedule.discarded_plans


def earliest_start(task: Task, plan: Plan, schedule: Schedule, window: TimeWindow) -> int:
    """Lower bound for the start of ``task``: window, release and predecessors.

    Every predecessor must already be placed in ``schedule``; each one pushes
    the bound to its completion plus the pair's lag.
    """
    bound = max(window.start, task.release)
    for j, lag in task.predecessors:
        pred_start = schedule.starts.get((task.plan_id, j))
        if pred_start is None:
            raise PredecessorUnscheduled(f"task {task.id}: predecessor {j} has no start time")
        bound = max(bound, completion_time(plan.task(j), pred_start) + lag)
    return bound


def schedule_task(
    task: Task,
    s_w: Schedule,
    busy: Timelines,
    window: TimeWindow,
    *,
    plan: Plan,
) -> bool:
    """Place ``task`` at its earliest feasible instant, or return False.

    The start is the first instant from the task's temporal lower bound
    (:func:`earliest_start`) at which every needed resource is free for the
    whole duration, provided the task then completes by its due date and the
    window end.  On success the start is recorded and the task's interval is
    added to the timeline of each of its resources; the function returns True.
    On failure nothing is written; the tasks of ``plan`` placed before this
    one stay, and undoing them is :func:`schedule_plan`'s job.
    """
    lower = earliest_start(task, plan, s_w, window)
    latest = min(task.due, window.end) - task.processing_time
    start = _earliest_fit(task, lower, latest, busy)
    if start is None:
        return False
    _occupy(task, start, s_w, busy)
    return True


def _occupy(task: Task, start: int, s_w: Schedule, busy: Timelines) -> None:
    """Record ``start`` for ``task`` and add its interval to each of its resources' timelines."""
    s_w.starts[task.id] = start
    end = completion_time(task, start)
    for rho in task.resources:
        starts, ends = busy[rho]
        i = bisect_left(starts, start)
        starts.insert(i, start)
        ends.insert(i, end)


def _earliest_fit(task: Task, lower: int, latest: int, busy: Timelines) -> int | None:
    """First ``t`` in ``[lower, latest]`` with ``task``'s resources free over ``[t, t + p)``.

    On each resource only the last interval that starts before ``t + p`` needs
    a look: ends are sorted as well, so if any interval overlaps ``[t, t + p)``
    that one does, and no start before its end fits.  The candidate jumps to
    that end and the resources are checked again, until none moves it or it
    passes ``latest``.  None when no start fits.
    """
    p = task.processing_time
    lines = [busy[rho] for rho in task.resources]
    t = lower
    while t <= latest:
        moved = False
        for starts, ends in lines:
            i = bisect_left(starts, t + p)
            if i and ends[i - 1] > t:
                t = ends[i - 1]
                moved = True
        if not moved:
            return t
    return None


def rollback_plan(plan: Plan, s_w: Schedule, busy: Timelines) -> None:
    """Remove every placed task of ``plan`` from the start times and the timelines.

    The state afterwards equals the state before the plan was placed;
    ``scheduled_plans`` is not read or written.
    """
    for task in plan.tasks:
        start = s_w.starts.pop(task.id, None)
        if start is None:
            continue
        for rho in task.resources:
            starts, ends = busy[rho]
            i = bisect_left(starts, start)
            del starts[i], ends[i]


def schedule_plan(plan: Plan, s_w: Schedule, busy: Timelines, window: TimeWindow) -> bool:
    """Insert all tasks of ``plan`` in order; False (and no state change) if any fails.

    On the first failure, :func:`rollback_plan` takes out the tasks already placed.
    Only start times and timelines are written: recording the plan in
    ``scheduled_plans`` is the committing caller's job.
    """
    for task in plan.tasks:
        if not schedule_task(task, s_w, busy, window, plan=plan):
            rollback_plan(plan, s_w, busy)
            return False
    return True


def idle_time_sum(
    plan: Plan, s_w: Schedule, busy: Timelines, window: TimeWindow, spans: list | None = None
) -> int:
    """Total idle time the placed ``plan`` leaves behind it.

    For each task: the gap between its start and the latest completion on one
    of its own resources, or the window start when none was used before.
    Requires the plan to be placed in ``s_w``/``busy`` already.  When
    ``spans`` is a list, one ``(lr, s, e)`` per task is appended to it:
    ``[s, e)`` is the task's placed interval, and ``[lr, e)``, from its
    latest release to its completion, is the stretch of each of its
    resources' timelines that its placement and measurement depend on.
    """
    total = 0
    for task in plan.tasks:
        start = s_w.starts.get(task.id)
        if start is None:
            raise PredecessorUnscheduled(f"task {task.id} is not placed in the schedule")
        release = _latest_release_on(busy, task.resources, start, window.start)
        total += start - release
        if spans is not None:
            spans.append((release, start, completion_time(task, start)))
    return total


def _latest_release_on(busy: Timelines, resources, start: int, w_s: int) -> int:
    """Latest instant <= start at which one of ``resources`` turned free.

    The task starting at ``start`` is placed already, so on each of its
    resources its own interval is the first one ending after ``start``, and
    the latest end ``e <= start`` belongs to the interval just before it: the
    resource is free from ``e`` until ``start`` (or ``e == start``, back to
    back).  One bisect per resource finds it.  Falls back to the window start
    when no interval ends by ``start``.
    """
    best = w_s
    for rho in resources:
        ends = busy[rho][1]
        j = bisect_right(ends, start)
        if j and ends[j - 1] > best:
            best = ends[j - 1]
    return best


def schedule_plan_set(plans: list[Plan], s_w: Schedule, busy: Timelines, window: TimeWindow) -> set[int]:
    """Commit a group of equal-priority plans, lowest idle-time first.

    Each round goes over the pending plans in order.  A plan that fails
    placement leaves the group for good: more commitments only make placement
    harder.  A plan without a kept trial that places while it is the only
    one pending has no rival and stays committed by that placement.  Any other
    plan is measured by its idle-time sum and rolled back, and its trial is
    kept: the idle sum and, per task, the span ``(lr, s, e)``, the task's
    start ``s``, its completion ``e`` and ``lr``, its latest release on its
    resources (:func:`idle_time_sum`).  After the round the plan with
    the smallest sum (on ties the last examined) is committed by writing the
    starts of its trial.  These two commits are the only places where a
    plan is appended to ``scheduled_plans``.

    A trial reads nothing but the plan's own tasks and the timelines of their
    resources, and a commit only adds intervals.  An added interval
    ``[a, b)`` on one of a task's resources that overlaps ``[s, e)``
    (``a < e and b > s``) drops the trial.  Any other added interval leaves
    ``[s, e)`` free and the instants before ``s`` no freer, so the start
    stays; if it ends in ``(lr, s]`` it becomes the latest release, and the
    trial is patched in place: ``lr := b``, and the idle sum falls by
    ``b - lr``.  So a kept trial is always exactly what a fresh placement
    and measurement would give.  Each kept span is entered, as ``(plan id,
    trial, span index)``, in a watch list per resource, and a commit visits
    only the lists of its own resources; an entry whose plan was committed,
    dropped or tried again since is stale and is purged on the visit.  The
    next round re-runs only the plans without a kept trial and reads a kept
    trial as if it had been re-run, in ``pending`` order.  A group of ``G``
    plans thus takes at most ``G(G+1)/2`` placements, and exactly that many
    when every plan fits and every commit overlaps every kept start.
    Returns the ids of the plans that could not be scheduled.
    """
    pending: dict[int, Plan] = {}
    for plan in plans:  # not a comprehension: most groups hold one plan, and this is cheaper there
        pending[plan.id] = plan
    unscheduled: set[int] = set()
    trials: dict[int, list] = {}  # plan id -> [idle sum, spans]
    watch: dict[int, list] = {}  # resource -> [(plan id, trial, span index)]
    while pending:
        best: Plan | None = None
        best_idle: int | None = None
        for plan in list(pending.values()):
            trial = trials.get(plan.id)
            if trial is not None:
                idle = trial[0]
            elif not schedule_plan(plan, s_w, busy, window):
                del pending[plan.id]
                unscheduled.add(plan.id)
                continue
            elif len(pending) == 1:
                del pending[plan.id]
                s_w.scheduled_plans.append(plan.id)
                continue
            else:
                spans: list = []
                idle = idle_time_sum(plan, s_w, busy, window, spans)
                rollback_plan(plan, s_w, busy)
                trial = trials[plan.id] = [idle, spans]
                for k, task in enumerate(plan.tasks):
                    for rho in task.resources:
                        watch.setdefault(rho, []).append((plan.id, trial, k))
            if best_idle is None or idle <= best_idle:
                best_idle = idle
                best = plan
        if best is not None:
            del pending[best.id]
            _commit(best, trials.pop(best.id)[1], s_w, busy, trials, watch)
    return unscheduled


def _commit(
    plan: Plan, spans: list, s_w: Schedule, busy: Timelines, trials: dict[int, list], watch: dict[int, list]
) -> None:
    """Commit ``plan`` at the starts of its kept trial ``spans``, then patch or
    drop the kept trials in the watch lists of its resources, by the rule
    :func:`schedule_plan_set` states.
    """
    s_w.scheduled_plans.append(plan.id)
    for task, (_, a, b) in zip(plan.tasks, spans):
        _occupy(task, a, s_w, busy)
        if not trials:
            continue
        for rho in task.resources:
            live = []
            for entry in watch[rho]:
                plan_id, trial, k = entry
                if trials.get(plan_id) is not trial:
                    continue
                lr, s, e = trial[1][k]
                if a < e and b > s:
                    del trials[plan_id]
                    continue
                if lr < b <= s:
                    trial[1][k] = (b, s, e)
                    trial[0] -= b - lr
                live.append(entry)
            watch[rho] = live


def build_schedule(
    instance: Instance, *, strict_plan_precedence: bool = False, priority_descending: bool = True
) -> ScheduleResult:
    """Build a feasible schedule for the whole instance.

    ``strict_plan_precedence``: when True, a plan whose DAG predecessor was
    discarded is discarded as well instead of being attempted.
    ``priority_descending``: a larger priority value is scheduled earlier.

    Plans are processed in :func:`plansched.ordering.sort_plans` order, which
    merges the priority-sorted DAG frontiers (``instance.frontier_of``) by
    priority, the lower frontier first on ties.  Each run of consecutive plans
    of one frontier that share a priority, a single plan included, is handed
    to :func:`schedule_plan_set`.
    In strict mode the members with a discarded DAG predecessor are discarded
    first; members of one frontier never precede each other, so one look at
    the discards made before the group suffices.  Because failed insertions
    restore the working state exactly, the working schedule is feasible after
    every step and is returned as the result.
    """
    window = instance.window
    busy: Timelines = {rho: ([], []) for rho in instance.resources}
    s_w = Schedule()

    frontier_of = instance.frontier_of
    groups: list[list[Plan]] = []
    key = None
    for plan in sort_plans(instance, descending=priority_descending):
        plan_key = (plan.priority, frontier_of[plan.id])
        if plan_key == key:
            groups[-1].append(plan)
        else:
            groups.append([plan])
            key = plan_key
    discarded: set[int] = set()  # the ids in s_w.discarded_plans
    for group in groups:
        if strict_plan_precedence:
            kept = []
            for member in group:
                if discarded.isdisjoint(instance.predecessors_of_plan(member.id)):
                    kept.append(member)
                else:
                    s_w.discarded_plans.append(member.id)
                    discarded.add(member.id)
            group = kept
        unscheduled = schedule_plan_set(group, s_w, busy, window)
        if unscheduled:
            # group order keeps the discard list deterministic
            s_w.discarded_plans.extend(member.id for member in group if member.id in unscheduled)
            discarded |= unscheduled
    return ScheduleResult(schedule=s_w, instance=instance)
