"""The scheduling engine: serial insertion of plans driven by an event list.

Tasks are inserted one at a time at the earliest instant where their temporal
constraints hold and every resource they need is free for their whole
duration.  The schedule is decomposed into events: an event records the tasks
starting and completing at its instant and, per resource, whether the interval
up to the next event is occupied.  A task's start is found first by a read-only
walk along the event list from its temporal lower bound, which stops once the
candidate passes the latest start the due date and the window allow; only then
are its start and completion events written, so the list stays linear in the
number of placed tasks.

A plan is all-or-nothing: when one of its tasks cannot be placed, everything
the plan already put into the working state is taken out again, bit-exactly.
Plans are inserted in the order of :func:`plansched.ordering.sort_plans`, a
priority merge of the plan-DAG frontiers that the instance records when it is
built (``Instance.frontier_of``): a plan comes as soon as its DAG
predecessors are in and no ready plan has a better priority.  Consecutive
equal-priority plans of one frontier form a group, and every group, a single
plan included, goes through :func:`schedule_plan_set`: it commits the members
in the order that keeps resources busiest (smallest idle-time sum first); each
candidate is placed, measured and rolled back by the same exact undo, so the
working state is the engine's only state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import (
    Event,
    EventList,
    Instance,
    Plan,
    PredecessorUnscheduled,
    Schedule,
    Task,
    TimeWindow,
    completion_time,
)
from .ordering import sort_plans


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the insertion heuristic.

    strict_plan_precedence: when True, a plan whose DAG predecessor was
        discarded is discarded as well instead of being attempted.
    priority_descending: larger priority value means scheduled earlier.
    """

    strict_plan_precedence: bool = False
    priority_descending: bool = True


@dataclass
class ScheduleResult:
    """Outcome of a full build: the schedule plus the final event list."""

    schedule: Schedule
    events: EventList

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
        pred_start = schedule.start_of((task.plan_id, j))
        if pred_start is None:
            raise PredecessorUnscheduled(f"task {task.id}: predecessor {j} has no start time")
        bound = max(bound, completion_time(plan.task(j), pred_start) + lag)
    return bound


def get_event(t: int, el: EventList) -> Event:
    """Event at instant ``t``, created (and inserted) if missing.

    A created event inherits the resource usage of the nearest preceding
    event: it splits that event's interval, which does not change what is
    occupied when.  With no preceding event everything is free.
    """
    existing = el.at(t)
    if existing is not None:
        return existing
    prev = el.prev_before(t)
    event = Event(t, usage=set(prev.usage) if prev is not None else set())
    el.insert(event)
    return event


def schedule_task(
    task: Task,
    s_w: Schedule,
    el: EventList,
    window: TimeWindow,
    *,
    plan: Plan,
) -> bool:
    """Place ``task`` at its earliest feasible instant, or fail cleanly.

    The start is the first instant from the task's temporal lower bound
    (:func:`earliest_start`) at which every needed resource is free for the
    whole duration, provided the task then completes by its due date and the
    window end.  ``el`` must hold the window sentinel, an event at the window
    start, as :func:`build_schedule` creates it.  On success the start and
    completion events hold the task and the covered intervals are marked busy;
    the function returns True.

    On failure nothing is written, and every task of ``plan`` already placed
    is removed as well (all-or-nothing plans), restoring the state from before
    the plan exactly.
    """
    lower = earliest_start(task, plan, s_w, window)
    latest = min(task.due, window.end) - task.processing_time
    start = _earliest_fit(task, lower, latest, el)
    if start is None:
        rollback_plan(plan, s_w, el)
        return False

    end = completion_time(task, start)
    get_event(start, el).add_start(task.id)
    get_event(end, el).add_completion(task.id)
    s_w.starts[task.id] = start
    for event in el.between(start, end):
        for rho in task.resources:
            event.set_busy(rho)
    return True


def _earliest_fit(task: Task, lower: int, latest: int, el: EventList) -> int | None:
    """First ``t`` in ``[lower, latest]`` with ``task``'s resources free over ``[t, t + p)``.

    Reads the event list only.  A busy interval moves the candidate to the
    interval's end; the walk stops once the candidate passes ``latest``.  The
    interval after the last event is free.  None when no start fits.
    """
    t = lower
    event = el.at_or_before(lower)
    while t <= latest:
        nxt = el.next_after(event.time)
        if nxt is None:
            return t
        if any(event.busy(rho) for rho in task.resources):
            t = nxt.time
        elif nxt.time >= t + task.processing_time:
            return t
        event = nxt
    return None


def rollback_plan(plan: Plan, s_w: Schedule, el: EventList) -> None:
    """Remove every placed task of ``plan`` from the schedule and event list.

    Resource markings are cleared over each removed task's interval (safe:
    resources are unary, so nobody else holds them there) and events that end
    up carrying no task are dropped, except the window sentinel.  The state
    afterwards equals the state before the plan was attempted.
    """
    sentinel = el.first()
    touched: set[int] = set()
    for task in plan.tasks:
        start = s_w.starts.pop(task.id, None)
        if start is None:
            continue
        end = completion_time(task, start)
        el.at(start).starting.discard(task.id)
        el.at(end).completing.discard(task.id)
        touched.update((start, end))
        for event in el.between(start, end):
            for rho in task.resources:
                event.clear_busy(rho)
            touched.add(event.time)
    for t in sorted(touched):
        event = el.at(t)
        if event is not None and event is not sentinel and event.is_empty():
            el.remove(t)
    if plan.id in s_w.scheduled_plans:
        s_w.scheduled_plans.remove(plan.id)


def schedule_plan(plan: Plan, s_w: Schedule, el: EventList, window: TimeWindow) -> bool:
    """Insert all tasks of ``plan`` in order; False (and no state change) if any fails."""
    for task in plan.tasks:
        if not schedule_task(task, s_w, el, window, plan=plan):
            return False
    s_w.scheduled_plans.append(plan.id)
    return True


def idle_time_sum(plan: Plan, s_w: Schedule, el: EventList, window: TimeWindow) -> int:
    """Total idle time the placed ``plan`` leaves behind it.

    For each task: the gap between its start and the latest completion on one
    of its own resources, or the window start when none was used before.
    Requires the plan to be placed in ``s_w``/``el`` already.
    """
    total = 0
    for task in plan.tasks:
        start = s_w.start_of(task.id)
        if start is None:
            raise PredecessorUnscheduled(f"task {task.id} is not placed in the schedule")
        total += start - _latest_release_on(el, task.resources, start, window.start)
    return total


def _latest_release_on(el: EventList, resources, start: int, w_s: int) -> int:
    """Latest instant <= start at which one of ``resources`` turned free.

    Walks event pairs: an occupied interval ending at an event time is a
    completion on that resource.  At ``start`` itself the resource may already
    carry the candidate task's own marking, so the transition test is relaxed
    there.  Falls back to the window start when the resources were never used.
    """
    best = w_s
    prev: Event | None = None
    for event in el.between(w_s, start + 1):
        if prev is not None:
            for rho in resources:
                if prev.busy(rho) and (not event.busy(rho) or event.time == start):
                    best = max(best, event.time)
                    break
        prev = event
    return best


def schedule_plan_set(plans: list[Plan], s_w: Schedule, el: EventList, window: TimeWindow) -> set[int]:
    """Commit a group of equal-priority plans, lowest idle-time first.

    While two or more plans remain, each round trial-places every remaining
    plan in the working state, measures its idle-time sum and rolls it back
    again, then commits the plan with the smallest sum (on ties the last
    examined wins).  Plans whose trial fails are dropped from the group for
    good: more commitments only make placement harder.  The last remaining
    plan has no rival to be measured against and is committed without a
    trial, so a group of one is a plain :func:`schedule_plan`.  Returns the
    ids of the plans that could not be scheduled.
    """
    pending = list(plans)
    unscheduled: set[int] = set()
    while len(pending) > 1:
        best: Plan | None = None
        best_idle: int | None = None
        for plan in list(pending):
            if schedule_plan(plan, s_w, el, window):
                idle = idle_time_sum(plan, s_w, el, window)
                rollback_plan(plan, s_w, el)
                if best_idle is None or idle <= best_idle:
                    best_idle = idle
                    best = plan
            else:
                pending.remove(plan)
                unscheduled.add(plan.id)
        if best is None:
            break
        if not schedule_plan(best, s_w, el, window):
            unscheduled.add(best.id)  # cannot happen: the trial's rollback restored the state
        pending.remove(best)
    for plan in pending:
        if not schedule_plan(plan, s_w, el, window):
            unscheduled.add(plan.id)
    return unscheduled


def build_schedule(instance: Instance, config: EngineConfig | None = None) -> ScheduleResult:
    """Build a feasible schedule for the whole instance.

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
    config = config or EngineConfig()
    window = instance.window
    el = EventList()
    el.insert(Event(window.start))  # window sentinel: scans may start at W_s
    s_w = Schedule()

    frontier_of = instance.frontier_of
    queue = deque(sort_plans(instance, descending=config.priority_descending))
    while queue:
        plan = queue.popleft()
        group = [plan]
        while (
            queue
            and queue[0].priority == plan.priority
            and frontier_of[queue[0].id] == frontier_of[plan.id]
        ):
            group.append(queue.popleft())
        if config.strict_plan_precedence:
            discarded = set(s_w.discarded_plans)
            kept = []
            for member in group:
                if discarded.isdisjoint(instance.predecessors_of_plan(member.id)):
                    kept.append(member)
                else:
                    s_w.discarded_plans.append(member.id)
            group = kept
        unscheduled = schedule_plan_set(group, s_w, el, window)
        # group order keeps the discard list deterministic
        s_w.discarded_plans.extend(member.id for member in group if member.id in unscheduled)
    return ScheduleResult(schedule=s_w, events=el)
