"""The scheduling engine: serial insertion of plans on per-resource busy timelines.

The working state is the start times plus one timeline per resource of the
instance (``Timelines``), which holds the resource's maximal busy runs; every
step below reads and writes only the timelines of its own tasks' resources.

- :func:`_fit_plan` finds where a plan's tasks go, each at its earliest
  feasible instant, and writes nothing but its own local state: a plan that
  repeats a resource keeps its fitted intervals as timelines of its own.
- :func:`_idle_sum` measures the idle time a fitted plan would leave.
- :func:`schedule_plan_set`, the one public step, commits a group of
  equal-priority plans, a group of one included, the smallest idle sum
  first, ends a round at an idle sum of 0, and states when a kept trial is
  patched or dropped.
- :func:`_commit` alone writes the working state: it records a plan and its
  start times, and adds its tasks to the timelines through :func:`_occupy`,
  the only writer of timelines.
- :func:`build_schedule` groups the plans of
  :func:`plansched.ordering.sort_plans` and returns a :class:`ScheduleResult`,
  whose event list is derived from the final start times on first access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .model import Event, Instance, Plan, Schedule, Task, TimeWindow, event_list
from .ordering import sort_plans

_NO_TRIALS = MappingProxyType({})  # the trials and watch lists of a group of one: read-only, empty

Timelines = dict[int, tuple[list[int], list[int]]]
"""Maximal busy runs per resource: sorted starts and the parallel ends.

A run is a stretch of back-to-back task intervals.  Two runs of one resource
neither overlap, as resources are unary, nor touch, as :func:`_occupy` merges
them, so ``ends[i] < starts[i + 1]`` and the ends are sorted too.  Callers
seed every resource that is read or written with ``([], [])``: the working
timelines every resource of the instance, a plan's own every resource of
the plan.  Intervals are only ever added, so a run is never split.
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


def _lower_bound(task: Task, window: TimeWindow, completions: dict[int, int]) -> int:
    """The latest of the window start, the release and each predecessor's completion (by index) plus lag."""
    # comparisons, not max(): this runs for every task of every fit
    bound = window.start if window.start > task.release else task.release
    for j, lag in task.predecessors:
        ready = completions[j] + lag
        if ready > bound:
            bound = ready
    return bound


def _occupy(task: Task, start: int, end: int, busy: Timelines) -> None:
    """Add ``task``'s interval ``[start, end)`` to each of its resources' timelines.

    The interval is free, so it joins the run that ends at ``start`` and the
    run that starts at ``end``: it extends the one, the other, or bridges both
    into one run; next to neither, it is a new run.  :func:`_commit` calls it
    on the working timelines, and :func:`_fit_plan` on a plan's own.
    """
    for rho in task.resources:
        starts, ends = busy[rho]
        i = bisect_left(starts, start)  # runs before i end by start, runs from i start at end or later
        if i < len(starts) and starts[i] == end:
            if i and ends[i - 1] == start:  # bridges runs i - 1 and i
                ends[i - 1] = ends[i]
                del starts[i], ends[i]
            else:
                starts[i] = start
        elif i and ends[i - 1] == start:
            ends[i - 1] = end
        else:
            starts.insert(i, start)
            ends.insert(i, end)


def _earliest_fit(task: Task, lower: int, layers: tuple[Timelines, ...], window: TimeWindow) -> int | None:
    """First ``t >= lower`` with ``task``'s resources free over ``[t, t + p)``, or None.

    The task must complete by its due date and the window end.  ``layers``
    holds the timelines to keep clear of: the working ones, and, once its plan
    repeats a resource, the plan's own (:func:`_fit_plan`).  On each resource
    of each layer only the last run that starts before ``t + p`` needs a look:
    ends are sorted as well, so if any run overlaps ``[t, t + p)`` that one
    does, and no start before its end fits.  The candidate jumps to the end of
    any run that overlaps it, and all are checked again, until none moves it
    or it passes the latest start.  The candidate never moves back, so each
    jump passes one run for good: the jumps of one call are at most the runs
    on the task's resources in all layers, and its passes at most one more,
    each one bisect per resource and layer.
    """
    p = task.processing_time
    # comparisons, not min(), and no per-call list: this runs for every task of every fit
    latest = (task.due if task.due < window.end else window.end) - p
    resources = task.resources
    t = lower
    while t <= latest:
        moved = False
        for timelines in layers:
            for rho in resources:
                starts, ends = timelines[rho]
                i = bisect_left(starts, t + p)
                if i and ends[i - 1] > t:
                    t = ends[i - 1]
                    moved = True
        if not moved:
            return t
    return None


def _fit_plan(plan: Plan, busy: Timelines, window: TimeWindow) -> list[tuple[Task, int, int]] | None:
    """Where the tasks of ``plan`` go on ``busy``: ``(task, start, end)`` each, in plan order.

    None if a task does not fit.  Nothing but local state is written.  Each
    task gets its earliest fit (:func:`_earliest_fit`) from its lower bound
    (:func:`_lower_bound`, reading its predecessors' completions from the
    tasks fitted before it), clear of the timelines and of the plan's own
    earlier tasks on a shared resource.  Most plans use each resource once,
    and their tasks are checked against ``busy`` alone.  At the first task
    that meets a resource of an earlier one, the intervals fitted so far
    become the plan's own timelines, written by :func:`_occupy` as the
    working ones are, and every later task is checked against both and then
    added to its own.
    """
    fitted = []
    completions: dict[int, int] = {}
    used: set[int] = set()  # the resources of the tasks fitted so far, until own exists
    own: Timelines | None = None
    layers = (busy,)
    for task in plan.tasks:
        if own is None and not used.isdisjoint(task.resources):  # the plan repeats a resource
            own = {rho: ([], []) for other in plan.tasks for rho in other.resources}
            for other, s, e in fitted:
                _occupy(other, s, e, own)
            layers = (busy, own)
        used |= task.resources
        start = _earliest_fit(task, _lower_bound(task, window, completions), layers, window)
        if start is None:
            return None
        end = completions[task.index] = start + task.processing_time
        fitted.append((task, start, end))
        if own is not None:
            _occupy(task, start, end, own)
    return fitted


def _idle_sum(fitted: list[tuple[Task, int, int]], busy: Timelines, w_s: int, spans: list) -> int:
    """Total idle time the fitted plan leaves behind it, and its spans.

    For each task: the gap between its start and its latest release
    (:func:`_latest_release_on`).  One ``(lr, s, e)`` per task is appended
    to ``spans``: ``[s, e)`` is the task's interval, and ``[lr, e)``, from its
    latest release to its completion, is the stretch of each of its
    resources' timelines that its fit and measurement depend on.  Only when
    the plan repeats a resource are its task ends gathered, sorted per
    resource, for :func:`_latest_release_on`.
    """
    own_ends: dict[int, list[int]] | None = None
    used: set[int] = set()
    for task, _, _ in fitted:
        if not used.isdisjoint(task.resources):  # the plan repeats a resource
            own_ends = {}
            for other, _, end in fitted:
                for rho in other.resources:
                    own_ends.setdefault(rho, []).append(end)
            for ends in own_ends.values():
                ends.sort()
            break
        used |= task.resources
    total = 0
    for task, start, end in fitted:
        release = _latest_release_on(busy, task, start, w_s, own_ends)
        total += start - release
        spans.append((release, start, end))
    return total


def _latest_release_on(
    busy: Timelines, task: Task, start: int, w_s: int, own_ends: dict[int, list[int]] | None
) -> int:
    """Latest instant <= ``start`` at which one of ``task``'s resources turned free.

    That is the latest end ``e <= start`` of an interval on one of its
    resources, found by one bisect per resource: in the timelines (the latest
    task end by ``start`` is a run end, as no run covers ``start``), and in
    ``own_ends``, the sorted ends of its plan's tasks per resource, earlier
    or later in the plan, which the timelines do not hold yet.  These are
    task ends, not runs: the run of the plan that holds the task may bridge
    an earlier task's end.  ``own_ends`` is None when the plan uses each
    resource once, as then the only plan task on the task's resources is the
    task itself, which ends after ``start``.  Falls back to the window start
    when no interval ends by ``start``.
    """
    best = w_s
    for rho in task.resources:
        ends = busy[rho][1]
        j = bisect_right(ends, start)
        if j and ends[j - 1] > best:
            best = ends[j - 1]
        if own_ends is not None:
            ends = own_ends[rho]
            j = bisect_right(ends, start)
            if j and ends[j - 1] > best:
                best = ends[j - 1]
    return best


def schedule_plan_set(plans: list[Plan], s_w: Schedule, busy: Timelines, window: TimeWindow) -> set[int]:
    """Commit a group of equal-priority plans, lowest idle-time first.

    A trial writes nothing: :func:`_fit_plan` finds where a plan's tasks
    would go and :func:`_idle_sum` measures the idle time they would leave.
    Each round scans the pending plans from the end.  A plan that does not
    fit leaves the group for good: more commitments only make fitting harder.
    Only a group of one plan, which has no rival, is committed at its fit at
    once, with no idle sum and no round.  Any other plan that fits keeps its
    trial: the idle sum, the fit and, per task, the span ``(lr, s, e)``, the
    task's start ``s``, its completion ``e`` and ``lr``, its latest release
    (:func:`_latest_release_on`).  The round takes a new best only on a
    strictly smaller idle sum, so ties go to the plan latest in ``pending``,
    and it stops at the first idle sum of 0: no plan after that one beat it,
    and none before it can, as an idle sum is never negative.  The plans
    before it are not tried in that round, which changes no outcome: a kept
    trial is what a fresh fit would give, and a plan that does not fit now
    fits no better later.  The best plan is committed (:func:`_commit`) at
    the fit of its trial.

    A trial reads nothing but the plan's own tasks and the timelines of their
    resources, and a commit only adds intervals.  An added interval
    ``[a, b)`` on one of a task's resources that overlaps ``[s, e)``
    (``a < e and b > s``) drops the trial.  Any other added interval leaves
    ``[s, e)`` free and the instants before ``s`` no freer, so the start
    stays; if it ends in ``(lr, s]`` it becomes the latest release, and the
    trial is patched in place: ``lr := b``, and the idle sum falls by
    ``b - lr``.  So a kept trial is always exactly what a fresh fit and
    measurement would give.  Each kept span is entered, as ``(plan id,
    trial, span index)``, in a watch list per resource, which the commits on
    that resource visit; an entry whose plan was committed, dropped or tried
    again since is stale.  The next round fits again only the plans without
    a kept trial and reads a kept trial as if it had been fitted again.  A
    group of ``G`` plans thus takes at most ``G(G+1)/2`` fits, and exactly
    that many when every plan fits, every commit overlaps every kept start
    and no idle sum is 0.
    Returns the ids of the plans that could not be scheduled.
    """
    if len(plans) == 1:  # most groups: no rival, so no idle sum, no trial and no round
        plan = plans[0]
        fitted = _fit_plan(plan, busy, window)
        if fitted is None:
            return {plan.id}
        _commit(plan, fitted, s_w, busy, _NO_TRIALS, _NO_TRIALS)
        return set()
    pending = {plan.id: plan for plan in plans}
    unscheduled: set[int] = set()
    trials: dict[int, list] = {}  # plan id -> [idle sum, spans, fit]
    watch: dict[int, list] = {}  # resource -> [(plan id, trial, span index)]
    while pending:
        best: Plan | None = None
        best_idle: int | None = None
        for plan in reversed(list(pending.values())):
            trial = trials.get(plan.id)
            if trial is not None:
                idle = trial[0]
            else:
                fitted = _fit_plan(plan, busy, window)
                if fitted is None:
                    del pending[plan.id]
                    unscheduled.add(plan.id)
                    continue
                spans: list = []
                idle = _idle_sum(fitted, busy, window.start, spans)
                trial = trials[plan.id] = [idle, spans, fitted]
                for k, task in enumerate(plan.tasks):
                    for rho in task.resources:
                        watch.setdefault(rho, []).append((plan.id, trial, k))
            if best_idle is None or idle < best_idle:
                best_idle = idle
                best = plan
                if idle == 0:
                    break
        if best is not None:
            del pending[best.id]
            _commit(best, trials.pop(best.id)[2], s_w, busy, trials, watch)
    return unscheduled


def _commit(
    plan: Plan, fitted: list, s_w: Schedule, busy: Timelines, trials: dict[int, list], watch: dict[int, list]
) -> None:
    """Record ``plan`` in ``scheduled_plans``, write its tasks' starts and,
    through :func:`_occupy`, their intervals, and patch or drop the kept
    trials in the watch lists of its resources, by the rule
    :func:`schedule_plan_set` states.

    ``fitted`` holds per task a triple ``(task, s, e)`` whose last two entries
    are the task's start and completion: the fit (:func:`_fit_plan`) of a
    lone plan, or the one a kept trial holds, still exact as a patch moves
    no start.  A group of one passes ``_NO_TRIALS`` for both maps, so no
    watch list is visited.  One commit costs, for each committed task, one
    visit to every entry in the watch lists of its resources, stale entries
    included, and each visit purges the stale entry it finds; nothing is
    rolled back.
    """
    s_w.scheduled_plans.append(plan.id)
    starts = s_w.starts
    for task, a, b in fitted:
        starts[task.id] = a
        _occupy(task, a, b, busy)
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


def build_schedule(instance: Instance, *, strict_plan_precedence: bool = False) -> ScheduleResult:
    """Build a feasible schedule for the whole instance.

    ``strict_plan_precedence``: when True, a plan whose DAG predecessor was
    discarded is discarded as well instead of being attempted.

    Plans are processed in the one :func:`plansched.ordering.sort_plans`
    order, highest priority first: it merges the priority-sorted DAG frontiers
    (``instance.frontier_of``) by priority, the lower frontier first on ties.
    Each run of consecutive plans of one frontier that share a priority, a
    single plan included, is handed to :func:`schedule_plan_set`.
    In strict mode the members with a discarded DAG predecessor are discarded
    first; members of one frontier never precede each other, so one look at
    the discards made before the group suffices.  Because only plans that fit
    whole are written, the working schedule is feasible after every step and
    is returned as the result.
    """
    window = instance.window
    busy: Timelines = {rho: ([], []) for rho in instance.resources}
    s_w = Schedule()

    frontier_of = instance.frontier_of
    groups: list[list[Plan]] = []
    priority = frontier = None  # those of the last group
    for plan in sort_plans(instance):
        if plan.priority == priority and frontier_of[plan.id] == frontier:
            groups[-1].append(plan)
        else:
            groups.append([plan])
            priority, frontier = plan.priority, frontier_of[plan.id]
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
