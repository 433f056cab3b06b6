"""A reference model of the insertion heuristic, written for reading, not speed.

It shares no code with the engine or the ordering: occupancy is a set of busy
ticks per resource, a start is found by trying every instant in turn, the plan
order is recomputed from ``plan_dag`` by rescanning frontier heads, and the
idle metric is defined tick by tick.  The differential test in
``test_reference.py`` holds :func:`plansched.build_schedule` to it, and the
engine tests hold single fits and idle sums to :func:`_place`,
:func:`_spans` and :func:`_idle`.
"""

from __future__ import annotations


def plan_order(instance):
    """Plans merged by priority across DAG frontiers, rescanning every head at each pick.

    A plan's frontier is its longest edge distance from a root, computed here
    from the edges alone.  Returns ``(plan, frontier)`` pairs.
    """
    depth = {p.id: 0 for p in instance.plans}
    for _ in instance.plans:
        for a, b in instance.plan_dag:
            depth[b] = max(depth[b], depth[a] + 1)
    lists = [
        sorted((p for p in instance.plans if depth[p.id] == f), key=lambda p: -p.priority)
        for f in range(max(depth.values(), default=-1) + 1)
    ]
    taken = []
    while any(lists):
        ready = [
            (-layer[0].priority, f)
            for f, layer in enumerate(lists)
            if layer and all(a in {p.id for p, _ in taken} for a, b in instance.plan_dag if b == layer[0].id)
        ]
        f = min(ready)[1]
        taken.append((lists[f].pop(0), f))
    return taken


def _place(plan, busy, starts, window):
    """Place ``plan`` task by task at the first instant whose ticks are all free; None if one fails."""
    busy = {rho: set(ticks) for rho, ticks in busy.items()}
    starts = dict(starts)
    for task in plan.tasks:
        lower = max([window.start, task.release] + [
            starts[(plan.id, j)] + plan.task(j).processing_time + lag for j, lag in task.predecessors
        ])
        ticks = range(task.processing_time)
        for t in range(lower, min(task.due, window.end) - task.processing_time + 1):
            if not any(t + k in busy.get(rho, ()) for rho in task.resources for k in ticks):
                break
        else:
            return None
        starts[task.id] = t
        for rho in task.resources:
            busy.setdefault(rho, set()).update(t + k for k in ticks)
    return busy, starts


def _release(task, busy, start, window):
    """The latest tick t <= ``start`` where one of the task's resources is busy
    at t - 1 and free at t (or t is the start itself); else the window start."""
    return next((t for t in range(start, window.start, -1) if any(
        t - 1 in busy.get(rho, ()) and (t not in busy.get(rho, ()) or t == start) for rho in task.resources
    )), window.start)


def _spans(plan, busy, starts, window):
    """Per task of the placed ``plan``: its :func:`_release`, start and completion."""
    return [
        (_release(task, busy, starts[task.id], window), starts[task.id], starts[task.id] + task.processing_time)
        for task in plan.tasks
    ]


def _idle(plan, busy, starts, window):
    """The gaps from each task's release to its start, summed over the placed ``plan``."""
    return sum(start - release for release, start, _ in _spans(plan, busy, starts, window))


def busy_ticks(instance, starts):
    """The busy ticks per resource of the tasks placed at ``starts``."""
    busy = {}
    for task_id, start in starts.items():
        task = instance.task(task_id)
        for rho in task.resources:
            busy.setdefault(rho, set()).update(range(start, start + task.processing_time))
    return busy


def reference_build(instance, strict=False):
    """``(starts, commit order, discards)`` as the heuristic defines them."""
    busy, starts, scheduled, discarded = {}, {}, [], []
    order = plan_order(instance)
    while order:
        group = [order.pop(0)]
        while order and order[0][0].priority == group[0][0].priority and order[0][1] == group[0][1]:
            group.append(order.pop(0))
        pending = [plan for plan, _ in group]
        if strict:
            cut = [p for p in pending if any(a in discarded for a, b in instance.plan_dag if b == p.id)]
            discarded += [p.id for p in cut]
            pending = [p for p in pending if p not in cut]
        members, failed = list(pending), set()
        while pending:
            best = best_idle = None
            for plan in list(pending):
                placed = _place(plan, busy, starts, instance.window)
                if placed is None:
                    pending.remove(plan)
                    failed.add(plan.id)
                elif len(pending) == 1:
                    best = plan
                else:
                    idle = _idle(plan, *placed, instance.window)
                    if best_idle is None or idle <= best_idle:
                        best, best_idle = plan, idle
            if best is None:
                break
            busy, starts = _place(best, busy, starts, instance.window)
            scheduled.append(best.id)
            pending.remove(best)
        discarded += [p.id for p in members if p.id in failed]
    return starts, scheduled, discarded
