"""Ordering of the plan set: a priority merge of the plan-DAG frontiers.

The frontiers come from :attr:`plansched.model.Instance.frontier_of`: a plan's
frontier is its longest edge distance from any root, so every edge crosses
from a lower frontier to a strictly higher one.  Within one frontier plans are
mutually unordered and get sorted by priority, highest first.

The one scheduling order merges those per-frontier lists by priority: at each
step it takes the highest-priority head among the frontier heads whose DAG
predecessors have all been taken, the lower frontier first on equal priority.
Only a frontier's head may go next: a ready plan waits behind an unready
plan of equal or higher priority listed before it in the same frontier, even
when lower-priority plans of other frontiers go first meanwhile.  So the input
order of two unrelated equal-priority plans can decide which of them fits.
The DAG orders insertion only; it places no constraint on times.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

from .model import Instance, Plan

_priority = attrgetter("priority")


def sort_plans(instance: Instance) -> list[Plan]:
    """Plans in scheduling order: a priority merge of the sorted frontiers.

    Each frontier is sorted by priority, highest first.  The sort is stable,
    so equal-priority plans of one frontier keep their input order and runs
    are reproducible.  The merge then repeatedly takes the highest-priority
    frontier head whose DAG predecessors have all been taken; on equal
    priority the lower frontier goes first.  The lowest non-empty frontier's
    head is always ready, so the merge never stalls.  Each frontier's priority
    order is kept, every precedence edge points forward, and an instance
    without a plan DAG (a single frontier) is ordered by priority alone.

    An instance without a plan DAG has one frontier, so its order is that
    frontier's stable sort, returned as it is.  Otherwise ready heads sit in
    a heap keyed by ``(-priority, frontier)``, and each plan counts its
    untaken predecessors.  Each step pops one entry, takes that frontier's
    head, pushes the frontier of every successor that became a ready head,
    and pushes the frontier back if its next head is ready.  The cost is one
    sort per frontier, then, with a DAG, O(log F) per plan for F frontiers
    and O(1) per DAG edge.
    """
    if not instance.plan_dag:  # one frontier: nothing to merge
        return sorted(instance.plans, key=_priority, reverse=True)
    frontier_of = instance.frontier_of
    frontiers: list[list[Plan]] = [[] for _ in range(max(frontier_of.values(), default=-1) + 1)]
    for plan in instance.plans:  # input order within each frontier
        frontiers[frontier_of[plan.id]].append(plan)
    for layer in frontiers:
        layer.sort(key=_priority, reverse=True)  # a reversed sort stays stable
    unmet = dict.fromkeys(frontier_of, 0)
    for _, b in instance.plan_dag:
        unmet[b] += 1
    successors_of = instance.successors_of_plan

    heads = [0] * len(frontiers)  # position of each frontier's head
    ready = [(-layer[0].priority, f) for f, layer in enumerate(frontiers) if unmet[layer[0].id] == 0]
    heapq.heapify(ready)
    out: list[Plan] = []
    while ready:
        _, f = heapq.heappop(ready)
        layer = frontiers[f]
        plan = layer[heads[f]]
        out.append(plan)
        for succ in successors_of(plan.id):  # each in a higher frontier than f
            unmet[succ] -= 1
            g = frontier_of[succ]
            if unmet[succ] == 0 and frontiers[g][heads[g]].id == succ:
                heapq.heappush(ready, (-frontiers[g][heads[g]].priority, g))
        h = heads[f] = heads[f] + 1
        if h < len(layer) and unmet[layer[h].id] == 0:  # an unready head is pushed by its last predecessor
            heapq.heappush(ready, (-layer[h].priority, f))
    return out
