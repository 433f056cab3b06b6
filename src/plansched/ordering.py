"""Ordering of the plan set: a priority merge of the plan-DAG frontiers.

The frontiers come from :attr:`plansched.model.Instance.frontier_of`: a plan's
frontier is its longest edge distance from any root, so every edge crosses
from a lower frontier to a strictly higher one.  Within one frontier plans are
mutually unordered and get sorted by priority.

The scheduling order merges those per-frontier lists by priority: at each
step it takes the best-priority head among the frontier heads whose DAG
predecessors have all been taken, the lower frontier first on equal priority.
A high-priority successor is thus inserted as soon as its predecessors are.
The DAG orders insertion only; it places no constraint on times.
"""

from __future__ import annotations

import heapq

from .model import Instance, Plan


def sort_plans(instance: Instance, *, descending: bool = True) -> list[Plan]:
    """Plans in scheduling order: a priority merge of the sorted frontiers.

    Each frontier is sorted by priority; higher priority first by default,
    ``descending=False`` inverts that for experiments.  The sort is stable, so
    equal-priority plans of one frontier keep their input order and runs are
    reproducible.  The merge then repeatedly takes the best-priority frontier
    head whose DAG predecessors have all been taken; on equal priority the
    lower frontier goes first.  The lowest non-empty frontier's head is always
    ready, so the merge never stalls.  Each frontier's priority order is kept,
    every precedence edge points forward, and an instance without a plan DAG
    (a single frontier) is ordered by priority alone.

    Ready heads sit in a heap and each plan counts its untaken predecessors,
    so the merge costs O(K log K + E) for K plans and E DAG edges.
    """

    def key(plan: Plan) -> int:
        return -plan.priority if descending else plan.priority

    frontier_of = instance.frontier_of
    frontiers: list[list[Plan]] = [[] for _ in range(max(frontier_of.values(), default=-1) + 1)]
    for plan in instance.plans:  # input order within each frontier
        frontiers[frontier_of[plan.id]].append(plan)
    for layer in frontiers:
        layer.sort(key=key)
    unmet = {p.id: len(instance.predecessors_of_plan(p.id)) for p in instance.plans}

    heads = [0] * len(frontiers)  # position of each frontier's head
    ready = [(key(layer[0]), f) for f, layer in enumerate(frontiers) if unmet[layer[0].id] == 0]
    heapq.heapify(ready)
    out: list[Plan] = []
    while ready:
        _, f = heapq.heappop(ready)
        plan = frontiers[f][heads[f]]
        out.append(plan)
        heads[f] += 1
        for succ in instance.successors_of_plan(plan.id):
            unmet[succ] -= 1
            g = frontier_of[succ]
            if unmet[succ] == 0 and frontiers[g][heads[g]].id == succ:
                heapq.heappush(ready, (key(frontiers[g][heads[g]]), g))
        if heads[f] < len(frontiers[f]):
            head = frontiers[f][heads[f]]
            if unmet[head.id] == 0:
                heapq.heappush(ready, (key(head), f))
    return out
