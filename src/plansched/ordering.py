"""Ordering of the plan set: precedence layering plus a priority merge.

Plans are first layered by their precedence DAG: the frontier index of a plan
is the longest edge distance from any root (a plan nobody precedes).  Every
edge therefore crosses from a lower frontier to a strictly higher one.  Within
one frontier plans are mutually unordered and get sorted by priority.

The scheduling order merges those per-frontier lists by priority: at each
step it takes the best-priority head among the frontier heads whose DAG
predecessors have all been taken, the lower frontier first on equal priority.
A high-priority successor is thus inserted as soon as its predecessors are.
The DAG orders insertion only; it places no constraint on times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Instance, Plan


@dataclass(frozen=True)
class FrontierPartition:
    """Plans grouped by longest distance from the DAG roots.

    ``frontiers[i]`` lists the plan ids at distance ``i`` (input order
    preserved); ``frontier_of`` maps every plan id to its frontier index.
    """

    frontiers: tuple[tuple[int, ...], ...]
    frontier_of: dict[int, int]


def topological_sort(instance: Instance) -> tuple[list[int], FrontierPartition]:
    """Order plan ids so that every precedence edge points forward.

    Returns the order (frontier by frontier, input order within a frontier)
    together with the :class:`FrontierPartition`.  Cycles cannot occur here:
    instance construction rejects them.
    """
    ids = [p.id for p in instance.plans]
    preds: dict[int, list[int]] = {i: [] for i in ids}
    succs: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in instance.plan_dag:
        preds[b].append(a)
        succs[a].append(b)

    # Longest distance from any root, by propagating along a Kahn traversal.
    depth = {i: 0 for i in ids}
    remaining = {i: len(preds[i]) for i in ids}
    queue = [i for i in ids if remaining[i] == 0]
    while queue:
        node = queue.pop()
        for succ in succs[node]:
            depth[succ] = max(depth[succ], depth[node] + 1)
            remaining[succ] -= 1
            if remaining[succ] == 0:
                queue.append(succ)

    n_frontiers = max(depth.values(), default=-1) + 1
    layers: list[list[int]] = [[] for _ in range(n_frontiers)]
    for i in ids:  # input order within each layer
        layers[depth[i]].append(i)
    partition = FrontierPartition(tuple(tuple(layer) for layer in layers), dict(depth))
    order = [i for layer in layers for i in layer]
    return order, partition


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
    return merge_frontiers(instance, topological_sort(instance)[1], descending=descending)


def merge_frontiers(instance: Instance, partition: FrontierPartition, *, descending: bool = True) -> list[Plan]:
    """The :func:`sort_plans` merge over an already computed ``partition``."""
    by_id = {p.id: p for p in instance.plans}

    def key(plan: Plan) -> int:
        return -plan.priority if descending else plan.priority

    frontiers = [sorted((by_id[i] for i in layer), key=key) for layer in partition.frontiers]
    unmet = {p.id: 0 for p in instance.plans}
    succs: dict[int, list[int]] = {p.id: [] for p in instance.plans}
    for a, b in instance.plan_dag:
        unmet[b] += 1
        succs[a].append(b)

    heads = [0] * len(frontiers)  # position of each frontier's head
    ready = [(key(layer[0]), f) for f, layer in enumerate(frontiers) if unmet[layer[0].id] == 0]
    heapq.heapify(ready)
    out: list[Plan] = []
    while ready:
        _, f = heapq.heappop(ready)
        plan = frontiers[f][heads[f]]
        out.append(plan)
        heads[f] += 1
        for succ in succs[plan.id]:
            unmet[succ] -= 1
            g = partition.frontier_of[succ]
            if unmet[succ] == 0 and frontiers[g][heads[g]].id == succ:
                heapq.heappush(ready, (key(by_id[succ]), g))
        if heads[f] < len(frontiers[f]):
            head = frontiers[f][heads[f]]
            if unmet[head.id] == 0:
                heapq.heappush(ready, (key(head), f))
    return out
