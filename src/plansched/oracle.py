"""Exact maximiser of the weighted plan count, for desk-scale instances.

The search branches on including or excluding each plan (pruned by the best
achievable remaining weight) and, for an included set, places its tasks one
at a time in nondecreasing start order; each tentative placement is one
search node.  Candidate starts are the task's temporal lower bound and the
completions of already placed tasks that share a resource with it.

The bound on a branch is the weight chosen so far plus every remaining
positive priority: a plan of priority zero or below never adds weight.  The
set that would attain it, the chosen plans plus every remaining plan of
positive priority, is probed before the branch splits, wherever no ancestor
has probed the same set (in strict mode only when it holds every DAG
predecessor of its plans).  A probe is one first descent of the task-level
search, given up at its first backtrack.  A probe that completes is a
feasible set of the bound's weight, so nothing below the branch can weigh
more and the branch closes; one that fails decides nothing, and the branch
splits as it would without it.

At each node every ready task's candidates are gathered as ``(start,
position)`` pairs, where a task's position is its place in the chosen plans'
task list, and tried in sorted order, earliest start first; a pair that
overlaps a placed task on a shared resource is passed over when its turn
comes.  The first descent is therefore list scheduling, and a set that fits
rarely backtracks.  A pair whose start equals the last placed start is
skipped when its position is lower than the last placed task's: tasks that
start together are placed in position order only.  A node has no children
at all once an unplaced task can no longer fit: its latest start is below
the last placed start or its own lower bound, or below the completion plus
lag of a placed predecessor, once all its predecessors are placed.

Why this misses no feasible subset: every feasible schedule can be shifted
left, one task and one tick at a time, until no task can move.  In that
left-shifted schedule each start is pinned, either by its lower bound
(window, release, predecessor completion plus lag) or by the completion of a
task on a shared resource.  Processing times are at least 1 and lags at least
0, so a pinning task and every predecessor start strictly earlier.  Sort the
schedule by ``(start, position)``: each step of that order places a ready task
at a candidate start, no earlier than the last start, and at an equal start
with a higher position, so it is a child the search generates.  No prefix of
that order meets the dead-node condition, since every task left starts no
earlier than the last start and fits in its window after its predecessors;
so the search reaches the whole schedule.

This is exponential; it exists as ground truth for small instances, not as a
solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Instance, Plan, Schedule

# Measured reach, on 20 instances a size from the benchmark's generator at
# desk density (3 resources, two priority levels, horizon 7.5 ticks a plan):
# every instance of 6, 8, 10, 12 and 16 plans is solved, the largest of each
# size within 245, 338, 801, 42,648 and 27,154 nodes.  Callers wanting more
# should raise the limit explicitly.
DEFAULT_NODE_LIMIT = 500_000


@dataclass
class OracleResult:
    """The best selection found, its witness and the search nodes explored.

    ``time_limit_hit`` is set when either limit, nodes or wall clock, stopped
    the search; ``optimum`` is then only a feasible lower bound.  The name
    predates the node limit and stays because callers outside the package
    read it.
    """

    optimum: int
    witness: Schedule
    explored: int
    time_limit_hit: bool


class _Search:
    def __init__(self, instance: Instance, node_limit, time_limit, strict_precedence):
        self.instance = instance
        self.window = instance.window
        self.node_limit = node_limit
        self.deadline = time.perf_counter() + time_limit if time_limit is not None else None
        self.strict_precedence = strict_precedence
        if strict_precedence:
            # a plan is decided only after its DAG predecessors: every edge
            # rises to a strictly higher frontier
            frontier_of = instance.frontier_of
            self.plans = sorted(instance.plans, key=lambda p: (frontier_of[p.id], -p.priority, p.id))
        else:
            self.plans = sorted(instance.plans, key=lambda p: (-p.priority, p.id))
        # the best weight the plans from idx on can add: a plan of priority
        # zero or below never adds any
        self.suffix_weight = [0] * (len(self.plans) + 1)
        for i in range(len(self.plans) - 1, -1, -1):
            self.suffix_weight[i] = self.suffix_weight[i + 1] + max(self.plans[i].priority, 0)

        # the task table, by task number: every task of the instance, numbered once
        tasks = [task for plan in instance.plans for task in plan.tasks]
        number = {task.id: k for k, task in enumerate(tasks)}
        self.task_ids = [task.id for task in tasks]
        self.numbers_of = {plan.id: [number[task.id] for task in plan.tasks] for plan in instance.plans}
        self.length = [task.processing_time for task in tasks]
        self.lowest = [max(self.window.start, task.release) for task in tasks]
        self.latest = [min(task.due, self.window.end) - task.processing_time for task in tasks]
        self.preds = [[(number[task.plan_id, j], lag) for j, lag in task.predecessors] for task in tasks]
        self.neighbours = [
            [m for m, other in enumerate(tasks) if m != k and not task.resources.isdisjoint(other.resources)]
            for k, task in enumerate(tasks)
        ]

        self.explored = 0
        self.limit_hit = False
        self.best_weight = 0  # the empty selection is always feasible
        self.best_plans: list[int] = []
        self.best_starts: dict = {}

    def out_of_budget(self) -> bool:
        if self.limit_hit:
            return True
        if self.node_limit is not None and self.explored >= self.node_limit:
            self.limit_hit = True
        elif self.deadline is not None and time.perf_counter() > self.deadline:
            self.limit_hit = True
        return self.limit_hit

    def choose(self, idx: int, chosen: list[Plan], weight: int, probe: bool = True) -> None:
        """Branch on ``self.plans[idx:]`` below the feasible set ``chosen``.

        ``probe`` says that ``chosen`` plus every remaining plan of positive
        priority is a set no ancestor has tried; its weight is the bound.
        """
        if self.out_of_budget():
            return
        if idx == len(self.plans):
            return
        bound = weight + self.suffix_weight[idx]
        if bound <= self.best_weight:
            return  # even taking everything left cannot beat the incumbent
        if probe:
            attempt = chosen + [p for p in self.plans[idx:] if p.priority > 0]
            if not self.strict_precedence or self._closed(attempt):
                starts = self._feasible_assignment(attempt, probe=True)
                if starts is not None:
                    self._record(attempt, bound, starts)
                    return  # nothing below can weigh more than the bound
        plan = self.plans[idx]
        attempt = chosen + [plan]
        if not self.strict_precedence or self._closed(attempt):
            starts = self._feasible_assignment(attempt)
            if starts is not None:
                new_weight = weight + plan.priority
                if new_weight > self.best_weight:
                    self._record(attempt, new_weight, starts)
                self.choose(idx + 1, attempt, new_weight, probe=False)
        # excluding a plan of positive priority leaves a probe set not yet tried
        self.choose(idx + 1, chosen, weight, probe=plan.priority > 0)

    def _record(self, plans: list[Plan], weight: int, starts: dict) -> None:
        self.best_weight = weight
        self.best_plans = sorted(p.id for p in plans)
        self.best_starts = starts

    def _closed(self, plans: list[Plan]) -> bool:
        """Whether ``plans`` holds every DAG predecessor of its plans."""
        ids = {p.id for p in plans}
        return all(ids.issuperset(self.instance.predecessors_of_plan(p.id)) for p in plans)

    def _feasible_assignment(self, plans: list[Plan], probe: bool = False) -> dict | None:
        """Start times that fit every task of ``plans``, or None.

        With ``probe`` only the first descent is made: None at its first
        backtrack.  ``children()`` scans every task of ``plans`` at each
        node, so one node costs time linear in their task count, quadratic
        for one long chained plan.  That is left as it is: the search is
        exponential anyway.
        """
        order = [k for plan in plans for k in self.numbers_of[plan.id]]  # task numbers by position
        n = len(order)
        length, lowest, latest, preds, neighbours = self.length, self.lowest, self.latest, self.preds, self.neighbours
        start: list = [None] * len(length)  # by task number; None outside ``order``
        end: list = [None] * len(length)

        def children(last_start: int, last_pos: int) -> list[tuple[int, int, int]]:
            """Candidate ``(start, position, task)`` triples at this node in the order they are tried."""
            found = []
            for pos, k in enumerate(order):
                if start[k] is not None:
                    continue
                lo = lowest[k] if lowest[k] > last_start else last_start
                hi = latest[k]
                if lo > hi:
                    return []  # starts never fall along a branch: this task can no longer fit
                for j, lag in preds[k]:
                    if end[j] is None:
                        break  # a predecessor is not placed yet
                    if end[j] + lag > lo:
                        lo = end[j] + lag
                else:
                    if lo > hi:
                        return []
                    cands = {lo}
                    for m in neighbours[k]:
                        if end[m] is not None and lo < end[m] <= hi:
                            cands.add(end[m])
                    for s in cands:
                        if s > last_start or pos > last_pos:  # an equal-start pair is tried in position order
                            found.append((s, pos, k))
            found.sort()
            return found

        def clashes(k: int, s: int, e: int) -> bool:
            for m in neighbours[k]:
                if start[m] is not None and s < end[m] and start[m] < e:
                    return True
            return False

        # depth-first, one iterator of children per open node; a loop and not
        # a recursive closure, which would leave a reference cycle per call
        if self.out_of_budget():
            return None
        placed: list[int] = []
        open_nodes = [iter(children(self.window.start, -1))]
        while open_nodes:
            for s, pos, k in open_nodes[-1]:
                e = s + length[k]
                if not clashes(k, s, e):
                    break
            else:
                if probe:
                    return None
                open_nodes.pop()
                if placed:
                    k = placed.pop()
                    start[k] = end[k] = None
                continue
            self.explored += 1
            start[k] = s
            end[k] = e
            placed.append(k)
            if self.out_of_budget():
                return None
            if len(placed) == n:
                return {self.task_ids[k]: start[k] for k in order}
            open_nodes.append(iter(children(s, pos)))
        return None


def exact_max_weight(
    instance: Instance,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    time_limit: float | None = None,
    *,
    strict_plan_precedence: bool = False,
) -> OracleResult:
    """Maximum achievable priority sum, with a witness schedule.

    When a limit trips, the best selection found so far is returned and
    ``time_limit_hit`` is set.  ``time_limit`` is in seconds and off by
    default, so that the default answer does not depend on host speed.
    ``strict_plan_precedence=True`` allows a plan only when all its DAG
    predecessors are selected too, mirroring the engine's strict mode.
    """
    search = _Search(instance, node_limit, time_limit, strict_plan_precedence)
    search.choose(0, [], 0)
    scheduled = set(search.best_plans)
    witness = Schedule(
        starts=dict(search.best_starts),
        scheduled_plans=list(search.best_plans),
        discarded_plans=[p.id for p in instance.plans if p.id not in scheduled],
    )
    return OracleResult(
        optimum=search.best_weight,
        witness=witness,
        explored=search.explored,
        time_limit_hit=search.limit_hit,
    )
