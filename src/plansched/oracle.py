"""Exact maximiser of the weighted plan count, for desk-scale instances.

The search branches on including or excluding each plan (pruned by the best
achievable remaining weight) and, for an included set, places its tasks one
at a time in nondecreasing start order; each tentative placement is one
search node.  Candidate starts are the task's temporal lower bound and the
completions of already placed tasks that share a resource with it.  A flag
widens the candidates to the full integer grid for belt-and-braces runs on
tiny inputs.

At each node every ready task's candidates are gathered as ``(start,
position)`` pairs, where a task's position is its place in the chosen plans'
task list, and tried in sorted order, earliest start first; a pair that
overlaps a placed task on a shared resource is passed over when its turn
comes.  The first descent is therefore list scheduling, and a set that fits
rarely backtracks.  A pair whose start equals the last placed start is
skipped when its position is lower than the last placed task's: tasks that
start together are placed in position order only.

Why this misses no feasible subset: every feasible schedule can be shifted
left, one task and one tick at a time, until no task can move.  In that
left-shifted schedule each start is pinned, either by its lower bound
(window, release, predecessor completion plus lag) or by the completion of a
task on a shared resource.  Processing times are at least 1 and lags at least
0, so a pinning task and every predecessor start strictly earlier.  Sort the
schedule by ``(start, position)``: each step of that order places a ready task
at a candidate start, no earlier than the last start, and at an equal start
with a higher position, so it is a child the search generates and the search
reaches the whole schedule.

This is exponential; it exists as ground truth for small instances, not as a
solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Instance, Plan, Schedule

# Measured reach, on 20 instances a size from the benchmark's generator at
# desk density (3 resources, two priority levels, horizon 7.5 ticks a plan):
# every 6-plan instance is solved within 2,611 nodes, and 19 of 20 8-plan
# instances within 9,849, while the 20th exceeds the node limit below.
# Callers wanting more should raise the limits explicitly.
DEFAULT_NODE_LIMIT = 500_000
DEFAULT_TIME_LIMIT = 30.0


@dataclass
class OracleResult:
    optimum: int
    witness: Schedule
    explored: int
    time_limit_hit: bool


class _Search:
    def __init__(self, instance: Instance, node_limit, time_limit, grid, strict_precedence):
        self.instance = instance
        self.window = instance.window
        self.node_limit = node_limit
        self.deadline = time.perf_counter() + time_limit if time_limit is not None else None
        self.grid = grid
        self.strict_precedence = strict_precedence
        if strict_precedence:
            # a plan is decided only after its DAG predecessors: every edge
            # rises to a strictly higher frontier
            frontier_of = instance.frontier_of
            self.plans = sorted(instance.plans, key=lambda p: (frontier_of[p.id], -p.priority, p.id))
        else:
            self.plans = sorted(instance.plans, key=lambda p: (-p.priority, p.id))
        self.suffix_weight = [0] * (len(self.plans) + 1)
        for i in range(len(self.plans) - 1, -1, -1):
            self.suffix_weight[i] = self.suffix_weight[i + 1] + self.plans[i].priority
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

    def choose(self, idx: int, chosen: list[Plan], weight: int) -> None:
        if self.out_of_budget():
            return
        if idx == len(self.plans):
            return
        if weight + self.suffix_weight[idx] <= self.best_weight:
            return  # even taking everything left cannot beat the incumbent
        plan = self.plans[idx]
        if not self.strict_precedence or self._predecessors_chosen(plan, chosen):
            attempt = chosen + [plan]
            starts = self._feasible_assignment(attempt)
            if starts is not None:
                new_weight = weight + plan.priority
                if new_weight > self.best_weight:
                    self.best_weight = new_weight
                    self.best_plans = sorted(p.id for p in attempt)
                    self.best_starts = starts
                self.choose(idx + 1, attempt, new_weight)
        self.choose(idx + 1, chosen, weight)

    def _predecessors_chosen(self, plan: Plan, chosen: list[Plan]) -> bool:
        chosen_ids = {p.id for p in chosen}
        return chosen_ids.issuperset(self.instance.predecessors_of_plan(plan.id))

    def _feasible_assignment(self, plans: list[Plan]) -> dict | None:
        tasks = [task for plan in plans for task in plan.tasks]
        n = len(tasks)
        position = {task.id: k for k, task in enumerate(tasks)}
        length = [task.processing_time for task in tasks]
        lowest = [max(self.window.start, task.release) for task in tasks]
        latest = [min(task.due, self.window.end) - task.processing_time for task in tasks]
        preds = [[(position[task.plan_id, j], lag) for j, lag in task.predecessors] for task in tasks]
        neighbours = [
            [m for m, other in enumerate(tasks) if m != k and not task.resources.isdisjoint(other.resources)]
            for k, task in enumerate(tasks)
        ]
        start: list = [None] * n
        end: list = [None] * n
        grid = self.grid

        def children(last_start: int, last_k: int) -> list[tuple[int, int]]:
            """Candidate ``(start, position)`` pairs at this node in the order they are tried."""
            found = []
            for k in range(n):
                if start[k] is not None:
                    continue
                lo = lowest[k] if lowest[k] > last_start else last_start
                for j, lag in preds[k]:
                    if end[j] is None:
                        break  # a predecessor is not placed yet
                    if end[j] + lag > lo:
                        lo = end[j] + lag
                else:
                    hi = latest[k]
                    if lo > hi:
                        continue
                    if grid:
                        cands = range(lo, hi + 1)
                    else:
                        cands = {lo}
                        for m in neighbours[k]:
                            if end[m] is not None and lo < end[m] <= hi:
                                cands.add(end[m])
                    for s in cands:
                        if s > last_start or k > last_k:  # an equal-start pair is tried in position order
                            found.append((s, k))
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
            for s, k in open_nodes[-1]:
                e = s + length[k]
                if not clashes(k, s, e):
                    break
            else:
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
                return {task.id: s for task, s in zip(tasks, start)}
            open_nodes.append(iter(children(s, k)))
        return None


def exact_max_weight(
    instance: Instance,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
    *,
    exhaustive_grid: bool = False,
    strict_plan_precedence: bool = False,
) -> OracleResult:
    """Maximum achievable priority sum, with a witness schedule.

    When a limit trips, the best selection found so far is returned and
    ``time_limit_hit`` is set.  ``exhaustive_grid=True`` tries every integer
    start instant instead of the completion-aligned candidates; use it only
    on very small instances.  ``strict_plan_precedence=True`` allows a plan
    only when all its DAG predecessors are selected too, mirroring the
    engine's strict mode.
    """
    search = _Search(instance, node_limit, time_limit, exhaustive_grid, strict_plan_precedence)
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
