"""Exact maximiser of the weighted plan count, for desk-scale instances.

The search branches on including or excluding each plan (pruned by the best
achievable remaining weight) and, for an included set, enumerates start times
task by task in nondecreasing start order.  Candidate starts are the task's
temporal lower bound and the completions of already placed tasks that share a
resource with it: in a left-shifted schedule every start is pinned either by
release/window/lag or by a completion on a shared unary resource, so this
candidate set misses no feasible subset.  A flag widens the candidates to the
full integer grid for belt-and-braces runs on tiny inputs.

This is exponential; it exists as ground truth for small instances, not as a
solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Instance, Plan, Schedule, Task, completion_time

# Beyond roughly 6 plans / 12 tasks / horizon 40 the limits below will start
# to bite; callers wanting more should raise them explicitly.
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
        self.task_by_id = {task.id: task for plan in instance.plans for task in plan.tasks}
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

    def choose(self, idx: int, chosen: list[Plan]) -> None:
        if self.out_of_budget():
            return
        weight = sum(p.priority for p in chosen)
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
                self.choose(idx + 1, attempt)
        self.choose(idx + 1, chosen)

    def _predecessors_chosen(self, plan: Plan, chosen: list[Plan]) -> bool:
        chosen_ids = {p.id for p in chosen}
        return chosen_ids.issuperset(self.instance.predecessors_of_plan(plan.id))

    def _feasible_assignment(self, plans: list[Plan]) -> dict | None:
        tasks = [(plan, task) for plan in plans for task in plan.tasks]
        placed: dict = {}

        def lower_bound(plan: Plan, task: Task) -> int | None:
            bound = max(self.window.start, task.release)
            for j, lag in task.predecessors:
                pred = placed.get((plan.id, j))
                if pred is None:
                    return None  # predecessor not placed yet
                bound = max(bound, pred[1] + lag)
            return bound

        def candidates(plan: Plan, task: Task, bound: int, floor: int) -> list[int]:
            latest = min(task.due, self.window.end) - task.processing_time
            lo = max(bound, floor)
            if lo > latest:
                return []
            if self.grid:
                return list(range(lo, latest + 1))
            cands = {lo}
            for tid, (s, e) in placed.items():
                other = self.task_by_id[tid]
                if other.resources & task.resources and lo <= e <= latest:
                    cands.add(e)
            return sorted(cands)

        def conflicts(task: Task, start: int, end: int) -> bool:
            for tid, (s, e) in placed.items():
                other = self.task_by_id[tid]
                if other.resources & task.resources and start < e and s < end:
                    return True
            return False

        def extend(last_start: int) -> bool:
            if self.out_of_budget():
                return False
            if len(placed) == len(tasks):
                return True
            for plan, task in tasks:
                if (plan.id, task.index) in placed:
                    continue
                bound = lower_bound(plan, task)
                if bound is None:
                    continue
                for start in candidates(plan, task, bound, last_start):
                    end = completion_time(task, start)
                    if conflicts(task, start, end):
                        continue
                    self.explored += 1
                    placed[(plan.id, task.index)] = (start, end)
                    if extend(start):
                        return True
                    del placed[(plan.id, task.index)]
            return False

        if extend(self.window.start):
            return {tid: se[0] for tid, se in placed.items()}
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
    search.choose(0, [])
    witness = Schedule(
        starts=dict(search.best_starts),
        scheduled_plans=list(search.best_plans),
        discarded_plans=[p.id for p in instance.plans if p.id not in set(search.best_plans)],
    )
    return OracleResult(
        optimum=search.best_weight,
        witness=witness,
        explored=search.explored,
        time_limit_hit=search.limit_hit,
    )
