"""The exact oracle's first task-level search, kept to test the one in ``oracle.py``.

For a chosen plan set it places tasks in nondecreasing start order, trying
the ready tasks in their order in the plan list and each task's candidate
starts in increasing order, and it scans every placed task for a shared
resource.  It tries every order of tasks that start together.  It answers
no probe, so the library's branch and bound runs without its probes of the
bound-attaining set: a differential test compares the library's search with
the plain branch and bound over this task-level search.  With ``grid`` it
tries every integer start instead of the completion-aligned candidates, a
cross-check of the library's candidate rule on tiny inputs.
"""

from __future__ import annotations

from plansched.model import Plan, Task
from plansched.oracle import _Search


class ReferenceSearch(_Search):
    def __init__(self, instance, node_limit, grid=False):
        super().__init__(instance, node_limit, time_limit=None, strict_precedence=False)
        self.grid = grid
        self.task_by_id = {task.id: task for plan in instance.plans for task in plan.tasks}

    def _feasible_assignment(self, plans: list[Plan], probe: bool = False) -> dict | None:
        if probe:
            return None
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
                    end = start + task.processing_time
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


def reference_search(instance, node_limit, grid=False) -> ReferenceSearch:
    """The finished search over ``instance``: read ``best_weight`` and ``limit_hit``."""
    search = ReferenceSearch(instance, node_limit, grid)
    search.choose(0, [], 0)
    return search
