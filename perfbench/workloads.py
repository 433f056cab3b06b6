"""Seeded instance pools for the benchmark workloads.

Every workload is a pool of instances made from ``--seed`` alone; the
program under test only ever sees the generated inputs.  Random instances
are *balanced*: priority levels and task counts are dealt out in exact
proportions and then shuffled, so two pools differ in detail but not in
shape, which keeps run-to-run spread down without fixing the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Params:
    """Generator parameters of a random instance.

    levels: number of priority levels, dealt out evenly, so each level forms
        an equal-priority group of ``plans / levels`` plans; None gives every
        plan its own priority.
    slack: largest extra width of a plan window, as a share of the horizon.
    chain: chance that a task waits for the previous task of its plan.
    """

    plans: int
    resources: int
    levels: int | None
    horizon: int
    max_tasks: int
    max_p: int
    slack: float
    chain: float
    max_lag: int

    def halved(self) -> "Params":
        """Same density at half the plans: half the plans on half the horizon."""
        return replace(self, plans=self.plans // 2, horizon=self.horizon // 2)


@dataclass(frozen=True)
class Workload:
    name: str
    params: Params | None  # None: the eight built-in scenarios
    pool_size: int
    oracle: bool = False  # also run the exact oracle on every instance
    doubling: bool = False  # the traced run also times a half-size pool


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's own benchmark, 32-64 plans; the only workload where
        # parse, dump, validate and gantt are a visible share of the pipeline.
        Workload("scenarios", None, 8),
        # Equal-priority groups of 16: nearly all build time is the trial
        # placements of schedule_plan_set (copies and idle-time sums).
        Workload("groups", Params(32, 12, 2, 120, 4, 20, 1 / 3, 0.5, 0), 110, doubling=True),
        # Every plan its own priority, so trials, copies and idle sums never
        # run; about 43 % of plans are discarded, so scans and rollbacks do.
        Workload("congested", Params(128, 6, None, 512, 4, 20, 1 / 12, 0.5, 0), 110),
        # Desk-scale instances on which the exact oracle finishes well within
        # its node budget: the only ground-truth quality number.  Two
        # priority levels, so equal-priority tie-breaking is certified too.
        Workload("desk", Params(4, 3, 2, 30, 3, 5, 0.2, 0.5, 2), 1000, oracle=True),
    )
}


def random_instance(rng: random.Random, p: Params, model):
    """One random instance; ``model`` is the program's ``plansched.model``."""
    priorities = list(range(1, p.plans + 1)) if p.levels is None else [1 + i % p.levels for i in range(p.plans)]
    rng.shuffle(priorities)
    sizes = [1 + i % p.max_tasks for i in range(p.plans)]
    rng.shuffle(sizes)
    plans = []
    for plan_id, (priority, n_tasks) in enumerate(zip(priorities, sizes), start=1):
        times = [rng.randint(1, p.max_p) for _ in range(n_tasks)]
        need = sum(times)
        release = rng.randint(0, max(0, p.horizon - need))
        due = min(p.horizon, release + need + rng.randint(0, int(p.slack * p.horizon)))
        resources = rng.sample(range(1, p.resources + 1), n_tasks)
        tasks = []
        for index in range(1, n_tasks + 1):
            chained = index > 1 and rng.random() < p.chain
            preds = ((index - 1, rng.randint(0, p.max_lag)),) if chained else ()
            tasks.append(
                model.Task(plan_id, index, times[index - 1], release, due, frozenset({resources[index - 1]}), preds)
            )
        plans.append(model.Plan(plan_id, priority, tuple(tasks)))
    return model.build_instance(plans, resources=range(1, p.resources + 1), window=model.TimeWindow(0, p.horizon))


def make_pool(workload: Workload, seed: int, prog, params: Params | None = None) -> list:
    """The workload's instances for ``seed``; ``params`` overrides its generator."""
    if workload.params is None:
        return [prog.scenarios.generate_scenario(n) for n in prog.scenarios.SCENARIOS]
    rng = random.Random(f"{workload.name}:{seed}")
    p = params or workload.params
    return [random_instance(rng, p, prog.model) for _ in range(workload.pool_size)]
