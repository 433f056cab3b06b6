"""Shared fixtures: the worked examples and a random-instance generator."""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from pathlib import Path

import pytest

from plansched import Instance, Plan, Task, TimeWindow, build_instance


def make_plan(plan_id, priority, rows):
    """rows: (index, p, r, d, resources, predecessors) per task."""
    tasks = tuple(
        Task(
            plan_id=plan_id,
            index=i,
            processing_time=p,
            release=r,
            due=d,
            resources=frozenset(res),
            predecessors=tuple(preds),
        )
        for (i, p, r, d, res, preds) in rows
    )
    return Plan(id=plan_id, priority=priority, tasks=tasks)


def example1_instance() -> Instance:
    """Two plans on two resources; plan 2's tasks are chained."""
    return build_instance(
        [
            make_plan(1, 2, [(1, 3, 2, 7, {1}, [])]),
            make_plan(2, 1, [(1, 2, 3, 8, {2}, []), (2, 2, 4, 9, {1}, [(1, 0)])]),
        ],
        window=TimeWindow(0, 10),
    )


def example2_instance() -> Instance:
    """Five plans with distinct priorities; insertion order is 1..5."""
    return build_instance(
        [
            make_plan(1, 5, [(1, 4, 1, 7, {1}, []), (2, 2, 5, 9, {3}, [(1, 1)])]),
            make_plan(2, 4, [(1, 2, 4, 7, {2}, []), (2, 3, 5, 9, {1}, [(1, 0)])]),
            make_plan(3, 3, [(1, 3, 1, 8, {3}, [])]),
            make_plan(4, 2, [(1, 2, 2, 7, {2}, []), (2, 1, 3, 7, {3}, [(1, 2)])]),
            make_plan(5, 1, [(1, 3, 5, 10, {2}, []), (2, 1, 5, 11, {1, 3}, [(1, 0)])]),
        ],
        window=TimeWindow(2, 11),
    )


def idle_instance() -> Instance:
    """Plans 3 and 4 share a priority; 4 leaves less idle time and goes first."""
    return build_instance(
        [
            make_plan(1, 9, [(1, 3, 2, 7, {1}, [])]),
            make_plan(2, 8, [(1, 2, 2, 6, {2}, []), (2, 3, 4, 10, {1}, [])]),
            make_plan(3, 5, [(1, 2, 4, 7, {3}, [])]),
            make_plan(4, 5, [(1, 1, 3, 6, {4}, []), (2, 3, 2, 7, {2}, [(1, 0)])]),
        ],
        window=TimeWindow(2, 11),
    )


def perfbench_module(monkeypatch, name):
    """``perfbench/<name>.py`` loaded as a module, as the benchmark runs it from the repo root."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def empty_timelines(resources):
    """One empty busy timeline per resource, as ``engine.build_schedule`` seeds them."""
    return {rho: ([], []) for rho in resources}


def busy_runs(busy):
    """Each resource's maximal busy runs ``[(a, b), ...]`` in time order, as the engine keeps them."""
    return {rho: list(zip(starts, ends)) for rho, (starts, ends) in busy.items()}


@pytest.fixture
def example1():
    return example1_instance()


@pytest.fixture
def example2():
    return example2_instance()


@pytest.fixture
def idle_example():
    return idle_instance()


def base_seed() -> int:
    return int(os.environ.get("PLANSCHED_SEED") or "20260810")


def random_instance(
    rng: random.Random,
    *,
    min_plans: int = 1,
    max_plans: int = 4,
    max_tasks: int = 3,
    horizon: int = 20,
    n_resources: int = 5,
    max_processing: int = 5,
    max_lag: int = 2,
    edge_prob: float = 0.25,
    impossible_prob: float = 0.15,
    disjoint_resources: bool = False,
    priorities: tuple[int, int] = (1, 6),
    max_release: int | None = None,
) -> Instance:
    """A small random instance; with ``impossible_prob`` a task gets a window
    too tight for its duration, which forces plan failures downstream.

    ``disjoint_resources=True`` gives every task its own private resource, so
    no two tasks in the instance ever compete.  Plan priorities are drawn
    uniformly from the inclusive range ``priorities``, and releases from
    ``[0, max_release]``, by default ``[0, horizon - 1]``.
    """
    n_plans = rng.randint(min_plans, max_plans)
    plans = []
    next_private = 1000
    for plan_id in range(1, n_plans + 1):
        n_tasks = rng.randint(1, max_tasks)
        rows = []
        for index in range(1, n_tasks + 1):
            p = rng.randint(1, max_processing)
            release = rng.randint(0, horizon - 1 if max_release is None else max_release)
            if rng.random() < impossible_prob:
                due = release + max(0, p - 1 - rng.randint(0, 1))  # cannot fit
            else:
                due = min(horizon, release + p + rng.randint(0, horizon // 2))
            if due < release:
                due = release
            if disjoint_resources:
                resources = {next_private}
                next_private += 1
            else:
                resources = set(rng.sample(range(1, n_resources + 1), rng.randint(1, min(2, n_resources))))
            preds = []
            if index > 1 and rng.random() < 0.5:
                preds.append((rng.randint(1, index - 1), rng.randint(0, max_lag)))
            rows.append((index, p, release, due, resources, preds))
        plans.append(make_plan(plan_id, rng.randint(*priorities), rows))
    edges = set()
    for a in range(1, n_plans + 1):
        for b in range(a + 1, n_plans + 1):
            if rng.random() < edge_prob:
                edges.add((a, b))
    return build_instance(plans, plan_dag=edges, window=TimeWindow(0, horizon))
