import random
from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

import plansched
from plansched import (
    TimeWindow,
    build_instance,
    build_schedule,
    exact_max_weight,
    objective,
    validate_schedule,
)
from plansched.data import load_bundled
from plansched.oracle import DEFAULT_NODE_LIMIT
from conftest import base_seed, make_plan, perfbench_module, random_instance
from reference_oracle import reference_search


def test_example1_optimum(example1):
    result = exact_max_weight(example1)
    assert result.optimum == 3  # both plans fit: priorities 2 + 1
    assert not result.time_limit_hit
    report = validate_schedule(example1, result.witness)
    assert report.feasible and report.objective == 3


def test_window_too_tight_for_processing():
    instance = build_instance(
        [make_plan(1, 4, [(1, 5, 2, 5, {1}, [])])], window=TimeWindow(0, 20)
    )
    result = exact_max_weight(instance)
    assert result.optimum == 0
    assert result.witness.starts == {}


def test_two_contenders_on_one_resource():
    # both need the whole window on the same resource; only the heavier fits
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 10, 0, 10, {1}, [])]),
            make_plan(2, 3, [(1, 10, 0, 10, {1}, [])]),
        ],
        window=TimeWindow(0, 10),
    )
    result = exact_max_weight(instance)
    assert result.optimum == 5
    assert result.witness.scheduled_plans == [1]


def test_oracle_beats_or_matches_greedy_order():
    # greedy insertion order can strand a feasible pairing; the oracle must not
    instance = build_instance(
        [
            make_plan(
                1,
                1,
                [(1, 5, 0, 10, {1}, []), (2, 5, 0, 5, {1}, [])],
            )
        ],
        window=TimeWindow(0, 10),
    )
    result = exact_max_weight(instance)
    assert result.optimum == 1  # task 2 first [0,5), task 1 after [5,10)
    assert result.witness.starts == {(1, 2): 0, (1, 1): 5}


def test_monotone_in_added_plans():
    base = [make_plan(1, 2, [(1, 3, 0, 9, {1}, [])])]
    extra = make_plan(2, 4, [(1, 3, 0, 9, {2}, [])])
    window = TimeWindow(0, 9)
    small = exact_max_weight(build_instance(base, window=window))
    large = exact_max_weight(build_instance(base + [extra], window=window))
    assert large.optimum >= small.optimum


def test_strict_plan_precedence_mode():
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 9, 2, 5, {1}, [])]),  # infeasible window
            make_plan(2, 3, [(1, 2, 0, 10, {2}, [])]),
        ],
        plan_dag={(1, 2)},
        window=TimeWindow(0, 10),
    )
    assert exact_max_weight(instance).optimum == 3
    assert exact_max_weight(instance, strict_plan_precedence=True).optimum == 0


def test_strict_mode_decides_predecessors_first():
    # the successor has the higher priority, yet both plans fit in strict mode
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 0, 10, {1}, [])]),
            make_plan(2, 5, [(1, 2, 0, 10, {2}, [])]),
        ],
        plan_dag={(1, 2)},
        window=TimeWindow(0, 10),
    )
    assert objective(instance, build_schedule(instance, strict_plan_precedence=True).schedule) == 6
    result = exact_max_weight(instance, strict_plan_precedence=True)
    assert result.optimum == 6
    assert result.witness.scheduled_plans == [1, 2]


def test_strict_optimum_dominates_strict_engine():
    rng = random.Random(5)
    with_edges = 0
    for _ in range(300):
        instance = random_instance(rng, max_plans=4, max_tasks=2, horizon=14, edge_prob=0.5)
        with_edges += bool(instance.plan_dag)
        engine_objective = objective(instance, build_schedule(instance, strict_plan_precedence=True).schedule)
        oracle = exact_max_weight(instance, strict_plan_precedence=True)
        assert not oracle.time_limit_hit
        assert engine_objective <= oracle.optimum, instance
    assert with_edges > 150


def test_node_limit_flags_result(example2):
    result = exact_max_weight(example2, node_limit=1)
    assert result.time_limit_hit


def test_expired_time_limit_flags_result(example2):
    result = exact_max_weight(example2, node_limit=None, time_limit=-1.0)
    assert result.time_limit_hit
    assert validate_schedule(example2, result.witness).feasible
    assert objective(example2, result.witness) == result.optimum


def test_default_call_reads_no_clock(monkeypatch):
    # a clock that jumps 100 s a read would trip any default wall-clock limit
    ticks = count(0, 100)
    monkeypatch.setattr(plansched.oracle, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    result = exact_max_weight(load_bundled("example2.json"))
    assert (result.optimum, result.explored, result.time_limit_hit) == (15, 9, False)


def test_grid_mode_agrees_with_candidate_mode():
    rng = random.Random(7)
    for _ in range(25):
        instance = random_instance(rng, max_plans=3, max_tasks=2, horizon=12)
        fast = exact_max_weight(instance)
        slow = reference_search(instance, node_limit=None, grid=True)
        assert not slow.limit_hit
        assert fast.optimum == slow.best_weight, instance


def _brute_optimum(instance, strict=False):
    """Cartesian enumeration over plan subsets and grid start tuples; with
    ``strict`` a subset counts only when it holds every DAG predecessor of
    its plans."""
    from itertools import product

    w = instance.window

    def placements(plan):
        out = []

        def rec(i, chosen):
            if i == len(plan.tasks):
                out.append(dict(chosen))
                return
            task = plan.tasks[i]  # topological order: predecessors already chosen
            lo = max(w.start, task.release)
            hi = min(task.due, w.end) - task.processing_time
            for s in range(lo, hi + 1):
                if all(
                    s >= chosen[j] + plan.task(j).processing_time + lag
                    for j, lag in task.predecessors
                ):
                    chosen[task.index] = s
                    rec(i + 1, chosen)
                    del chosen[task.index]

        rec(0, {})
        return out

    options = [[None] + placements(plan) for plan in instance.plans]
    best = 0
    for combo in product(*options):
        chosen = {plan.id for plan, choice in zip(instance.plans, combo) if choice is not None}
        if strict and any(not chosen.issuperset(instance.predecessors_of_plan(p)) for p in chosen):
            continue
        intervals = []
        weight = 0
        for plan, choice in zip(instance.plans, combo):
            if choice is None:
                continue
            weight += plan.priority
            for task in plan.tasks:
                s = choice[task.index]
                intervals.append((s, s + task.processing_time, task.resources))
        clash = any(
            (r1 & r2) and s1 < e2 and s2 < e1
            for k, (s1, e1, r1) in enumerate(intervals)
            for (s2, e2, r2) in intervals[k + 1 :]
        )
        if not clash:
            best = max(best, weight)
    return best


def test_oracle_matches_independent_enumeration():
    rng = random.Random(29)
    for _ in range(40):
        instance = random_instance(rng, max_plans=2, max_tasks=2, horizon=6, max_processing=3)
        result = exact_max_weight(instance)
        assert result.optimum == _brute_optimum(instance), instance


def test_oracle_matches_independent_enumeration_with_equal_releases():
    # every task is released at 0, so tasks often start together and only
    # one order of each equal-start pair is searched
    rng = random.Random(base_seed() + 42)
    for _ in range(40):
        instance = random_instance(
            rng, min_plans=2, max_plans=2, max_tasks=2, horizon=6, max_processing=3, max_release=0
        )
        result = exact_max_weight(instance)
        assert result.optimum == _brute_optimum(instance), instance


def test_negative_priority_does_not_lower_the_bound():
    # the bound once added the -20, so at most -10 looked reachable and the
    # search pruned the optimum
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 2, 0, 10, {1}, [])]),
            make_plan(2, 5, [(1, 2, 0, 10, {2}, [])]),
            make_plan(3, -20, [(1, 2, 0, 10, {3}, [])]),
        ],
        window=TimeWindow(0, 10),
    )
    result = exact_max_weight(instance)
    assert result.optimum == 10
    assert result.witness.scheduled_plans == [1, 2]


def test_oracle_matches_independent_enumeration_with_non_positive_priorities():
    rng = random.Random(base_seed() + 43)
    non_positive = 0
    for _ in range(40):
        instance = random_instance(
            rng, min_plans=2, max_plans=3, max_tasks=2, horizon=6, max_processing=3, priorities=(-3, 4)
        )
        non_positive += any(plan.priority <= 0 for plan in instance.plans)
        result = exact_max_weight(instance)
        assert result.optimum == _brute_optimum(instance), instance
    assert non_positive > 20


def test_strict_mode_skips_a_probe_missing_a_predecessor():
    # plans are decided 2, 1, 3.  Below "take 2", plan 1 clashes with it and
    # is excluded, so {2, 3} lacks plan 3's predecessor 1 and is not probed;
    # it fits and would weigh 6, but the strict optimum is {1, 3} at 5
    instance = build_instance(
        [
            make_plan(1, 3, [(1, 10, 0, 10, {1}, [])]),
            make_plan(2, 4, [(1, 10, 0, 10, {1}, [])]),
            make_plan(3, 2, [(1, 2, 0, 10, {2}, [])]),
        ],
        plan_dag={(1, 3)},
        window=TimeWindow(0, 10),
    )
    assert _brute_optimum(instance, strict=True) == 5
    result = exact_max_weight(instance, strict_plan_precedence=True)
    assert result.optimum == 5
    assert result.witness.scheduled_plans == [1, 3]
    assert exact_max_weight(instance).optimum == _brute_optimum(instance) == 6


def test_strict_mode_matches_independent_enumeration():
    rng = random.Random(base_seed() + 44)
    for _ in range(40):
        instance = random_instance(
            rng, min_plans=2, max_plans=3, max_tasks=2, horizon=6, max_processing=3, edge_prob=0.5, priorities=(-1, 5)
        )
        result = exact_max_weight(instance, strict_plan_precedence=True)
        assert result.optimum == _brute_optimum(instance, strict=True), instance


def _matches_reference_search(instance) -> bool:
    """Assert both task-level searches find the same optimum within the node
    limit; return whether two tasks of the witness start together."""
    result = exact_max_weight(instance, node_limit=DEFAULT_NODE_LIMIT, time_limit=None)
    reference = reference_search(instance, node_limit=DEFAULT_NODE_LIMIT)
    assert not result.time_limit_hit and not reference.limit_hit, instance
    assert result.optimum == reference.best_weight, instance
    report = validate_schedule(instance, result.witness)
    assert report.feasible and report.objective == result.optimum
    return max(Counter(result.witness.starts.values()).values(), default=0) > 1


def test_matches_reference_search_on_random_instances():
    rng = random.Random(base_seed() + 40)
    for _ in range(300):
        _matches_reference_search(random_instance(rng, min_plans=3, max_plans=5))


def test_matches_reference_search_when_starts_tie():
    # releases 0 or 1 on a short horizon and three resources: tasks often
    # start together, and the search tries only one order of each such pair
    # (about 105 of 300 witnesses hold a tie, against about 45 above)
    rng = random.Random(base_seed() + 41)
    tied = 0
    for _ in range(300):
        instance = random_instance(
            rng, min_plans=3, max_plans=5, horizon=10, n_resources=3, max_processing=3, max_release=1
        )
        tied += _matches_reference_search(instance)
    assert tied > 75


@pytest.mark.parametrize(
    "plans, node_limit",
    # the largest instance of each size takes 245, 338, 42,648 and 27,154 nodes
    [(6, 5_000), (8, 1_000), (12, 50_000), (16, 35_000)],
)
def test_reaches_plans_at_desk_density(monkeypatch, plans, node_limit):
    # the benchmark's generator at desk density (horizon 7.5 ticks a plan),
    # scaled to ``plans``: all 20 instances are solved within ``node_limit``
    workloads = perfbench_module(monkeypatch, "workloads")
    params = workloads.Params(plans, 3, 2, plans * 15 // 2, 3, 5, 0.2, 0.5, 2)
    rng = random.Random(f"reach:{plans}")
    for _ in range(20):
        instance = workloads.random_instance(rng, params, plansched.model)
        result = exact_max_weight(instance, node_limit=node_limit, time_limit=None)
        assert not result.time_limit_hit
        assert result.optimum >= objective(instance, build_schedule(instance).schedule)
        report = validate_schedule(instance, result.witness)
        assert report.feasible and report.objective == result.optimum


def test_dominates_engine_on_random_instances():
    rng = random.Random(11)
    for _ in range(60):
        instance = random_instance(rng)
        engine_objective = objective(instance, build_schedule(instance).schedule)
        oracle = exact_max_weight(instance)
        assert not oracle.time_limit_hit
        assert engine_objective <= oracle.optimum
        report = validate_schedule(instance, oracle.witness)
        assert report.feasible and report.objective == oracle.optimum


def test_matches_engine_without_contention():
    rng = random.Random(13)
    for _ in range(40):
        instance = random_instance(rng, disjoint_resources=True)
        engine_objective = objective(instance, build_schedule(instance).schedule)
        oracle = exact_max_weight(instance)
        assert engine_objective == oracle.optimum
