"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import copy
import random
import time

from plansched import (
    Schedule,
    build_schedule,
    exact_max_weight,
    generate_scenario,
    objective,
    sort_plans,
    validate_schedule,
)
from plansched.engine import schedule_plan_set
from plansched.serialize import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from conftest import base_seed, empty_timelines, example2_instance, idle_instance, random_instance

EXPECTED_SCHEDULED = {1: 24, 2: 24, 3: 24, 4: 30, 5: 29, 6: 16, 7: 24}


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def _timed_build(instance, repeats):
    result = None
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = build_schedule(instance)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_golden_example_2():
    instance = example2_instance()
    result, seconds = _timed_build(instance, repeats=5)
    snapshot = [
        (e.time, sorted(e.starting), sorted(e.completing), (1 in e.usage, 2 in e.usage, 3 in e.usage))
        for e in result.events
    ]
    expected = [
        (2, [(1, 1), (3, 1), (4, 1)], [], (1, 1, 1)),
        (4, [(2, 1)], [(4, 1)], (1, 1, 1)),
        (5, [], [(3, 1)], (1, 1, 0)),
        (6, [(2, 2), (4, 2), (5, 1)], [(1, 1), (2, 1)], (1, 1, 1)),
        (7, [(1, 2)], [(4, 2)], (1, 1, 1)),
        (9, [(5, 2)], [(1, 2), (2, 2), (5, 1)], (1, 0, 1)),
        (10, [], [(5, 2)], (0, 0, 0)),
    ]
    starts_ok = all(
        result.schedule.starts[tid] == want
        for tid, want in {(3, 1): 2, (4, 1): 2, (4, 2): 6, (5, 1): 6, (5, 2): 9}.items()
    )
    ok = (
        [e.time for e in result.events] == [2, 4, 5, 6, 7, 9, 10]
        and snapshot == expected
        and starts_ok
        and seconds < 0.010
    )
    assert _report(
        "golden worked example (event list, starts, usage bits)",
        ok,
        f"{seconds * 1000:.2f} ms",
    )


def test_criterion_idle_time_tie_break():
    result = build_schedule(idle_instance())
    order = result.scheduled_plans
    ok = set(order) == {1, 2, 3, 4} and order.index(4) < order.index(3)
    assert _report("idle-time tie-break commits plan 4 before plan 3", ok, f"order {order}")


def test_criterion_scenario_1():
    instance = generate_scenario(1)
    result, seconds = _timed_build(instance, repeats=3)
    scheduled = len(result.scheduled_plans)
    feasible = validate_schedule(instance, result.schedule).feasible
    ok = 22 <= scheduled <= 26 and feasible and seconds < 1.0
    assert _report(
        "benchmark scenario 1 schedules 22..26 plans",
        ok,
        f"scheduled {scheduled}, feasible {feasible}, {seconds * 1000:.1f} ms",
    )


def test_criterion_scenarios_2_to_8():
    sizes = {2: (32, 91), 3: (32, 91), 4: (42, 118), 5: (47, 135), 6: (32, 91), 7: (32, 91)}
    problems = []
    for n in range(2, 8):
        instance = generate_scenario(n)
        plans, tasks = len(instance.plans), sum(p.task_count for p in instance.plans)
        if (plans, tasks) != sizes[n]:
            problems.append(f"scenario {n}: size {(plans, tasks)} != {sizes[n]}")
        result = build_schedule(instance)
        if not validate_schedule(instance, result.schedule).feasible:
            problems.append(f"scenario {n}: infeasible output")
        scheduled = len(result.scheduled_plans)
        if abs(scheduled - EXPECTED_SCHEDULED[n]) > 3:
            problems.append(f"scenario {n}: scheduled {scheduled} vs expected {EXPECTED_SCHEDULED[n]}±3")
    instance = generate_scenario(8)
    plans, tasks = len(instance.plans), sum(p.task_count for p in instance.plans)
    if (plans, tasks) != (64, 182):
        problems.append(f"scenario 8: size {(plans, tasks)} != (64, 182)")
    result, seconds = _timed_build(instance, repeats=3)
    if not validate_schedule(instance, result.schedule).feasible:
        problems.append("scenario 8: infeasible output")
    if seconds >= 2.0:
        problems.append(f"scenario 8: {seconds:.2f} s")
    assert _report(
        "benchmark scenarios 2-8 (sizes exact, counts within tolerance, feasible)",
        not problems,
        "; ".join(problems) or f"scenario 8 in {seconds * 1000:.0f} ms",
    )


def test_criterion_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(base_seed() + 10)
    disjoint_checked = 0
    for i in range(200):
        instance = random_instance(
            rng,
            max_plans=4,
            max_tasks=2,
            horizon=20,
            disjoint_resources=(i % 3 == 0),
        )
        engine_objective = objective(instance, build_schedule(instance).schedule)
        oracle = exact_max_weight(instance)
        assert not oracle.time_limit_hit
        assert engine_objective <= oracle.optimum, (instance, engine_objective, oracle.optimum)
        all_sets = [t.resources for t in instance.iter_tasks()]
        pairwise_disjoint = all(
            not (a & b) for k, a in enumerate(all_sets) for b in all_sets[k + 1 :]
        )
        if pairwise_disjoint:
            disjoint_checked += 1
            assert engine_objective == oracle.optimum, (instance, engine_objective, oracle.optimum)
    elapsed = time.perf_counter() - t0
    ok = disjoint_checked >= 40 and elapsed < 60.0
    assert _report(
        "oracle dominance on 200 instances, equality without contention",
        ok,
        f"{disjoint_checked} contention-free instances, {elapsed:.1f} s",
    )


def test_criterion_property_suite():
    rng = random.Random(base_seed() + 20)
    forced_failures = 0
    for _ in range(1000):
        instance = random_instance(rng, impossible_prob=0.2)
        result = build_schedule(instance)

        # (a) engine output validates feasible
        assert validate_schedule(instance, result.schedule).feasible

        # (b) a failed plan writes nothing, after every forced failure
        s_w, busy = Schedule(), empty_timelines(instance.resources)
        for plan in sort_plans(instance):
            snap_s, snap_busy = copy.deepcopy(s_w), copy.deepcopy(busy)
            if schedule_plan_set([plan], s_w, busy, instance.window):
                forced_failures += 1
                assert s_w == snap_s and busy == snap_busy

        # (c) event-list size bound
        assert len(result.events) <= 2 * len(result.schedule.starts) + 2

        # (d) ordering invariants
        ordered = sort_plans(instance)
        position = {p.id: k for k, p in enumerate(ordered)}
        for a, b in instance.plan_dag:
            assert position[a] < position[b]
        for f in set(instance.frontier_of.values()):
            prios = [p.priority for p in ordered if instance.frontier_of[p.id] == f]
            assert prios == sorted(prios, reverse=True)

        # (e) lossless JSON round-trips
        assert instance_from_dict(instance_to_dict(instance)) == instance
        assert schedule_from_dict(schedule_to_dict(result.schedule, instance)) == result.schedule

    ok = forced_failures > 100
    assert _report(
        "property suite on 1000 random instances",
        ok,
        f"{forced_failures} forced failures exercised",
    )


def test_criterion_scaling():
    small = generate_scenario(1)
    large = generate_scenario(8)
    build_schedule(small)  # warm-up
    def mean_seconds(instance, repeats=7):
        total = 0.0
        for _ in range(repeats):
            t0 = time.perf_counter()
            build_schedule(instance)
            total += time.perf_counter() - t0
        return total / repeats

    t_small = mean_seconds(small)
    t_large = mean_seconds(large)
    ok = t_large <= 8 * t_small
    assert _report(
        "doubling the instance costs at most 8x the runtime",
        ok,
        f"scenario 1 {t_small * 1000:.1f} ms, scenario 8 {t_large * 1000:.1f} ms",
    )
