"""Randomised invariants of the engine and the validator."""

import copy
import random
from itertools import groupby

from plansched import (
    Schedule,
    build_schedule,
    objective,
    sort_plans,
    validate_schedule,
)
from plansched import engine
from plansched.engine import schedule_plan_set
import reference
from conftest import base_seed, empty_timelines, random_instance


def test_engine_output_always_validates():
    rng = random.Random(base_seed())
    for _ in range(150):
        instance = random_instance(rng)
        result = build_schedule(instance)
        report = validate_schedule(instance, result.schedule)
        assert report.feasible, (instance, report.violations)
        scheduled = set(result.scheduled_plans)
        discarded = set(result.discarded_plans)
        assert scheduled | discarded == {p.id for p in instance.plans}
        assert not scheduled & discarded


def test_every_failed_plan_leaves_no_trace():
    rng = random.Random(base_seed() + 1)
    failures = 0
    for _ in range(150):
        instance = random_instance(rng, impossible_prob=0.35)
        s_w, busy = Schedule(), empty_timelines(instance.resources)
        last_objective = 0
        for plan in sort_plans(instance):
            snapshot_s, snapshot_busy = copy.deepcopy(s_w), copy.deepcopy(busy)
            if schedule_plan_set([plan], s_w, busy, instance.window):
                failures += 1
                assert s_w == snapshot_s
                assert busy == snapshot_busy
            value = objective(instance, s_w)
            assert value >= last_objective  # plans are only ever added
            last_objective = value
    assert failures > 50  # the generator must actually force failures


def _first_free(task, held, lower, latest):
    """First instant of ``[lower, latest]`` where no interval ``(s, e)`` of
    ``held`` overlaps ``[t, t + p)``, or None."""
    for t in range(lower, latest + 1):
        if all(t + task.processing_time <= s or e <= t for s, e in held):
            return t
    return None


def test_every_placement_is_the_earliest_feasible_instant():
    # the starts of engine._fit_plan against a brute force over start times:
    # each task at the first instant where neither a placed task nor an
    # earlier task of its own plan holds a needed resource
    rng = random.Random(base_seed() + 7)
    delayed = failed = own = 0
    for _ in range(300):
        instance = random_instance(rng, max_plans=6)
        window = instance.window
        s_w, busy = Schedule(), empty_timelines(instance.resources)
        for plan in sort_plans(instance):
            expected = {}  # task id -> brute-force start, in plan order
            moved_by_own = False
            for task in plan.tasks:
                lower = max([window.start, task.release] + [
                    expected[(plan.id, j)] + plan.task(j).processing_time + lag for j, lag in task.predecessors
                ])
                latest = min(task.due, window.end) - task.processing_time
                held = [
                    (start, start + instance.task(tid).processing_time)
                    for tid, start in s_w.starts.items()
                    if instance.task(tid).resources & task.resources
                ]
                earlier = [
                    (start, start + plan.task(index).processing_time)
                    for (_, index), start in expected.items()
                    if plan.task(index).resources & task.resources
                ]
                start = _first_free(task, held + earlier, lower, latest)
                moved_by_own |= start != _first_free(task, held, lower, latest)
                if start is None:
                    break
                delayed += start > lower
                expected[task.id] = start
            own += moved_by_own
            fitted = engine._fit_plan(plan, busy, window)
            if len(expected) < len(plan.tasks):
                assert fitted is None, (instance, plan.id)
                failed += 1
                continue
            assert [(task.id, start) for task, start, _ in fitted] == list(expected.items()), (instance, plan.id)
            assert schedule_plan_set([plan], s_w, busy, window) == set()
            assert {tid: s_w.starts[tid] for tid in expected} == expected
    # resource conflicts, failures and tasks moved by their own plan all occur
    assert delayed > 20 and failed > 20 and own > 20, (delayed, failed, own)


def test_every_group_takes_at_most_triangular_placements(monkeypatch):
    # a group of G equal-priority plans costs at most G(G+1)/2 placements
    # (engine.schedule_plan_set); count them on every group of every build
    groups = []  # per schedule_plan_set call: [group size, placements]

    fit_plan = engine._fit_plan

    def count_placement(plan, *args):
        groups[-1][1] += 1
        return fit_plan(plan, *args)

    def count_group(plans, *args):
        groups.append([len(plans), 0])
        return schedule_plan_set(plans, *args)

    monkeypatch.setattr(engine, "_fit_plan", count_placement)
    monkeypatch.setattr(engine, "schedule_plan_set", count_group)
    rng = random.Random(base_seed() + 9)
    for _ in range(150):
        instance = random_instance(rng, max_plans=10, priorities=(1, 3), edge_prob=0.1)
        built = len(groups)
        build_schedule(instance)
        for size, count in groups[built:]:
            assert count <= size * (size + 1) // 2, (instance, size, count)
    # some commits re-run kept trials, so groups take more than one placement a plan
    assert any(count > size > 2 for size, count in groups)


def test_fits_write_nothing(monkeypatch):
    # a trial is a pure read: every engine._fit_plan call of a build, trial or
    # not, leaves the timelines and the start times as it found them
    fit_plan, plan_set = engine._fit_plan, engine.schedule_plan_set
    state = {}
    fits = {"whole": 0, "failed": 0}

    def spy_set(plans, s_w, busy, window):
        state["s_w"] = s_w
        return plan_set(plans, s_w, busy, window)

    def spy_fit(plan, busy, window):
        starts, timelines = dict(state["s_w"].starts), copy.deepcopy(busy)
        fitted = fit_plan(plan, busy, window)
        assert state["s_w"].starts == starts and busy == timelines, plan
        fits["failed" if fitted is None else "whole"] += 1
        return fitted

    monkeypatch.setattr(engine, "schedule_plan_set", spy_set)
    monkeypatch.setattr(engine, "_fit_plan", spy_fit)
    rng = random.Random(base_seed() + 11)
    for _ in range(150):
        build_schedule(random_instance(rng, max_plans=10, priorities=(1, 3)))
    assert fits["whole"] > 200 and fits["failed"] > 200, fits


def test_fit_and_measure_equal_place_and_measure():
    # on random states, with plans that may use one resource in several
    # tasks, fitting and measuring a plan gives the starts, spans and idle
    # sum of the tick reference: reference._place puts the tasks one by one,
    # each written before the next is placed, and reference._spans and
    # reference._idle measure the placed plan
    rng = random.Random(base_seed() + 12)
    compared = shared = 0
    for _ in range(150):
        instance = random_instance(rng, max_plans=6)
        window = instance.window
        s_w, busy = Schedule(), empty_timelines(instance.resources)
        for plan in sort_plans(instance):
            fitted = engine._fit_plan(plan, busy, window)
            placed = reference._place(plan, reference.busy_ticks(instance, s_w.starts), s_w.starts, window)
            assert (fitted is None) == (placed is None), (instance, plan.id)
            if fitted is None:
                continue
            ticks, starts = placed
            fit_spans: list = []
            fit_idle = engine._idle_sum(fitted, busy, window.start, fit_spans)
            assert [start for _, start, _ in fitted] == [starts[t.id] for t in plan.tasks], (instance, plan.id)
            placed_spans = reference._spans(plan, ticks, starts, window)
            placed_idle = reference._idle(plan, ticks, starts, window)
            assert (fit_idle, fit_spans) == (placed_idle, placed_spans), (instance, plan.id)
            assert schedule_plan_set([plan], s_w, busy, window) == set()
            compared += 1
            resources = [rho for task in plan.tasks for rho in task.resources]
            shared += len(set(resources)) < len(resources)
    assert compared > 200 and shared > 20, (compared, shared)


def test_kept_trials_equal_a_fresh_placement_after_every_commit(monkeypatch):
    # the patch rule of engine.schedule_plan_set: after each commit every
    # surviving kept trial, patched or untouched, holds the starts, the idle
    # sum and the latest release per task that a fresh fit and measurement of
    # its plan on the current state give
    commit = engine._commit
    checked = {"kept": 0, "patched": 0}

    def spy(plan, fitted, s_w, busy, trials, watch):
        before = {plan_id: trial[0] for plan_id, trial in trials.items()}
        commit(plan, fitted, s_w, busy, trials, watch)
        for plan_id, (idle, kept_spans, kept_fit) in trials.items():
            fresh_fit = engine._fit_plan(instance.plan(plan_id), busy, instance.window)
            assert fresh_fit is not None, (instance, plan_id)
            fresh_spans: list = []
            fresh_idle = engine._idle_sum(fresh_fit, busy, instance.window.start, fresh_spans)
            assert (idle, kept_spans, kept_fit) == (fresh_idle, fresh_spans, fresh_fit), (instance, plan_id)
            checked["patched" if idle != before[plan_id] else "kept"] += 1

    monkeypatch.setattr(engine, "_commit", spy)
    rng = random.Random(base_seed() + 10)
    for _ in range(300):
        instance = random_instance(
            rng, min_plans=10, max_plans=16, horizon=60, n_resources=8, edge_prob=0.05, priorities=(1, 2)
        )
        build_schedule(instance)
    assert checked["kept"] > 500 and checked["patched"] > 300, checked


def test_timelines_hold_the_maximal_runs_of_the_placed_tasks():
    # built group by group as build_schedule does, on timelines the test holds:
    # each timeline is sorted runs that neither overlap nor touch, and together
    # they cover exactly the ticks of the tasks placed on that resource
    rng = random.Random(base_seed() + 13)
    merged = 0
    for _ in range(150):
        instance = random_instance(rng, max_plans=10, n_resources=3, priorities=(1, 3), edge_prob=0.1)
        s_w, busy = Schedule(), empty_timelines(instance.resources)
        frontier_of = instance.frontier_of
        for _, group in groupby(sort_plans(instance), key=lambda plan: (plan.priority, frontier_of[plan.id])):
            schedule_plan_set(list(group), s_w, busy, instance.window)
        assert s_w.starts == build_schedule(instance).schedule.starts
        for rho, (starts, ends) in busy.items():
            assert all(a < b for a, b in zip(starts, ends)), (instance, rho)
            assert all(ends[i] < starts[i + 1] for i in range(len(starts) - 1)), (instance, rho)
            held = [instance.task(tid) for tid in s_w.starts if rho in instance.task(tid).resources]
            ticks = {t for task in held for t in range(s_w.starts[task.id], s_w.starts[task.id] + task.processing_time)}
            assert {t for a, b in zip(starts, ends) for t in range(a, b)} == ticks, (instance, rho)
            merged += len(held) - len(starts)
    assert merged > 50, merged  # tasks did go in back to back


def test_objective_never_negative_and_consistent():
    rng = random.Random(base_seed() + 3)
    for _ in range(100):
        instance = random_instance(rng)
        result = build_schedule(instance)
        scheduled = set(result.scheduled_plans)
        expected = sum(p.priority for p in instance.plans if p.id in scheduled)
        assert objective(instance, result.schedule) == expected


def test_sorting_invariants_on_random_instances():
    rng = random.Random(base_seed() + 4)
    for _ in range(150):
        instance = random_instance(rng, max_plans=6)
        ordered = sort_plans(instance)
        assert sorted(p.id for p in ordered) == sorted(p.id for p in instance.plans)
        position = {p.id: i for i, p in enumerate(ordered)}
        for a, b in instance.plan_dag:
            assert position[a] < position[b]
            assert instance.frontier_of[a] < instance.frontier_of[b]
        for f in set(instance.frontier_of.values()):
            prios = [p.priority for p in ordered if instance.frontier_of[p.id] == f]
            assert prios == sorted(prios, reverse=True)


def test_event_usage_matches_task_intervals():
    rng = random.Random(base_seed() + 6)
    for _ in range(100):
        instance = random_instance(rng)
        result = build_schedule(instance)
        intervals = []  # (start, end, resources) of every placed task
        start_events = {}
        completion_events = {}
        for task in instance.iter_tasks():
            start = result.schedule.starts.get(task.id)
            if start is not None:
                intervals.append((start, start + task.processing_time, task.resources))
        for event in result.events:
            for tid in event.starting:
                assert tid not in start_events
                start_events[tid] = event.time
            for tid in event.completing:
                assert tid not in completion_events
                completion_events[tid] = event.time
            for rho in instance.resources:
                expected = int(any(s <= event.time < e and rho in res for s, e, res in intervals))
                assert (rho in event.usage) == expected, (event, rho)
        # every placed task appears in exactly one starting and one completing set
        assert start_events == dict(result.schedule.starts)
        assert completion_events == {
            tid: start + instance.task(tid).processing_time
            for tid, start in result.schedule.starts.items()
        }
        assert not result.events[-1].usage  # the window-start event always exists


def test_event_view_matches_start_times():
    rng = random.Random(base_seed() + 8)
    for _ in range(150):
        instance = random_instance(rng)
        result = build_schedule(instance)
        spans = [
            (start, start + instance.task(tid).processing_time, instance.task(tid).resources)
            for tid, start in result.schedule.starts.items()
        ]
        events = list(result.events)
        assert [e.time for e in events] == sorted({instance.window.start} | {t for s, e, _ in spans for t in (s, e)})
        for event, following in zip(events, events[1:] + [None]):
            assert not event.starting & event.completing, event
            until = following.time if following is not None else float("inf")
            overlapping = [(s, e, res) for s, e, res in spans if s < until and e > event.time]
            # no task starts or completes strictly inside [t, next event)
            assert all(s <= event.time and until <= e for s, e, _ in overlapping), event
            assert event.usage == set().union(*(res for _, _, res in overlapping)), event
