import copy
import importlib
import random
import time
from collections import Counter

import pytest

import plansched
from plansched import (
    Schedule,
    TimeWindow,
    build_instance,
    build_schedule,
    validate_schedule,
)
from plansched import engine
from plansched.engine import schedule_plan_set
from plansched.model import event_list
import reference
from conftest import busy_runs, empty_timelines, make_plan, perfbench_module


def _fresh_state(resources):
    """An empty schedule and one empty busy timeline per resource, as the engine seeds them."""
    return Schedule(), empty_timelines(resources)


def _snapshot(events, resources=(1, 2, 3)):
    return [
        (e.time, sorted(e.starting), sorted(e.completing), tuple(r in e.usage for r in resources))
        for e in events
    ]


def _view(s_w, instance):
    """The event list derived from the working schedule, keyed by time."""
    return {e.time: e for e in event_list(s_w, instance)}


def _load(instance, plan_ids):
    """Commit the given plans in order, each as a group of one, on a fresh state."""
    s_w, busy = _fresh_state(instance.resources)
    for pid in plan_ids:
        assert schedule_plan_set([instance.plan(pid)], s_w, busy, instance.window) == set()
    return s_w, busy


# ------------------------------------------------------- start-time bounds

@pytest.mark.parametrize(
    "window, blocker, row, expected",
    [
        # latest = min(due, W_e) - p; a blocker on resource 1 holds [0, blocker)
        pytest.param((0, 20), 4, (3, 2, 7), 4, id="due-fits-at-latest"),
        pytest.param((0, 20), 5, (3, 2, 7), None, id="due-blocker-one-longer"),
        pytest.param((0, 10), 6, (4, 0, 30), 6, id="window-end-fits-at-latest"),
        pytest.param((0, 10), 7, (4, 0, 30), None, id="window-end-blocker-one-longer"),
        pytest.param((0, 20), None, (2, 5, 20), 5, id="release-clamp"),
        pytest.param((0, 20), 3, (2, 5, 20), 5, id="release-clamp-after-blocker"),
        pytest.param((0, 20), 7, (2, 5, 20), 7, id="blocker-past-release"),
    ],
)
def test_schedule_plan_start_bounds(window, blocker, row, expected):
    window = TimeWindow(*window)
    s_w, busy = _fresh_state([1])
    if blocker is not None:
        assert schedule_plan_set([make_plan(1, 9, [(1, blocker, 0, 100, {1}, [])])], s_w, busy, window) == set()
    p, release, due = row
    plan = make_plan(2, 1, [(1, p, release, due, {1}, [])])
    task = plan.tasks[0]
    before_schedule, before_busy = copy.deepcopy(s_w), copy.deepcopy(busy)
    unscheduled = schedule_plan_set([plan], s_w, busy, window)
    if expected is None:
        assert unscheduled == {2}
        assert s_w == before_schedule
        assert busy == before_busy
    else:
        assert unscheduled == set()
        assert s_w.starts[task.id] == expected
        # the resource is busy over [expected, expected + p), and p ticks longer than before
        runs, before = busy_runs(busy)[1], busy_runs(before_busy)[1]
        assert any(a <= expected and expected + p <= b for a, b in runs)
        assert sum(b - a for a, b in runs) == sum(b - a for a, b in before) + p


# ---------------------------------------------------------------- lower bound

def test_lower_bound_with_lag(example2):
    task = example2.plan(4).task(2)
    assert engine._lower_bound(task, example2.window, {1: 4}) == 6  # task 1 completes at 4, lag 2


def test_lower_bound_window_clamp():
    plan = make_plan(1, 1, [(1, 2, 1, 20, {1}, [])])
    assert engine._lower_bound(plan.tasks[0], TimeWindow(5, 30), {}) == 5


def test_lower_bound_predecessor_completion(example1):
    task = example1.plan(2).task(2)
    assert engine._lower_bound(task, example1.window, {1: 5}) == 5  # task 1 completes at 5, lag 0, r=4


# ------------------------------------------------------- busy timelines and view

@pytest.mark.parametrize(
    "start, p, expected",
    [
        # resource 1 holds the runs [2, 4) and [10, 12)
        pytest.param(6, 2, ([2, 6, 10], [4, 8, 12]), id="alone"),
        pytest.param(0, 1, ([0, 2, 10], [1, 4, 12]), id="alone-first"),
        pytest.param(4, 3, ([2, 10], [7, 12]), id="joins-left"),
        pytest.param(12, 5, ([2, 10], [4, 17]), id="joins-left-last"),
        pytest.param(7, 3, ([2, 7], [4, 12]), id="joins-right"),
        pytest.param(0, 2, ([0, 10], [4, 12]), id="joins-right-first"),
        pytest.param(4, 6, ([2], [12]), id="bridges"),
    ],
)
def test_occupy_keeps_maximal_runs(start, p, expected):
    task = make_plan(1, 1, [(1, p, 0, 20, {1, 2}, [])]).tasks[0]
    _, busy = _fresh_state([1, 2])
    busy[1] = ([2, 10], [4, 12])
    engine._occupy(task, start, start + p, busy)
    assert busy[1] == expected
    assert busy[2] == ([start], [start + p])  # alone on an empty timeline


def test_back_to_back_tasks_share_one_event():
    window = TimeWindow(2, 10)
    instance = build_instance(
        [make_plan(1, 2, [(1, 2, 2, 10, {1}, [])]), make_plan(2, 1, [(1, 2, 2, 10, {1}, [])])],
        window=window,
    )
    s_w, busy = _load(instance, [1, 2])
    assert busy_runs(busy) == {1: [(2, 6)]}
    events = _view(s_w, instance)
    assert list(events) == [2, 4, 6]
    assert events[4].completing == {(1, 1)} and events[4].starting == {(2, 1)}


def test_view_event_inside_interval_keeps_usage():
    window = TimeWindow(2, 10)
    instance = build_instance(
        [make_plan(1, 2, [(1, 4, 2, 10, {1}, [])]), make_plan(2, 1, [(1, 1, 3, 10, {2}, [])])],
        window=window,
    )
    s_w, busy = _load(instance, [1, 2])
    assert busy_runs(busy) == {1: [(2, 6)], 2: [(3, 4)]}
    events = _view(s_w, instance)
    assert list(events) == [2, 3, 4, 6]
    assert 1 in events[3].usage and 2 in events[3].usage
    assert 1 in events[4].usage and 2 not in events[4].usage
    assert not events[3].completing


def test_first_placement_on_empty_state():
    window = TimeWindow(0, 10)
    instance = build_instance([make_plan(1, 1, [(1, 2, 0, 10, {1}, [])])], window=window)
    empty = _view(Schedule(), instance)
    assert list(empty) == [0] and empty[0].usage == set()
    s_w, busy = _load(instance, [1])
    assert busy_runs(busy) == {1: [(0, 2)]}
    events = _view(s_w, instance)
    assert list(events) == [0, 2]
    assert events[0].usage == {1} and events[0].starting == {(1, 1)}


# -------------------------------------------------------------- task insertion

def test_schedule_plan_failure_leaves_no_trace():
    window = TimeWindow(0, 10)
    plan = make_plan(1, 1, [(1, 2, 12, 15, {1}, [])])  # entirely after the window
    s_w, busy = _fresh_state([1])
    assert schedule_plan_set([plan], s_w, busy, window) == {1}
    assert busy_runs(busy) == {1: []}
    assert s_w == Schedule()


def test_schedule_plan_scans_past_conflicts(example2):
    # J5.2 needs resources 1 and 3 at once; first free slot is t=9
    s_w, busy = _load(example2, [1, 2, 3, 4])
    assert schedule_plan_set([example2.plan(5)], s_w, busy, example2.window) == set()
    assert s_w.starts[(5, 2)] == 9
    for rho in (1, 3):
        assert any(a <= 9 and 10 <= b for a, b in busy_runs(busy)[rho])
    events = _view(s_w, example2)
    assert 10 in events and (5, 2) in events[10].completing


def test_abandoned_candidate_event_is_pruned():
    window = TimeWindow(0, 20)
    blocker = make_plan(1, 2, [(1, 6, 0, 20, {1}, [])])
    mover = make_plan(2, 1, [(1, 2, 3, 20, {1}, [])])  # lower bound 3 sits inside [0,6)
    instance = build_instance([blocker, mover], window=window)
    s_w, busy = _load(instance, [1])
    assert schedule_plan_set([instance.plan(2)], s_w, busy, window) == set()
    assert s_w.starts[(2, 1)] == 6
    assert busy_runs(busy) == {1: [(0, 8)]}  # nothing was written at the candidate t=3
    assert list(_view(s_w, instance)) == [0, 6, 8]


# ------------------------------------------------- the worked example, golden

TABLE_AFTER_PLAN_3 = [
    (2, [(1, 1), (3, 1)], [], (1, 0, 1)),
    (4, [(2, 1)], [], (1, 1, 1)),
    (5, [], [(3, 1)], (1, 1, 0)),
    (6, [(2, 2)], [(1, 1), (2, 1)], (1, 0, 0)),
    (7, [(1, 2)], [], (1, 0, 1)),
    (9, [], [(1, 2), (2, 2)], (0, 0, 0)),
]

TABLE_AFTER_PLAN_4 = [
    (2, [(1, 1), (3, 1), (4, 1)], [], (1, 1, 1)),
    (4, [(2, 1)], [(4, 1)], (1, 1, 1)),
    (5, [], [(3, 1)], (1, 1, 0)),
    (6, [(2, 2), (4, 2)], [(1, 1), (2, 1)], (1, 0, 1)),
    (7, [(1, 2)], [(4, 2)], (1, 0, 1)),
    (9, [], [(1, 2), (2, 2)], (0, 0, 0)),
]

TABLE_AFTER_PLAN_5 = [
    (2, [(1, 1), (3, 1), (4, 1)], [], (1, 1, 1)),
    (4, [(2, 1)], [(4, 1)], (1, 1, 1)),
    (5, [], [(3, 1)], (1, 1, 0)),
    (6, [(2, 2), (4, 2), (5, 1)], [(1, 1), (2, 1)], (1, 1, 1)),
    (7, [(1, 2)], [(4, 2)], (1, 1, 1)),
    (9, [(5, 2)], [(1, 2), (2, 2), (5, 1)], (1, 0, 1)),
    (10, [], [(5, 2)], (0, 0, 0)),
]


def test_insertion_progression_matches_worked_tables(example2):
    s_w, busy = _load(example2, [1, 2])
    assert s_w.starts == {(1, 1): 2, (1, 2): 7, (2, 1): 4, (2, 2): 6}

    assert schedule_plan_set([example2.plan(3)], s_w, busy, example2.window) == set()
    assert s_w.starts[(3, 1)] == 2
    assert _snapshot(event_list(s_w, example2)) == TABLE_AFTER_PLAN_3

    assert schedule_plan_set([example2.plan(4)], s_w, busy, example2.window) == set()
    assert s_w.starts[(4, 1)] == 2 and s_w.starts[(4, 2)] == 6
    assert _snapshot(event_list(s_w, example2)) == TABLE_AFTER_PLAN_4

    assert schedule_plan_set([example2.plan(5)], s_w, busy, example2.window) == set()
    assert s_w.starts[(5, 1)] == 6 and s_w.starts[(5, 2)] == 9
    assert _snapshot(event_list(s_w, example2)) == TABLE_AFTER_PLAN_5


def test_build_schedule_full_example(example2):
    result = build_schedule(example2)
    assert result.scheduled_plans == [1, 2, 3, 4, 5]
    assert result.discarded_plans == []
    assert [e.time for e in result.events] == [2, 4, 5, 6, 7, 9, 10]
    assert _snapshot(result.events) == TABLE_AFTER_PLAN_5
    assert validate_schedule(example2, result.schedule).feasible


def test_schedule_plan_example1(example1):
    s_w, busy = _load(example1, [1])
    assert schedule_plan_set([example1.plan(2)], s_w, busy, example1.window) == set()
    assert s_w.starts[(2, 1)] == 3
    assert s_w.starts[(2, 2)] == 5


# ------------------------------------------------------------ failed plans

def test_schedule_plan_writes_nothing_when_a_later_task_fails():
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 2, [(1, 3, 0, 10, {1}, [])]),
            # second task cannot fit: due 4 but predecessor completes at 2 + lag 3
            make_plan(2, 1, [(1, 2, 0, 10, {2}, []), (2, 1, 0, 4, {2}, [(1, 3)])]),
        ],
        window=window,
    )
    s_w, busy = _load(instance, [1])
    before_schedule = copy.deepcopy(s_w)
    before_busy = copy.deepcopy(busy)
    assert schedule_plan_set([instance.plan(2)], s_w, busy, window) == {2}
    assert s_w == before_schedule
    assert busy == before_busy


# --------------------------------------------------------------- idle metric

def _fit_and_measure(plan, busy, window):
    """The fitted starts of ``plan``, its idle sum and its spans, with nothing written."""
    fitted = engine._fit_plan(plan, busy, window)
    spans: list = []
    idle = engine._idle_sum(fitted, busy, window.start, spans)
    return [start for _, start, _ in fitted], idle, spans


def test_idle_time_sums_on_shared_priority_group(idle_example):
    window = idle_example.window
    _, busy = _load(idle_example, [1, 2])
    starts, idle, _ = _fit_and_measure(idle_example.plan(3), busy, window)
    assert (starts, idle) == ([4], 2)
    starts, idle, spans = _fit_and_measure(idle_example.plan(4), busy, window)
    assert (starts, idle) == ([3, 4], 1)
    # (latest release, start, completion) per task
    assert spans == [(2, 3, 4), (4, 4, 7)]


@pytest.mark.parametrize(
    "blockers, release, start, idle",
    [
        ([3], 0, 3, 0),  # [0, 3), then the task back to back
        ([2, 2], 6, 6, 2),  # back-to-back run [0, 2) + [2, 4) turns free at 4
        ([2, 2], 0, 4, 0),  # the task closes the run at 4
    ],
    ids=["meets-completion", "after-back-to-back-run", "meets-back-to-back-run"],
)
def test_idle_zero_when_start_meets_completion(blockers, release, start, idle):
    window = TimeWindow(0, 10)
    plans = [make_plan(k, 9, [(1, p, 0, 10, {1}, [])]) for k, p in enumerate(blockers, 1)]
    mover = make_plan(len(plans) + 1, 1, [(1, 2, release, 10, {1}, [])])
    instance = build_instance([*plans, mover], window=window)
    _, busy = _load(instance, [plan.id for plan in plans])
    assert _fit_and_measure(mover, busy, window)[:2] == ([start], idle)


def test_fit_and_measure_match_place_and_measure_on_a_shared_resource():
    # tasks 2 and 3 share resource 1 with task 1.  Task 2 comes later in the
    # plan but goes earlier in time, so task 1's latest release is task 2's
    # completion 4.  Task 3 would start at its release 5 but for task 1's
    # [6, 8), which no timeline holds during the fit, so it goes at 8.  Task
    # 4 (resource 2, after task 2 plus lag 1) is released by task 2 at 4.
    # The tick reference places the tasks one by one, each written before the
    # next is placed, so it needs no overlay and checks the fit.
    window = TimeWindow(0, 20)
    blocker = make_plan(9, 9, [(1, 1, 0, 20, {1}, [])])
    plan = make_plan(
        1,
        1,
        [
            (1, 2, 6, 20, {1}, []),
            (2, 3, 0, 20, {1, 2}, []),
            (3, 2, 5, 20, {1}, []),
            (4, 1, 0, 20, {2}, [(2, 1)]),
        ],
    )
    instance = build_instance([blocker, plan], window=window)
    s_w, busy = _load(instance, [9])
    before = copy.deepcopy(busy)
    fit_starts, fit_idle, fit_spans = _fit_and_measure(plan, busy, window)
    assert busy == before
    ticks, starts = reference._place(plan, reference.busy_ticks(instance, s_w.starts), s_w.starts, window)
    placed_spans = reference._spans(plan, ticks, starts, window)
    placed_idle = reference._idle(plan, ticks, starts, window)
    assert fit_starts == [starts[t.id] for t in plan.tasks] == [6, 1, 8, 5]
    assert (fit_idle, fit_spans) == (placed_idle, placed_spans) == (3, [(4, 6, 8), (1, 1, 4), (8, 8, 10), (4, 5, 6)])


# ----------------------------------------------------------- plan-set commits

def test_plan_set_commits_lowest_idle_first(idle_example):
    window = idle_example.window
    s_w, busy = _load(idle_example, [1, 2])
    unscheduled = schedule_plan_set(
        [idle_example.plan(3), idle_example.plan(4)], s_w, busy, window
    )
    assert unscheduled == set()
    assert s_w.scheduled_plans == [1, 2, 4, 3]  # the set-up plans, then 4: idle 1 beats idle 2


def test_plan_set_single_infeasible_plan():
    window = TimeWindow(0, 10)
    instance = build_instance(
        [make_plan(1, 1, [(1, 5, 0, 3, {1}, [])])], window=window  # cannot fit
    )
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set([instance.plan(1)], s_w, busy, window) == {1}
    assert busy_runs(busy) == {1: []}
    assert s_w.starts == {}


def test_plan_set_tie_goes_to_last_examined():
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 0, 10, {1}, [])]),
            make_plan(2, 1, [(1, 2, 0, 10, {2}, [])]),
        ],
        window=window,
    )
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set([instance.plan(1), instance.plan(2)], s_w, busy, window) == set()
    assert s_w.scheduled_plans == [2, 1]  # equal idle: the later trial wins
    assert s_w.starts == {(1, 1): 0, (2, 1): 0}


def test_lone_survivor_is_placed_once(monkeypatch):
    # the round scans from the end: plan 2's trial has idle 0, which ends the
    # round before plan 1 is tried, and plan 2 is committed from that trial;
    # plan 1, tried in the next round, cannot fit
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 5, 0, 3, {1}, [])]),
            make_plan(2, 1, [(1, 2, 0, 10, {1}, [])]),
        ],
        window=window,
    )
    calls = _spy_placements(monkeypatch)
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set([instance.plan(1), instance.plan(2)], s_w, busy, window) == {1}
    assert calls == [2, 1]
    assert s_w.scheduled_plans == [2]
    assert s_w.starts == {(2, 1): 0}
    assert busy_runs(busy) == {1: [(0, 2)]}


def test_group_of_one_fits_once_and_measures_no_idle(monkeypatch):
    # a lone plan has no rival: one fit, committed at once, with no idle sum,
    # trial or watch list, work a round would spend on every one-plan group
    calls = _spy_placements(monkeypatch)
    monkeypatch.setattr(engine, "_idle_sum", lambda *args: pytest.fail("a group of one measured its idle sum"))
    window = TimeWindow(0, 10)
    plan = make_plan(1, 1, [(1, 2, 3, 10, {1}, []), (2, 1, 0, 10, {2}, [(1, 0)])])
    s_w, busy = _fresh_state([1, 2])
    assert schedule_plan_set([plan], s_w, busy, window) == set()
    assert calls == [1]
    assert s_w.scheduled_plans == [1]
    assert s_w.starts == {(1, 1): 3, (1, 2): 5}


def _spy_placements(monkeypatch):
    """Record the plan id of every plan fit (``engine._fit_plan``) the engine makes."""
    calls = []
    fit_plan = engine._fit_plan

    def spy(plan, *args):
        calls.append(plan.id)
        return fit_plan(plan, *args)

    monkeypatch.setattr(engine, "_fit_plan", spy)
    return calls


@pytest.mark.parametrize(
    "release3, expected_calls, scheduled",
    [
        # idle sums 4, 3, 1, tried from the end: plan 3 commits [1, 3) on
        # resource 3, away from the others, and every later commit writes a
        # kept trial
        (1, [3, 2, 1], [3, 2, 1]),
        # plan 3's idle sum 0 ends the first round before plans 2 and 1 are
        # tried; it commits [0, 2) on resource 1, and the next round tries
        # plan 2 (idle 3) and plan 1, which starts at 4 after a latest release
        # of 2 (idle 2)
        (0, [3, 2, 1], [3, 1, 2]),
    ],
    ids=["disjoint", "overlaps-plan-1"],
)
def test_commit_retrials_only_the_plans_it_overlaps(monkeypatch, release3, expected_calls, scheduled):
    window = TimeWindow(0, 10)
    resource3 = 3 if release3 else 1
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 4, 10, {1}, [])]),
            make_plan(2, 1, [(1, 2, 3, 10, {2}, [])]),
            make_plan(3, 1, [(1, 2, release3, 10, {resource3}, [])]),
        ],
        window=window,
    )
    calls = _spy_placements(monkeypatch)
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set(list(instance.plans), s_w, busy, window) == set()
    assert calls == expected_calls
    assert s_w.scheduled_plans == scheduled
    assert s_w.starts == {(1, 1): 4, (2, 1): 3, (3, 1): release3}


@pytest.mark.parametrize(
    "commit_release, expected_calls, plan1_idle",
    [
        (1, [3, 2, 1], 3),  # commit [1, 4) ends at plan 1's lr = 4: kept
        (2, [3, 2, 1], 2),  # commit [2, 5) ends at lr + 1, before the start: patched
    ],
    ids=["ends-at-lr", "ends-past-lr"],
)
def test_commit_ending_at_latest_release_keeps_the_trial(monkeypatch, commit_release, expected_calls, plan1_idle):
    # plan 1 needs resources 1 and 2; plan 4, already placed, holds resource 2 over
    # [2, 4), so plan 1 starts at 7 with latest release 4 and completes at 9
    window = TimeWindow(0, 20)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 7, 20, {1, 2}, [])]),
            make_plan(2, 1, [(1, 3, commit_release, 20, {1}, [])]),
            make_plan(3, 1, [(1, 2, 5, 20, {3}, [])]),
            make_plan(4, 2, [(1, 2, 2, 20, {2}, [])]),
        ],
        window=window,
    )
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set([instance.plan(4)], s_w, busy, window) == set()
    calls = _spy_placements(monkeypatch)
    group = [instance.plan(1), instance.plan(2), instance.plan(3)]
    assert schedule_plan_set(group, s_w, busy, window) == set()
    assert calls == expected_calls
    assert s_w.scheduled_plans == [4, 2, 1, 3]
    assert s_w.starts[(1, 1)] == 7
    # plan 1's idle sum at the end, by the tick reference: unchanged by the commit, or lowered by it
    assert reference._idle(instance.plan(1), reference.busy_ticks(instance, s_w.starts), s_w.starts, window) == plan1_idle


@pytest.mark.parametrize("size, placements", [(2, 3), (5, 15), (16, 136)])
def test_colliding_group_takes_triangular_placements(monkeypatch, size, placements):
    # G plans whose first task runs on resource 1 from time 0: each commit
    # overlaps every kept trial, so round k tries the G - k + 1 pending plans
    # once and the commit tries none, G(G+1)/2 in all, the bound for a group of
    # G, when no trial has idle 0.  A second task on resource 2, shorter than
    # every first task and after it, keeps the idle sum above 0.  With the
    # one-task plans alone every trial starts where resource 1 turns free,
    # its idle sum is 0 and ends its round, so each round tries one plan.
    window = TimeWindow(0, 20 * size)
    calls = _spy_placements(monkeypatch)
    for second_task, expected in ((True, placements), (False, size)):
        calls.clear()
        plans = []
        for plan_id in range(1, size + 1):
            rows = [(1, 2 + plan_id % 3, 0, 20 * size, {1}, [])]
            if second_task:
                rows.append((2, 1, 0, 20 * size, {2}, [(1, 0)]))
            plans.append(make_plan(plan_id, 1, rows))
        instance = build_instance(plans, window=window)
        s_w, busy = _fresh_state(instance.resources)
        assert schedule_plan_set(list(instance.plans), s_w, busy, window) == set()
        assert len(calls) == expected, second_task
        assert len(s_w.scheduled_plans) == size
    assert placements == size * (size + 1) // 2


def test_disjoint_pair_is_placed_once_each(monkeypatch):
    # plan 2, tried first, has idle 0 and ends the round before plan 1 is
    # tried; plan 1 is then alone and is committed by its one placement
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 3, 10, {1}, [])]),
            make_plan(2, 1, [(1, 2, 0, 10, {2}, [])]),
        ],
        window=window,
    )
    calls = _spy_placements(monkeypatch)
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set(list(instance.plans), s_w, busy, window) == set()
    assert calls == [2, 1]
    assert s_w.scheduled_plans == [2, 1]
    assert s_w.starts == {(1, 1): 3, (2, 1): 0}
    assert busy_runs(busy) == {1: [(3, 5)], 2: [(0, 2)]}


def test_zero_idle_trial_ends_the_round(monkeypatch):
    # idle sums by plan: 1 cannot fit, 2: 4, 3: 3, 4: 0, 5: 1.  The first
    # round scans from the end and stops at plan 4's idle sum of 0, so plans
    # 3, 2 and 1 are not tried before plan 4 commits; plan 1's failure shows
    # in the next round.  The commits are those of a full scan.
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 5, 0, 3, {5}, [])]),
            make_plan(2, 1, [(1, 2, 4, 10, {1}, [])]),
            make_plan(3, 1, [(1, 2, 3, 10, {2}, [])]),
            make_plan(4, 1, [(1, 2, 0, 10, {3}, [])]),
            make_plan(5, 1, [(1, 2, 1, 10, {4}, [])]),
        ],
        window=window,
    )
    log = []
    fit_plan, commit = engine._fit_plan, engine._commit

    def spy_fit(plan, *args):
        log.append(("fit", plan.id))
        return fit_plan(plan, *args)

    def spy_commit(plan, *args):
        log.append(("commit", plan.id))
        return commit(plan, *args)

    monkeypatch.setattr(engine, "_fit_plan", spy_fit)
    monkeypatch.setattr(engine, "_commit", spy_commit)
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set(list(instance.plans), s_w, busy, window) == {1}
    assert log == [  # one round per line
        ("fit", 5), ("fit", 4), ("commit", 4),
        ("fit", 3), ("fit", 2), ("fit", 1), ("commit", 5),
        ("commit", 3),
        ("commit", 2),
    ]
    assert s_w.scheduled_plans == [4, 5, 3, 2]
    assert s_w.starts == {(2, 1): 4, (3, 1): 3, (4, 1): 0, (5, 1): 1}


def test_group_trials_grow_with_what_commits_touch(monkeypatch):
    # 64 equal-priority plans on 16 resources, all of which fit: re-running
    # every pending trial after each commit takes 2,143 placements here;
    # keeping the trials no commit touches, and committing them as kept, takes 417
    rng = random.Random("one-priority-64")
    plans = []
    for plan_id in range(1, 65):
        release = rng.randint(0, 600)
        resources = rng.sample(range(1, 17), 3)
        rows = []
        for index in range(1, rng.randint(1, 3) + 1):
            p = rng.randint(1, 10)
            rows.append((index, p, release, 1000, {resources[index - 1]}, [(index - 1, 0)] if index > 1 else []))
        plans.append(make_plan(plan_id, 1, rows))
    instance = build_instance(plans, window=TimeWindow(0, 1000))
    calls = _spy_placements(monkeypatch)
    assert build_schedule(instance).discarded_plans == []
    assert len(calls) <= 600, len(calls)


def _ladder_instance(monkeypatch, k):
    """The benchmark's random generator at ``K`` plans, seeded ``"ladder:K"`` (groups of K/6 plans)."""
    workloads = perfbench_module(monkeypatch, "workloads")
    params = workloads.Params(k, 12, 6, 4 * k, 4, 20, 1 / 3, 0.5, 2)
    return workloads.random_instance(random.Random(f"ladder:{k}"), params, plansched.model)


def test_random_ladder_rung_takes_exact_placements(monkeypatch):
    # the benchmark's random generator at K = 64: six equal-priority groups
    # take 71 placements, far inside the bound of G(G+1)/2 per group of G
    instance = _ladder_instance(monkeypatch, 64)
    sizes = sorted(Counter(plan.priority for plan in instance.plans).values())
    assert sizes == [10, 10, 11, 11, 11, 11]
    calls = _spy_placements(monkeypatch)
    result = build_schedule(instance)
    assert len(calls) == 71
    assert len(result.scheduled_plans) == 52
    assert len(calls) <= sum(g * (g + 1) // 2 for g in sizes) == 374


def test_random_ladder_rung_1024_takes_exact_placements(monkeypatch):
    # six groups of about 170 plans: a commit re-runs only the trials whose
    # tasks it overlaps, and a zero idle sum ends a round, so the count stays
    # near 1.3 placements a plan, against a bound of 87,894 (G(G+1)/2 per group)
    instance = _ladder_instance(monkeypatch, 1024)
    calls = _spy_placements(monkeypatch)
    build_schedule(instance)
    assert len(calls) == 1330


def _one_resource_ladder(k):
    """``K`` one-task plans of one priority on one resource, ``p = randint(1, 20)``, window and due ``[0, 20K]``."""
    rng = random.Random(k)
    window = TimeWindow(0, 20 * k)
    plans = [make_plan(plan_id, 1, [(1, rng.randint(1, 20), 0, 20 * k, {1}, [])]) for plan_id in range(1, k + 1)]
    return build_instance(plans, window=window)


def _chain_ladder(k):
    """``K`` two-task plans of one priority: ``p = randint(10, 20)`` on resource 1, then
    ``p = randint(1, 5)`` on resource 2, window and due ``[0, 25K]``."""
    rng = random.Random(k)
    plans = []
    for plan_id in range(1, k + 1):
        first = (1, rng.randint(10, 20), 0, 25 * k, {1}, [])
        second = (2, rng.randint(1, 5), 0, 25 * k, {2}, [(1, 0)])
        plans.append(make_plan(plan_id, 1, [first, second]))
    return build_instance(plans, window=TimeWindow(0, 25 * k))


def test_one_resource_ladder_takes_one_fit_a_plan(monkeypatch):
    # every trial starts where the resource turns free, so its idle sum is 0
    # and ends its round: K fits, where a full scan takes K(K+1)/2 = 32,896
    instance = _one_resource_ladder(256)
    calls = _spy_placements(monkeypatch)
    result = build_schedule(instance)
    assert len(calls) == 256
    assert len(result.scheduled_plans) == 256


def test_chain_ladder_takes_triangular_fits(monkeypatch):
    # a trial's second task starts p1 >= 10 after resource 1's packed run
    # ends, and resource 2 turned free at most 5 after that end, so no idle
    # sum is 0; each commit overlaps every kept trial on resource 1, so round
    # k fits the K - k + 1 pending plans: K(K+1)/2 fits
    instance = _chain_ladder(64)
    calls = _spy_placements(monkeypatch)
    result = build_schedule(instance)
    assert len(calls) == 2080 == 64 * 65 // 2
    assert len(result.scheduled_plans) == 64


def test_chain_ladder_packs_resource_1_into_one_run():
    # every commit lands at the end of resource 1's packed run and extends it
    instance = _chain_ladder(64)
    s_w, busy = _fresh_state(instance.resources)
    assert schedule_plan_set(list(instance.plans), s_w, busy, instance.window) == set()
    assert s_w.starts == build_schedule(instance).schedule.starts
    assert busy[1] == ([0], [sum(plan.tasks[0].processing_time for plan in instance.plans)])


def _long_plan(plan_id, n, rho):
    """One plan of ``n`` unchained one-tick tasks on resource ``rho``, window and due ``[0, 10n]``."""
    return make_plan(plan_id, 1, [(index, 1, 0, 10 * n, {rho}, []) for index in range(1, n + 1)])


def test_long_plan_on_one_resource_builds_at_per_task_cost():
    # every task after the first meets the plan's own run [0, k) and jumps
    # past it in one bisect; a scan of the earlier tasks jumps once per task
    instance = build_instance([_long_plan(1, 1000, 1)], window=TimeWindow(0, 10_000))
    began = time.perf_counter()
    result = build_schedule(instance)
    assert time.perf_counter() - began < 1
    assert [result.schedule.starts[(1, index)] for index in range(1, 1001)] == list(range(1000))


def test_group_of_two_long_plans_builds_at_per_task_cost():
    # both plans are fitted and measured as a group: the idle sums read each
    # plan's own task ends by bisect, and the first commit keeps the other
    # plan's trial, as the two share no resource
    instance = build_instance([_long_plan(1, 1000, 1), _long_plan(2, 1000, 2)], window=TimeWindow(0, 10_000))
    began = time.perf_counter()
    result = build_schedule(instance)
    assert time.perf_counter() - began < 1
    for plan_id in (1, 2):
        assert [result.schedule.starts[(plan_id, index)] for index in range(1, 1001)] == list(range(1000))


# -------------------------------------------------------------- build_schedule

def test_build_schedule_empty_instance():
    instance = build_instance([], window=TimeWindow(0, 10))
    result = build_schedule(instance)
    assert result.scheduled_plans == [] and result.discarded_plans == []
    assert result.schedule.starts == {}
    assert [e.time for e in result.events] == [0]  # only the window sentinel


def test_build_schedule_event_count_bound(example2):
    result = build_schedule(example2)
    assert len(result.events) <= 2 * len(result.schedule.starts) + 2


def test_build_schedule_groups_only_within_frontier():
    # equal priority but chained: the successor must not join the group
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 2, 0, 10, {1}, [])]),
            make_plan(2, 5, [(1, 2, 0, 10, {1}, [])]),
        ],
        plan_dag={(1, 2)},
        window=window,
    )
    result = build_schedule(instance)
    assert result.scheduled_plans == [1, 2]
    assert result.schedule.starts == {(1, 1): 0, (2, 1): 2}


def test_strict_plan_precedence_discards_successors():
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 5, 0, 3, {1}, [])]),  # infeasible
            make_plan(2, 4, [(1, 2, 0, 10, {2}, [])]),
        ],
        plan_dag={(1, 2)},
        window=window,
    )
    relaxed = build_schedule(instance)
    assert relaxed.scheduled_plans == [2]
    strict = build_schedule(instance, strict_plan_precedence=True)
    assert strict.scheduled_plans == []
    assert strict.discarded_plans == [1, 2]


def test_highest_priority_goes_first():
    window = TimeWindow(0, 10)
    instance = build_instance(
        [
            make_plan(1, 1, [(1, 2, 0, 10, {1}, [])]),
            make_plan(2, 9, [(1, 2, 0, 10, {1}, [])]),
        ],
        window=window,
    )
    descending = build_schedule(instance)
    assert descending.schedule.starts == {(2, 1): 0, (1, 1): 2}


# ------------------------------------------------------------ traced names

def test_traced_engine_names_exist(monkeypatch):
    # the benchmark's per-layer metrics wrap program functions by name and
    # read 0 for a name that is gone, so a rename must fail here first; the
    # names below are already gone and their metrics read 0.  Those of
    # schedule_plan (engine.trials, trial_yield) read 0 since a group of one
    # is committed through engine._commit like any other group; those of the
    # next three (engine.task_calls, task_ms, rollbacks, rollback_ms and
    # idle_ms) since plans are fitted without writing
    tracing = perfbench_module(monkeypatch, "tracing")
    names = ("model", "ordering", "engine", "serialize", "validate", "gantt", "oracle", "scenarios")
    modules = {"": plansched, **{name: importlib.import_module(f"plansched.{name}") for name in names}}
    tracer = tracing.Tracer(modules)
    assert tracer.absent == [
        "engine.schedule_plan",
        "engine.schedule_task",
        "engine.rollback_plan",
        "engine.idle_time_sum",
        "model.EventList.copy",
        "model.Schedule.copy",
        "model.EventList.next_after",
        "ordering.topological_sort",
    ]
