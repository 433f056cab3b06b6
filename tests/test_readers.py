"""Every reader of a schedule against its instance applies one rule.

The validator, the objective, both writers, the event list and both Gantt
renders read a schedule through ``model.placed_tasks``.  One table checks each of them
against each case of that rule with its exact message, and one extreme
instance goes through all of them.  Random hand-built schedules check the
event list against a literal sweep and the schedule writer against
``json.dumps``.
"""

import json
import random
import re

import pytest

from plansched import (
    PARTIAL_PLAN,
    Plan,
    Schedule,
    SchedulingError,
    Task,
    TimeWindow,
    UnknownTask,
    build_instance,
    build_schedule,
    dumps_instance,
    dumps_schedule,
    objective,
    render_gantt,
    validate_schedule,
)
from plansched.model import Event, event_list, placed_tasks
from plansched.serialize import instance_from_dict, schedule_from_dict, schedule_to_dict
from conftest import base_seed, random_instance

READERS = {
    "validate": lambda schedule, instance: validate_schedule(instance, schedule),
    "objective": lambda schedule, instance: objective(instance, schedule),
    "dumps": dumps_schedule,
    "to_dict": schedule_to_dict,
    "events": event_list,
    "text": lambda schedule, instance: render_gantt(schedule, instance, "text"),
    "svg": lambda schedule, instance: render_gantt(schedule, instance, "svg"),
}

# example1: plan 1 has task 1, plan 2 has tasks 1 and 2
_ALL = {(1, 1): 2, (2, 1): 3, (2, 2): 5}
_NOT_INT = "ids and start must be integers"
CASES = {
    "bool-start": ({(1, 1): True}, [1], [], SchedulingError, f"start of task (1, 1): {_NOT_INT}, got True"),
    "float-start": ({(1, 1): 2.0}, [1], [], SchedulingError, f"start of task (1, 1): {_NOT_INT}, got 2.0"),
    "str-plan": ({("1", 1): 2}, [1], [], SchedulingError, f"start of task ('1', 1): {_NOT_INT}, got 2"),
    "bool-task": ({(1, True): 2}, [1], [], SchedulingError, f"start of task (1, True): {_NOT_INT}, got 2"),
    "str-scheduled": ({}, ["1"], [], SchedulingError, "listed plan ids must be integers, got '1'"),
    "float-discarded": ({}, [], [1.0], SchedulingError, "listed plan ids must be integers, got 1.0"),
    "bool-scheduled": ({}, [True], [], SchedulingError, "listed plan ids must be integers, got True"),
    "fraction-start": ({(1, 1): 2.5}, [1], [], SchedulingError, f"start of task (1, 1): {_NOT_INT}, got 2.5"),
    "str-start": ({(1, 1): "x"}, [1], [], SchedulingError, f"start of task (1, 1): {_NOT_INT}, got 'x'"),
    "digit-str-start": ({(1, 1): "3"}, [1], [], SchedulingError, f"start of task (1, 1): {_NOT_INT}, got '3'"),
    "list-scheduled": ({}, [[1]], [], SchedulingError, "listed plan ids must be integers, got [1]"),
    "id-not-a-pair": ({5: 2}, [], [], SchedulingError, f"task id 5: {_NOT_INT}"),
    "starts-none": (None, [], [], SchedulingError, "starts must be a dict, got NoneType"),
    "starts-pairs": ([((1, 1), 2)], [], [], SchedulingError, "starts must be a dict, got list"),
    "scheduled-none": ({}, None, [], SchedulingError, "scheduled_plans must be a list, got NoneType"),
    "unknown-task": ({(1, 1): 2, (9, 1): 0}, [1], [], UnknownTask, "schedule references unknown task (9, 1)"),
    "unknown-task-alone": ({(9, 9): 0}, [], [], UnknownTask, "schedule references unknown task (9, 9)"),
    "unknown-scheduled": (_ALL, [1, 2, 999], [], UnknownTask, "schedule lists unknown plans [999]"),
    "unknown-discarded": (_ALL, [1, 2], [999], UnknownTask, "schedule lists unknown plans [999]"),
    "unknown-task-and-plan": ({(1, 1): 2, (9, 1): 0}, [1, 9], [], UnknownTask, "schedule references unknown task (9, 1)"),
    "repeat-scheduled": (_ALL, [1, 2, 1], [], SchedulingError, "scheduled_plans[2]: plan 1 is listed twice"),
    "repeat-discarded": ({(1, 1): 2}, [1], [2, 2], SchedulingError, "discarded_plans[1]: plan 2 is listed twice"),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("starts, scheduled, discarded, error, message", CASES.values(), ids=CASES.keys())
def test_every_reader_applies_the_schedule_rule(example1, read, starts, scheduled, discarded, error, message):
    schedule = Schedule(starts, scheduled, discarded)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(schedule, example1)


def test_a_plan_in_both_lists_is_read_and_reported(example1):
    # the document reader accepts it, so every reader does; the validator reports it
    schedule = Schedule(_ALL, [1, 2], [2])
    for read in READERS.values():
        read(schedule, example1)
    assert schedule_from_dict(json.loads(dumps_schedule(schedule, example1))) == schedule
    partial = [v for v in validate_schedule(example1, schedule).violations if v.kind == PARTIAL_PLAN]
    assert [(v.plan, v.detail) for v in partial] == [(2, "marked discarded but has placed tasks")]


def test_placed_tasks_follow_instance_order(example1):
    schedule = Schedule({(2, 2): 5, (1, 1): 2, (2, 1): 3})
    placed = placed_tasks(schedule, example1)
    assert [(task.id, start) for task, start in placed] == [((1, 1), 2), ((2, 1), 3), ((2, 2), 5)]
    assert all(task is example1.task(task.id) for task, _ in placed)
    assert placed_tasks(Schedule(), example1) == []


def test_one_task_on_five_thousand_resources():
    wide = Task(1, 1, 3, 0, 20, range(1, 5001))
    narrow = Task(2, 1, 2, 0, 20, [5000])
    instance = build_instance([Plan(1, 2, [wide]), Plan(2, 1, [narrow])], window=TimeWindow(0, 20))
    result = build_schedule(instance)
    schedule = result.schedule
    assert schedule.starts == {(1, 1): 0, (2, 1): 3}
    assert validate_schedule(instance, schedule).feasible
    assert [(e.time, len(e.usage)) for e in result.events] == [(0, 5000), (3, 1), (5, 0)]
    text = dumps_schedule(schedule, instance, result.events)
    assert schedule_from_dict(json.loads(text)) == schedule
    assert render_gantt(schedule, instance, "text").count("\n") == 2 + 5000
    assert render_gantt(schedule, instance, "svg").count("<rect ") == 5001
    assert instance_from_dict(json.loads(dumps_instance(instance))) == instance


def _reference_events(schedule, instance):
    """The event list swept literally: at each instant, in time order, the
    resources of the completing tasks are removed, then those of the starting
    tasks added; the window start is always an event."""
    placed = [(instance.task(task_id), start) for task_id, start in schedule.starts.items()]
    instants = {instance.window.start}
    for task, start in placed:
        instants |= {start, start + task.processing_time}
    held = set()
    events = []
    for t in sorted(instants):
        completing = [task for task, start in placed if start + task.processing_time == t]
        starting = [task for task, start in placed if start == t]
        for task in completing:
            held -= task.resources
        for task in starting:
            held |= task.resources
        started, completed = frozenset(task.id for task in starting), frozenset(task.id for task in completing)
        events.append(Event(t, started, completed, frozenset(held)))
    return tuple(events)


def _random_schedule(rng, instance):
    """Some tasks of ``instance`` at random starts, in or out of its window and
    overlapping freely, and random, possibly overlapping, plan lists."""
    window = instance.window
    starts = {
        task.id: rng.randint(window.start - 6, window.end + 6) for task in instance.iter_tasks() if rng.random() < 0.7
    }
    plan_ids = [plan.id for plan in instance.plans]
    scheduled = rng.sample(plan_ids, rng.randint(0, len(plan_ids)))
    discarded = rng.sample(plan_ids, rng.randint(0, len(plan_ids)))
    return Schedule(starts, scheduled, discarded)


def test_event_list_and_writer_on_random_schedules():
    # partial, overlapping and out-of-window schedules, not only engine-built ones
    rng = random.Random(base_seed())
    for _ in range(300):
        instance = random_instance(rng, max_plans=5, max_tasks=4, n_resources=rng.choice([2, 3, 6]), horizon=12)
        schedule = _random_schedule(rng, instance)
        events = event_list(schedule, instance)
        assert events == _reference_events(schedule, instance)
        assert all(type(event) is Event for event in events)
        expected = json.dumps(schedule_to_dict(schedule, instance, events), indent=2) + "\n"
        assert dumps_schedule(schedule, instance, events) == expected
