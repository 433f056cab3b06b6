"""Constructor fuzz: odd values at random argument positions of the model.

Each round builds a window, two tasks, a plan and an instance (through both
``build_instance`` and ``Instance``), swapping one or two arguments, or one
entry of a list argument, for a value of the wrong type or an extreme one.
Only a :class:`SchedulingError` may escape a constructor, and an instance
that constructs must build and validate a schedule without any exception.
No Gantt chart is drawn: the text renderer spends one cell per tick, which
a window near 2**63 cannot afford.
"""

import random

from plansched import (
    Instance,
    Plan,
    SchedulingError,
    Task,
    TimeWindow,
    build_instance,
    build_schedule,
    validate_schedule,
)
from conftest import base_seed

ROUNDS = 1500
_TASK = Task(1, 1, 2, 0, 10, [1])
_PLAN = Plan(1, 3, [_TASK])
_ODD = (
    None,
    True,
    False,
    0.5,
    -1.0,
    "",
    "7",
    "ab",
    [],
    [1, 2],
    {},
    {1: 2},
    (1, 2, 3),
    0,
    -1,
    2**63 - 1,
    2**63,
    -(2**63),
    -(2**63) - 1,
    _TASK,  # a Task where a Plan or a value belongs
    _PLAN,  # and a Plan where a Task or a value belongs
)


def _mutated(rng: random.Random, args: list) -> list:
    """``args`` as given half of the time, else with one or two of them, or of their entries, swapped."""
    args = list(args)
    if rng.random() < 0.5:
        return args
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(args))
        if type(args[i]) is list and args[i] and rng.random() < 0.5:
            entries = list(args[i])
            entries[rng.randrange(len(entries))] = rng.choice(_ODD)
            args[i] = entries
        else:
            args[i] = rng.choice(_ODD)
    return args


def _made(make, args, fallback=None):
    """``make(*args)``, or ``fallback`` when the model refuses the arguments."""
    try:
        return make(*args)
    except SchedulingError:
        return fallback


def _round(rng: random.Random) -> int:
    """One round of constructions; returns how many instances it built and scheduled."""
    window = _made(TimeWindow, _mutated(rng, [0, 20]), TimeWindow(0, 20))
    tasks = [Task(1, 1, 3, 0, 10, [1]), Task(1, 2, 2, 0, 15, [2], [(1, 0)])]
    first = _made(Task, _mutated(rng, [1, 1, 3, 0, 10, [1], []]), tasks[0])
    second = _made(Task, _mutated(rng, [1, 2, 2, 0, 15, [2], [(1, 0)]]), tasks[1])
    plan = _made(Plan, _mutated(rng, [1, 5, [first, second]]), Plan(1, 5, tasks))
    other = Plan(2, 5, [Task(2, 1, 4, 0, 20, [1, 2])])
    instances = [
        _made(build_instance, _mutated(rng, [[plan, other], [(1, 2)], None, window])),
        _made(Instance, _mutated(rng, [[plan, other], [(1, 2)], {1: 1, 2: 1}, window])),
    ]
    built = 0
    for instance in instances:
        if instance is None:
            continue
        result = build_schedule(instance, strict_plan_precedence=rng.random() < 0.5)
        assert validate_schedule(instance, result.schedule).feasible
        assert len(result.events) >= 1
        built += 1
    return built


def test_constructor_fuzz_raises_only_scheduling_errors():
    rng = random.Random(base_seed())
    built = sum(_round(rng) for _ in range(ROUNDS))
    assert built > ROUNDS // 2  # most rounds reach the engine, not only the constructors
