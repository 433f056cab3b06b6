import dataclasses
import itertools
import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

from plansched import (
    BadWindow,
    CyclicPlanDag,
    CyclicTaskGraph,
    Instance,
    InstanceError,
    Plan,
    Task,
    TimeWindow,
    UnknownResource,
    UnknownTask,
    build_instance,
)
from plansched.data import load_bundled
from plansched.model import Event
from conftest import base_seed, example1_instance, make_plan, random_instance


def test_window_rejects_inverted():
    with pytest.raises(BadWindow):
        TimeWindow(5, 4)


def test_task_validation():
    with pytest.raises(BadWindow):
        Task(plan_id=1, index=1, processing_time=0, release=0, due=5, resources={1})
    with pytest.raises(BadWindow):
        Task(plan_id=1, index=1, processing_time=1, release=6, due=5, resources={1})
    with pytest.raises(BadWindow):
        Task(plan_id=1, index=2, processing_time=1, release=0, due=5, resources={1}, predecessors=((1, -1),))
    with pytest.raises(InstanceError):
        Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources=set())
    with pytest.raises(CyclicTaskGraph):
        Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources={1}, predecessors=((1, 0),))


def test_plan_normalises_task_order():
    t1 = Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources={1})
    t2 = Task(plan_id=1, index=2, processing_time=1, release=0, due=5, resources={1}, predecessors=((1, 0),))
    plan = Plan(id=1, priority=1, tasks=(t2, t1))  # successor listed first
    assert [t.index for t in plan.tasks] == [1, 2]
    # an order that is already consistent stays put
    t3 = Task(plan_id=1, index=3, processing_time=1, release=0, due=5, resources={1})
    plan = Plan(id=1, priority=1, tasks=(t3, t1, t2))
    assert [t.index for t in plan.tasks] == [3, 1, 2]


def test_plan_rejects_cycles_and_bad_references():
    a = Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources={1}, predecessors=((2, 0),))
    b = Task(plan_id=1, index=2, processing_time=1, release=0, due=5, resources={1}, predecessors=((1, 0),))
    with pytest.raises(CyclicTaskGraph):
        Plan(id=1, priority=1, tasks=(a, b))
    with pytest.raises(InstanceError):
        Plan(id=1, priority=1, tasks=(a,))  # predecessor 2 does not exist
    t = Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources={1})
    with pytest.raises(InstanceError):
        Plan(id=1, priority=1, tasks=(t, t))  # duplicate index
    with pytest.raises(InstanceError):
        Plan(id=1, priority=1, tasks=())
    with pytest.raises(InstanceError):
        Plan(id=2, priority=1, tasks=(t,))  # t is tagged for plan 1


def test_plan_task_rejects_unknown_index():
    plan = make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])
    assert plan.task(1) is plan.tasks[0]
    with pytest.raises(UnknownTask):
        plan.task(2)


def test_build_instance_example1():
    instance = example1_instance()
    assert len(instance.plans) == 2
    assert sum(p.task_count for p in instance.plans) == 3
    assert instance.resources == {1: 1, 2: 1}


def test_instance_fills_in_the_defaults_of_build_instance(example1):
    # one constructor: no DAG, and every resource a task uses, each available once
    instance = Instance(example1.plans, window=example1.window)
    assert instance == build_instance(example1.plans, window=example1.window)
    assert instance.plan_dag == frozenset() and instance.resources == {1: 1, 2: 1}
    assert Instance(example1.plans, frozenset(), None, example1.window).resources == {1: 1, 2: 1}


def test_build_instance_is_instance():
    assert build_instance is Instance


def test_build_instance_single_trivial():
    plan = make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])
    instance = build_instance([plan], window=TimeWindow(0, 10))
    assert instance.plan(1).task_count == 1
    with pytest.raises(UnknownTask):
        instance.plan(2)


def test_build_instance_rejects_plan_dag_cycle():
    plans = [make_plan(i, 1, [(1, 1, 0, 5, {i}, [])]) for i in range(1, 5)]
    for edges in (
        {(1, 2), (2, 1)},  # no root at all
        {(1, 2), (2, 3), (3, 2)},  # downstream of the root 1
        {(1, 2), (3, 4), (4, 3)},  # beside the acyclic component 1 -> 2
        {(1, 1)},  # a plan preceding itself
    ):
        with pytest.raises(CyclicPlanDag):
            build_instance(plans, plan_dag=edges, window=TimeWindow(0, 10))


def test_build_instance_rejects_unknown_resource():
    plan = make_plan(1, 1, [(1, 1, 0, 5, {7}, [])])
    with pytest.raises(UnknownResource):
        build_instance([plan], resources={1}, window=TimeWindow(0, 10))


def test_build_instance_rejects_wide_availability():
    plan = make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])
    with pytest.raises(InstanceError):
        build_instance([plan], resources={1: 2}, window=TimeWindow(0, 10))


def test_build_instance_rejects_duplicate_plan_ids():
    plans = [make_plan(1, 1, [(1, 1, 0, 5, {1}, [])]), make_plan(1, 2, [(1, 2, 0, 5, {2}, [])])]
    with pytest.raises(InstanceError, match="duplicate plan ids"):
        build_instance(plans, window=TimeWindow(0, 10))


def test_build_instance_requires_window():
    with pytest.raises(BadWindow):
        build_instance([make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])])


def test_build_instance_rejects_unknown_dag_plan():
    plan = make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])
    with pytest.raises(InstanceError):
        build_instance([plan], plan_dag={(1, 9)}, window=TimeWindow(0, 10))


def test_bool_priority_rejected_before_it_reaches_a_document():
    # a document holds integers only, so a bool accepted here could not be
    # written and read back
    with pytest.raises(InstanceError, match="priority must be an integer, got True"):
        build_instance(
            [Plan(1, True, (Task(1, 1, 2, 0, 9, frozenset({1})),))], resources=[1], window=TimeWindow(0, 9)
        )


_TASK_FIELDS = {"plan_id": 1, "index": 2, "processing_time": 2, "release": 0, "due": 9}


@pytest.mark.parametrize("bad", [True, 1.0, "1", None])
@pytest.mark.parametrize("field", sorted(_TASK_FIELDS))
def test_task_rejects_non_integer_fields(field, bad):
    fields = {**_TASK_FIELDS, field: bad}
    with pytest.raises(InstanceError, match=f"{field} must be an integer"):
        Task(**fields, resources={1})


@pytest.mark.parametrize("pair", [(1, True), (True, 0), (1, 0.0), ("1", 0), (1, 2, 3), (1,), 5, None])
def test_task_rejects_non_integer_predecessor_pair(pair):
    with pytest.raises(InstanceError, match="must be a pair of integers"):
        Task(**_TASK_FIELDS, resources={1}, predecessors=(pair,))


@pytest.mark.parametrize("pair, shown", [(5, "5"), ([1, 2, 3], "[1, 2, 3]"), ((1,), "(1,)")])
def test_task_names_a_predecessor_that_is_not_a_pair(pair, shown):
    message = rf"^task \(1, 2\): predecessor {re.escape(shown)} must be a pair of integers$"
    with pytest.raises(InstanceError, match=message):
        Task(**_TASK_FIELDS, resources={1}, predecessors=[pair])


def test_task_stores_predecessor_pairs_as_tuples():
    task = Task(**_TASK_FIELDS, resources=[1, 1], predecessors=[[1, 0]])
    assert task.predecessors == ((1, 0),) and type(task.predecessors[0]) is tuple
    assert task.resources == frozenset({1})


def test_task_keeps_its_dataclass_contract():
    task = Task(1, 2, 3, 0, 9, {4, 1}, ((1, 0),))
    assert repr(task) == (
        "Task(plan_id=1, index=2, processing_time=3, release=0, due=9,"
        " resources=frozenset({1, 4}), predecessors=((1, 0),))"
    )
    same = Task(1, 2, 3, 0, 9, frozenset({1, 4}), [[1, 0]])
    assert task == same and hash(task) == hash(same)
    assert task != dataclasses.replace(task, due=8)
    assert [(f.name, f.init, f.compare) for f in dataclasses.fields(Task)] == [
        ("plan_id", True, True),
        ("index", True, True),
        ("processing_time", True, True),
        ("release", True, True),
        ("due", True, True),
        ("resources", True, True),
        ("predecessors", True, True),
        ("id", False, False),
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.due = 8


def test_task_replace_rechecks_and_rederives_id():
    task = Task(1, 2, 3, 0, 9, {1})
    moved = dataclasses.replace(task, plan_id=7, index=5)
    assert moved.id == (7, 5) and moved.due == 9
    assert dataclasses.replace(task, due=4).due == 4
    with pytest.raises(BadWindow, match="release 0 exceeds due -1"):
        dataclasses.replace(task, due=-1)
    with pytest.raises(InstanceError, match="due must be an integer"):
        dataclasses.replace(task, due=9.0)
    with pytest.raises(CyclicTaskGraph):
        dataclasses.replace(task, predecessors=((2, 0),))
    with pytest.raises(ValueError):
        dataclasses.replace(task, id=(1, 3))  # id is derived, never passed


def test_plan_keeps_its_dataclass_contract():
    first = Task(1, 1, 2, 0, 9, {1})
    second = Task(1, 2, 3, 0, 9, {2}, ((1, 0),))
    plan = Plan(1, 5, (second, first))  # sorted into precedence order
    assert repr(plan) == f"Plan(id=1, priority=5, tasks=({first!r}, {second!r}))"
    same = Plan(id=1, priority=5, tasks=[first, second])
    assert plan == same and hash(plan) == hash(same)
    assert plan.task(2) is second  # a lookup stores nothing on the plan
    assert plan == same and hash(plan) == hash(same)
    assert plan != dataclasses.replace(plan, priority=4)
    assert [(f.name, f.init, f.compare) for f in dataclasses.fields(Plan)] == [
        ("id", True, True),
        ("priority", True, True),
        ("tasks", True, True),
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.priority = 4
    assert not hasattr(plan, "__dict__")
    # replace goes through __init__: it re-checks and re-sorts
    with pytest.raises(InstanceError, match="^plan 1: task 2 names unknown predecessor 1$"):
        dataclasses.replace(plan, tasks=(second,))
    with pytest.raises(InstanceError, match="^plan 2 contains task tagged for plan 1$"):
        dataclasses.replace(plan, id=2)
    with pytest.raises(InstanceError, match="priority must be an integer"):
        dataclasses.replace(plan, priority=True)
    third = Task(1, 3, 1, 0, 9, {1}, ((2, 0),))
    grown = dataclasses.replace(plan, tasks=(third, second, first))
    assert grown.tasks == (first, second, third)
    assert grown.task(3) is third and grown.task(1) is first
    with pytest.raises(UnknownTask, match="^plan 1 has no task 3$"):
        plan.task(3)


@pytest.mark.parametrize(
    "tasks, message",
    [
        # an unknown predecessor comes before a later task's faults
        (lambda a, b, c: (a, c, Task(2, 3, 1, 0, 9, {1})), "plan 1: task 3 names unknown predecessor 9"),
        # a wrong tag comes before a later duplicate index
        (lambda a, b, c: (b, Task(2, 3, 1, 0, 9, {1}), a, a), "plan 1 contains task tagged for plan 2"),
        # an out-of-order plan names its unknown predecessors too
        (lambda a, b, c: (b, a, c), "plan 1: task 3 names unknown predecessor 9"),
        # a repeated index is named last
        (lambda a, b, c: (a, b, b), "plan 1 has duplicate task indices"),
        # an entry that is not a task is named first
        (lambda a, b, c: (Task(2, 3, 1, 0, 9, {1}), a, None), "plan 1: tasks: None is not a Task"),
    ],
)
def test_plan_names_its_first_fault_in_task_order(tasks, message):
    a = Task(1, 1, 2, 0, 9, {1})
    b = Task(1, 2, 2, 0, 9, {1}, ((1, 0),))
    c = Task(1, 3, 2, 0, 9, {1}, ((9, 0),))
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        Plan(1, 1, tasks(a, b, c))


def _smallest_topological_order(tasks):
    """The topological order of ``tasks`` that is smallest by list position, by
    brute force: permutations of the positions come in lexicographic order, so
    the first whose every predecessor comes earlier is the smallest."""
    for order in itertools.permutations(range(len(tasks))):
        taken = set()
        for k in order:
            if any(j not in taken for j, _ in tasks[k].predecessors):
                break
            taken.add(tasks[k].index)
        else:
            return tuple(tasks[k] for k in order)


def test_plan_orders_random_task_dags_by_smallest_position():
    rng = random.Random(base_seed() + 36)
    for _ in range(300):
        n = rng.randint(1, 7)
        indices = rng.sample(range(1, 20), n)  # in a precedence order; the list is shuffled below
        tasks = [
            Task(1, i, 1, 0, 9, {1}, [(j, rng.randint(0, 2)) for j in indices[:k] if rng.random() < 0.4])
            for k, i in enumerate(indices)
        ]
        rng.shuffle(tasks)
        assert Plan(1, 1, tasks).tasks == _smallest_topological_order(tasks)


def test_plan_orders_a_task_that_lists_its_predecessor_twice():
    a = Task(1, 1, 2, 0, 9, {1})
    b = Task(1, 2, 2, 0, 9, {1}, ((1, 0), (1, 3)))  # listed before the predecessor it names twice
    c = Task(1, 3, 2, 0, 9, {1}, ((2, 0),))
    assert Plan(1, 1, (b, a, c)).tasks == (a, b, c)
    assert Plan(1, 1, (c, b, a)).tasks == (a, b, c)


def _chain(n: int) -> list[Task]:
    """``n`` one-tick tasks on one resource, each after the one before it."""
    return [Task(1, 1, 1, 0, 10 * n, {1})] + [Task(1, i, 1, 0, 10 * n, {1}, ((i - 1, 0),)) for i in range(2, n + 1)]


def test_plan_names_a_cycle_closing_a_long_chain():
    tasks = _chain(4000)
    tasks[0] = Task(1, 1, 1, 0, 40000, {1}, ((4000, 0),))
    with pytest.raises(CyclicTaskGraph, match="^plan 1: task precedence graph has a cycle$"):
        Plan(1, 1, tasks)


def test_plan_orders_a_long_reversed_chain_in_under_a_second():
    tasks = _chain(4000)
    t0 = time.perf_counter()
    plan = Plan(1, 1, tasks[::-1])
    elapsed = time.perf_counter() - t0
    assert plan == Plan(1, 1, tasks)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_event_keeps_equality_and_hash():
    event = Event(3, frozenset({(1, 1)}), usage=frozenset({2}))
    same = Event(3, starting=frozenset({(1, 1)}), completing=frozenset(), usage=frozenset({2}))
    assert event == same and hash(event) == hash(same)
    assert event != Event(3, frozenset({(1, 1)}))
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.time = 4
    # an event is a named tuple: its fields, defaults and repr are pinned
    assert repr(event) == "Event(time=3, starting=frozenset({(1, 1)}), completing=frozenset(), usage=frozenset({2}))"
    assert Event._fields == ("time", "starting", "completing", "usage")
    assert Event._field_defaults == {"starting": frozenset(), "completing": frozenset(), "usage": frozenset()}
    moved = event._replace(time=5)
    assert moved == Event(5, frozenset({(1, 1)}), frozenset(), frozenset({2})) and event.time == 3
    assert Event(time=4) == Event(4, frozenset(), frozenset(), frozenset())
    assert Event(2, usage=frozenset({1})).completing == frozenset()
    # the writers unpack an event into its fields, in this order
    time, starting, completing, usage = event
    assert (time, starting, completing, usage) == (3, frozenset({(1, 1)}), frozenset(), frozenset({2}))


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_task_rejects_non_integer_resource(bad):
    with pytest.raises(InstanceError, match="resource ids must be integers"):
        Task(**_TASK_FIELDS, resources={bad})


@pytest.mark.parametrize("plan_id, priority", [(True, 1), (1, False), (1.0, 1), (1, "3")])
def test_plan_rejects_non_integer_id_or_priority(plan_id, priority):
    with pytest.raises(InstanceError, match="must be an integer"):
        Plan(plan_id, priority, (Task(1, 1, 2, 0, 9, frozenset({1})),))


@pytest.mark.parametrize("start, end", [(True, 9), (0, 9.0), ("0", 9), (0, None)])
def test_window_rejects_non_integer_bounds(start, end):
    with pytest.raises(BadWindow, match="must be integers"):
        TimeWindow(start, end)


@pytest.mark.parametrize("resources", [{1: True}, {1: 1.0}, {True: 1}, ["1"], [1.0]])
def test_build_instance_rejects_non_integer_resources(resources):
    plan = Plan(1, 1, (Task(1, 1, 2, 0, 9, frozenset({1})),))
    with pytest.raises(InstanceError, match="must be integers"):
        build_instance([plan], resources=resources, window=TimeWindow(0, 9))


@pytest.mark.parametrize("edge", [(1, 2, 3), (1,), 1, None])
def test_build_instance_rejects_dag_edge_that_is_not_a_pair(edge):
    plans = [make_plan(plan_id, 1, [(1, 1, 0, 5, {1}, [])]) for plan_id in (1, 2)]
    with pytest.raises(InstanceError, match="plan precedence edge .* must be a pair of integers"):
        build_instance(plans, plan_dag={edge}, window=TimeWindow(0, 10))


@pytest.mark.parametrize("edge", [("1", 2.0), (True, 2), (1, 2.0), (1, "2")])
def test_build_instance_rejects_non_integer_dag_edge(edge):
    # an edge id is checked like every other integer field, not coerced
    plans = [make_plan(plan_id, 1, [(1, 1, 0, 5, {1}, [])]) for plan_id in (1, 2)]
    with pytest.raises(InstanceError, match="plan ids must be integers"):
        build_instance(plans, plan_dag={edge}, window=TimeWindow(0, 10))


@pytest.mark.parametrize("resources", [[1, True], [1, 1.0]], ids=["bool", "float"])
def test_task_rejects_resource_id_equal_to_an_int(resources):
    # each id is checked before the set is frozen, which would merge it into 1
    with pytest.raises(InstanceError, match=f"resource ids must be integers, got {resources[1]!r}"):
        Task(1, 1, 1, 0, 5, resources)


@pytest.mark.parametrize("resources", [[1, 2, True], [1, 2, 2.0]], ids=["bool", "float"])
def test_build_instance_rejects_resource_id_equal_to_an_int(resources):
    plans = [make_plan(plan_id, 1, [(1, 1, 0, 5, {plan_id}, [])]) for plan_id in (1, 2)]
    # the error names the bad id alone, not the availability 1 filled in for it
    with pytest.raises(InstanceError, match=f"^resource ids must be integers, got {resources[2]!r}$"):
        build_instance(plans, resources=resources, window=TimeWindow(0, 10))


@pytest.mark.parametrize(
    "make, owner",
    [
        (lambda: Task(1, 1, 1, 0, 5, None), r"task \(1, 1\): resources"),
        (lambda: Task(1, 1, 1, 0, 5, [1], None), r"task \(1, 1\): predecessors"),
        (lambda: Plan(1, 1, None), "plan 1: tasks"),
        (lambda: build_instance([], resources=5, window=TimeWindow(0, 1)), "resources"),
        (lambda: build_instance([], plan_dag=None, window=TimeWindow(0, 1)), "plan precedence graph"),
        (lambda: build_instance(None, window=TimeWindow(0, 1)), "plans"),
        (lambda: Instance(None, frozenset(), {}, TimeWindow(0, 1)), "plans"),
    ],
    ids=["task-resources", "task-predecessors", "plan-tasks", "resources", "plan-dag", "plans", "instance-plans"],
)
def test_non_iterable_collection_is_an_instance_error(make, owner):
    with pytest.raises(InstanceError, match=f"^{owner} must be iterable, got"):
        make()


def test_build_instance_checks_dag_edges_before_freezing_them():
    # a set of edges would merge (1, 2.0) into (1, 2) unseen
    plans = [make_plan(plan_id, 1, [(1, 1, 0, 5, {1}, [])]) for plan_id in (1, 2)]
    with pytest.raises(InstanceError, match=r"plan precedence edge \(1, 2.0\): plan ids must be integers"):
        build_instance(plans, plan_dag=[(1, 2), (1, 2.0)], window=TimeWindow(0, 10))


def test_build_instance_reads_one_shot_plans_once():
    # the resources derived from the plans must not use up a generator of them
    plans = [make_plan(plan_id, 1, [(1, 1, 0, 5, {plan_id}, [])]) for plan_id in (1, 2)]
    instance = build_instance((plan for plan in plans), window=TimeWindow(0, 10))
    assert instance.plans == tuple(plans)
    assert instance.resources == {1: 1, 2: 1}
    task = Task(1, 1, 1, 0, 5, iter([2, 3]))
    assert task.resources == frozenset({2, 3})


@pytest.mark.parametrize("window", [5, (0, 5), None, "0-5", 1.5], ids=["int", "tuple", "none", "str", "float"])
def test_instance_rejects_a_window_that_is_not_a_time_window(window):
    plan = make_plan(1, 1, [(1, 1, 0, 5, {1}, [])])
    with pytest.raises(BadWindow, match="an instance needs a TimeWindow"):
        build_instance([plan], window=window)
    with pytest.raises(BadWindow, match="an instance needs a TimeWindow"):
        Instance((plan,), frozenset(), {1: 1}, window)


_TASK = Task(1, 1, 1, 0, 5, {1})
_PLAN = Plan(1, 1, (_TASK,))
_NOT_AN_ENTRY = [5, None, "ab", [1], {}, (1, 2)]
_ENTRY_IDS = ["int", "none", "str", "list", "dict", "tuple"]


@pytest.mark.parametrize("entry", [*_NOT_AN_ENTRY, _PLAN], ids=[*_ENTRY_IDS, "plan"])
def test_plan_rejects_an_entry_that_is_not_a_task(entry):
    with pytest.raises(InstanceError, match=rf"^plan 1: tasks: {re.escape(repr(entry))} is not a Task$"):
        Plan(1, 1, [_TASK, entry])


@pytest.mark.parametrize("entry", [*_NOT_AN_ENTRY, _TASK], ids=[*_ENTRY_IDS, "task"])
def test_build_instance_rejects_an_entry_that_is_not_a_plan(entry):
    # the default resources skip an entry that is not a Plan; the plan walk names it
    with pytest.raises(InstanceError, match=rf"^plans: {re.escape(repr(entry))} is not a Plan$"):
        build_instance([_PLAN, entry], window=TimeWindow(0, 5))


@pytest.mark.parametrize("entry", [*_NOT_AN_ENTRY, _TASK], ids=[*_ENTRY_IDS, "task"])
def test_instance_rejects_an_entry_that_is_not_a_plan(entry):
    # a Task has an ``id`` as a Plan does, so it is caught only where its tasks are read
    with pytest.raises(InstanceError, match=rf"^plans: {re.escape(repr(entry))} is not a Plan$"):
        Instance((_PLAN, entry), frozenset(), {1: 1}, TimeWindow(0, 5))


def _lone(rho: int) -> frozenset[int]:
    """The resource set that a fresh task on the lone resource ``rho`` stores."""
    return Task(1, 1, 1, 0, 5, [rho]).resources


def _assert_one_set_per_lone_id(instance: Instance) -> None:
    tasks = [task for plan in instance.plans for task in plan.tasks]
    assert tasks and all(len(task.resources) == 1 for task in tasks)
    for task in tasks:
        (rho,) = task.resources
        assert task.resources is _lone(rho)


def test_lone_resource_tasks_share_one_set_per_id():
    _assert_one_set_per_lone_id(load_bundled("benchmarks/scenario1.json"))
    _assert_one_set_per_lone_id(random_instance(random.Random(base_seed() + 35), max_plans=8, n_resources=1))


def test_two_resource_task_has_its_own_set():
    first, second = (load_bundled("example2.json").plan(5).task(2) for _ in range(2))
    assert first.resources == second.resources == frozenset({1, 3})
    assert first.resources is not second.resources


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("collection", [set, list, frozenset])
def test_lone_non_integer_resource_is_rejected_before_it_is_shared(bad, collection):
    # shared first, {True} would become the set of 1
    message = rf"^task \(1, 1\): resource ids must be integers, got {re.escape(repr(bad))}$"
    with pytest.raises(InstanceError, match=message):
        Task(1, 1, 1, 0, 5, collection([bad]))
    assert [type(rho) for rho in _lone(1)] == [int]


@pytest.mark.parametrize("rho, shared", [(-1, False), (0, True), (1023, True), (1024, False), (10**20, False)])
def test_lone_resources_share_a_set_from_0_to_1023(rho, shared):
    assert _lone(rho) == frozenset({rho})
    assert (_lone(rho) is _lone(rho)) == shared


def test_private_resources_cross_the_shared_range():
    # disjoint_resources numbers the tasks' private resources from 1000 up
    instance = random_instance(random.Random(base_seed() + 36), min_plans=30, max_plans=30, disjoint_resources=True)
    tasks = [task for plan in instance.plans for task in plan.tasks]
    assert max(rho for task in tasks for rho in task.resources) >= 1024
    for task in tasks:
        (rho,) = task.resources
        assert task.resources == frozenset({rho})
        assert (task.resources is _lone(rho)) == (rho < 1024)


def test_threads_filling_the_shared_sets_agree():
    # ids 500-899 are used by no other test, so the threads fill them afresh
    ids = list(range(500, 900))
    found: list[list[frozenset[int]]] = []

    def build(seed):
        order = ids[:]
        random.Random(seed).shuffle(order)
        built = {rho: Task(1, 1, 1, 0, 5, [rho]).resources for rho in order}
        found.append([built[rho] for rho in ids])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(found) == 8
    for sets in zip(*found):
        assert all(s is sets[0] for s in sets)


def test_shared_set_keeps_equality_hash_and_repr():
    task = Task(1, 1, 1, 0, 5, frozenset({1}))
    assert task == Task(1, 1, 1, 0, 5, [1]) == Task(1, 1, 1, 0, 5, {1})
    assert hash(task) == hash((1, 1, 1, 0, 5, frozenset({1}), ()))
    assert repr(task) == (
        "Task(plan_id=1, index=1, processing_time=1, release=0, due=5, resources=frozenset({1}), predecessors=())"
    )
    assert dataclasses.replace(task, due=6).resources is task.resources is _lone(1)


def test_single_resource_task_keeps_at_most_250_bytes():
    # a fresh frozenset on every task kept 401-405 bytes per task alive, the shared one 185-189 (Python 3.10-3.13)
    lone = [[rho] for rho in range(1, 15)]
    tracemalloc.start()
    try:
        tasks = [Task(plan_id, 1, 2, 0, 9, lone[plan_id % 14]) for plan_id in range(10_000)]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / len(tasks) <= 250
