import copy
import json
import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from plansched import (
    BadWindow,
    CyclicTaskGraph,
    Instance,
    InstanceError,
    ParseError,
    Plan,
    Schedule,
    SchedulingError,
    Task,
    TimeWindow,
    build_instance,
    build_schedule,
    dumps_instance,
    dumps_schedule,
    emit_instance,
    emit_schedule,
    generate_scenario,
    parse_instance,
    parse_schedule,
)
from plansched.data import bundled_names, load_bundled
from plansched import cli, serialize
from plansched.model import Event, event_list
from plansched.serialize import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from conftest import base_seed, example1_instance, example2_instance, idle_instance, make_plan
from test_golden import CONFIGS, _instances


def test_instance_round_trip(tmp_path, example2):
    path = tmp_path / "instance.json"
    emit_instance(example2, path)
    assert parse_instance(path) == example2


def test_instance_round_trip_with_edges(tmp_path):
    instance = generate_scenario(2)
    path = tmp_path / "s2.json"
    emit_instance(instance, path)
    assert parse_instance(path) == instance


def test_schedule_round_trip(tmp_path, example2):
    result = build_schedule(example2)
    path = tmp_path / "schedule.json"
    emit_schedule(result.schedule, example2, path)
    assert parse_schedule(path) == result.schedule


def test_dumps_are_deterministic(example2):
    assert dumps_instance(example2) == dumps_instance(example2)
    result = build_schedule(example2)
    assert dumps_schedule(result.schedule, example2) == dumps_schedule(result.schedule, example2)


def test_schedule_document_contents(example1):
    schedule = Schedule(starts={(1, 1): 2}, scheduled_plans=[1], discarded_plans=[2])
    doc = json.loads(dumps_schedule(schedule, example1))
    assert doc["starts"] == [{"plan": 1, "task": 1, "start": 2, "completion": 5}]
    assert doc["scheduled"] == [1]
    assert doc["discarded"] == [2]
    assert doc["objective"] == 2
    assert "events" not in doc


def test_schedule_document_event_section(example2):
    result = build_schedule(example2)
    doc = json.loads(dumps_schedule(result.schedule, example2, result.events))
    assert [e["t"] for e in doc["events"]] == [2, 4, 5, 6, 7, 9, 10]
    assert doc["events"][0]["starting"] == [[1, 1], [3, 1], [4, 1]]
    assert doc["events"][0]["usage"] == {"1": 1, "2": 1, "3": 1}


@pytest.mark.parametrize("parse", [parse_instance, parse_schedule], ids=["instance", "schedule"])
def test_malformed_json_reports_position(tmp_path, parse):
    path = tmp_path / "broken.json"
    path.write_text('{"window": {', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse(path)
    assert "line" in str(err.value)


def test_task_entry_must_be_an_object():
    doc = {
        "window": {"start": 0, "end": 5},
        "resources": [],
        "plans": [{"id": 1, "priority": 1, "tasks": [5]}],
    }
    with pytest.raises(ParseError) as err:
        instance_from_dict(doc)
    assert "plans[0].tasks[0]" in str(err.value)


def test_missing_field_reports_path():
    doc = {"window": {"start": 0, "end": 5}, "resources": [], "plans": [{"id": 1, "priority": 2}]}
    with pytest.raises(ParseError) as err:
        instance_from_dict(doc)
    assert "plans[0]" in str(err.value)
    assert "tasks" in str(err.value)


def test_non_integer_field_rejected():
    doc = {"window": {"start": 0, "end": "five"}, "resources": [], "plans": []}
    with pytest.raises(ParseError) as err:
        instance_from_dict(doc)
    assert "window.end" in str(err.value)


def test_plans_must_be_a_list():
    doc = {"window": {"start": 0, "end": 5}, "resources": [], "plans": {}}
    with pytest.raises(ParseError) as err:
        instance_from_dict(doc)
    assert "plans" in str(err.value)


def test_duplicate_start_rejected():
    doc = {"starts": [{"plan": 1, "task": 1, "start": 2}, {"plan": 1, "task": 1, "start": 5}]}
    with pytest.raises(ParseError) as err:
        schedule_from_dict(doc)
    assert "starts[1]" in str(err.value)
    assert "plan 1 task 1" in str(err.value)


@pytest.mark.parametrize("key", ["scheduled", "discarded"])
def test_duplicate_plan_id_rejected(key):
    doc = {"starts": [], key: [1, 2, 1, 2]}
    with pytest.raises(ParseError) as err:
        schedule_from_dict(doc)
    assert f"{key}[2]" in str(err.value)
    assert "plan 1" in str(err.value)


@pytest.mark.parametrize(
    "resources",
    [
        [{"id": 1, "availability": 2}, {"id": 1}],
        [{"id": 1}, {"id": 1, "availability": 2}],
    ],
)
def test_duplicate_resource_rejected(resources):
    doc = {"window": {"start": 0, "end": 10}, "resources": resources, "plans": []}
    with pytest.raises(ParseError) as err:
        instance_from_dict(doc)
    assert "resources[1]" in str(err.value)
    assert "duplicate resource id 1" in str(err.value)


@pytest.mark.parametrize(
    "name, builder",
    [
        ("example1.json", example1_instance),
        ("example2.json", example2_instance),
        ("idle_time.json", idle_instance),
        ("benchmarks/scenario1.json", lambda: generate_scenario(1)),
    ],
)
def test_bundled_documents_match_builders(name, builder):
    assert load_bundled(name) == builder()


def test_bundled_listing():
    names = bundled_names()
    assert "example1.json" in names
    assert "benchmarks/scenario1.json" in names


def test_dict_round_trip_preserves_structure():
    instance = build_instance(
        [
            make_plan(3, 2, [(1, 2, 0, 9, {1, 4}, []), (2, 1, 1, 9, {2}, [(1, 2)])]),
            make_plan(7, 5, [(1, 1, 0, 9, {4}, [])]),
        ],
        plan_dag={(3, 7)},
        window=TimeWindow(0, 9),
    )
    assert instance_from_dict(instance_to_dict(instance)) == instance


def _assert_writers_match_json_dumps(instance, schedule, events):
    assert dumps_instance(instance) == json.dumps(instance_to_dict(instance), indent=2) + "\n"
    expected = json.dumps(schedule_to_dict(schedule, instance, events), indent=2) + "\n"
    assert dumps_schedule(schedule, instance, events) == expected


def test_writers_match_json_dumps_on_golden_corpus():
    for _name, instance in _instances():
        assert dumps_instance(instance) == json.dumps(instance_to_dict(instance), indent=2) + "\n"
        for config in CONFIGS.values():
            result = build_schedule(instance, **config)
            for events in (result.events, None):
                expected = json.dumps(schedule_to_dict(result.schedule, instance, events), indent=2) + "\n"
                assert dumps_schedule(result.schedule, instance, events) == expected


def _edge_instance():
    """Negative window start, tasks on several resources, lags, DAG edges and an unused resource."""
    return build_instance(
        [
            make_plan(3, 2, [(1, 2, -5, 9, {1, 4}, []), (2, 1, -4, 9, {2}, [(1, 2)])]),
            make_plan(7, 5, [(1, 1, -5, 9, {4}, []), (2, 3, 0, 9, {1, 2, 4}, [(1, 0)]), (3, 1, 0, 9, {2}, [(2, 3), (1, 1)])]),
            make_plan(9, 1, [(1, 1, -5, 9, {1}, [])]),
        ],
        plan_dag={(3, 7), (3, 9)},
        resources={1: 1, 2: 1, 4: 1, 6: 1},
        window=TimeWindow(-5, 9),
    )


@pytest.mark.parametrize("events", ["none", "empty", "derived"])
def test_writers_match_json_dumps_on_empty_schedule(example1, events):
    schedule = Schedule()
    chosen = {"none": None, "empty": (), "derived": event_list(schedule, example1)}[events]
    _assert_writers_match_json_dumps(example1, schedule, chosen)


def test_writers_match_json_dumps_on_edge_cases():
    instance = _edge_instance()
    result = build_schedule(instance)
    assert result.schedule.scheduled_plans and min(result.schedule.starts.values()) < 0
    _assert_writers_match_json_dumps(instance, result.schedule, result.events)
    _assert_writers_match_json_dumps(instance, result.schedule, None)
    events = (
        Event(-5),
        Event(-3, starting=frozenset({(3, 1), (7, 1)}), usage=frozenset({1, 4})),
        Event(-1, completing=frozenset({(3, 1)}), usage=frozenset({4})),
        Event(0, starting=frozenset({(7, 2)}), completing=frozenset({(7, 1)})),
    )
    _assert_writers_match_json_dumps(instance, result.schedule, events)


def test_writers_match_json_dumps_on_instance_without_plans():
    instance = build_instance([], resources=[], window=TimeWindow(0, 0))
    _assert_writers_match_json_dumps(instance, Schedule(), None)


_PARSE_BASE = {
    "window": {"start": 0, "end": 10},
    "resources": [{"id": 1, "availability": 1}, {"id": 2, "availability": 1}],
    "plans": [
        {
            "id": 1,
            "priority": 2,
            "precedes": [2],
            "tasks": [{"index": 1, "p": 3, "r": 0, "d": 9, "resources": [1], "predecessors": []}],
        },
        {
            "id": 2,
            "priority": 1,
            "precedes": [],
            "tasks": [
                {"index": 1, "p": 2, "r": 0, "d": 9, "resources": [2], "predecessors": []},
                {"index": 2, "p": 2, "r": 0, "d": 9, "resources": [2, 1], "predecessors": [{"index": 1, "lag": 1}]},
            ],
        },
    ],
}

# (the field's path as an error names it, its place in _PARSE_BASE, what a
# missing field does: "required", "default" or None for a list element)
_INT_FIELDS = [
    ("window.start", ("window", "start"), "required"),
    ("window.end", ("window", "end"), "required"),
    ("resources[1].id", ("resources", 1, "id"), "required"),
    ("resources[1].availability", ("resources", 1, "availability"), "default"),
    ("plans[1].id", ("plans", 1, "id"), "required"),
    ("plans[1].priority", ("plans", 1, "priority"), "required"),
    ("plans[0].precedes[]", ("plans", 0, "precedes", 0), None),
    ("plans[1].tasks[1].index", ("plans", 1, "tasks", 1, "index"), "required"),
    ("plans[1].tasks[1].p", ("plans", 1, "tasks", 1, "p"), "required"),
    ("plans[1].tasks[1].r", ("plans", 1, "tasks", 1, "r"), "required"),
    ("plans[1].tasks[1].d", ("plans", 1, "tasks", 1, "d"), "required"),
    ("plans[1].tasks[1].resources[]", ("plans", 1, "tasks", 1, "resources", 1), None),
    ("plans[1].tasks[1].predecessors[0].index", ("plans", 1, "tasks", 1, "predecessors", 0, "index"), "required"),
    ("plans[1].tasks[1].predecessors[0].lag", ("plans", 1, "tasks", 1, "predecessors", 0, "lag"), "default"),
]

_SCHEDULE_BASE = {
    "starts": [{"plan": 1, "task": 1, "start": 0}, {"plan": 2, "task": 1, "start": 3}],
    "scheduled": [1, 2],
    "discarded": [3],
}

_SCHEDULE_INT_FIELDS = [
    ("starts[1].plan", ("starts", 1, "plan"), "required"),
    ("starts[1].task", ("starts", 1, "task"), "required"),
    ("starts[1].start", ("starts", 1, "start"), "required"),
    ("scheduled[1]", ("scheduled", 1), None),
    ("discarded[0]", ("discarded", 0), None),
]

_MISSING = object()


def _with_field(base, place, value):
    doc = copy.deepcopy(base)
    *parents, key = place
    container = doc
    for step in parents:
        container = container[step]
    if value is _MISSING:
        del container[key]
    else:
        container[key] = value
    return doc


def _parse_cases(fields, parse):
    for name, place, missing in fields:
        if missing is not None:
            yield pytest.param(parse, name, place, missing, _MISSING, id=f"{name}-missing")
        for value in (None, True, 1.5, "1"):
            yield pytest.param(parse, name, place, missing, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize(
    "parse, name, place, missing, value",
    [*_parse_cases(_INT_FIELDS, instance_from_dict), *_parse_cases(_SCHEDULE_INT_FIELDS, schedule_from_dict)],
)
def test_integer_field_errors(parse, name, place, missing, value):
    base = _PARSE_BASE if parse is instance_from_dict else _SCHEDULE_BASE
    doc = _with_field(base, place, value)
    if value is _MISSING and missing == "default":
        parse(doc)  # an optional field falls back to its default
        return
    with pytest.raises(ParseError) as err:
        parse(doc)
    if value is _MISSING:
        parent, key = name.rsplit(".", 1)
        assert str(err.value) == f"{parent}: missing field '{key}'"
    else:
        where = re.sub(r"\[\d+\]$", "[]", name)  # an integer list entry is named by its list, "scheduled[]"
        assert str(err.value) == f"{where}: expected an integer, got {value!r}"


def test_integer_field_error_text_is_pinned():
    # the table above derives its messages; these spell a few out in full
    cases = [
        (("plans", 1, "tasks", 1, "p"), _MISSING, "plans[1].tasks[1]: missing field 'p'"),
        (("plans", 1, "tasks", 1, "p"), True, "plans[1].tasks[1].p: expected an integer, got True"),
        (("plans", 1, "tasks", 1, "resources", 1), "1", "plans[1].tasks[1].resources[]: expected an integer, got '1'"),
        (("plans", 0, "precedes", 0), 1.5, "plans[0].precedes[]: expected an integer, got 1.5"),
        (("window", "end"), None, "window.end: expected an integer, got None"),
        (("resources", 1, "availability"), False, "resources[1].availability: expected an integer, got False"),
        (("plans", 1, "tasks", 1, "resources"), [1, True], "plans[1].tasks[1].resources[]: expected an integer, got True"),
        (("plans", 1, "tasks", 1, "resources"), [1, 1.0], "plans[1].tasks[1].resources[]: expected an integer, got 1.0"),
    ]
    for place, value, message in cases:
        with pytest.raises(ParseError) as err:
            instance_from_dict(_with_field(_PARSE_BASE, place, value))
        assert str(err.value) == message


# (the path an error names, the place in _PARSE_BASE, "list" or "object")
_SHAPE_FIELDS = [
    ("resources", ("resources",), "list"),
    ("plans", ("plans",), "list"),
    ("plans[0].precedes", ("plans", 0, "precedes"), "list"),
    ("plans[1].tasks", ("plans", 1, "tasks"), "list"),
    ("plans[1].tasks[1]", ("plans", 1, "tasks", 1), "object"),
    ("plans[1].tasks[1].resources", ("plans", 1, "tasks", 1, "resources"), "list"),
    ("plans[1].tasks[1].predecessors", ("plans", 1, "tasks", 1, "predecessors"), "list"),
    ("plans[1].tasks[1].predecessors[0]", ("plans", 1, "tasks", 1, "predecessors", 0), "object"),
]


def _shape_cases():
    for name, place, shape in _SHAPE_FIELDS:
        values = [None, {}, 0, "x"] + ([[], [1]] if shape == "object" else [])
        for value in values:
            if value == {} and shape == "object":
                message = f"{name}: missing field 'index'"
            else:
                message = f"{name}: expected {'a list' if shape == 'list' else 'an object'}"
            yield pytest.param(place, value, message, id=f"{name}-{value!r}")


@pytest.mark.parametrize("place, value, message", list(_shape_cases()))
def test_shape_error_text_is_pinned(place, value, message):
    # a present but malformed entry or list is refused with its path, never
    # read as empty
    with pytest.raises(ParseError) as err:
        instance_from_dict(_with_field(_PARSE_BASE, place, value))
    assert str(err.value) == message


# values a task entry's fields and predecessor entries are set to below
_ODD_VALUES = [None, True, False, 1.0, "1", "", {}, [], [1, True], [1, 1.0], [[1, 0]], {"index": 1, "lag": -1}, -1, 0, 1, 2, 9]
_TASK_KEYS = ["index", "p", "r", "d", "resources", "predecessors"]


def _mutate_task_entry(rng, doc):
    """Apply one random mutation to one of plan 2's task entries in ``doc``."""
    tasks = doc["plans"][1]["tasks"]
    k = rng.randrange(len(tasks))
    entry = tasks[k]
    kind = rng.randrange(7)
    if kind == 0 or type(entry) is not dict:
        tasks[k] = {key: rng.choice(_ODD_VALUES) for key in _TASK_KEYS if rng.random() < 0.8}
    elif kind == 1:
        entry[rng.choice(_TASK_KEYS)] = rng.choice(_ODD_VALUES)
    elif kind == 2:
        entry.pop(rng.choice(_TASK_KEYS), None)
    elif kind == 3:
        entry[rng.choice(["resources", "predecessors"])] = [1, rng.choice(_ODD_VALUES)]
    elif kind == 4:
        pred = {"index": 1, "lag": 0}
        key = rng.choice(["index", "lag"])
        if rng.random() < 0.3:
            del pred[key]
        else:
            pred[key] = rng.choice(_ODD_VALUES)
        entry["predecessors"] = [pred]
    elif kind == 5:
        entry["p"] = 0
    else:
        entry["r"], entry["d"] = 7, 3
    if rng.random() < 0.05:
        tasks[k] = rng.choice(_ODD_VALUES)


def _outcome(read, doc):
    """The instance ``read(doc)`` gives, or the type and text of what it raises."""
    try:
        return read(doc)
    except SchedulingError as exc:
        return type(exc), str(exc)


def _task_entry_fault(entry, where):
    """The first field of a task entry without its JSON type, in field order,
    as the text of its :class:`ParseError`, or None."""
    if type(entry) is not dict:
        return f"{where}: expected an object"
    for key in ["index", "predecessors", "p", "r", "d", "resources"]:
        if key not in entry:
            if key != "predecessors":
                return f"{where}: missing field {key!r}"
            continue
        value, path = entry[key], f"{where}.{key}"
        if key in ("resources", "predecessors"):
            if type(value) is not list:
                return f"{path}: expected a list"
            for k, item in enumerate(value):
                if key == "resources":
                    if type(item) is not int:
                        return f"{path}[]: expected an integer, got {item!r}"
                elif type(item) is not dict:
                    return f"{path}[{k}]: expected an object"
                elif "index" not in item:
                    return f"{path}[{k}]: missing field 'index'"
                else:
                    for field in ("index", "lag"):
                        if field in item and type(item[field]) is not int:
                            return f"{path}[{k}].{field}: expected an integer, got {item[field]!r}"
        elif type(value) is not int:
            return f"{path}: expected an integer, got {value!r}"
    return None


def _build_directly(doc):
    """What building the model objects of ``doc`` directly gives, when only
    plan 2's task entries may be malformed and none has a shape fault."""
    plans = []
    for plan_doc in doc["plans"]:
        tasks = [
            Task(
                plan_doc["id"],
                entry["index"],
                entry["p"],
                entry["r"],
                entry["d"],
                entry["resources"],
                [(pred["index"], pred.get("lag", 0)) for pred in entry.get("predecessors", [])],
            )
            for entry in plan_doc["tasks"]
        ]
        plans.append(Plan(plan_doc["id"], plan_doc["priority"], tasks))
    edges = {(plan_doc["id"], succ) for plan_doc in doc["plans"] for succ in plan_doc["precedes"]}
    resources = {res["id"]: res["availability"] for res in doc["resources"]}
    window = TimeWindow(doc["window"]["start"], doc["window"]["end"])
    return build_instance(plans, plan_dag=edges, resources=resources, window=window)


def _reference_outcome(doc):
    """The first shape fault among plan 2's task entries, else the direct build."""
    for j, entry in enumerate(doc["plans"][1]["tasks"]):
        fault = _task_entry_fault(entry, f"plans[1].tasks[{j}]")
        if fault is not None:
            return ParseError, fault
    return _outcome(_build_directly, doc)


def test_task_reader_agrees_with_field_by_field_reader():
    # the reader hands every value to the model as read and walks the declared
    # shape only on a refusal; the reference checks plan 2's task entries field
    # by field and builds the model objects itself
    rng = random.Random("task-reader-sweep")
    docs = []
    for _ in range(2000):
        doc = copy.deepcopy(_PARSE_BASE)
        for _ in range(rng.randint(1, 3)):
            _mutate_task_entry(rng, doc)
        docs.append(doc)
    outcomes = [_outcome(serialize.instance_from_dict, doc) for doc in docs]
    for doc, outcome in zip(docs, outcomes):
        assert outcome == _reference_outcome(doc), doc
    kinds = {outcome[0] if type(outcome) is tuple else Instance for outcome in outcomes}
    assert {Instance, ParseError, BadWindow, CyclicTaskGraph, InstanceError} <= kinds


# JSON values the fuzz below puts into valid documents
_FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.integers(-3, 3),
    st.integers(-(2**70), -1),
    st.integers(2**63 - 2, 2**63 + 1),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "index", "lag", "plan", "start"]) | st.text(max_size=2), inner, max_size=3),
    max_leaves=5,
)


def _places(value, place=()):
    """Every place in a JSON ``value``, the value itself first."""
    yield place
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from _places(item, (*place, key))


def test_fuzzed_documents_raise_only_scheduling_errors(tmp_path, capsys):
    # random values, or a deletion, at 1-3 random places of a valid document:
    # either reader returns or raises a SchedulingError, never anything else
    bases = [
        (instance_from_dict, _PARSE_BASE),
        (instance_from_dict, instance_to_dict(_edge_instance())),
        (schedule_from_dict, _SCHEDULE_BASE),
    ]
    refused = []

    @seed(base_seed())
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def read_fuzzed(data):
        read, doc = data.draw(st.sampled_from(bases))
        for _ in range(data.draw(st.integers(1, 3))):
            place = data.draw(st.sampled_from(list(_places(doc))))
            value = data.draw(_FUZZ_VALUES | st.just(_MISSING)) if place else data.draw(_FUZZ_VALUES)
            doc = _with_field(doc, place, value) if place else value
        try:
            read(doc)
        except SchedulingError:
            refused.append((read, doc))

    read_fuzzed()
    assert len(refused) > 100
    # a refused document ends the command line run with exit code 2 and one error line
    instance_path, schedule_path = tmp_path / "instance.json", tmp_path / "schedule.json"
    for read, doc in refused[:: len(refused) // 8]:
        commands = [["validate", str(instance_path), str(schedule_path)]]
        if read is instance_from_dict:
            instance_doc, schedule_doc = doc, _SCHEDULE_BASE
            commands.append(["schedule", str(instance_path)])
        else:
            instance_doc, schedule_doc = _PARSE_BASE, doc
        instance_path.write_text(json.dumps(instance_doc), encoding="utf-8")
        schedule_path.write_text(json.dumps(schedule_doc), encoding="utf-8")
        for argv in commands:
            capsys.readouterr()
            assert cli.main(argv) == 2, doc
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (doc, lines)
