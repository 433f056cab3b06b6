import json

import pytest

from plansched import (
    ParseError,
    Schedule,
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
from plansched.serialize import instance_from_dict, instance_to_dict, schedule_from_dict
from conftest import example1_instance, example2_instance, idle_instance, make_plan


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
