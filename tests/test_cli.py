import json
import sys

import pytest

from plansched import (
    Schedule,
    TimeWindow,
    build_instance,
    build_schedule,
    dumps_instance,
    dumps_schedule,
    emit_instance,
    exact_max_weight,
)
from plansched import cli
from plansched.cli import main
from plansched.oracle import DEFAULT_NODE_LIMIT
from conftest import example1_instance, example2_instance, make_plan


@pytest.fixture
def example2_file(tmp_path):
    path = tmp_path / "example2.json"
    emit_instance(example2_instance(), path)
    return path


def test_schedule_writes_outputs(tmp_path, example2_file, capsys):
    out = tmp_path / "schedule.json"
    gantt = tmp_path / "gantt.txt"
    code = main(["schedule", str(example2_file), "--out", str(out), "--gantt", str(gantt)])
    assert code == 0
    assert "scheduled 5/5 plans" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["scheduled"] == [1, 2, 3, 4, 5]
    assert "J5.2" in gantt.read_text()


def test_schedule_outputs_are_deterministic(tmp_path, example2_file):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        svg = tmp_path / (name + ".svg")
        assert main([
            "schedule", str(example2_file),
            "--out", str(out), "--gantt", str(svg), "--gantt-format", "svg",
            "--debug-events",
        ]) == 0
        outs.append((out.read_bytes(), svg.read_bytes()))
    assert outs[0] == outs[1]


def test_schedule_respects_flags(tmp_path, example2_file):
    out = tmp_path / "schedule.json"
    assert main([
        "schedule", str(example2_file), "--out", str(out),
        "--strict-plan-precedence",
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["scheduled"]  # flags accepted and a schedule still comes out


def test_validate_feasible_exit_zero(tmp_path, example2_file, capsys):
    instance = example2_instance()
    schedule_path = tmp_path / "schedule.json"
    result = build_schedule(instance)
    schedule_path.write_text(dumps_schedule(result.schedule, instance))
    assert main(["validate", str(example2_file), str(schedule_path)]) == 0
    assert "feasible" in capsys.readouterr().out


def test_validate_infeasible_exit_one(tmp_path, capsys):
    instance = example1_instance()
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(instance))
    schedule_path = tmp_path / "bad.json"
    bad = Schedule(starts={(1, 1): 2, (2, 1): 3, (2, 2): 4})
    schedule_path.write_text(dumps_schedule(bad, instance))
    assert main(["validate", str(instance_path), str(schedule_path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "infeasible" in out


def test_validate_warns_on_plan_ordering(tmp_path, capsys):
    # feasible, but plan 2 starts before its DAG predecessor plan 1
    instance = build_instance(
        [make_plan(1, 1, [(1, 2, 0, 10, {1}, [])]), make_plan(2, 1, [(1, 2, 0, 10, {2}, [])])],
        plan_dag={(1, 2)},
        window=TimeWindow(0, 10),
    )
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(dumps_instance(instance))
    schedule_path = tmp_path / "schedule.json"
    schedule = Schedule(starts={(1, 1): 5, (2, 1): 0}, scheduled_plans=[1, 2])
    schedule_path.write_text(dumps_schedule(schedule, instance))
    assert main(["validate", str(instance_path), str(schedule_path)]) == 0
    out = capsys.readouterr().out
    assert "warning PlanOrdering: plan 2:" in out and "feasible, objective 2" in out


@pytest.mark.parametrize("scheduled", [[1, 2, 999], [1, 2, 1, 2]], ids=["unknown", "repeated"])
def test_validate_bad_plan_list_exit_two(tmp_path, capsys, scheduled):
    instance = example1_instance()
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(instance))
    doc = json.loads(dumps_schedule(Schedule(starts={(1, 1): 2, (2, 1): 3, (2, 2): 5}), instance))
    doc["scheduled"] = scheduled
    schedule_path = tmp_path / "bad.json"
    schedule_path.write_text(json.dumps(doc))
    assert main(["validate", str(instance_path), str(schedule_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert main(["schedule", "missing.json"]) == 2
    assert "error" in capsys.readouterr().err


def _long_integer() -> bytes:
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this Python has no integer string length limit")
    return b"1" * (digits + 1)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(lambda: b"{", id="unclosed"),
        pytest.param(lambda: b"\xff\xfe{}", id="not-utf8"),
        pytest.param(_long_integer, id="long-integer"),
        pytest.param(lambda: b"[" * 200_000 + b"]" * 200_000, id="deep-nesting"),
    ],
)
def test_malformed_file_exit_two(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content())
    for argv in (["schedule", str(path)], ["validate", str(path), str(path)]):
        assert main(argv) == 2, argv
        assert f"error: {path}:" in capsys.readouterr().err


def test_task_not_an_object_exit_two(tmp_path, capsys):
    path = tmp_path / "bad_task.json"
    doc = {"window": {"start": 0, "end": 5}, "resources": [], "plans": [{"id": 1, "priority": 1, "tasks": [5]}]}
    path.write_text(json.dumps(doc))
    assert main(["schedule", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path, capsys):
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(example1_instance()))
    assert main(["oracle", str(instance_path), "--node-limit", "100000"]) == 0
    out = capsys.readouterr().out
    assert "optimum 3" in out


def test_oracle_subcommand_uses_library_limits(tmp_path, monkeypatch, capsys):
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(example1_instance()))
    limits = []

    def spy(instance, **kwargs):
        limits.append(kwargs)
        return exact_max_weight(instance, **kwargs)

    monkeypatch.setattr(cli, "exact_max_weight", spy)
    assert main(["oracle", str(instance_path)]) == 0
    assert main(["oracle", str(instance_path), "--node-limit", "7"]) == 0
    assert limits == [{"node_limit": DEFAULT_NODE_LIMIT}, {"node_limit": 7}]  # no wall-clock limit
    assert "optimum 3" in capsys.readouterr().out


def test_oracle_subcommand_reports_lower_bound_when_limit_trips(tmp_path, capsys):
    instance_path = tmp_path / "example2.json"
    instance_path.write_text(dumps_instance(example2_instance()))
    assert main(["oracle", str(instance_path), "--node-limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "optimum" not in out
    assert out.splitlines()[0].startswith("lower bound ")
    assert "(limit hit)" in out


def test_usage_error_exit_two(tmp_path):
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(example1_instance()))
    for argv in (
        ["schedule"],  # missing positional argument
        ["schedule", "instance.json", "--idle-metric", "prev-event"],  # unknown flag
        ["bench"],  # no such subcommand
        ["oracle", str(instance_path), "--grid"],  # no such flag
        ["schedule", str(instance_path), "--priority-order", "asc"],  # no such flag
        ["oracle", str(instance_path), "--node-limit", "-1"],  # a budget below 0
        ["oracle", str(instance_path), "--time-limit", "1"],  # no such flag
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


@pytest.mark.parametrize(
    "value, message",
    [("-1", "must be 0 or more, got -1"), ("abc", "must be an integer, got 'abc'")],
    ids=["negative", "text"],
)
def test_node_limit_error_names_the_flag(tmp_path, capsys, value, message):
    instance_path = tmp_path / "example1.json"
    instance_path.write_text(dumps_instance(example1_instance()))
    with pytest.raises(SystemExit) as err:
        main(["oracle", str(instance_path), "--node-limit", value])
    assert err.value.code == 2
    assert f"error: argument --node-limit: {message}\n" in capsys.readouterr().err
