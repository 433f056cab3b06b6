"""JSON serialisation of instances and schedules.

Instance document::

    {
      "window": {"start": 0, "end": 10},
      "resources": [{"id": 1, "availability": 1}, ...],
      "plans": [
        {"id": 1, "priority": 3, "precedes": [2],
         "tasks": [
           {"index": 1, "p": 3, "r": 2, "d": 7,
            "resources": [1], "predecessors": [{"index": 1, "lag": 0}]}
         ]}
      ]
    }

Schedule document::

    {
      "starts": [{"plan": 1, "task": 1, "start": 2, "completion": 5}, ...],
      "scheduled": [1, 2],
      "discarded": [],
      "objective": 6,
      "events": [{"t": 2, "starting": [[1, 1]], "completing": [],
                  "usage": {"1": 1}}, ...]       # optional debug section
    }

Parsing errors carry the path of the offending field.  Round-trips are
lossless and the emitted bytes are deterministic for a given input.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import (
    Event,
    Instance,
    Plan,
    Schedule,
    SchedulingError,
    Task,
    TimeWindow,
    build_instance,
)
from .validate import objective as _objective


class ParseError(SchedulingError):
    """The document is not valid JSON or does not match the expected shape."""


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in mapping:
        raise ParseError(f"{where}: missing field {key!r}")
    return mapping[key]


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def instance_to_dict(instance: Instance) -> dict:
    return {
        "window": {"start": instance.window.start, "end": instance.window.end},
        "resources": [
            {"id": rho, "availability": instance.resources[rho]} for rho in sorted(instance.resources)
        ],
        "plans": [
            {
                "id": plan.id,
                "priority": plan.priority,
                "precedes": sorted(instance.successors_of_plan(plan.id)),
                "tasks": [
                    {
                        "index": task.index,
                        "p": task.processing_time,
                        "r": task.release,
                        "d": task.due,
                        "resources": sorted(task.resources),
                        "predecessors": [
                            {"index": j, "lag": lag} for j, lag in sorted(task.predecessors)
                        ],
                    }
                    for task in plan.tasks
                ],
            }
            for plan in instance.plans
        ],
    }


def instance_from_dict(doc: dict) -> Instance:
    window_doc = _require(doc, "window", "document")
    window = TimeWindow(
        _as_int(_require(window_doc, "start", "window"), "window.start"),
        _as_int(_require(window_doc, "end", "window"), "window.end"),
    )
    resources: dict[int, int] = {}
    for i, res in enumerate(_as_list(_require(doc, "resources", "document"), "resources")):
        where = f"resources[{i}]"
        rho = _as_int(_require(res, "id", where), f"{where}.id")
        if rho in resources:
            raise ParseError(f"{where}: duplicate resource id {rho}")
        resources[rho] = _as_int(res.get("availability", 1), f"{where}.availability")
    plans: list[Plan] = []
    edges: set[tuple[int, int]] = set()
    for i, plan_doc in enumerate(_as_list(_require(doc, "plans", "document"), "plans")):
        where = f"plans[{i}]"
        plan_id = _as_int(_require(plan_doc, "id", where), f"{where}.id")
        priority = _as_int(_require(plan_doc, "priority", where), f"{where}.priority")
        for succ in _as_list(plan_doc.get("precedes", []), f"{where}.precedes"):
            edges.add((plan_id, _as_int(succ, f"{where}.precedes[]")))
        tasks = []
        for j, task_doc in enumerate(_as_list(_require(plan_doc, "tasks", where), f"{where}.tasks")):
            twhere = f"{where}.tasks[{j}]"
            index = _as_int(_require(task_doc, "index", twhere), f"{twhere}.index")
            preds = []
            for k, pred in enumerate(_as_list(task_doc.get("predecessors", []), f"{twhere}.predecessors")):
                pwhere = f"{twhere}.predecessors[{k}]"
                preds.append(
                    (
                        _as_int(_require(pred, "index", pwhere), f"{pwhere}.index"),
                        _as_int(pred.get("lag", 0), f"{pwhere}.lag"),
                    )
                )
            tasks.append(
                Task(
                    plan_id=plan_id,
                    index=index,
                    processing_time=_as_int(_require(task_doc, "p", twhere), f"{twhere}.p"),
                    release=_as_int(_require(task_doc, "r", twhere), f"{twhere}.r"),
                    due=_as_int(_require(task_doc, "d", twhere), f"{twhere}.d"),
                    resources=frozenset(
                        _as_int(r, f"{twhere}.resources[]")
                        for r in _as_list(_require(task_doc, "resources", twhere), f"{twhere}.resources")
                    ),
                    predecessors=tuple(preds),
                )
            )
        plans.append(Plan(id=plan_id, priority=priority, tasks=tuple(tasks)))
    return build_instance(plans, plan_dag=edges, resources=resources, window=window)


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def _read_json(path):
    """The JSON document in ``path``; a syntax error names the line and column."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def parse_instance(path) -> Instance:
    """Load an instance document from ``path``."""
    return instance_from_dict(_read_json(path))


def emit_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def schedule_to_dict(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> dict:
    task_of = {task.id: task for task in instance.iter_tasks()}
    doc = {
        "starts": [
            {
                "plan": plan_id,
                "task": index,
                "start": start,
                "completion": start + task_of[(plan_id, index)].processing_time,
            }
            for (plan_id, index), start in sorted(schedule.starts.items())
        ],
        "scheduled": list(schedule.scheduled_plans),
        "discarded": list(schedule.discarded_plans),
        "objective": _objective(instance, schedule),
    }
    if events is not None:
        doc["events"] = [
            {
                "t": event.time,
                "starting": [list(tid) for tid in sorted(event.starting)],
                "completing": [list(tid) for tid in sorted(event.completing)],
                "usage": {str(rho): 1 for rho in sorted(event.usage)},
            }
            for event in events
        ]
    return doc


def schedule_from_dict(doc: dict) -> Schedule:
    starts = {}
    for i, entry in enumerate(_as_list(_require(doc, "starts", "document"), "starts")):
        where = f"starts[{i}]"
        key = (
            _as_int(_require(entry, "plan", where), f"{where}.plan"),
            _as_int(_require(entry, "task", where), f"{where}.task"),
        )
        if key in starts:
            raise ParseError(f"{where}: duplicate start for plan {key[0]} task {key[1]}")
        starts[key] = _as_int(_require(entry, "start", where), f"{where}.start")
    return Schedule(starts, _plan_ids(doc, "scheduled"), _plan_ids(doc, "discarded"))


def _plan_ids(doc: dict, key: str) -> list[int]:
    """The plan ids listed under ``key``, in order; a repeated id is rejected."""
    ids: dict[int, None] = {}
    for i, value in enumerate(_as_list(doc.get(key, []), key)):
        plan_id = _as_int(value, f"{key}[{i}]")
        if plan_id in ids:
            raise ParseError(f"{key}[{i}]: plan {plan_id} is listed twice")
        ids[plan_id] = None
    return list(ids)


def dumps_schedule(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> str:
    return json.dumps(schedule_to_dict(schedule, instance, events), indent=2) + "\n"


def emit_schedule(schedule: Schedule, instance: Instance, path, *, events: tuple[Event, ...] | None = None) -> None:
    """Write a schedule document; ``events`` adds the debug event section."""
    Path(path).write_text(dumps_schedule(schedule, instance, events), encoding="utf-8")


def parse_schedule(path) -> Schedule:
    """Load a schedule document from ``path``."""
    return schedule_from_dict(_read_json(path))
