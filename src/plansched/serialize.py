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

Parsing errors carry the path of the offending field.  The model checks the
values of a task entry: the reader hands them to ``Task`` as read, testing
only that ``resources`` and ``predecessors`` are lists.  Only an entry that
is refused is read again, field by field, to name the path of its first bad
field (``plans[i].tasks[j]``, ``.predecessors[k]``); when every field has its
JSON type, the model's own error is raised.  The path of a plan or
resource entry is built as the entry is read, and the ``.key`` of a field is
added only when that field is bad.  Round-trips are lossless and the emitted
bytes are deterministic for a given input.

``dumps_instance`` and ``dumps_schedule`` write exactly
``json.dumps(instance_to_dict(...), indent=2) + "\n"`` and
``json.dumps(schedule_to_dict(...), indent=2) + "\n"``, but from f-string
templates, because ``json.dumps`` with an indent always runs the pure-Python
encoder.  Every key is fixed ASCII and every value an ``int`` (the model
rejects anything else, and ``dumps_schedule`` checks the ``Schedule`` it is
given), so nothing needs escaping.  The golden digests in
``tests/golden/schedules.json`` and the writer identity tests in
``tests/test_serialize.py`` pin those bytes.
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
    UnknownTask,
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


def _int(mapping, key, where, default=None):
    """The integer under ``key``; ``default`` makes the field optional.

    The path ``where.key`` is spelled out only when the field is bad.
    """
    if type(mapping) is dict:
        value = mapping.get(key, default)
        if type(value) is int:
            return value
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    return _as_int(value, f"{where}.{key}")


def _as_list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _list(mapping, key, where, default=None):
    """The list under ``key``, read like :func:`_int`."""
    if type(mapping) is dict:
        value = mapping.get(key, default)
        if type(value) is list:
            return value
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    return _as_list(value, f"{where}.{key}")


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
    window = TimeWindow(_int(window_doc, "start", "window"), _int(window_doc, "end", "window"))
    resources: dict[int, int] = {}
    for i, res in enumerate(_as_list(_require(doc, "resources", "document"), "resources")):
        where = f"resources[{i}]"
        rho = _int(res, "id", where)
        if rho in resources:
            raise ParseError(f"{where}: duplicate resource id {rho}")
        resources[rho] = _int(res, "availability", where, 1)
    plans: list[Plan] = []
    edges: set[tuple[int, int]] = set()
    for i, plan_doc in enumerate(_as_list(_require(doc, "plans", "document"), "plans")):
        where = f"plans[{i}]"
        plan_id = _int(plan_doc, "id", where)
        priority = _int(plan_doc, "priority", where)
        for succ in _list(plan_doc, "precedes", where, []):
            if type(succ) is not int:
                _as_int(succ, f"{where}.precedes[]")
            edges.add((plan_id, succ))
        tasks = []
        for j, task_doc in enumerate(_list(plan_doc, "tasks", where)):
            task = _task(plan_id, task_doc)
            if task is None:
                task = _checked_task(plan_id, task_doc, f"{where}.tasks[{j}]")
            tasks.append(task)
        plans.append(Plan(id=plan_id, priority=priority, tasks=tuple(tasks)))
    return build_instance(plans, plan_dag=edges, resources=resources, window=window)


_EMPTY: list = []  # what an absent optional list reads as; never written to


def _task(plan_id: int, doc):
    """The task of an entry, its fields handed to :class:`Task` as read, or
    None to have :func:`_checked_task` read it.

    Only the shape of the two lists is tested here; ``Task`` checks every
    value, and any refusal sends the entry to the field-by-field reader.
    """
    try:
        task_resources, pred_docs = doc["resources"], doc.get("predecessors", _EMPTY)
        if type(task_resources) is not list or type(pred_docs) is not list:
            return None
        preds = [(pred["index"], pred.get("lag", 0)) for pred in pred_docs] if pred_docs else ()
        return Task(plan_id, doc["index"], doc["p"], doc["r"], doc["d"], task_resources, preds)
    except (SchedulingError, LookupError, TypeError, AttributeError):
        return None


def _checked_task(plan_id: int, doc, where):
    """:func:`_task` field by field: the first bad field raises a
    :class:`ParseError` that names its path; a good entry is built, so a
    value the model refuses raises the model's own error."""
    index = _int(doc, "index", where)
    preds = []
    for k, pred in enumerate(_list(doc, "predecessors", where, [])):
        pwhere = f"{where}.predecessors[{k}]"
        preds.append((_int(pred, "index", pwhere), _int(pred, "lag", pwhere, 0)))
    processing_time = _int(doc, "p", where)
    release = _int(doc, "r", where)
    due = _int(doc, "d", where)
    task_resources = _list(doc, "resources", where)
    for rho in task_resources:
        _as_int(rho, f"{where}.resources[]")
    return Task(plan_id, index, processing_time, release, due, task_resources, preds)


def _array(items, pad: str) -> str:
    """A JSON array of already indented ``items`` whose ``]`` sits at ``pad``."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


def _ints(values, pad: str) -> str:
    """A JSON array of integers whose ``]`` sits at ``pad``."""
    if not values:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(map(str, values)) + "\n" + pad + "]"


def _task_text(task: Task) -> str:
    preds = _array(
        [
            f'            {{\n              "index": {j},\n              "lag": {lag}\n            }}'
            for j, lag in sorted(task.predecessors)
        ],
        "          ",
    )
    return (
        f'        {{\n          "index": {task.index},\n          "p": {task.processing_time},\n'
        f'          "r": {task.release},\n          "d": {task.due},\n'
        f'          "resources": {_ints(sorted(task.resources), "          ")},\n'
        f'          "predecessors": {preds}\n        }}'
    )


def dumps_instance(instance: Instance) -> str:
    window = instance.window
    resources = _array(
        [
            f'    {{\n      "id": {rho},\n      "availability": {instance.resources[rho]}\n    }}'
            for rho in sorted(instance.resources)
        ],
        "  ",
    )
    plans = _array(
        [
            f'    {{\n      "id": {plan.id},\n      "priority": {plan.priority},\n'
            f'      "precedes": {_ints(sorted(instance.successors_of_plan(plan.id)), "      ")},\n'
            f'      "tasks": {_array([_task_text(task) for task in plan.tasks], "      ")}\n    }}'
            for plan in instance.plans
        ],
        "  ",
    )
    return (
        f'{{\n  "window": {{\n    "start": {window.start},\n    "end": {window.end}\n  }},\n'
        f'  "resources": {resources},\n  "plans": {plans}\n}}\n'
    )


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


def _processing_times(schedule: Schedule, instance: Instance) -> dict:
    """The processing time of every task of ``instance``, by task id.

    Raises :class:`UnknownTask` when ``schedule`` starts a task that
    ``instance`` does not have.
    """
    p_of = {task.id: task.processing_time for task in instance.iter_tasks()}
    if not schedule.starts.keys() <= p_of.keys():
        unknown = next(task_id for task_id in schedule.starts if task_id not in p_of)
        raise UnknownTask(f"schedule references unknown task {unknown}")
    return p_of


def schedule_to_dict(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> dict:
    p_of = _processing_times(schedule, instance)
    doc = {
        "starts": [
            {
                "plan": plan_id,
                "task": index,
                "start": start,
                "completion": start + p_of[plan_id, index],
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
        key = (_int(entry, "plan", where), _int(entry, "task", where))
        if key in starts:
            raise ParseError(f"{where}: duplicate start for plan {key[0]} task {key[1]}")
        starts[key] = _int(entry, "start", where)
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


def _event_tasks(task_ids) -> str:
    """An event's ``starting`` or ``completing`` list of ``[plan, task]`` pairs."""
    if not task_ids:
        return "[]"
    pairs = ",\n".join([f"        [\n          {p},\n          {k}\n        ]" for p, k in sorted(task_ids)])
    return "[\n" + pairs + "\n      ]"


def _event_text(event: Event) -> str:
    if event.usage:
        usage = "{\n" + ",\n".join([f'        "{rho}": 1' for rho in sorted(event.usage)]) + "\n      }"
    else:
        usage = "{}"
    return (
        f'    {{\n      "t": {event.time},\n      "starting": {_event_tasks(event.starting)},\n'
        f'      "completing": {_event_tasks(event.completing)},\n      "usage": {usage}\n    }}'
    )


def _check_ints(schedule: Schedule) -> None:
    """Raise unless every start, task id and listed plan id of ``schedule`` is an ``int``.

    The templates write values as they are, and a hand-built ``Schedule``
    checks nothing itself.
    """
    for (plan_id, index), start in schedule.starts.items():
        if not type(plan_id) is type(index) is type(start) is int:
            raise SchedulingError(
                f"start of plan {plan_id!r} task {index!r}: ids and start must be integers, got {start!r}"
            )
    for plan_id in (*schedule.scheduled_plans, *schedule.discarded_plans):
        if type(plan_id) is not int:
            raise SchedulingError(f"listed plan ids must be integers, got {plan_id!r}")


def dumps_schedule(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> str:
    _check_ints(schedule)
    p_of = _processing_times(schedule, instance)
    starts = _array(
        [
            f'    {{\n      "plan": {plan_id},\n      "task": {index},\n      "start": {start},\n'
            f'      "completion": {start + p_of[plan_id, index]}\n    }}'
            for (plan_id, index), start in sorted(schedule.starts.items())
        ],
        "  ",
    )
    text = (
        f'{{\n  "starts": {starts},\n  "scheduled": {_ints(schedule.scheduled_plans, "  ")},\n'
        f'  "discarded": {_ints(schedule.discarded_plans, "  ")},\n'
        f'  "objective": {_objective(instance, schedule)}'
    )
    if events is None:
        return text + "\n}\n"
    return text + f',\n  "events": {_array([_event_text(event) for event in events], "  ")}\n}}\n'


def emit_schedule(schedule: Schedule, instance: Instance, path, *, events: tuple[Event, ...] | None = None) -> None:
    """Write a schedule document; ``events`` adds the debug event section."""
    Path(path).write_text(dumps_schedule(schedule, instance, events), encoding="utf-8")


def parse_schedule(path) -> Schedule:
    """Load a schedule document from ``path``."""
    return schedule_from_dict(_read_json(path))
