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

Parsing errors carry the path of the offending field.  The model checks every
value: :func:`_read_instance` hands them to it as read.  Only a refused
document is walked against the declared shape (``_INSTANCE``), which names
the path of its first field without its JSON type (``plans[i].tasks[j].p``,
``.predecessors[k]``, ``.resources[]``).  A document with several faults
raises, in this order: a shape fault, first in document order; then a
repeated resource id; then the model's own error.  A ``Schedule`` checks
nothing itself, so a schedule document is always walked (``_SCHEDULE``).
Round-trips are lossless and the emitted bytes are deterministic for a given
input.

``dumps_instance`` and ``dumps_schedule`` write exactly
``json.dumps(instance_to_dict(...), indent=2) + "\n"`` and
``json.dumps(schedule_to_dict(...), indent=2) + "\n"``, but from f-string
templates, because ``json.dumps`` with an indent always runs the pure-Python
encoder.  Every key is fixed ASCII and every value an ``int`` (the model
rejects anything else, and both schedule writers read the ``Schedule`` they
are given through :func:`plansched.model.placed_tasks`), so nothing needs
escaping.  The golden digests in ``tests/golden/schedules.json`` and the
writer identity tests in ``tests/test_serialize.py`` pin those bytes.
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
    placed_tasks,
)
from .validate import placed_objective


class ParseError(SchedulingError):
    """The document is not valid JSON or does not match the expected shape."""


# The declared shape of both documents, walked by :func:`_check` only when a
# document is refused: ``int`` is an integer, ``[item]`` a list of ``item``
# and a dict an object whose fields are checked in the order listed.  A field
# named in ``_OPTIONAL`` may be absent.
_PREDECESSOR = {"index": int, "lag": int}
_TASK = {"index": int, "predecessors": [_PREDECESSOR], "p": int, "r": int, "d": int, "resources": [int]}
_PLAN = {"id": int, "priority": int, "precedes": [int], "tasks": [_TASK]}
_INSTANCE = {
    "window": {"start": int, "end": int},
    "resources": [{"id": int, "availability": int}],
    "plans": [_PLAN],
}
_SCHEDULE = {"starts": [{"plan": int, "task": int, "start": int}], "scheduled": [int], "discarded": [int]}
_OPTIONAL = frozenset({"availability", "precedes", "predecessors", "lag", "scheduled", "discarded"})


def _check(value, shape, where: str) -> None:
    """Raise a :class:`ParseError` naming the first part of ``value``, in
    document order, that does not have its JSON type in ``shape``.

    The path ``where`` grows as the walk goes down: ``.key`` for a field,
    ``[i]`` for an object in a list and ``[]`` for an integer in a list.
    """
    if shape is int:
        if type(value) is not int:
            raise ParseError(f"{where}: expected an integer, got {value!r}")
    elif type(shape) is list:
        if type(value) is not list:
            raise ParseError(f"{where}: expected a list")
        for i, item in enumerate(value):
            _check(item, shape[0], f"{where}[]" if shape[0] is int else f"{where}[{i}]")
    elif type(value) is not dict:
        raise ParseError(f"{where}: expected an object")
    else:
        for key, field_shape in shape.items():
            if key in value:
                _check(value[key], field_shape, key if where == "document" else f"{where}.{key}")
            elif key not in _OPTIONAL:
                raise ParseError(f"{where}: missing field {key!r}")


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
    """The instance of ``doc``; a refused document raises its first fault, in
    the order the module docstring gives."""
    try:
        return _read_instance(doc)
    except (SchedulingError, LookupError, TypeError, AttributeError):
        _check(doc, _INSTANCE, "document")
        seen: set[int] = set()
        for i, res in enumerate(doc["resources"]):
            if res["id"] in seen:
                raise ParseError(f"resources[{i}]: duplicate resource id {res['id']}")
            seen.add(res["id"])
        raise


_EMPTY: list = []  # what an absent optional list reads as; never written to


def _read_instance(doc) -> Instance:
    """The instance of ``doc``, every value handed to the model as read.

    Only what the model cannot see is tested here: that the lists it would
    read as empty are lists, and that no resource id repeats.  A malformed
    document raises whatever it makes the reading raise.
    """
    window = TimeWindow(doc["window"]["start"], doc["window"]["end"])
    resource_docs, plan_docs = doc["resources"], doc["plans"]
    if type(resource_docs) is not list or type(plan_docs) is not list:
        raise TypeError("resources and plans must be lists")
    resources = {res["id"]: res.get("availability", 1) for res in resource_docs}
    if len(resources) != len(resource_docs):
        raise ParseError("repeated resource id")
    plans = []
    edges = []
    for plan_doc in plan_docs:
        plan_id = plan_doc["id"]
        successors = plan_doc.get("precedes", _EMPTY)
        if type(successors) is not list:
            raise TypeError("precedes must be a list")
        edges += [(plan_id, succ) for succ in successors]
        tasks = []
        for task_doc in plan_doc["tasks"]:
            pred_docs = task_doc.get("predecessors", _EMPTY)
            if type(pred_docs) is not list:
                raise TypeError("predecessors must be a list")
            preds = [(pred["index"], pred.get("lag", 0)) for pred in pred_docs] if pred_docs else ()
            tasks.append(
                Task(plan_id, task_doc["index"], task_doc["p"], task_doc["r"], task_doc["d"], task_doc["resources"], preds)
            )
        plans.append(Plan(plan_id, plan_doc["priority"], tuple(tasks)))
    return Instance(plans, edges, resources, window)


def _array(items, pad: str) -> str:
    """A JSON array of already indented ``items`` whose ``]`` sits at ``pad``."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


def _task_text(task: Task) -> str:
    preds = _array(
        [
            f'            {{\n              "index": {j},\n              "lag": {lag}\n            }}'
            for j, lag in sorted(task.predecessors)
        ],
        "          ",
    )
    resources = _array([f"            {rho}" for rho in sorted(task.resources)], "          ")
    return (
        f'        {{\n          "index": {task.index},\n          "p": {task.processing_time},\n'
        f'          "r": {task.release},\n          "d": {task.due},\n'
        f'          "resources": {resources},\n'
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
            f'      "precedes": {_array([f"        {b}" for b in sorted(instance.successors_of_plan(plan.id))], "      ")},\n'
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
    """The JSON document in ``path``; a syntax error names the line and column.
    Text that is not UTF-8, or too long an integer or too deep to decode, is
    a :class:`ParseError` too."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"{path}: {exc}") from exc


def parse_instance(path) -> Instance:
    """Load an instance document from ``path``."""
    return instance_from_dict(_read_json(path))


def emit_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def _start_rows(schedule: Schedule, instance: Instance) -> tuple[list[tuple[int, int, int, int]], int]:
    """The sorted ``(plan, task, start, completion)`` rows of ``schedule`` and its
    objective, from one read through :func:`plansched.model.placed_tasks`."""
    placed = placed_tasks(schedule, instance)
    rows = sorted([(task.plan_id, task.index, start, start + task.processing_time) for task, start in placed])
    return rows, placed_objective(instance, placed)


def schedule_to_dict(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> dict:
    rows, objective = _start_rows(schedule, instance)
    doc = {
        "starts": [
            {"plan": plan_id, "task": index, "start": start, "completion": completion}
            for plan_id, index, start, completion in rows
        ],
        "scheduled": list(schedule.scheduled_plans),
        "discarded": list(schedule.discarded_plans),
        "objective": objective,
    }
    if events is not None:
        doc["events"] = [
            {
                "t": time,
                "starting": [list(tid) for tid in sorted(starting)],
                "completing": [list(tid) for tid in sorted(completing)],
                "usage": {str(rho): 1 for rho in sorted(usage)},
            }
            for time, starting, completing, usage in events
        ]
    return doc


def schedule_from_dict(doc: dict) -> Schedule:
    """The schedule of ``doc``; ``Schedule`` checks nothing, so the shape is checked here."""
    _check(doc, _SCHEDULE, "document")
    starts = {}
    for i, entry in enumerate(doc["starts"]):
        key = (entry["plan"], entry["task"])
        if key in starts:
            raise ParseError(f"starts[{i}]: duplicate start for plan {key[0]} task {key[1]}")
        starts[key] = entry["start"]
    return Schedule(starts, _plan_ids(doc, "scheduled"), _plan_ids(doc, "discarded"))


def _plan_ids(doc: dict, key: str) -> list[int]:
    """The plan ids listed under ``key``, in order; a repeated id is rejected."""
    ids: dict[int, None] = {}
    for i, plan_id in enumerate(doc.get(key, _EMPTY)):
        if plan_id in ids:
            raise ParseError(f"{key}[{i}]: plan {plan_id} is listed twice")
        ids[plan_id] = None
    return list(ids)


def _event_tasks(task_ids, blocks: dict) -> str:
    """An event's ``starting`` or ``completing`` list of ``[plan, task]`` pairs.

    ``blocks`` caches the text of each pair: a task id is written twice, once
    when it starts and once when it completes.  A one-element set, the most
    common after an empty one, skips the sort.
    """
    if not task_ids:
        return "[]"
    texts = []
    for task_id in sorted(task_ids) if len(task_ids) > 1 else task_ids:
        text = blocks.get(task_id)
        if text is None:
            text = blocks[task_id] = f"        [\n          {task_id[0]},\n          {task_id[1]}\n        ]"
        texts.append(text)
    return "[\n" + ",\n".join(texts) + "\n      ]"


def _events_text(events: tuple[Event, ...]) -> str:
    """The ``events`` array, written in one loop.

    Each text is formatted once per call: the ``usage`` object of each
    distinct held set, which recurs across events (about 56 sets in 185
    events of a ``congested`` benchmark schedule), and the ``[plan, task]``
    block of each task id.  It writes a ``congested`` schedule's events in
    about 0.33 ms, against 0.41 ms when each pair was formatted at each
    event (shared 2-core host).
    """
    usages = {frozenset(): "{}"}
    blocks: dict[tuple[int, int], str] = {}
    items = []
    for time, starting, completing, usage in events:
        text = usages.get(usage)
        if text is None:
            rows = ",\n".join([f'        "{rho}": 1' for rho in sorted(usage)])
            text = usages[usage] = "{\n" + rows + "\n      }"
        items.append(
            f'    {{\n      "t": {time},\n      "starting": {_event_tasks(starting, blocks)},\n'
            f'      "completing": {_event_tasks(completing, blocks)},\n      "usage": {text}\n    }}'
        )
    return _array(items, "  ")


def dumps_schedule(schedule: Schedule, instance: Instance, events: tuple[Event, ...] | None = None) -> str:
    rows, objective = _start_rows(schedule, instance)
    starts = _array(
        [
            f'    {{\n      "plan": {plan_id},\n      "task": {index},\n      "start": {start},\n'
            f'      "completion": {completion}\n    }}'
            for plan_id, index, start, completion in rows
        ],
        "  ",
    )
    scheduled = _array([f"    {plan_id}" for plan_id in schedule.scheduled_plans], "  ")
    discarded = _array([f"    {plan_id}" for plan_id in schedule.discarded_plans], "  ")
    text = (
        f'{{\n  "starts": {starts},\n  "scheduled": {scheduled},\n  "discarded": {discarded},\n'
        f'  "objective": {objective}'
    )
    if events is None:
        return text + "\n}\n"
    return text + f',\n  "events": {_events_text(events)}\n}}\n'


def emit_schedule(schedule: Schedule, instance: Instance, path, *, events: tuple[Event, ...] | None = None) -> None:
    """Write a schedule document; ``events`` adds the debug event section."""
    Path(path).write_text(dumps_schedule(schedule, instance, events), encoding="utf-8")


def parse_schedule(path) -> Schedule:
    """Load a schedule document from ``path``."""
    return schedule_from_dict(_read_json(path))
