"""Domain types for plan scheduling: tasks, plans, instances, events and schedules.

Immutable inputs (``TimeWindow``, ``Task``, ``Plan``, ``Instance``) validate their
structural invariants at construction time; every time, id, priority and
availability must be an ``int`` (a bool, float or string is rejected, so the
documents written from them hold integers only).  Each value is checked once,
as the caller gave it, before a collection of them is frozen: a set would
merge ``True`` or ``1.0`` into the id ``1`` unseen.  A collection argument
that cannot be iterated raises :class:`InstanceError` too.  Every task on
one resource id below 1024 shares that id's frozenset, which more than halves
what such a task keeps alive.  ``Instance`` checks that its window is a
``TimeWindow``, and ``Plan`` and ``Instance`` name an entry that is not a
``Task`` or a ``Plan`` at no cost to a valid construction: only the error
that reading such an entry raises leads to a type test.  ``Instance``
checks the plan DAG: one pass rejects cycles and records each plan's
frontier and DAG neighbours, which the ordering, the engine, the oracle and
the instance writers look up.  Two readers also read ``plan_dag`` itself:
:func:`plansched.ordering.sort_plans` counts in-degrees from it, and the
validator reads it for its ordering warnings.  ``Schedule``
is the mutable result of a single scheduler run and checks nothing itself.
Every reader of a schedule (the validator and its objective, both writers,
both Gantt renders and :func:`event_list`) reads it through
:func:`placed_tasks`, which applies the schedule rule once: integer starts
and ids, a plan listed at most once per list, and only tasks and plans of
the instance.  :func:`event_list` derives the paper's event list, a tuple of
``Event`` named tuples, from those starts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

# A task is identified by (plan id, task index within the plan).
TaskId = tuple[int, int]


class SchedulingError(Exception):
    """Base class for every error raised by this package."""


class InstanceError(SchedulingError):
    """A problem instance violates a structural invariant."""


class CyclicPlanDag(InstanceError):
    """The plan-level precedence graph contains a cycle."""


class CyclicTaskGraph(InstanceError):
    """The task-level precedence graph of a plan contains a cycle."""


class UnknownResource(InstanceError):
    """A task references a resource the instance does not declare."""


class BadWindow(InstanceError):
    """A time attribute is out of range (release after due, non-positive duration, ...)."""


class UnknownTask(SchedulingError):
    """A schedule references a task that does not exist in the instance."""


@dataclass(frozen=True)
class TimeWindow:
    """Closed interval ``[start, end]`` of integer time ticks."""

    start: int
    end: int

    def __post_init__(self):
        if not type(self.start) is type(self.end) is int:
            raise BadWindow(f"window bounds must be integers, got {self.start!r} and {self.end!r}")
        if self.start > self.end:
            raise BadWindow(f"window start {self.start} exceeds end {self.end}")


# The frozenset {rho} that every task on the lone resource rho shares, for
# 0 <= rho < _SHARED_IDS; Task.__init__ fills it on first use.  Its entries
# are equal immutable values, so no caller sees another caller's fill.
_SHARED_IDS = 1024
_ONE_RESOURCE: dict[int, frozenset[int]] = {}


@dataclass(frozen=True, slots=True, init=False)
class Task:
    """One atomic operation of a plan.

    ``predecessors`` holds ``(task_index, lag)`` pairs: this task may start no
    earlier than ``lag`` ticks after each named sibling task completes.
    ``id`` is ``(plan_id, index)``, stored once when the task is made.

    ``__init__`` is written out: it checks each argument once and sets each
    slot once, storing ``resources`` as a frozenset and ``predecessors`` as a
    tuple of pairs, and ``dataclasses.replace`` goes through it too.  It
    builds a task 0.9 us faster than a generated one with ``__post_init__``;
    a named tuple builds 0.3 us faster still, but reads its fields about 2.7x
    slower, which the fit loop pays (timeit, shared 2-core host).

    A task given one resource id ``rho`` with ``0 <= rho < 1024`` stores the
    one frozenset ``{rho}`` that every such task shares, taken from a
    module-level map filled on first use and bounded by that id range; any
    other resource collection is frozen afresh.  Sharing takes a
    single-resource task from about 404 to 188 bytes kept alive
    (tracemalloc, Python 3.10-3.13); only ``is`` between two tasks'
    ``resources`` tells the shared set from a fresh equal one.
    """

    plan_id: int
    index: int
    processing_time: int
    release: int
    due: int
    resources: frozenset[int]
    predecessors: tuple[tuple[int, int], ...] = ()
    id: TaskId = field(init=False, repr=False, compare=False)

    def __init__(self, plan_id, index, processing_time, release, due, resources, predecessors=()):
        task_id = (plan_id, index)
        if not type(plan_id) is type(index) is type(processing_time) is type(release) is type(due) is int:
            _reject_non_int(
                f"task {task_id}",
                plan_id=plan_id,
                index=index,
                processing_time=processing_time,
                release=release,
                due=due,
            )
        if processing_time < 1:
            raise BadWindow(f"task {task_id}: processing time must be >= 1, got {processing_time}")
        if release > due:
            raise BadWindow(f"task {task_id}: release {release} exceeds due {due}")
        if not isinstance(resources, (list, frozenset, set, tuple)):
            resources = list(_each(resources, "task {}: resources", task_id))  # a one-shot iterable is read once
        for rho in resources:
            if type(rho) is not int:
                raise InstanceError(f"task {task_id}: resource ids must be integers, got {rho!r}")
        if len(resources) == 1 and 0 <= rho < _SHARED_IDS:  # rho is the one id the loop read
            resources = _ONE_RESOURCE.get(rho) or _ONE_RESOURCE.setdefault(rho, frozenset((rho,)))
        else:
            resources = frozenset(resources)  # the same object when already a frozenset
        if not resources:
            raise InstanceError(f"task {task_id}: resource set is empty")
        if predecessors or type(predecessors) is not tuple:
            predecessors = _predecessor_pairs(task_id, predecessors)
        _set_plan_id(self, plan_id)
        _set_index(self, index)
        _set_processing_time(self, processing_time)
        _set_release(self, release)
        _set_due(self, due)
        _set_resources(self, resources)
        _set_predecessors(self, predecessors)
        _set_id(self, task_id)


# The slot setters of Task: they write past the frozen ``__setattr__``, and
# only ``Task.__init__`` calls them.
_set_plan_id = Task.plan_id.__set__
_set_index = Task.index.__set__
_set_processing_time = Task.processing_time.__set__
_set_release = Task.release.__set__
_set_due = Task.due.__set__
_set_resources = Task.resources.__set__
_set_predecessors = Task.predecessors.__set__
_set_id = Task.id.__set__


def _predecessor_pairs(task_id: TaskId, predecessors) -> tuple[tuple[int, int], ...]:
    """``predecessors`` as a tuple of ``(index, lag)`` tuples, each one checked."""
    pairs = []
    for pair in _each(predecessors, "task {}: predecessors", task_id):
        if type(pair) is not tuple or len(pair) != 2:
            pair = _as_pair(pair, "task {}: predecessor", task_id)
        j, lag = pair
        if not type(j) is type(lag) is int:
            raise InstanceError(f"task {task_id}: predecessor ({j!r}, {lag!r}) must be a pair of integers")
        if lag < 0:
            raise BadWindow(f"task {task_id}: negative lag {lag} on predecessor {j}")
        if j == task_id[1]:
            raise CyclicTaskGraph(f"task {task_id} lists itself as predecessor")
        pairs.append(pair)
    return tuple(pairs)


def _each(values, owner: str, *args):
    """An iterator over ``values``; a value that cannot be iterated raises :class:`InstanceError`.

    The error names ``owner.format(*args)``, formatted only when it is raised.
    """
    try:
        return iter(values)
    except TypeError:
        raise InstanceError(f"{owner.format(*args)} must be iterable, got {values!r}") from None


def _as_pair(value, owner: str, *args) -> tuple:
    """``value`` unpacked into a 2-tuple; anything else raises :class:`InstanceError`.

    The error names ``owner.format(*args)``, formatted only when it is raised.
    """
    try:
        a, b = value
    except (TypeError, ValueError):
        raise InstanceError(f"{owner.format(*args)} {value!r} must be a pair of integers") from None
    return (a, b)


def _reject_non_int(owner: str, **fields) -> None:
    """Raise :class:`InstanceError` for the first of ``fields`` that is not an ``int``.

    A bool is rejected too: the documents write integers, and ``True`` would
    come back from them as a different value or not at all.
    """
    for name, value in fields.items():
        if type(value) is not int:
            raise InstanceError(f"{owner}: {name} must be an integer, got {value!r}")


def _reject_entry(entries, kind: type, owner: str) -> None:
    """Raise :class:`InstanceError` for the first of ``entries`` that is not a ``kind`` (error paths only)."""
    for entry in entries:
        if not isinstance(entry, kind):
            raise InstanceError(f"{owner}: {entry!r} is not a {kind.__name__}") from None


@dataclass(frozen=True, slots=True, init=False)
class Plan:
    """An all-or-nothing vector of tasks with a priority weight.

    The task list is normalised to respect the intra-plan precedence graph
    (stable reordering: tasks already in a consistent order are untouched).
    ``__init__`` is written out, as ``Task``'s is, and sets each slot once.
    One pass over the tasks checks their plan tags, that each predecessor
    index comes earlier in the list, and that no index repeats; a plan that
    fails it goes through :func:`_checked_order`, which names the first
    fault or sorts a plan whose order does not hold.  It builds a two-task
    plan in about 0.75 us, against 1.6 us with a generated ``__init__`` and
    a two-pass ``__post_init__`` (timeit, shared 2-core host).

    :meth:`task` looks a task up in a map by index, built and stored on its
    first call: most plans are never looked up, and a map on every plan
    raised the ``congested`` benchmark's peak RSS by 4 %.
    """

    id: int
    priority: int
    tasks: tuple[Task, ...]
    _by_index: dict[int, Task] | None = field(init=False, repr=False, compare=False)

    def __init__(self, id, priority, tasks):
        if not type(id) is type(priority) is int:
            _reject_non_int(f"plan {id!r}", id=id, priority=priority)
        if type(tasks) is not tuple:
            tasks = tuple(_each(tasks, "plan {}: tasks", id))
        if not tasks:
            raise InstanceError(f"plan {id} has no tasks")
        seen: set[int] = set()  # the indices of the tasks that passed, up to the first that does not
        try:
            for t in tasks:
                if t.plan_id != id:
                    break
                for j, _ in t.predecessors:
                    if j not in seen:
                        break
                else:
                    seen.add(t.index)
                    continue
                break
        except (AttributeError, TypeError):
            pass  # _checked_order names the entry
        if len(seen) != len(tasks):
            tasks = _checked_order(id, tasks)
        _plan_set_id(self, id)
        _plan_set_priority(self, priority)
        _plan_set_tasks(self, tasks)
        _plan_set_by_index(self, None)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def task(self, index: int) -> Task:
        by_index = self._by_index
        if by_index is None:
            by_index = {t.index: t for t in self.tasks}
            _plan_set_by_index(self, by_index)
        task = by_index.get(index)
        if task is None:
            raise UnknownTask(f"plan {self.id} has no task {index}")
        return task


# The slot setters of Plan: only ``Plan.__init__`` and ``Plan.task`` call them.
_plan_set_id = Plan.id.__set__
_plan_set_priority = Plan.priority.__set__
_plan_set_tasks = Plan.tasks.__set__
_plan_set_by_index = Plan._by_index.__set__


def _checked_order(plan_id: int, tasks: tuple) -> tuple[Task, ...]:
    """``tasks`` in precedence order, or the first fault among them raised.

    The faults are checked task by task, in list order: an entry that is not
    a task, a task tagged for another plan, a predecessor index no task of
    the plan has; then a repeated index.
    """
    try:
        position = {t.index: k for k, t in enumerate(tasks)}
        in_order = True
        for k, t in enumerate(tasks):
            if t.plan_id != plan_id:
                raise InstanceError(f"plan {plan_id} contains task tagged for plan {t.plan_id}")
            for j, _ in t.predecessors:
                before = position.get(j)
                if before is None:
                    raise InstanceError(f"plan {plan_id}: task {t.index} names unknown predecessor {j}")
                if before > k:
                    in_order = False
    except (AttributeError, TypeError):
        _reject_entry(tasks, Task, f"plan {plan_id}: tasks")
        raise
    if len(position) != len(tasks):
        raise InstanceError(f"plan {plan_id} has duplicate task indices")
    return tasks if in_order else _topo_order_tasks(plan_id, tasks)


def _topo_order_tasks(plan_id: int, tasks: tuple[Task, ...]) -> tuple[Task, ...]:
    """Stable topological order of a plan's tasks; raises on precedence cycles.

    Repeatedly takes the first pending task, in input order, whose
    predecessors are all taken.
    """
    order: list[Task] = []
    taken: set[int] = set()
    pending = list(tasks)
    while pending:
        for i, task in enumerate(pending):
            if all(j in taken for j, _ in task.predecessors):
                break
        else:
            raise CyclicTaskGraph(f"plan {plan_id}: task precedence graph has a cycle")
        del pending[i]
        taken.add(task.index)
        order.append(task)
    return tuple(order)


@dataclass(frozen=True)
class Instance:
    """A full scheduling problem: plans, plan-level DAG, resources, global window.

    ``resources`` maps resource id to its per-tick availability; only unary
    resources (availability 1) are supported, the field is kept so richer
    capacities stay expressible in the serialised format.

    Construction is the one place that turns the inputs into their stored
    forms: ``plans`` into a tuple, ``plan_dag`` into a frozenset of pairs and
    ``resources``, given as ids (availability 1) or as an id -> availability
    mapping, into a dict; each edge and resource id is checked as given.
    When ``resources`` is None, every resource a task uses is declared.
    Raises :class:`CyclicPlanDag`, :class:`UnknownResource` or
    :class:`BadWindow` when the inputs break an invariant.
    ``build_instance`` is another name for this class.

    Construction reads ``plan_dag`` once.  ``frontier_of`` maps every plan id
    to its frontier, the longest edge distance from a root (a plan nobody
    precedes), so every edge crosses from a lower frontier to a strictly
    higher one.  The DAG predecessors and successors of a plan are kept only
    for plans that have edges.
    """

    plans: tuple[Plan, ...]
    plan_dag: frozenset[tuple[int, int]] = ()
    resources: dict[int, int] = None
    window: TimeWindow = None
    frontier_of: dict[int, int] = field(init=False, repr=False, compare=False)
    _by_id: dict[int, Plan] = field(init=False, repr=False, compare=False)
    _preds: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _succs: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.window, TimeWindow):
            raise BadWindow(f"an instance needs a TimeWindow, got {self.window!r}")
        object.__setattr__(self, "plans", tuple(_each(self.plans, "plans")))
        edges = []
        for edge in _each(self.plan_dag, "plan precedence graph"):
            if type(edge) is not tuple or len(edge) != 2:
                edge = _as_pair(edge, "plan precedence edge")
            if not type(edge[0]) is type(edge[1]) is int:
                raise InstanceError(f"plan precedence edge {edge!r}: plan ids must be integers")
            edges.append(edge)
        object.__setattr__(self, "plan_dag", frozenset(edges))
        given = self.resources
        if given is None:  # a non-Plan entry is skipped here and named below
            given = {rho: 1 for plan in self.plans if isinstance(plan, Plan) for task in plan.tasks for rho in task.resources}
        pairs = given.items() if isinstance(given, Mapping) else [(rho, 1) for rho in _each(given, "resources")]
        resources: dict[int, int] = {}
        for rho, avail in pairs:
            if type(rho) is not int:
                raise InstanceError(f"resource ids must be integers, got {rho!r}")
            if type(avail) is not int:
                raise InstanceError(f"resource {rho!r}: id and availability must be integers, got {avail!r}")
            if avail != 1:
                raise InstanceError(f"resource {rho}: only availability 1 is supported, got {avail}")
            resources[rho] = avail
        object.__setattr__(self, "resources", resources)
        declared = set(resources)
        by_id: dict[int, Plan] = {}
        try:
            for plan in self.plans:
                by_id[plan.id] = plan
                for task in plan.tasks:
                    if not task.resources <= declared:
                        missing = sorted(task.resources - declared)
                        raise UnknownResource(f"task {task.id} uses undeclared resources {missing}")
        except (AttributeError, TypeError):
            _reject_entry(self.plans, Plan, "plans")
            raise
        if len(by_id) != len(self.plans):
            raise InstanceError("duplicate plan ids")
        preds: dict[int, list[int]] = {}
        succs: dict[int, list[int]] = {}
        for a, b in self.plan_dag:
            if a not in by_id or b not in by_id:
                raise InstanceError(f"plan precedence edge ({a}, {b}) names unknown plan")
            if a == b:
                raise CyclicPlanDag(f"plan {a} precedes itself")
            preds.setdefault(b, []).append(a)
            succs.setdefault(a, []).append(b)
        # Kahn's algorithm from the roots that have edges; a plan on or behind
        # a cycle is never reached and keeps unmet predecessors.
        frontier_of = dict.fromkeys(by_id, 0)
        unmet = {b: len(a) for b, a in preds.items()}
        queue = [a for a in succs if a not in unmet]
        while queue:
            a = queue.pop()
            for b in succs.get(a, ()):
                frontier_of[b] = max(frontier_of[b], frontier_of[a] + 1)
                unmet[b] -= 1
                if unmet[b] == 0:
                    queue.append(b)
        if any(unmet.values()):
            raise CyclicPlanDag("plan precedence graph has a cycle")
        object.__setattr__(self, "frontier_of", frontier_of)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_preds", {b: tuple(a) for b, a in preds.items()})
        object.__setattr__(self, "_succs", {a: tuple(b) for a, b in succs.items()})

    def plan(self, plan_id: int) -> Plan:
        try:
            return self._by_id[plan_id]
        except KeyError:
            raise UnknownTask(f"no plan {plan_id}") from None

    def task(self, task_id: TaskId) -> Task:
        return self.plan(task_id[0]).task(task_id[1])

    def iter_tasks(self):
        for plan in self.plans:
            yield from plan.tasks

    def predecessors_of_plan(self, plan_id: int) -> tuple[int, ...]:
        """Ids of the plans with a DAG edge into ``plan_id``."""
        return self._preds.get(plan_id, ())

    def successors_of_plan(self, plan_id: int) -> tuple[int, ...]:
        """Ids of the plans with a DAG edge from ``plan_id``."""
        return self._succs.get(plan_id, ())


build_instance = Instance


_NOTHING: frozenset = frozenset()


class Event(NamedTuple):
    """A time instant of the schedule, with the tasks starting/completing there.

    ``usage`` holds exactly the resources occupied during the interval from
    this event to the next one.  Events are named tuples: immutable, cheap to
    build, and unpacked in field order by the writers.
    """

    time: int
    starting: frozenset[TaskId] = _NOTHING
    completing: frozenset[TaskId] = _NOTHING
    usage: frozenset[int] = _NOTHING


_new_event = tuple.__new__  # builds an Event without the generated __new__'s Python call
_NO_MARK = ((), (), (), ())  # the marks of a window start where nothing starts or completes


def event_list(schedule: Schedule, instance: Instance) -> tuple[Event, ...]:
    """The paper's event list of ``schedule``: one event at the window start and
    at every start and completion instant, swept once in time order.

    The schedule is read through :func:`placed_tasks`, so a malformed one
    raises.  One dict holds the marks of each instant: the ids started and
    completed there, and the resource sets taken and freed.  The held
    resources are a frozenset that changes by at most one difference and one
    union per instant and is the event's usage as it stands, with no copy;
    every empty field of every event is the same empty frozenset.  A
    ``congested`` benchmark schedule (about 186 instants) takes 0.41 ms,
    against 0.46 ms with a held set updated in place and copied at every
    event (best of 15, shared 2-core host).
    """
    marks: dict[int, tuple[list, list, list, list]] = {}  # ids started, ids completed, resources taken, freed
    for task, start in placed_tasks(schedule, instance):
        mark = marks.get(start)
        if mark is None:
            mark = marks[start] = ([], [], [], [])
        mark[0].append(task.id)
        mark[2].append(task.resources)
        end = start + task.processing_time
        mark = marks.get(end)
        if mark is None:
            mark = marks[end] = ([], [], [], [])
        mark[1].append(task.id)
        mark[3].append(task.resources)
    marks.setdefault(instance.window.start, _NO_MARK)
    events: list[Event] = []
    held = _NOTHING
    for t in sorted(marks):
        begun, ended, taken, freed = marks[t]
        if freed:  # resources are unary: a release and a take at t never clash
            held = held.difference(*freed) or _NOTHING
        if taken:
            held = held.union(*taken)
        started = frozenset(begun) if begun else _NOTHING
        completed = frozenset(ended) if ended else _NOTHING
        events.append(_new_event(Event, (t, started, completed, held)))
    return tuple(events)


@dataclass
class Schedule:
    """Assigned start times plus the sets of kept and dropped plans.

    ``scheduled_plans`` preserves commit order, which makes tie-breaking
    between equal-priority plans observable and keeps output deterministic.
    Completion times are always derived as ``start + processing_time`` and
    never stored.
    """

    starts: dict[TaskId, int] = field(default_factory=dict)
    scheduled_plans: list[int] = field(default_factory=list)
    discarded_plans: list[int] = field(default_factory=list)


def placed_tasks(schedule: Schedule, instance: Instance) -> list[tuple[Task, int]]:
    """Each task of ``instance`` that ``schedule`` starts, with its start, in instance order.

    Every reader of a schedule reads it through here, so the rule is written
    once.  It raises :class:`SchedulingError` when ``starts`` is not a dict, a
    plan list is not a list, a start, task id or listed plan id is not an
    ``int``, or a plan repeats within one list (a plan in both lists is left
    to the validator); then :class:`UnknownTask` for the first start, in
    ``starts`` order, of a task the instance lacks, then for the listed plans
    it lacks.
    """
    starts = schedule.starts
    if not isinstance(starts, dict):
        raise SchedulingError(f"starts must be a dict, got {type(starts).__name__}")
    lists = {"scheduled_plans": schedule.scheduled_plans, "discarded_plans": schedule.discarded_plans}
    for name, plan_ids in lists.items():
        if not isinstance(plan_ids, list):
            raise SchedulingError(f"{name} must be a list, got {type(plan_ids).__name__}")
    try:
        for task_id, start in starts.items():
            plan_id, index = task_id
            if not type(plan_id) is type(index) is type(start) is int:
                raise SchedulingError(f"start of task {task_id!r}: ids and start must be integers, got {start!r}")
    except (TypeError, ValueError):
        raise SchedulingError(f"task id {task_id!r}: ids and start must be integers") from None
    listed = [*schedule.scheduled_plans, *schedule.discarded_plans]
    for plan_id in listed:
        if type(plan_id) is not int:
            raise SchedulingError(f"listed plan ids must be integers, got {plan_id!r}")
    for name, plan_ids in lists.items():
        if len(set(plan_ids)) != len(plan_ids):
            i = next(i for i, plan_id in enumerate(plan_ids) if plan_id in plan_ids[:i])
            raise SchedulingError(f"{name}[{i}]: plan {plan_ids[i]} is listed twice")
    placed = [(task, start) for plan in instance.plans for task in plan.tasks if (start := starts.get(task.id)) is not None]
    if len(placed) != len(starts):
        known = {task.id for task, _ in placed}
        unknown = next(task_id for task_id in starts if task_id not in known)
        raise UnknownTask(f"schedule references unknown task {unknown}")
    unknown = set(listed).difference(instance._by_id)
    if unknown:
        raise UnknownTask(f"schedule lists unknown plans {sorted(unknown)}")
    return placed
