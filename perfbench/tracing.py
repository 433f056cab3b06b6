"""Span tracing of the program from outside: functions are wrapped by name.

Nothing in the program is edited.  ``Tracer.install`` replaces each named
function in every ``plansched`` module that binds it (or the method on its
class) with a wrapper that records a span: name, start, end, parent span and
operation id.  A name the program no longer has is reported as absent.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _gantt_name(args, kwargs) -> str:
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "text")
    return f"gantt.{fmt}"


def _count_copied_events(tracer, args, _result) -> None:
    tracer.counts["engine.copied_events"] += len(args[0])


def _count_trial(tracer, _args, _result) -> None:
    if tracer.parent_name() == "engine.schedule_plan_set":
        tracer.counts["engine.trials"] += 1


def _count_group_commits(tracer, args, unscheduled) -> None:
    tracer.counts["engine.group_commits"] += len(args[0]) - len(unscheduled)


# (module, attribute, span name or function of the call's arguments, hook
# called with the arguments and result once the call has returned).  ``None``
# as span name counts calls without a span, for methods too hot to time.
TARGETS = (
    ("engine", "build_schedule", "engine.build_schedule", None),
    ("engine", "schedule_plan_set", "engine.schedule_plan_set", _count_group_commits),
    ("engine", "schedule_plan", "engine.schedule_plan", _count_trial),
    ("engine", "schedule_task", "engine.schedule_task", None),
    ("engine", "rollback_plan", "engine.rollback_plan", None),
    ("engine", "idle_time_sum", "engine.idle_time_sum", None),
    ("engine", "_latest_release_on", "engine._latest_release_on", None),
    ("model", "EventList.copy", "model.EventList.copy", _count_copied_events),
    ("model", "Schedule.copy", "model.Schedule.copy", None),
    ("model", "EventList.next_after", None, None),
    ("ordering", "topological_sort", "ordering.topological_sort", None),
    ("ordering", "sort_plans", "ordering.sort_plans", None),
    ("serialize", "instance_from_dict", "serialize.instance_from_dict", None),
    ("serialize", "dumps_schedule", "serialize.dumps_schedule", None),
    ("validate", "validate_schedule", "validate.validate_schedule", None),
    ("gantt", "render_gantt", _gantt_name, None),
    ("oracle", "exact_max_weight", "oracle.exact_max_weight", None),
)


class Tracer:
    """Aggregates (calls, inclusive and self seconds per span name) and raw spans.

    Self time is a span's duration minus the durations of its child spans.
    Raw spans are kept while ``keep`` is true, up to ``max_spans``.
    """

    def __init__(self, modules: dict, max_spans: int = 200_000):
        self.modules = modules  # module name -> module, "" for the package
        self.max_spans = max_spans
        self.keep = False
        self.op_id = -1
        self.spans: list = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # named counters other than calls
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list = []  # open frames: [name, child seconds, span index]
        self._wrappers: list = []  # (owner, attribute, original, wrapper)
        self._resolve()

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _resolve(self) -> None:
        for module_name, attr, span_name, hook in TARGETS:
            module = self.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (vars(owner).get(method) if isinstance(owner, type) else getattr(owner, method, None)) if owner else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if span_name is None:
                wrapper = self._counter(f"{module_name}.{attr}", original)
            else:
                wrapper = self._timed(span_name, original, hook)
            owners = [owner] if owner_name else [m for m in self.modules.values() if vars(m).get(method) is original]
            self._wrappers.extend((o, method, original, wrapper) for o in owners)

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._wrappers:
            setattr(owner, attr, original)

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn, hook):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            frame = [span_name, 0.0, self._reserve()]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, parent, start, end)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _reserve(self) -> int:
        if not self.keep:
            return -1
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return -1
        self.spans.append(None)
        return len(self.spans) - 1

    def _close(self, frame, parent, start, end) -> None:
        name, children, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.op_id)

    @contextmanager
    def operation(self, op_id: int):
        """Trace one whole operation, under a root span named ``op``."""
        self.op_id = op_id
        frame = ["op", 0.0, self._reserve()]
        self._stack.append(frame)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self._close(frame, -1, start, end)

    def write(self, path) -> None:
        """Write the kept spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
