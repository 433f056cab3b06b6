"""Layered benchmark of plansched: one command, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 60 --trace 0

One operation takes one instance through the whole ``plansched schedule``
path: JSON text, ``instance_from_dict``, ``build_schedule``,
``validate_schedule``, ``dumps_schedule`` (with the event list) and
``render_gantt`` as text and as svg; on ``desk`` also ``exact_max_weight``.
A single client waits for each reply (closed loop).  Every output is checked
with the independent validator, and every later pass over the pool must
reproduce the first pass byte for byte.

Times are reported at a fixed machine pace (see ``Pace``), so that other
load on a shared host does not move them.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each
operation untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/METRICS.md`` defines
every metric and which layer should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, make_pool

MODULES = ("model", "ordering", "engine", "serialize", "validate", "gantt", "oracle", "scenarios")
SETUP_REPEATS = 5
WARMUP_OPS = 2
MIN_PASSES = 3  # repeats of each instance before the run may end
ORACLE_NODE_BUDGET = 200_000  # desk instances have needed at most about 3 000
OUT_DIR = Path(__file__).resolve().parent / "out"
PACE_EVERY_S = 0.025  # time the reference kernel this often between operations
PACE_WINDOW = 21  # kernel times in the pace estimate
REFERENCE_S = 450e-6  # the reference kernel's time at the reported pace
# Back to back, with its table in cache, the kernel runs about 1.45x faster
# than between operations; this is its back-to-back time at the same pace.
BURST_REFERENCE_S = 310e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_ms_p50": "ms",
    "pipeline_ms_p90": "ms",
    "build_ms_p50": "ms",
    "build_ms_p90": "ms",
    "plans_per_s": "1/s",
    "objective_sum": "priority",
    "scheduled_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.copies": "count",
    "engine.copy_ms": "ms",
    "engine.copied_events": "count",
    "engine.idle_ms": "ms",
    "engine.latest_release_ms": "ms",
    "engine.groups": "count",
    "engine.group_ms": "ms",
    "engine.trials": "count",
    "engine.trial_yield": "ratio",
    "engine.task_calls": "count",
    "engine.task_ms": "ms",
    "engine.scan_steps": "count",
    "engine.rollbacks": "count",
    "engine.rollback_ms": "ms",
    "engine.build_self_ms": "ms",
    "engine.events_final": "count",
    "engine.doubling_ratio": "ratio",
    "ordering.ms": "ms",
    "ordering.topo_calls_per_build": "count",
    "serialize.parse_ms": "ms",
    "serialize.dump_ms": "ms",
    "serialize.out_bytes": "bytes",
    "validate.ms": "ms",
    "validate.violations": "count",
    "gantt.text_ms": "ms",
    "gantt.svg_ms": "ms",
    "gantt.bytes": "bytes",
    "oracle.ms": "ms",
    "oracle.nodes": "count",
    "oracle.limit_hits": "count",
    "scenarios.generate_ms": "ms",
    "trace.overhead": "ratio",
    "optimality_gap": "ratio",
    "oracle_ms_p50": "ms",
}


def import_program(src: Path) -> SimpleNamespace:
    """Import ``plansched`` afresh from ``src``; refuse any other copy."""
    for name in [m for m in sys.modules if m == "plansched" or m.startswith("plansched.")]:
        del sys.modules[name]
    package = importlib.import_module("plansched")
    if Path(package.__file__).resolve().parent != (src / "plansched").resolve():
        raise SystemExit(f"error: plansched was imported from {package.__file__}, not from {src}")
    modules = {"": package, **{m: importlib.import_module(f"plansched.{m}") for m in MODULES}}
    return SimpleNamespace(modules=modules, **{m: modules[m] for m in MODULES})


class Pace:
    """How fast this machine runs Python just now, relative to a reference.

    On a shared host, other load slows the same code by up to 1.6x for
    minutes at a time, longer than a run, so no repeat of an operation within
    a run escapes it.  The benchmark times ``kernel`` every PACE_EVERY_S
    between operations and multiplies each measured time by ``scale()``:
    REFERENCE_S over the median of the last PACE_WINDOW kernel times.
    Reported times are thus times at the pace at which the kernel takes
    REFERENCE_S.  The kernel calls no program code, so a change to the
    program moves scaled times by the same ratio as raw ones.

    The kernel is fixed interpreter work in two parts: ``random.Random``
    draws, which are Python-level calls, that index a table of about 1 MB,
    and an integer arithmetic loop.  Machine slow-downs differ in kind (some
    hit memory access more, some the arithmetic more), and no single kind of
    kernel tried (the two parts alone, draws without the table, object and
    dict building, an event-list insertion) followed the program through all
    of them.  The sum of the two parts did best on every workload.
    """

    def __init__(self):
        self.table = [list(range(i, i + 8)) for i in range(0, 40_000, 8)]
        self.recent: deque = deque(maxlen=PACE_WINDOW)
        self.taken: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.recent.append(self.last - t0)
        self.taken.append(self.last - t0)

    def kernel(self) -> int:
        rng, table, total = random.Random(1), self.table, 0
        for _ in range(300):
            total += table[rng.randrange(len(table))][3]
        for i in range(2000):
            total += i * i % 7
        return total

    def tick(self) -> None:
        if time.perf_counter() - self.last >= PACE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Scale for the operation about to run."""
        return REFERENCE_S / statistics.median(self.recent)

    def run_scale(self) -> float:
        """Scale for span totals, which are summed over the whole run."""
        return REFERENCE_S / statistics.median(self.taken)

    def burst(self) -> list[float]:
        """PACE_WINDOW kernel times taken back to back, outside the measurement."""
        times = []
        for _ in range(PACE_WINDOW):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return times


def run_op(prog, text: str, with_oracle: bool) -> SimpleNamespace:
    """One operation; only the calls into the program are inside the clock."""
    clock = time.perf_counter
    t0 = clock()
    instance = prog.serialize.instance_from_dict(json.loads(text))
    t1 = clock()
    result = prog.engine.build_schedule(instance)
    t2 = clock()
    report = prog.validate.validate_schedule(instance, result.schedule)
    out = prog.serialize.dumps_schedule(result.schedule, instance, result.events)
    chart_bytes = len(prog.gantt.render_gantt(result.schedule, instance, "text"))
    chart_bytes += len(prog.gantt.render_gantt(result.schedule, instance, "svg"))
    t3 = clock()
    oracle = None
    if with_oracle:
        oracle = prog.oracle.exact_max_weight(instance, node_limit=ORACLE_NODE_BUDGET, time_limit=None)
    t4 = clock()
    return SimpleNamespace(
        pipeline_s=t4 - t0,
        build_s=t2 - t1,
        oracle_s=t4 - t3,
        instance=instance,
        result=result,
        report=report,
        out=out,
        chart_bytes=chart_bytes,
        oracle=oracle,
    )


@dataclass
class Outcome:
    """What one checked operation leaves behind for the metrics."""

    plans: int
    scheduled: int
    objective: int
    optimum: int | None
    nodes: int
    digest: bytes
    out_bytes: int
    chart_bytes: int
    events: int
    violations: int
    errors: list[str]


def check(prog, op) -> Outcome:
    """Check one operation's outputs; failures are listed, not raised."""
    instance, result, report, oracle = op.instance, op.result, op.report, op.oracle
    errors = []
    if not report.feasible:
        errors.append(f"infeasible schedule: {report.violations[0]}")
    scheduled, discarded = result.scheduled_plans, result.discarded_plans
    if sorted(scheduled + discarded) != sorted(p.id for p in instance.plans):
        errors.append("scheduled and discarded plans do not partition the plan set")
    if oracle is not None:
        witness = prog.validate.validate_schedule(instance, oracle.witness)
        if oracle.time_limit_hit:
            errors.append(f"oracle hit its node budget of {ORACLE_NODE_BUDGET}")
        elif not witness.feasible or witness.objective != oracle.optimum:
            errors.append("oracle witness does not validate")
        elif report.objective > oracle.optimum:
            errors.append(f"engine objective {report.objective} above the optimum {oracle.optimum}")
    return Outcome(
        plans=len(instance.plans),
        scheduled=len(scheduled),
        objective=report.objective,
        optimum=oracle.optimum if oracle is not None else None,
        nodes=oracle.explored if oracle is not None else 0,
        digest=hashlib.sha256(op.out.encode("utf-8")).digest(),
        out_bytes=len(op.out.encode("utf-8")),
        chart_bytes=op.chart_bytes,
        events=len(result.events),
        violations=len(report.violations),
        errors=errors,
    )


@dataclass
class Setup:
    prog: SimpleNamespace
    texts: list[str]
    seconds: float
    generate_seconds: float


def set_up(src: Path, workload, seed: int, pace: Pace) -> Setup:
    """Import, generate the pool, encode it as JSON text and warm up.

    The times are scaled by the pace of kernel bursts just before and after.
    """
    before = pace.burst()
    t0 = time.perf_counter()
    prog = import_program(src)
    t1 = time.perf_counter()
    pool = make_pool(workload, seed, prog)
    t2 = time.perf_counter()
    texts = [prog.serialize.dumps_instance(instance) for instance in pool]
    for text in texts[:WARMUP_OPS]:
        try:
            check(prog, run_op(prog, text, workload.oracle))
        except Exception:  # counted when the measured pass meets it
            pass
    t3 = time.perf_counter()
    scale = BURST_REFERENCE_S / statistics.median(before + pace.burst())
    return Setup(prog, texts, scale * (t3 - t0), scale * (t2 - t1))


class Samples:
    """Pace-scaled times of every successful operation, in run order."""

    def __init__(self):
        self.pipeline: list[float] = []
        self.build: list[float] = []
        self.oracle: list[float] = []
        self.plans: list[int] = []

    def add(self, op, scale: float) -> None:
        self.pipeline.append(scale * op.pipeline_s)
        self.build.append(scale * op.build_s)
        self.oracle.append(scale * op.oracle_s)
        self.plans.append(len(op.instance.plans))


@dataclass
class Measurement:
    untraced: Samples
    traced: Samples
    half_build: list[float]  # every build of a half-size instance
    first: list[Outcome | None]  # pass 0, pool order
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    limit_hits: int = 0  # oracle budget hits in pass 0
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # traced calls and counters of pass 0
    traced_ops: int = 0
    traced_first: int = 0  # traced operations in pass 0


def measure(setup: Setup, workload, seconds: float, tracer: Tracer | None, half: list, pace: Pace) -> Measurement:
    """Pass over the pool until ``seconds`` have gone and MIN_PASSES are done.

    The first pass always completes: its outputs are the reference for every
    later pass and the base of the quality metrics.  With a tracer, each
    instance runs untraced and then traced, back to back; with ``half`` each
    step also times one build of a half-size instance.
    """
    prog, texts = setup.prog, setup.texts
    n = len(texts)
    m = Measurement(Samples(), Samples(), [], [None] * n)
    deadline = time.perf_counter() + seconds

    def attempt(i: int, samples: Samples) -> None:
        pace.tick()
        m.attempted += 1
        try:
            if samples is m.traced:
                m.traced_ops += 1
                with tracer.operation(m.attempted):
                    op = run_op(prog, texts[i], workload.oracle)
            else:
                op = run_op(prog, texts[i], workload.oracle)
            outcome = check(prog, op)
            if op.oracle is not None and op.oracle.time_limit_hit and m.passes == 0 and samples is m.untraced:
                m.limit_hits += 1
        except Exception as exc:  # a crash fails the operation, not the run
            outcome = None
            errors = [f"{type(exc).__name__}: {exc}"]
        else:
            reference = m.first[i] or outcome
            errors = outcome.errors + ([] if outcome.digest == reference.digest else ["output differs from pass 0"])
        if errors:
            m.failed += 1
            m.errors.append(f"instance {i}, pass {m.passes}: {errors[0]}")
            return
        samples.add(op, pace.scale())
        if m.first[i] is None:
            m.first[i] = outcome

    while True:
        if tracer is not None:
            tracer.keep = m.passes == 0
        for i in range(n):
            if m.passes >= MIN_PASSES and time.perf_counter() >= deadline:
                return m
            attempt(i, m.untraced)
            if tracer is not None:
                attempt(i, m.traced)
                m.traced_first += m.passes == 0
            if half:
                t0 = time.perf_counter()
                prog.engine.build_schedule(half[i])
                m.half_build.append(pace.scale() * (time.perf_counter() - t0))
        if tracer is not None and m.passes == 0:
            m.counts = {**tracer.calls, **tracer.counts}
        m.passes += 1


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quality(m: Measurement) -> dict:
    """Quality figures over pass 0: deterministic for a given seed."""
    first = [o for o in m.first if o is not None]
    optimum = sum(o.optimum for o in first if o.optimum is not None)
    desk = [o for o in first if o.optimum is not None]
    return {
        "objective_sum": sum(o.objective for o in first),
        "scheduled_share": ratio(sum(o.scheduled for o in first), sum(o.plans for o in first)),
        "optimality_gap": ratio(sum(o.optimum - o.objective for o in desk), optimum),
    }


def end_to_end(setups: list[tuple[float, float]], m: Measurement) -> dict:
    pipeline, build, q = m.untraced.pipeline, m.untraced.build, quality(m)
    plans = sum(m.untraced.plans)
    return {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "pipeline_ms_p50": 1000 * statistics.median(pipeline),
        "pipeline_ms_p90": 1000 * p90(pipeline),
        "build_ms_p50": 1000 * statistics.median(build),
        "build_ms_p90": 1000 * p90(build),
        "plans_per_s": ratio(plans, sum(build)),
        "objective_sum": q["objective_sum"],
        "scheduled_share": q["scheduled_share"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(setups: list[tuple[float, float]], m: Measurement, tracer: Tracer, pace: Pace) -> dict:
    c, n0, n_traced = m.counts, m.traced_first, m.traced_ops
    run_scale = pace.run_scale()
    first = [o for o in m.first if o is not None]

    def per_op(*names) -> float:
        return ratio(sum(c.get(name, 0) for name in names), n0)

    def ms(*names, table=tracer.total) -> float:
        return ratio(1000 * run_scale * sum(table[name] for name in names), n_traced)

    def mean(attr) -> float:
        return ratio(sum(getattr(o, attr) for o in first), len(first))

    oracle_ms = [1000 * x for x in m.untraced.oracle] if any(o.optimum is not None for o in first) else [0.0]
    untraced_build = statistics.median(m.untraced.build)
    return {
        "engine.copies": per_op("model.EventList.copy", "model.Schedule.copy"),
        "engine.copy_ms": ms("model.EventList.copy", "model.Schedule.copy"),
        "engine.copied_events": per_op("engine.copied_events"),
        "engine.idle_ms": ms("engine.idle_time_sum"),
        "engine.latest_release_ms": ms("engine._latest_release_on"),
        "engine.groups": per_op("engine.schedule_plan_set"),
        "engine.group_ms": ms("engine.schedule_plan_set"),
        "engine.trials": per_op("engine.trials"),
        "engine.trial_yield": ratio(c.get("engine.group_commits", 0), c.get("engine.trials", 0)),
        "engine.task_calls": per_op("engine.schedule_task"),
        "engine.task_ms": ms("engine.schedule_task"),
        "engine.scan_steps": per_op("model.EventList.next_after"),
        "engine.rollbacks": per_op("engine.rollback_plan"),
        "engine.rollback_ms": ms("engine.rollback_plan"),
        "engine.build_self_ms": ms("engine.build_schedule", table=tracer.self_time),
        "engine.events_final": mean("events"),
        "engine.doubling_ratio": ratio(untraced_build, statistics.median(m.half_build)) if m.half_build else 0.0,
        "ordering.ms": ms("ordering.topological_sort", "ordering.sort_plans", table=tracer.self_time),
        "ordering.topo_calls_per_build": ratio(c.get("ordering.topological_sort", 0), c.get("engine.build_schedule", 0)),
        "serialize.parse_ms": ms("serialize.instance_from_dict"),
        "serialize.dump_ms": ms("serialize.dumps_schedule"),
        "serialize.out_bytes": mean("out_bytes"),
        "validate.ms": ms("validate.validate_schedule"),
        "validate.violations": sum(o.violations for o in first),
        "gantt.text_ms": ms("gantt.text"),
        "gantt.svg_ms": ms("gantt.svg"),
        "gantt.bytes": mean("chart_bytes"),
        "oracle.ms": ms("oracle.exact_max_weight"),
        "oracle.nodes": mean("nodes"),
        "oracle.limit_hits": m.limit_hits,
        "scenarios.generate_ms": 1000 * statistics.median(generate for _, generate in setups),
        "trace.overhead": ratio(statistics.median(m.traced.build), untraced_build),
        "optimality_gap": quality(m)["optimality_gap"],
        "oracle_ms_p50": statistics.median(oracle_ms),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "plansched" / "__init__.py").is_file():
        print(f"error: no plansched sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    pace = Pace()
    setups = []  # (seconds, generate seconds); only the last set-up is kept alive
    for _ in range(SETUP_REPEATS):
        setup = set_up(src, workload, args.seed, pace)
        setups.append((setup.seconds, setup.generate_seconds))
    prog = setup.prog
    tracer = Tracer(prog.modules) if args.trace else None
    half = []
    if args.trace and workload.doubling:
        half = make_pool(workload, args.seed, prog, workload.params.halved())
    # Collections then scan only what operations allocate, as in a one-shot
    # CLI process, not the pool and the rest of the benchmark's own state.
    gc.collect()
    gc.freeze()
    m = measure(setup, workload, args.seconds, tracer, half, pace)

    sha = hashlib.sha256(b"".join(o.digest for o in m.first if o is not None)).hexdigest()
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {m.attempted} operations "
          f"in {m.passes} passes over {len(setup.texts)} instances")
    print(f"schedule_sha {sha}")
    print(f"pace: reference kernel median {1e6 * statistics.median(pace.taken):.1f} us over {len(pace.taken)} "
          f"timings; times are scaled to {1e6 * REFERENCE_S:.0f} us")
    for error in m.errors[:10]:
        print(f"failed: {error}")
    if args.trace:
        for name in tracer.absent:
            print(f"absent: {name}")
        spans = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans}, {tracer.dropped} dropped")
        metrics, units = per_layer(setups, m, tracer, pace), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(setups, m), END_TO_END_UNITS
        q = quality(m)
        extras = {"failed_share": (ratio(m.failed, m.attempted), "ratio")}
        if workload.oracle:
            extras["optimality_gap"] = (q["optimality_gap"], "ratio")
            extras["oracle_ms_p50"] = (1000 * statistics.median(m.untraced.oracle), "ms")
        for name, (value, unit) in extras.items():
            print(f"  {name:<30} {value:>14.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
