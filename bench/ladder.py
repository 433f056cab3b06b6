"""Scale ladders of the engine: build time and fits per rung, as one JSON file.

Run from the repository root:

    python3 bench/ladder.py --out BENCH_37.json
    python3 bench/ladder.py --src parent=../parent/src --src change=src --out BENCH_37.json
    python3 bench/ladder.py --rungs 2 --out ladder.json   # the first two rungs of each ladder

Each ``--src LABEL=PATH`` names a ``src`` directory holding a ``plansched``
package; the default is this checkout's ``src`` labelled ``change``.  Every
source runs every ladder in its own import of the package.  The ladders:

- ``random``: the benchmark's generator (``perfbench/workloads.py``, read
  only) at ``Params(K, 12, 6, 4K, 4, 20, 1/3, 0.5, 2)`` with rng
  ``"ladder:K"``, six priority levels, so groups of about K/6 plans;
  K = 32 ... 8192.
- ``chain``: K two-task plans of priority 1 with window and due ``[0, 25K]``
  and rng ``Random(K)``: ``p = randint(10, 20)`` on resource 1, then
  ``p = randint(1, 5)`` on resource 2 after it.  Every commit overlaps every
  kept trial, so it takes ``K(K+1)/2`` fits; K = 64 ... 1024.
- ``task_unchained`` and ``task_chained``: one plan of ``n`` one-tick tasks on
  resource 1, window and due ``[0, 10n]``, each task after the first waiting
  for the one before it in the chained form; n = 500 ... 8000.

Per rung the file records the build time, in-process best of ``REPEATS``
builds of one instance, the slope of log time over log size from the rung
before, the fits (``engine._fit_plan`` calls, counted by wrapping it for one
more build) and the plans scheduled.  Once a ladder's next rung is predicted
to take more than ``SKIP_OVER_S`` per build (the last build time times the
growth from the rung before it), that rung and the larger ones are recorded
as skipped.  The file names the host the times were taken on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py and workloads.py, read only)
import workloads  # noqa: E402

REPEATS = 3
SKIP_OVER_S = 10.0


def random_rung(model, k):
    params = workloads.Params(k, 12, 6, 4 * k, 4, 20, 1 / 3, 0.5, 2)
    return workloads.random_instance(random.Random(f"ladder:{k}"), params, model)


def chain_rung(model, k):
    rng = random.Random(k)
    plans = []
    for plan_id in range(1, k + 1):
        first = model.Task(plan_id, 1, rng.randint(10, 20), 0, 25 * k, {1})
        second = model.Task(plan_id, 2, rng.randint(1, 5), 0, 25 * k, {2}, [(1, 0)])
        plans.append(model.Plan(plan_id, 1, (first, second)))
    return model.build_instance(plans, window=model.TimeWindow(0, 25 * k))


def task_rung(model, n, chained):
    tasks = tuple(
        model.Task(1, index, 1, 0, 10 * n, {1}, [(index - 1, 0)] if chained and index > 1 else [])
        for index in range(1, n + 1)
    )
    return model.build_instance([model.Plan(1, 1, tasks)], window=model.TimeWindow(0, 10 * n))


LADDERS = {
    "random": (random_rung, (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)),
    "chain": (chain_rung, (64, 128, 256, 512, 1024)),
    "task_unchained": (lambda model, n: task_rung(model, n, False), (500, 1000, 2000, 4000, 8000)),
    "task_chained": (lambda model, n: task_rung(model, n, True), (500, 1000, 2000, 4000, 8000)),
}


def run_rung(prog, instance) -> dict:
    build = prog.engine.build_schedule
    best = math.inf
    for _ in range(REPEATS):
        began = time.perf_counter()
        build(instance)
        best = min(best, time.perf_counter() - began)
    fits = 0
    fit_plan = prog.engine._fit_plan

    def counted(*args):
        nonlocal fits
        fits += 1
        return fit_plan(*args)

    prog.engine._fit_plan = counted
    try:
        result = build(instance)
    finally:
        prog.engine._fit_plan = fit_plan
    return {"build_s": round(best, 6), "fits": fits, "scheduled": len(result.scheduled_plans)}


def run_ladder(prog, make, sizes) -> list[dict]:
    rungs: list[dict] = []
    timed: list[tuple[int, float]] = []  # (size, build_s) of the rungs run so far
    for size in sizes:
        if len(timed) >= 2:
            (n0, t0), (n1, t1) = timed[-2:]
            predicted = t1 * (t1 / t0) ** (math.log(size / n1) / math.log(n1 / n0))
            if predicted > SKIP_OVER_S:
                rungs.append({"size": size, "skipped": f"predicted {predicted:.0f} s per build"})
                continue
        rung = {"size": size, **run_rung(prog, make(prog.model, size))}
        if timed:
            n0, t0 = timed[-1]
            rung["slope"] = round(math.log(rung["build_s"] / t0) / math.log(size / n0), 2)
        timed.append((size, rung["build_s"]))
        rungs.append(rung)
        print(f"  {rung}", flush=True)
    return rungs


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform(), "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH", help="a plansched source tree (repeatable)")
    parser.add_argument("--rungs", type=int, default=None, help="run only the first N rungs of each ladder")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    sources = {}
    for item in args.src or [f"change={ROOT / 'src'}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            parser.error(f"--src takes LABEL=PATH, got {item!r}")
        if not (Path(path) / "plansched" / "__init__.py").is_file():
            parser.error(f"no plansched sources under {path}")
        sources[label] = Path(path)
    doc = {
        "host": host(),
        "method": f"in-process build_schedule, best of {REPEATS} builds of one instance per rung; fits are "
        f"engine._fit_plan calls in one more build; a rung predicted over {SKIP_OVER_S:.0f} s per build is skipped",
        "sources": {},
    }
    for label, src in sources.items():
        sys.path.insert(0, str(src))
        try:
            prog = run.import_program(src)  # plansched afresh from src, refusing any other copy
        finally:
            sys.path.remove(str(src))
        ladders = {}
        for name, (make, sizes) in LADDERS.items():
            print(f"{label} {name}", flush=True)
            ladders[name] = run_ladder(prog, make, sizes[: args.rungs])
        doc["sources"][label] = {"ladders": ladders}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
