"""Benchmark instance generator: a 32-plan mission set and eight variants.

The base set models a sensor-mission workload: 32 plans over 12 unary
resources, with per-plan time windows, a handful of plan-level precedences
and serial pairs inside the four-task plans.  Scenario 1 is the base set
verbatim; the other scenarios relax or tighten it:

1. base set, window [0, 180]
2. every plan window widened to [0, 180]; plans chained by precedence
   (plan i precedes plan i+1 for all i)
3. releases staggered (plan k's release grows by (k-1) mod 7) so starts
   spread over many distinct instants
4. every priority-6 and priority-8 plan duplicated, except plan 22
5. every priority-1 and priority-3 plan duplicated
6. base set, window [0, 90]
7. base set, window [0, 270]
8. every plan duplicated

A duplicate keeps its original's data under id ``original + 100``; precedence
edges are copied between duplicates when both endpoints were duplicated.
"""

from __future__ import annotations

from .model import Instance, Plan, SchedulingError, Task, TimeWindow


class BadScenario(SchedulingError):
    """Scenario number that is not an int in 1..8."""


# (plan id, priority, resources, release, due, processing times, serial pairs)
# Task i runs on the i-th resource of the plan's resource list; every task of
# a plan shares the plan's [release, due] window; all lags are zero.
_BASE_ROWS: tuple[tuple[int, int, tuple[int, ...], int, int, tuple[int, ...], tuple[tuple[int, int], ...]], ...] = (
    (1, 3, (1, 2), 0, 180, (3, 3), ((1, 2),)),
    (2, 3, (3, 4), 0, 180, (4, 4), ()),
    (3, 3, (5,), 0, 180, (3,), ()),
    (4, 3, (6,), 0, 180, (3,), ()),
    (5, 3, (7,), 0, 180, (1,), ()),
    (6, 3, (8,), 0, 180, (1,), ()),
    (7, 1, (5, 9, 10, 11), 80, 160, (20, 20, 20, 20), ((3, 4),)),
    (8, 1, (5, 9, 10, 11), 40, 120, (20, 20, 20, 20), ((3, 4),)),
    (9, 1, (5, 9, 10, 11), 40, 120, (20, 20, 20, 20), ((3, 4),)),
    (10, 5, (1, 2, 10), 50, 80, (5, 5, 5), ((1, 2),)),
    (11, 5, (5, 9, 10, 11), 80, 120, (20, 20, 20, 20), ((3, 4),)),
    (12, 1, (5, 9, 10, 11), 0, 80, (20, 20, 20, 20), ((3, 4),)),
    (13, 5, (1, 2, 10), 0, 40, (5, 5, 5), ((1, 2),)),
    (14, 5, (5, 9, 10, 11), 40, 80, (20, 20, 20, 20), ((3, 4),)),
    (15, 6, (1, 2, 10), 0, 20, (5, 5, 5), ((1, 2),)),
    (16, 6, (5, 9, 10, 11), 20, 80, (20, 20, 20, 20), ((3, 4),)),
    (17, 8, (3, 4), 60, 120, (2, 2), ((1, 2),)),
    (18, 8, (3, 4), 60, 120, (2, 2), ((1, 2),)),
    (19, 8, (3, 4), 60, 120, (2, 2), ((1, 2),)),
    (20, 6, (1, 2, 10), 0, 20, (5, 5, 5), ((1, 2),)),
    (21, 6, (6, 9, 10, 11), 20, 60, (20, 20, 20, 20), ((3, 4),)),
    (22, 6, (14, 10), 30, 70, (2, 2), ()),
    (23, 1, (6, 9, 10, 11), 40, 90, (20, 20, 20, 20), ((3, 4),)),
    (24, 1, (6, 9, 10, 11), 80, 150, (20, 20, 20, 20), ((3, 4),)),
    (25, 1, (6, 9, 10, 11), 80, 130, (20, 20, 20, 20), ((3, 4),)),
    (26, 1, (6, 9, 10, 11), 130, 160, (20, 20, 20, 20), ((3, 4),)),
    (27, 4, (14, 10), 0, 180, (2, 2), ()),
    (28, 6, (1, 2, 10), 80, 120, (5, 5, 5), ((1, 2),)),
    (29, 6, (3, 4), 120, 140, (2, 2), ((1, 2),)),
    (30, 6, (14, 10), 120, 140, (2, 2), ()),
    (31, 1, (6, 9, 10, 11), 150, 190, (20, 20, 20, 20), ((3, 4),)),
    (32, 4, (3, 4), 120, 140, (2, 2), ((1, 2),)),
)

_BASE_EDGES: frozenset[tuple[int, int]] = frozenset({(10, 11), (13, 14), (15, 16), (20, 21), (28, 29)})

_DUPLICATE_OFFSET = 100

SCENARIOS = tuple(range(1, 9))


def _make_plan(plan_id, priority, resources, release, due, processing, serial_pairs) -> Plan:
    pred_of: dict[int, list[tuple[int, int]]] = {}
    for a, b in serial_pairs:
        pred_of.setdefault(b, []).append((a, 0))
    tasks = tuple(
        Task(plan_id, i, p, release, due, (resources[i - 1],), pred_of.get(i, ()))
        for i, p in enumerate(processing, start=1)
    )
    return Plan(id=plan_id, priority=priority, tasks=tasks)


def _duplicate(rows, edges, wanted) -> tuple[list, set[tuple[int, int]]]:
    """Append a copy (id + offset) of every row whose id is in ``wanted``."""
    rows = list(rows)
    duplicated = set()
    for row in list(rows):
        if row[0] in wanted:
            rows.append((row[0] + _DUPLICATE_OFFSET,) + row[1:])
            duplicated.add(row[0])
    new_edges = set(edges)
    for a, b in edges:
        if a in duplicated and b in duplicated:
            new_edges.add((a + _DUPLICATE_OFFSET, b + _DUPLICATE_OFFSET))
    return rows, new_edges


def generate_scenario(n: int) -> Instance:
    """Build benchmark scenario ``n`` (1..8)."""
    if type(n) is not int or n not in SCENARIOS:  # True == 1 and 2.0 == 2, yet neither is a scenario number
        raise BadScenario(f"scenario must be an int in 1..8, got {n!r}")
    rows = list(_BASE_ROWS)
    edges: set[tuple[int, int]] = set(_BASE_EDGES)
    window = TimeWindow(0, 180)

    if n == 2:
        rows = [(pid, prio, res, 0, 180, proc, pairs) for pid, prio, res, _r, _d, proc, pairs in rows]
        edges = {(rows[i][0], rows[i + 1][0]) for i in range(len(rows) - 1)}
    elif n == 3:
        rows = [
            (pid, prio, res, r + (pid - 1) % 7, d, proc, pairs)
            for pid, prio, res, r, d, proc, pairs in rows
        ]
    elif n == 4:
        rows, edges = _duplicate(rows, edges, {pid for pid, prio, *_ in rows if prio in (6, 8) and pid != 22})
    elif n == 5:
        rows, edges = _duplicate(rows, edges, {pid for pid, prio, *_ in rows if prio in (1, 3)})
    elif n == 6:
        window = TimeWindow(0, 90)
    elif n == 7:
        window = TimeWindow(0, 270)
    elif n == 8:
        rows, edges = _duplicate(rows, edges, {pid for pid, *_ in rows})

    return Instance([_make_plan(*row) for row in rows], plan_dag=edges, window=window)
