"""Command-line interface.

Subcommands: ``schedule`` builds a schedule for an instance file, ``validate``
checks a schedule file against an instance file, and ``oracle`` computes the
exact optimum of a small instance file.

Exit codes: 0 success, 1 a validated schedule is infeasible, 2 usage or
input errors (missing files, malformed documents).
"""

from __future__ import annotations

import argparse
import sys

from .engine import build_schedule
from .gantt import render_gantt
from .model import SchedulingError
from .oracle import DEFAULT_NODE_LIMIT, exact_max_weight
from .serialize import emit_schedule, parse_instance, parse_schedule
from .validate import validate_schedule


def _node_limit(text: str) -> int:
    """The ``--node-limit`` value: an ``int`` of 0 or more (0 is an empty budget)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plansched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="build a schedule for an instance file")
    p_sched.set_defaults(handler=_cmd_schedule)
    p_sched.add_argument("instance")
    p_sched.add_argument("--out", help="write the schedule document here")
    p_sched.add_argument("--gantt", help="write a gantt rendering here")
    p_sched.add_argument("--gantt-format", choices=["text", "svg"], default="text")
    p_sched.add_argument("--strict-plan-precedence", action="store_true")
    p_sched.add_argument("--debug-events", action="store_true", help="include the event list in --out")

    p_val = sub.add_parser("validate", help="check a schedule file against an instance file")
    p_val.set_defaults(handler=_cmd_validate)
    p_val.add_argument("instance")
    p_val.add_argument("schedule")

    p_oracle = sub.add_parser("oracle", help="exact optimum for a small instance file")
    p_oracle.set_defaults(handler=_cmd_oracle)
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--node-limit", type=_node_limit, default=DEFAULT_NODE_LIMIT)
    return parser


def _cmd_schedule(args) -> int:
    instance = parse_instance(args.instance)
    result = build_schedule(instance, strict_plan_precedence=args.strict_plan_precedence)
    report = validate_schedule(instance, result.schedule)
    print(
        f"scheduled {len(result.scheduled_plans)}/{len(instance.plans)} plans, "
        f"objective {report.objective}"
    )
    if args.out:
        emit_schedule(result.schedule, instance, args.out, events=result.events if args.debug_events else None)
    if args.gantt:
        with open(args.gantt, "w", encoding="utf-8") as fh:
            fh.write(render_gantt(result.schedule, instance, args.gantt_format))
    if not report.feasible:  # engine output always validates; kept as a safety net
        for v in report.violations:
            print(f"violation {v.kind}: plan {v.plan} task {v.task}: {v.detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    instance = parse_instance(args.instance)
    schedule = parse_schedule(args.schedule)
    report = validate_schedule(instance, schedule)
    for v in report.violations:
        print(f"violation {v.kind}: plan {v.plan} task {v.task}: {v.detail}")
    for v in report.warnings:
        print(f"warning {v.kind}: plan {v.plan}: {v.detail}")
    print(f"{'feasible' if report.feasible else 'infeasible'}, objective {report.objective}")
    return 0 if report.feasible else 1


def _cmd_oracle(args) -> int:
    instance = parse_instance(args.instance)
    result = exact_max_weight(instance, node_limit=args.node_limit)
    # a tripped search only knows a feasible value, not that none is higher
    print(f"{'lower bound' if result.time_limit_hit else 'optimum'} {result.optimum}")
    print(f"plans {result.witness.scheduled_plans}")
    print(f"explored {result.explored} nodes{' (limit hit)' if result.time_limit_hit else ''}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, SchedulingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
