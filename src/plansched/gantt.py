"""Gantt rendering of a schedule, as fixed-width text or standalone SVG.

Both formats draw one row per resource with one bar per task over
``[start, start + p)``.  Output is a pure function of the inputs: rendering
the same schedule twice yields byte-identical documents.

A render costs work per bar, plus the characters it outputs: each task gets
one bar tuple, shared by the rows of all its resources, and a text row is
written as runs of ``.`` and ``#``, not tick by tick.
"""

from __future__ import annotations

from .model import Instance, Schedule, placed_tasks

_SVG_PX_PER_TICK = 6
_SVG_ROW_HEIGHT = 26
_SVG_LEFT_MARGIN = 64
_SVG_TOP_MARGIN = 30


def _bars_by_resource(schedule: Schedule, instance: Instance) -> dict[int, list[tuple[int, int, str]]]:
    """One sorted ``(start, end, label)`` row per resource.

    The schedule is read through :func:`plansched.model.placed_tasks`, as the
    writers read it: a start or id that is not an ``int`` or a plan listed
    twice in one list raises :class:`SchedulingError`, and a task or plan the
    instance does not have raises :class:`UnknownTask`.
    """
    bars: dict[int, list[tuple[int, int, str]]] = {rho: [] for rho in sorted(instance.resources)}
    for task, start in placed_tasks(schedule, instance):
        bar = (start, start + task.processing_time, f"J{task.plan_id}.{task.index}")
        for rho in task.resources:
            bars[rho].append(bar)
    for rows in bars.values():
        rows.sort()
    return bars


def render_gantt(schedule: Schedule, instance: Instance, fmt: str = "text") -> str:
    """Render ``schedule`` as ``text`` or ``svg``."""
    if fmt == "text":
        return _render_text(schedule, instance)
    if fmt == "svg":
        return _render_svg(schedule, instance)
    raise ValueError(f"unknown gantt format {fmt!r}")


def _render_text(schedule: Schedule, instance: Instance) -> str:
    w = instance.window
    span = w.end - w.start
    bars = _bars_by_resource(schedule, instance)
    lines = [f"window [{w.start},{w.end}]"]
    if not schedule.starts:
        return "\n".join(lines) + "\n"
    label_width = max(len(f"rho {rho}") for rho in bars)
    lines.append(" " * (label_width + 3) + (("|" + " " * 9) * (span // 10 + 1))[:span])
    for rho, rows in bars.items():
        line = [f"{f'rho {rho}':<{label_width}} | "]
        drawn = 0  # ticks [0, drawn) of the window are written
        for start, end, _label in rows:  # sorted by start: each bar extends the union or adds to it
            lo, hi = start - w.start, end - w.start
            if hi > span:
                hi = span
            if lo < drawn:
                lo = drawn
            if lo < hi:
                line.append("." * (lo - drawn) + "#" * (hi - lo))
                drawn = hi
        line.append("." * (span - drawn))
        if rows:
            line.append("  " + "  ".join([f"{label} [{start},{end})" for start, end, label in rows]))
        lines.append("".join(line))
    return "\n".join(lines) + "\n"


def _render_svg(schedule: Schedule, instance: Instance) -> str:
    w = instance.window
    bars = _bars_by_resource(schedule, instance)
    rows = sorted(bars)
    width = _SVG_LEFT_MARGIN + (w.end - w.start) * _SVG_PX_PER_TICK + 20
    height = _SVG_TOP_MARGIN + len(rows) * _SVG_ROW_HEIGHT + 10
    origin = _SVG_LEFT_MARGIN - w.start * _SVG_PX_PER_TICK  # the x of tick 0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<text x="4" y="14" font-family="monospace" font-size="12">window [{w.start},{w.end}]</text>',
    ]
    tick_step = max(1, (w.end - w.start) // 18)
    for t in range(w.start, w.end + 1, tick_step):
        x = origin + t * _SVG_PX_PER_TICK
        parts.append(
            f'<line x1="{x}" y1="{_SVG_TOP_MARGIN - 6}" x2="{x}" y2="{height - 10}" '
            'stroke="#cccccc" stroke-width="1"/>\n'
            f'<text x="{x}" y="{_SVG_TOP_MARGIN - 10}" font-family="monospace" font-size="9" '
            f'text-anchor="middle">{t}</text>'
        )
    for row, rho in enumerate(rows):
        y = _SVG_TOP_MARGIN + row * _SVG_ROW_HEIGHT
        parts.append(
            f'<text x="4" y="{y + 15}" font-family="monospace" font-size="11">rho {rho}</text>'
        )
        for start, end, label in bars[rho]:
            x = origin + start * _SVG_PX_PER_TICK
            parts.append(
                f'<rect x="{x}" y="{y + 4}" width="{(end - start) * _SVG_PX_PER_TICK}" '
                f'height="{_SVG_ROW_HEIGHT - 8}" fill="#7aa6d6" stroke="#2b4c73" stroke-width="1"/>\n'
                f'<text x="{x + 2}" y="{y + 16}" font-family="monospace" font-size="9">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
