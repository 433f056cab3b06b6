import pytest

from plansched import Schedule, TimeWindow, build_instance, build_schedule, render_gantt
from conftest import make_plan


def test_text_rows_per_resource(example1):
    schedule = Schedule(starts={(1, 1): 2, (2, 1): 3, (2, 2): 5})
    text = render_gantt(schedule, example1, "text")
    lines = text.splitlines()
    assert lines[0] == "window [0,10]"
    rho1 = next(line for line in lines if line.startswith("rho 1"))
    assert "J1.1 [2,5)" in rho1 and "J2.2 [5,7)" in rho1
    rho2 = next(line for line in lines if line.startswith("rho 2"))
    assert "J2.1 [3,5)" in rho2
    assert sum(1 for line in lines if line.startswith("rho ")) == 2


def test_text_empty_schedule_is_header_only(example1):
    text = render_gantt(Schedule(), example1, "text")
    assert text == "window [0,10]\n"


def test_text_bars_cover_intervals(example2):
    result = build_schedule(example2)
    text = render_gantt(result.schedule, example2, "text")
    rho3 = next(line for line in text.splitlines() if line.startswith("rho 3"))
    assert "J3.1 [2,5)" in rho3 and "J4.2 [6,7)" in rho3 and "J5.2 [9,10)" in rho3


def test_svg_structure_and_determinism(example2):
    result = build_schedule(example2)
    first = render_gantt(result.schedule, example2, "svg")
    second = render_gantt(result.schedule, example2, "svg")
    assert first == second
    assert first.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in first
    assert first.count("<rect ") == len(result.schedule.starts) + 1  # J5.2 spans two lanes
    assert "J5.2" in first


def test_unknown_format_rejected(example1):
    with pytest.raises(ValueError):
        render_gantt(Schedule(), example1, "png")


def test_text_bars_are_clipped_to_the_window(example1):
    # bars that cross or miss the window, as an infeasible schedule can have
    text = render_gantt(Schedule(starts={(1, 1): -2, (2, 2): 9}), example1, "text")
    assert text == "window [0,10]\n        |         \nrho 1 | #........#  J1.1 [-2,1)  J2.2 [9,11)\nrho 2 | ..........\n"
    text = render_gantt(Schedule(starts={(1, 1): -10, (2, 1): 12, (2, 2): 3}), example1, "text")
    assert text == (
        "window [0,10]\n        |         \nrho 1 | ...##.....  J1.1 [-10,-7)  J2.2 [3,5)\n"
        "rho 2 | ..........  J2.1 [12,14)\n"
    )
    # overlapping and nested bars on one resource draw their union
    three = build_instance(
        [make_plan(1, 1, [(1, 6, 0, 12, {1}, []), (2, 2, 0, 12, {1}, []), (3, 3, 0, 12, {1, 2}, [])])],
        window=TimeWindow(0, 12),
    )
    ruler = "window [0,12]\n        |         | \n"
    text = render_gantt(Schedule(starts={(1, 1): 1, (1, 2): 3, (1, 3): 6}), three, "text")
    assert text == ruler + (
        "rho 1 | .########...  J1.1 [1,7)  J1.2 [3,5)  J1.3 [6,9)\nrho 2 | ......###...  J1.3 [6,9)\n"
    )
    text = render_gantt(Schedule(starts={(1, 1): -2, (1, 2): 0, (1, 3): 10}), three, "text")
    assert text == ruler + (
        "rho 1 | ####......##  J1.1 [-2,4)  J1.2 [0,2)  J1.3 [10,13)\nrho 2 | ..........##  J1.3 [10,13)\n"
    )
    text = render_gantt(Schedule(starts={(1, 1): 5, (1, 2): 5, (1, 3): 2}), three, "text")
    assert text == ruler + (
        "rho 1 | ..#########.  J1.3 [2,5)  J1.2 [5,7)  J1.1 [5,11)\nrho 2 | ..###.......  J1.3 [2,5)\n"
    )
