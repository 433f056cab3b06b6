import pytest

from plansched import (
    GLOBAL_WINDOW,
    INTRA_PLAN_PRECEDENCE,
    PARTIAL_PLAN,
    PLAN_ORDERING,
    RESOURCE_OVERLAP,
    TEMPORAL_WINDOW,
    TIME_LAG,
    Schedule,
    TimeWindow,
    build_instance,
    build_schedule,
    objective,
    validate_schedule,
)
from conftest import make_plan


def _kinds(report):
    return {v.kind for v in report.violations}


def test_example1_schedule_is_feasible(example1):
    schedule = Schedule(starts={(1, 1): 2, (2, 1): 3, (2, 2): 5})
    report = validate_schedule(example1, schedule)
    assert report.feasible
    assert report.objective == 3  # priorities 2 + 1


def test_example1_early_successor_is_flagged(example1):
    schedule = Schedule(starts={(1, 1): 2, (2, 1): 3, (2, 2): 4})
    report = validate_schedule(example1, schedule)
    assert not report.feasible
    kinds = _kinds(report)
    assert kinds & {INTRA_PLAN_PRECEDENCE, TIME_LAG}
    assert RESOURCE_OVERLAP in kinds  # [4,6) meets [2,5) on resource 1


def test_empty_schedule_feasible(example1):
    report = validate_schedule(example1, Schedule())
    assert report.feasible
    assert report.objective == 0


def test_objective_sums_fully_placed_plans():
    instance = build_instance(
        [
            make_plan(1, 3, [(1, 1, 0, 5, {1}, [])]),
            make_plan(17, 8, [(1, 1, 0, 5, {2}, [])]),
        ],
        window=TimeWindow(0, 10),
    )
    schedule = Schedule(starts={(1, 1): 0, (17, 1): 0})
    assert objective(instance, schedule) == 11
    assert objective(instance, Schedule()) == 0


def _tight_instance():
    # two tasks back to back on one resource, zero slack anywhere
    return build_instance(
        [
            make_plan(1, 1, [(1, 3, 2, 5, {1}, [])]),
            make_plan(2, 1, [(1, 2, 5, 7, {1}, [])]),
        ],
        window=TimeWindow(2, 7),
    )


@pytest.mark.parametrize(
    "starts, expected_kind",
    [
        ({(1, 1): 1, (2, 1): 5}, TEMPORAL_WINDOW),  # before release (and window)
        ({(1, 1): 3, (2, 1): 5}, TEMPORAL_WINDOW),  # completion 6 > due 5
        ({(1, 1): 2, (2, 1): 6}, TEMPORAL_WINDOW),  # completion 8 > due 7
        ({(1, 1): 2, (2, 1): 4}, RESOURCE_OVERLAP),  # [4,6) overlaps [2,5)
    ],
)
def test_single_tick_mutations_flag_the_right_kind(starts, expected_kind):
    instance = _tight_instance()
    report = validate_schedule(instance, Schedule(starts=starts))
    assert not report.feasible
    assert expected_kind in _kinds(report)


def test_mutation_outside_global_window():
    instance = build_instance(
        [make_plan(1, 1, [(1, 2, 0, 20, {1}, [])])], window=TimeWindow(2, 7)
    )
    report = validate_schedule(instance, Schedule(starts={(1, 1): 6}))
    assert GLOBAL_WINDOW in _kinds(report)
    report = validate_schedule(instance, Schedule(starts={(1, 1): 1}))
    assert GLOBAL_WINDOW in _kinds(report)


def test_time_lag_separated_from_precedence():
    instance = build_instance(
        [make_plan(1, 1, [(1, 2, 0, 10, {1}, []), (2, 2, 0, 10, {2}, [(1, 3)])])],
        window=TimeWindow(0, 10),
    )
    # predecessor completes at 2; start at 3 honours precedence but not the lag
    report = validate_schedule(instance, Schedule(starts={(1, 1): 0, (1, 2): 3}))
    assert _kinds(report) == {TIME_LAG}
    report = validate_schedule(instance, Schedule(starts={(1, 1): 0, (1, 2): 1}))
    assert _kinds(report) == {INTRA_PLAN_PRECEDENCE}
    report = validate_schedule(instance, Schedule(starts={(1, 1): 0, (1, 2): 5}))
    assert report.feasible
    # the same plan with its successor given first: the reports do not change
    reordered = build_instance(
        [make_plan(1, 1, [(2, 2, 0, 10, {2}, [(1, 3)]), (1, 2, 0, 10, {1}, [])])],
        window=TimeWindow(0, 10),
    )
    assert [task.index for task in reordered.plan(1).tasks] == [1, 2]
    report = validate_schedule(reordered, Schedule(starts={(1, 2): 3, (1, 1): 0}))
    assert _kinds(report) == {TIME_LAG}
    report = validate_schedule(reordered, Schedule(starts={(1, 2): 1, (1, 1): 0}))
    assert _kinds(report) == {INTRA_PLAN_PRECEDENCE}
    report = validate_schedule(reordered, Schedule(starts={(1, 2): 5, (1, 1): 0}))
    assert report.feasible


def test_partial_plan_detection(example1):
    report = validate_schedule(example1, Schedule(starts={(2, 1): 3}))
    assert _kinds(report) == {PARTIAL_PLAN}
    # a placed successor of an unplaced task: partial, not a precedence breach
    report = validate_schedule(example1, Schedule(starts={(2, 2): 5}))
    assert _kinds(report) == {PARTIAL_PLAN}
    # declared sets must agree with the starts
    report = validate_schedule(example1, Schedule(starts={}, scheduled_plans=[1]))
    assert _kinds(report) == {PARTIAL_PLAN}
    report = validate_schedule(
        example1, Schedule(starts={(1, 1): 2}, discarded_plans=[1])
    )
    assert PARTIAL_PLAN in _kinds(report)


def test_plan_ordering_is_a_warning_not_a_violation():
    instance = build_instance(
        [
            make_plan(1, 5, [(1, 2, 4, 10, {1}, [])]),
            make_plan(2, 1, [(1, 2, 0, 10, {2}, [])]),
        ],
        plan_dag={(1, 2)},
        window=TimeWindow(0, 10),
    )
    schedule = Schedule(starts={(1, 1): 4, (2, 1): 0})
    report = validate_schedule(instance, schedule)
    assert report.feasible
    assert [w.kind for w in report.warnings] == [PLAN_ORDERING]


def test_engine_output_validates(example2, idle_example):
    for instance in (example2, idle_example):
        result = build_schedule(instance)
        report = validate_schedule(instance, result.schedule)
        assert report.feasible
        assert report.objective == objective(instance, result.schedule)
