import pytest

from plansched import BadScenario, generate_scenario

# expected plan and task counts per scenario
CARDINALITIES = {
    1: (32, 91),
    2: (32, 91),
    3: (32, 91),
    4: (42, 118),
    5: (47, 135),
    6: (32, 91),
    7: (32, 91),
    8: (64, 182),
}


@pytest.mark.parametrize("n", sorted(CARDINALITIES))
def test_cardinalities(n):
    instance = generate_scenario(n)
    plans, tasks = CARDINALITIES[n]
    assert len(instance.plans) == plans
    assert sum(p.task_count for p in instance.plans) == tasks


@pytest.mark.parametrize("n, end", [(1, 180), (6, 90), (7, 270), (8, 180)])
def test_windows(n, end):
    instance = generate_scenario(n)
    assert instance.window.start == 0
    assert instance.window.end == end


def test_scenario_1_base_facts():
    instance = generate_scenario(1)
    assert instance.plan_dag == {(10, 11), (13, 14), (15, 16), (20, 21), (28, 29)}
    plan7 = instance.plan(7)
    assert plan7.priority == 1
    assert [sorted(t.resources) for t in plan7.tasks] == [[5], [9], [10], [11]]
    assert [t.processing_time for t in plan7.tasks] == [20, 20, 20, 20]
    assert all(t.release == 80 and t.due == 160 for t in plan7.tasks)
    assert plan7.task(4).predecessors == ((3, 0),)
    plan22 = instance.plan(22)
    assert plan22.priority == 6 and [sorted(t.resources) for t in plan22.tasks] == [[14], [10]]


def test_scenario_2_uniform_windows_and_chain():
    instance = generate_scenario(2)
    assert all(t.release == 0 and t.due == 180 for t in instance.iter_tasks())
    assert instance.plan_dag == {(i, i + 1) for i in range(1, 32)}


def test_scenario_3_staggers_releases():
    base = {p.id: p for p in generate_scenario(1).plans}
    for plan in generate_scenario(3).plans:
        offset = (plan.id - 1) % 7
        for task in plan.tasks:
            assert task.release == base[plan.id].task(task.index).release + offset
            assert task.due == base[plan.id].task(task.index).due


def test_scenario_4_duplicates_high_priorities():
    instance = generate_scenario(4)
    ids = {p.id for p in instance.plans}
    duplicated = {pid - 100 for pid in ids if pid > 100}
    assert duplicated == {15, 16, 17, 18, 19, 20, 21, 28, 29, 30}
    for pid in duplicated:
        original = instance.plan(pid)
        copy = instance.plan(pid + 100)
        assert copy.priority == original.priority
        assert [(t.index, t.processing_time, t.release, t.due, t.resources) for t in copy.tasks] == [
            (t.index, t.processing_time, t.release, t.due, t.resources) for t in original.tasks
        ]
    assert (115, 116) in instance.plan_dag
    assert (128, 129) in instance.plan_dag


def test_scenario_5_duplicates_low_priorities():
    instance = generate_scenario(5)
    duplicated = {p.id - 100 for p in instance.plans if p.id > 100}
    assert duplicated == {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 23, 24, 25, 26, 31}


def test_scenario_8_duplicates_everything():
    instance = generate_scenario(8)
    ids = {p.id for p in instance.plans}
    assert ids == set(range(1, 33)) | set(range(101, 133))
    # precedence edges are mirrored between the duplicates
    assert {(a, b) for a, b in instance.plan_dag if a > 100} == {
        (110, 111), (113, 114), (115, 116), (120, 121), (128, 129)
    }


@pytest.mark.parametrize("n", [0, 9, -1, True, 2.0, "1"])
def test_bad_scenario(n):
    with pytest.raises(BadScenario):
        generate_scenario(n)
