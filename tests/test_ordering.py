import pytest
from hypothesis import given, settings, strategies as st

from plansched import TimeWindow, build_instance, build_schedule, exact_max_weight, objective, sort_plans
from conftest import make_plan
from reference import plan_order


def _instance(priorities, edges=()):
    plans = [
        make_plan(pid, prio, [(1, 1, 0, 10, {100 + pid}, [])])
        for pid, prio in priorities
    ]
    return build_instance(plans, plan_dag=set(edges), window=TimeWindow(0, 10))


def test_no_edges_single_frontier():
    instance = _instance([(1, 1), (2, 1), (3, 1)])
    assert instance.frontier_of == {1: 0, 2: 0, 3: 0}


def test_chain_one_frontier_each():
    instance = _instance([(1, 1), (2, 1), (3, 1)], edges={(1, 2), (2, 3)})
    assert instance.frontier_of == {1: 0, 2: 1, 3: 2}


def test_diamond_layering():
    instance = _instance([(1, 1), (2, 1), (3, 1), (4, 1)], edges={(1, 2), (1, 3), (2, 4), (3, 4)})
    assert instance.frontier_of == {1: 0, 2: 1, 3: 1, 4: 2}


def test_longest_path_wins():
    # 1 -> 2 -> 4 and 3 -> 4: node 4 sits two steps deep even though 3 is a root
    instance = _instance([(1, 1), (2, 1), (3, 1), (4, 1)], edges={(1, 2), (2, 4), (3, 4)})
    assert instance.frontier_of == {1: 0, 3: 0, 2: 1, 4: 2}


def test_sort_by_priority_within_frontier():
    instance = _instance([(1, 3), (2, 8), (3, 1)])
    assert [p.id for p in sort_plans(instance)] == [2, 1, 3]
    assert [p.id for p, _ in plan_order(instance)] == [2, 1, 3]


def test_sort_stable_on_priority_ties():
    # benchmark excerpt: plans 13 (prio 5), 15 (prio 6), 20 (prio 6), no edges
    instance = _instance([(13, 5), (15, 6), (20, 6)])
    assert [p.id for p in sort_plans(instance)] == [15, 20, 13]


def test_precedence_beats_priority():
    instance = _instance([(10, 5), (11, 5)], edges={(10, 11)})
    assert [p.id for p in sort_plans(instance)] == [10, 11]
    instance = _instance([(10, 1), (11, 9)], edges={(10, 11)})
    assert [p.id for p in sort_plans(instance)] == [10, 11]


@pytest.mark.parametrize(
    "priorities, edges, expected",
    [
        # 3 waits only for 1, so it goes before the priority-1 root 2
        ([(1, 6), (2, 1), (3, 6)], {(1, 3)}, [1, 3, 2]),
        # equal priority: the lower frontier goes first
        ([(1, 5), (2, 5), (3, 5)], {(1, 3)}, [1, 2, 3]),
        # frontier 1 is [4 (prio 9), 3 (prio 2)]; 4 waits for the priority-1
        # root 2, and 3 may not jump ahead of its frontier's head
        ([(1, 8), (2, 1), (3, 2), (4, 9)], {(1, 3), (2, 4)}, [1, 2, 4, 3]),
        # sort_plans takes one frontier's heads without the heap while it keeps
        # the best ready head; the cases below end such a run, or do not.
        # 3 beats 2 after 1 is taken; frontier 1's next head 4 ties with
        # frontier 0's head 2, and the lower frontier goes first
        pytest.param([(1, 9), (2, 5), (3, 8), (4, 5)], {(1, 3), (1, 4)}, [1, 3, 2, 4], id="equal-lower-head-stops-run"),
        # taking 1 readies 4, which beats frontier 0's next head 2
        pytest.param([(1, 5), (2, 4), (3, 3), (4, 9)], {(1, 4)}, [1, 4, 2, 3], id="better-successor-stops-run"),
        # the successor readied by 1 is worse, so frontier 0 keeps its turn
        pytest.param([(1, 5), (2, 4), (3, 3), (4, 1)], {(1, 4)}, [1, 2, 3, 4], id="worse-successor-waits"),
        # frontier 1's next head 4 waits for 2: the run ends there, and 4
        # goes in once 2 is taken
        pytest.param([(1, 7), (2, 1), (3, 9), (4, 8)], {(1, 3), (2, 4)}, [1, 3, 2, 4], id="unready-head-ends-run"),
    ],
)
def test_priority_merge_of_frontiers(priorities, edges, expected):
    instance = _instance(priorities, edges)
    assert [p.id for p in sort_plans(instance)] == expected
    assert [p.id for p, _ in plan_order(instance)] == expected  # the rescan reference agrees


@pytest.mark.parametrize(
    "listed, order, discarded, total",
    [
        # 4 is ready once 1 is taken, but waits behind its frontier's head 3,
        # which waits for the priority-1 plan 2; then 2 takes 4's only slot
        ((1, 2, 3, 4), [1, 2, 3, 4], [4], 9),
        # listed the other way, 4 heads the frontier and goes in after 1
        ((1, 2, 4, 3), [1, 4, 2, 3], [2], 11),
    ],
)
def test_a_ready_plan_waits_behind_an_unready_head_of_equal_priority(listed, order, discarded, total):
    # the head rule: only each frontier's head may go next, so the input order
    # of two unrelated equal-priority plans decides which of 2 and 4 fits
    rows = {
        1: (5, [(1, 1, 0, 20, {1}, [])]),
        2: (1, [(1, 4, 0, 4, {2}, [])]),
        3: (3, [(1, 1, 0, 20, {3}, [])]),
        4: (3, [(1, 4, 0, 4, {2}, [])]),
    }
    plans = [make_plan(pid, *rows[pid]) for pid in listed]
    instance = build_instance(plans, plan_dag={(2, 3), (1, 4)}, window=TimeWindow(0, 20))
    assert instance.frontier_of == {1: 0, 2: 0, 3: 1, 4: 1}
    assert [p.id for p in sort_plans(instance)] == order
    schedule = build_schedule(instance).schedule
    assert schedule.discarded_plans == discarded
    assert objective(instance, schedule) == total
    assert exact_max_weight(instance).optimum == 11


def _brute_depth(n_plans, edges):
    """Longest edge distance from any root, by path enumeration."""
    def walk(node, seen):
        best = 0
        for a, b in edges:
            if a == node and b not in seen:
                best = max(best, 1 + walk(b, seen | {b}))
        return best

    preds = {b for _, b in edges}
    roots = [i for i in range(1, n_plans + 1) if i not in preds]
    depth = {i: 0 for i in range(1, n_plans + 1)}

    def down(node, d):
        depth[node] = max(depth[node], d)
        for a, b in edges:
            if a == node:
                down(b, d + 1)

    for r in roots:
        down(r, 0)
    return depth


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_dags_layering_and_sorting(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    edges = set()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if data.draw(st.booleans()):
                edges.add((a, b))
    priorities = [(i, data.draw(st.integers(min_value=1, max_value=4))) for i in range(1, n + 1)]
    instance = _instance(priorities, edges)

    for a, b in edges:
        assert instance.frontier_of[a] < instance.frontier_of[b]
    assert instance.frontier_of == _brute_depth(n, edges)

    ordered = sort_plans(instance)
    assert sorted(p.id for p in ordered) == list(range(1, n + 1))
    pos = {p.id: i for i, p in enumerate(ordered)}
    for a, b in edges:
        assert pos[a] < pos[b]
    # within each frontier, priorities never increase
    for f in set(instance.frontier_of.values()):
        prios = [p.priority for p in ordered if instance.frontier_of[p.id] == f]
        assert prios == sorted(prios, reverse=True)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_dags_merge_matches_rescan(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    edges = {
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if data.draw(st.booleans())
    }
    priorities = [(i, data.draw(st.integers(min_value=1, max_value=4))) for i in range(1, n + 1)]
    instance = _instance(priorities, edges)
    assert [p.id for p in sort_plans(instance)] == [p.id for p, _ in plan_order(instance)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dag_free_order_matches_rescan(data):
    # without a plan DAG sort_plans takes one stable sort; the rescan
    # reference merges its one frontier, so the two agree on ids in any
    # input order and on every tie of priority
    n = data.draw(st.integers(min_value=1, max_value=9))
    ids = data.draw(st.permutations(range(1, n + 1)))
    priorities = [(pid, data.draw(st.integers(min_value=1, max_value=3))) for pid in ids]
    instance = _instance(priorities)
    assert [p.id for p in sort_plans(instance)] == [p.id for p, _ in plan_order(instance)]


def test_empty_instance_orders_no_plan():
    instance = build_instance([], window=TimeWindow(0, 10))
    assert sort_plans(instance) == [] == plan_order(instance)
