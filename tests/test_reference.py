"""The engine against the reference model on random instances."""

import random

from plansched import build_schedule, engine
from conftest import base_seed, random_instance
from reference import reference_build

CONFIGS = (
    {"strict_plan_precedence": False},
    {"strict_plan_precedence": True},
)


def _assert_matches_reference(instance) -> int:
    """Build under every config, compare with the reference; count builds with discards."""
    discards = 0
    for config in CONFIGS:
        schedule = build_schedule(instance, **config).schedule
        starts, scheduled, discarded = reference_build(instance, config["strict_plan_precedence"])
        assert schedule.starts == starts, (instance, config)
        assert schedule.scheduled_plans == scheduled, (instance, config)
        assert schedule.discarded_plans == discarded, (instance, config)
        discards += bool(discarded)
    return discards


def test_engine_matches_reference_model():
    rng = random.Random(base_seed() + 30)
    groups = discards = 0
    for _ in range(1000):
        instance = random_instance(rng, max_plans=8, horizon=30)
        discards += _assert_matches_reference(instance)
        priorities = [p.priority for p in instance.plans]
        groups += len(priorities) > len(set(priorities))
    assert groups > 300 and discards > 300  # equal priorities and failures both occur


def test_engine_matches_reference_model_on_large_groups(monkeypatch):
    # 10-16 plans of one priority, few of them impossible, and a sparse plan
    # DAG: groups large enough that kept trials are read again, patched and
    # dropped after commits
    rng = random.Random(base_seed() + 31)
    kept = patched = dropped = discards = 0
    commit = engine._commit

    def spy(plan, fitted, s_w, busy, trials, watch):
        # every trial kept before a commit is afterwards kept as it was,
        # patched (a lower idle sum) or dropped
        nonlocal kept, patched, dropped
        before = [(plan_id, trial, trial[0]) for plan_id, trial in trials.items()]
        commit(plan, fitted, s_w, busy, trials, watch)
        for plan_id, trial, idle in before:
            if trials.get(plan_id) is not trial:
                dropped += 1
            elif trial[0] != idle:
                patched += 1
            else:
                kept += 1

    monkeypatch.setattr(engine, "_commit", spy)
    for _ in range(450):  # 900 builds under the two configs
        instance = random_instance(
            rng,
            min_plans=10,
            max_plans=16,
            horizon=60,
            n_resources=8,
            edge_prob=0.05,
            impossible_prob=0.05,
            priorities=(1, 1),
        )
        discards += _assert_matches_reference(instance)
    # a kept or patched trial is read in the next round; a dropped one is re-run
    assert kept > 1000 and patched > 1000 and dropped > 1000 and discards > 300, (kept, patched, dropped, discards)
