"""The engine against the reference model on random instances."""

import random

from plansched import EngineConfig, build_schedule
from conftest import base_seed, random_instance
from reference import reference_build

CONFIGS = (
    EngineConfig(),
    EngineConfig(priority_descending=False),
    EngineConfig(strict_plan_precedence=True),
)


def test_engine_matches_reference_model():
    rng = random.Random(base_seed() + 30)
    groups = discards = 0
    for _ in range(1000):
        instance = random_instance(rng, max_plans=8, horizon=30)
        for config in CONFIGS:
            schedule = build_schedule(instance, config).schedule
            starts, scheduled, discarded = reference_build(
                instance, config.priority_descending, config.strict_plan_precedence
            )
            assert schedule.starts == starts, (instance, config)
            assert schedule.scheduled_plans == scheduled, (instance, config)
            assert schedule.discarded_plans == discarded, (instance, config)
            discards += bool(discarded)
        priorities = [p.priority for p in instance.plans]
        groups += len(priorities) > len(set(priorities))
    assert groups > 300 and discards > 300  # equal priorities and failures both occur
