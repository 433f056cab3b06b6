"""Golden schedules and charts: a refactor must not change a single byte.

``tests/golden/schedules.json`` maps every ``<instance>/<config>`` name to the
sha256 of ``dumps_schedule(schedule, instance, events)``.  The corpus is the
eight scenarios, the three bundled examples and 300 random draws from a fixed
seed (independent of ``PLANSCHED_SEED``), each under two engine configs.
``tests/golden/gantt.json`` maps ``<instance>/<format>`` to the sha256 of
``render_gantt`` for the default-config schedule of every instance of that
corpus, as text and as svg.  Regenerate both files only for a deliberate,
recorded change of the output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from plansched import SCENARIOS, build_schedule, dumps_schedule, generate_scenario, render_gantt
from plansched.data import load_bundled
from conftest import random_instance

GOLDEN = Path(__file__).resolve().parent / "golden" / "schedules.json"
GOLDEN_GANTT = GOLDEN.with_name("gantt.json")
CONFIGS = {
    "default": {},
    "strict": {"strict_plan_precedence": True},
}
EXAMPLES = ("example1", "example2", "idle_time")
RANDOM_SEED = 20261018
RANDOM_DRAWS = 300


def _instances():
    for n in SCENARIOS:
        yield f"scenario{n}", generate_scenario(n)
    for name in EXAMPLES:
        yield name, load_bundled(f"{name}.json")
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_DRAWS):
        yield f"random{i:03d}", random_instance(rng, max_plans=8, horizon=30)


def schedule_digests() -> dict[str, str]:
    digests = {}
    for name, instance in _instances():
        for config_name, config in CONFIGS.items():
            result = build_schedule(instance, **config)
            text = dumps_schedule(result.schedule, instance, result.events)
            digests[f"{name}/{config_name}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def gantt_digests() -> dict[str, str]:
    digests = {}
    for name, instance in _instances():
        schedule = build_schedule(instance).schedule
        for fmt in ("text", "svg"):
            text = render_gantt(schedule, instance, fmt)
            digests[f"{name}/{fmt}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_schedules_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = schedule_digests()
    assert sorted(actual) == sorted(expected), "the golden corpus and the generated one name different instances"
    differing = [name for name in expected if actual[name] != expected[name]]
    assert not differing, f"{len(differing)} schedules differ from the golden output: {', '.join(differing[:20])}"


def test_gantt_charts_match_golden_digests():
    expected = json.loads(GOLDEN_GANTT.read_text(encoding="utf-8"))
    actual = gantt_digests()
    assert sorted(actual) == sorted(expected), "the golden charts and the generated ones name different instances"
    differing = [name for name in expected if actual[name] != expected[name]]
    assert not differing, f"{len(differing)} charts differ from the golden output: {', '.join(differing)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(schedule_digests(), indent=1) + "\n", encoding="utf-8")
    GOLDEN_GANTT.write_text(json.dumps(gantt_digests(), indent=1) + "\n", encoding="utf-8")
