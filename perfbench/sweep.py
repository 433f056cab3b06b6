"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/sweep.py --seeds 10 --trace-seed 1 --out perfbench/baseline.json

Each run is a fresh process (``BENCHMARK.json``'s command).  For every
end-to-end metric the summary holds the values per seed, their median, their
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``, which is flagged when it exceeds a third of the
metric's bound.  ``--trace-seed`` adds one traced run per workload, whose
per-layer metrics are stored as they were printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One benchmark process; returns its result object and schedule_sha."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    sha = next((line.split()[1] for line in lines if line.startswith("schedule_sha ")), "")
    return json.loads(lines[-1]), sha


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="seeds first-seed .. first-seed + seeds - 1")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results, shas = [], {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, shas[seed] = run(bench["command"], workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            results.append(result)
        entry = {
            "seeds": list(shas),
            "schedule_sha": shas,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {args.seeds} seeds, {entry['failed']} of {entry['attempted']} operations failed")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"], **stats}
            flag = "" if name == "setup_s" or stats["spread"] <= bound / 3 else "  > bound/3"
            print(f"  {name:<18} median {stats['median']:>12.6g}  q1 {stats['q1']:>12.6g}  q3 {stats['q3']:>12.6g}"
                  f"  spread {stats['spread']:.4f} (bound {bound}){flag}")
        if args.trace_seed is not None:
            traced, _sha = run(bench["command"], workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, **{k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
