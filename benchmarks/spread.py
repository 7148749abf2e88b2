"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/spread.py --workloads capsnet-fz32 --seeds 1-5
    python3 benchmarks/spread.py --seeds 1-10 --traced 1 --out benchmarks/results/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``; a
spread at or above a third of the bound is flagged. ``setup_s`` is shown
but not flagged: only its median is compared across commits. With
``--traced N`` it also keeps the per-layer metrics of N traced runs.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), {})
    return {"seed": seed, "exit": proc.returncode, **result, "record": record}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload (first seeds)")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"runs": runs, "end_to_end": {}, "all_correct": all(r["correct"] for r in runs)}
        print(f"{workload}: correct {entry['all_correct']}")
        print("  pipeline times per run: " + " ".join(
            "/".join(f"{t:.2f}" for t in r["record"].get("pipeline_s_all", [])) for r in runs))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            s = summarise(values)
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"  {name:18s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        if args.traced:
            traced = [run(workload, s, spec["run_seconds"], 1) for s in seeds[: args.traced]]
            entry["traced"] = traced
            entry["all_correct"] &= all(r["correct"] for r in traced)
            print(f"  traced runs correct: {[r['correct'] for r in traced]}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
