"""Run the benchmark on several seeds and record its figures.

Usage (from the repository root):

    python3 perfbench/spread.py --label first --seeds 301-310 [--workloads sweep,verify]
    python3 perfbench/spread.py --label trace --seeds 3 --trace 1

Runs ``run.py`` once per workload and seed, one run after another, with
the ``run_seconds`` of ``BENCHMARK.json``.  For each metric it records
the median, the quartile spread (interquartile range of
``statistics.quantiles(values, n=4)`` divided by the median, as the
acceptance check computes it), the minimum and the maximum, and writes
them under ``sets.<label>`` of ``perfbench/baseline.json``, keeping every
other key of that file.  Each spread is also printed with its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = HERE / "baseline.json"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    row = {"median": med, "min": min(values), "max": max(values), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row["quartile_spread"] = (q3 - q1) / med if med else 0.0
    return {key: value if key == "n" else float(f"{value:.6g}") for key, value in row.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 301-310 or 1,5,9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    seeds = seed_list(args.seeds)
    measured = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            runs.append(run_once(workload, seed, args.trace))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s", flush=True)
        measured[workload] = {name: summary([r[name] for r in runs]) for name in runs[0]}
        for name, row in measured[workload].items():
            if args.trace and not name.startswith("trace."):
                continue
            spread = row.get("quartile_spread")
            print(f"  {name}: median {row['median']:.6g}"
                  + (f", spread {spread:.3f}" if spread is not None else "")
                  + (f" (bound {bounds[name]})" if bounds.get(name) else ""))

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    sets = baseline.setdefault("sets", {})
    sets[args.label] = {
        "command": f"{' '.join(SPEC['command'])} --workload W --seed S --seconds {SPEC['run_seconds']} --trace {args.trace}",
        "seeds": seeds,
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {**sets.get(args.label, {}).get("workloads", {}), **measured},
    }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
