"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10 --trace  # spread over ten seeds
    python3 perfbench/report.py --workloads witness --seeds 1-5 --out r.json

For each workload and end-to-end metric it prints the median over seeds,
the quartile distance as a share of the median (the spread a bound is
checked against) and the unit, plus the raw wall and CPU seconds.
``--trace`` adds one traced run per workload, on the first seed, and prints
its per-layer metrics.  ``--out`` writes the summary and every run's result
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import RAW_PREFIX, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload, seed, seconds, trace) -> dict:
    """One run.py invocation: its result line, plus the raw seconds it
    printed to stderr."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    for line in proc.stderr.splitlines():
        if line.startswith(RAW_PREFIX):
            result["raw"] = json.loads(line[len(RAW_PREFIX):])
        elif line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    return result


def stats(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    out = {"python": platform.python_version(), "cores": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}, "raw": {}, "runs": runs}
        print(f"\n{workload}: {len(runs)} runs, correct {entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for m in spec["end_to_end"]:
            s = stats([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"])
            print(f"  {m['name']:18s} {s['median']:12.4f} {m['unit']:10s} "
                  f"spread {s['spread']:6.3f} (bound {m['bound']})")
        for name in ("wall_s", "cpu_s"):
            s = stats([r["raw"][name] for r in runs])
            entry["raw"][name] = dict(s, unit="s")
            print(f"  raw {name:14s} {s['median']:12.4f} s          "
                  f"spread {s['spread']:6.3f}")
        if args.trace:
            traced = bench(workload, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = traced
            print(f"  traced run, seed {seeds[0]}: correct {traced['correct']}")
            for name, m in traced["metrics"].items():
                print(f"    {name:44s} {m['value']:14.4f} {m['unit']}")
        out["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
