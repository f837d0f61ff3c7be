"""primpair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: a single process runs one operation at a time,
back to back, never with ``--jobs`` above 1.  Each pass runs in a fresh
interpreter, because primpair's module-level caches would otherwise make a
repeated pass warm.  A run repeats the seed's pass while one more is
expected to end within ``--seconds`` (at least one).

With ``--trace 0`` it reports, as medians over the run's passes:

- ``wall_ref_loops``: wall time of the timed operations of one pass, in
  units of a fixed reference loop (worker.reference_loop) timed about every
  0.1 s between the operations of the same pass;
- ``items_per_ref_loop``: items settled per reference-loop time -- a survey
  candidate classified, a trace pair settled, or a lab check evaluated;
- ``setup_s``: interpreter start through ``import primpair`` and input
  preparation, over three set-up-only processes and every pass;
- ``peak_rss_mb``: peak resident memory of a pass's process.

Seconds are not reported as metrics because on a shared machine other
tenants slow a process by 15 to 80 % for minutes at a time: raw pass times
spread by 4 to 30 % between runs, their ratio to the reference loop by 2
to 7 % (see README.md).  The raw wall and CPU seconds go to stderr.

With ``--trace 1`` untraced and traced passes alternate.  The run reports
the per-layer metrics of the fastest traced pass (see tracing.py) and
``trace_overhead``, traced over untraced ``wall_ref_loops``.

Every operation's output is checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from program import ROOT, SRC

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ["survey_cold", "survey_warm", "witness", "charsum"]
SETUP_REPEATS = 3
DEADLINE_S = 170          # a run must end within 180 s
COVERAGE_TOLERANCE = 0.05  # traced self times must sum to wall_s within 5 %
RAW_PREFIX = "raw seconds: "   # stderr line with median raw wall and CPU seconds

END_TO_END_UNITS = {
    "wall_ref_loops": "ref-loops",
    "items_per_ref_loop": "1/ref-loop",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Child:
    """Spawns worker processes one at a time and collects their reports."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.crashes = []

    def run(self, trace=False, setup_only=False) -> dict | None:
        passdir = tempfile.mkdtemp(dir=self.workdir)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), self.workload,
                str(self.seed), passdir, repr(spawned),
                "1" if trace else "0", "1" if setup_only else "0"]
        env = {k: v for k, v in os.environ.items() if k != "PRIMPAIR_CACHE"}
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  env=env, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            self.crashes.append("worker timed out")
            return None
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"worker exited with {proc.returncode}")
            return None
        return json.loads(lines[-1])


def measure(child: Child, seconds: float, trace: bool):
    """Set-ups, then passes (alternately untraced and traced with ``trace``)
    while the next one is expected to end within ``seconds``."""
    repeats = 0 if trace else SETUP_REPEATS
    setups = [r["setup_s"] for r in
              (child.run(setup_only=True) for _ in range(repeats)) if r]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        tracing = trace and len(traced) < len(plain)
        began = time.monotonic()
        report = child.run(trace=tracing)
        if report is None:
            break
        report["elapsed"] = time.monotonic() - began
        (traced if tracing else plain).append(report)
        setups.append(report["setup_s"])
        following = traced if trace and len(traced) < len(plain) else plain
        if trace and not following:
            continue
        expected = statistics.median(r["elapsed"] for r in following)
        if time.monotonic() - start + expected > seconds:
            break
    return plain, traced, setups


def in_ref_loops(report: dict) -> float:
    """A pass's wall time over the mean reference-loop time sampled during it."""
    return report["wall_s"] / report["reference_s"]


def end_to_end(passes, setups) -> dict[str, float]:
    return {
        "wall_ref_loops": statistics.median(in_ref_loops(p) for p in passes),
        "items_per_ref_loop": statistics.median(p["items"] / in_ref_loops(p)
                                                for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_seconds(passes) -> dict:
    return {"passes": len(passes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "reference_s": statistics.median(p["reference_s"] for p in passes)}


def per_layer(plain, traced) -> dict[str, float]:
    fastest = min(traced, key=lambda r: r["wall_s"])
    layers = dict(fastest["layers"])
    layers["trace_overhead"] = (statistics.median(map(in_ref_loops, traced))
                                / statistics.median(map(in_ref_loops, plain)))
    print(f"traced {RAW_PREFIX}{json.dumps(raw_seconds(traced))}; "
          "largest self times of the fastest:", file=sys.stderr)
    for name, calls, self_s in fastest["top_self"]:
        print(f"  {name:40s} {calls:10d} calls {self_s:9.3f} s", file=sys.stderr)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primpair" / "__init__.py").is_file():
        print(f"perfbench: no primpair sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        child = Child(args.workload, args.seed, workdir)
        plain, traced, setups = measure(child, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    if not plain or (args.trace and not traced):
        print(f"perfbench: no complete pass: {child.crashes}", file=sys.stderr)
        return 1
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes) + len(child.crashes)
    failed = sum(p["failed"] for p in passes) + len(child.crashes)
    for p in passes:
        for error in p["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    print(RAW_PREFIX + json.dumps(raw_seconds(plain)), file=sys.stderr)
    if args.trace:
        from tracing import PER_LAYER_UNITS
        units = dict(PER_LAYER_UNITS, trace_overhead="ratio")
        values = per_layer(plain, traced)
        coverage_ok = abs(values["trace.self_coverage"] - 1) <= COVERAGE_TOLERANCE
    else:
        units = END_TO_END_UNITS
        values = end_to_end(plain, setups)
        coverage_ok = True
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0 and coverage_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
