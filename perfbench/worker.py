"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR SPAWNED TRACE SETUP_ONLY

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is system-wide, so ``setup_s`` covers
interpreter start, ``import primpair`` and input preparation.  The pass
then runs its operations back to back, timing each call alone and checking
each output outside the timed span.  The last stdout line is a JSON report.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from program import import_primpair  # noqa: E402


REFERENCE_EVERY_S = 0.1


def reference_loop() -> float:
    """Time of a fixed pure-Python loop -- integer arithmetic, building and
    scanning a list too large for the fastest caches, dict lookups and a
    small polynomial product mod 7, the kinds of work primpair's hot paths
    do -- as a sample of the machine's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    values = list(range(1_000, 41_000))
    for _ in range(4):
        acc += len([x for x in values if x <= 30_000])
    table = {i: (i, i + 1) for i in range(2_000)}
    for _ in range(5):
        for i in range(2_000):
            acc += table[i][1]
    a, b = list(range(1, 12)), list(range(3, 14))
    for _ in range(60):
        prod = [0] * 21
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 7
    return time.perf_counter() - start


def run_pass(ops, shipped_hash, tracer=None) -> dict:
    import workloads as w

    wall = cpu = 0.0
    items = failed = stdout_bytes = 0
    errors = []
    reference = [reference_loop()]
    last_reference = time.perf_counter()
    for op_id, op in enumerate(ops):
        call = tracer.root(op_id, op.call) if tracer else op.call
        start_cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            error = traceback.format_exc(limit=4)
        else:
            error = None
        wall += time.perf_counter() - start
        cpu += time.process_time() - start_cpu
        if error is None:
            if isinstance(result, w.CliResult):
                stdout_bytes += len(result.stdout.encode())
            try:
                items += op.check(result)
            except Exception as exc:   # a malformed output fails the op, not the run
                error = f"{op.label}: {exc!r}"
        if error is None and w.file_hash(w.SHIPPED_CACHE) != shipped_hash:
            error = f"{op.label}: package data {w.SHIPPED_CACHE} changed"
        if error is not None:
            failed += 1
            errors.append(error)
        if time.perf_counter() - last_reference > REFERENCE_EVERY_S:
            reference.append(reference_loop())
            last_reference = time.perf_counter()
    reference.append(reference_loop())
    return {"wall_s": wall, "cpu_s": cpu, "items": items,
            "reference_s": statistics.fmean(reference),
            "attempted": len(ops), "failed": failed, "errors": errors[:5],
            "stdout_bytes": stdout_bytes}


def main(argv) -> int:
    workload, seed, workdir, spawned, trace, setup_only = argv
    os.environ.pop("PRIMPAIR_CACHE", None)
    import_primpair()
    import workloads as w
    shipped_hash = w.file_hash(w.SHIPPED_CACHE)
    ops = w.build(workload, int(seed), Path(workdir))
    report = {"setup_s": time.monotonic() - float(spawned)}
    if setup_only == "1":
        print(json.dumps(report))
        return 0
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    report.update(run_pass(ops, shipped_hash, tracer))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics(report["wall_s"], report["stdout_bytes"])
        report["top_self"] = tracer.top_self()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
