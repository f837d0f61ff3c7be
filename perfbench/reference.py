"""Write data/reference.json: the expected outputs the benchmark checks.

Run once at the commit whose outputs are the reference:

    python3 perfbench/reference.py

It records, with the ``cache_path`` config field blanked:

- the stdout digest of ``survey --t T --paper-diff`` for t = 8..62 from a
  cold cache (t = 8 must agree with the benchmark's warm cache);
- the digest of every t = 7 record, from the warm cache;
- the t = 7 candidates ranked by cold ``classify`` time, which fixes the
  benchmark's cold t = 7 sample;
- the stdout digests of the CLI witness operations, and of the charsum-lab
  operations for CLI seeds 0..15.

Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from program import import_primpair  # noqa: E402

import_primpair()
import workloads as w  # noqa: E402
from primpair import ntheory, survey  # noqa: E402


def survey_digests(tmp: Path) -> dict[str, str]:
    cold = str(tmp / "cold.txt")
    out = {str(t): w.normalized_digest(w.run_cli(w.survey_argv(cold, t)).stdout, cold)
           for t in [8, *w.COLD_TS]}
    warm = str(tmp / "warm.txt")
    shutil.copyfile(w.DATA / "warm_factor_cache.txt", warm)
    if w.normalized_digest(w.run_cli(w.survey_argv(warm, 8)).stdout, warm) != out["8"]:
        raise SystemExit("t=8: warm and cold survey output differ")
    return out


def t7_records() -> dict[str, str]:
    cache = ntheory.FactorCache(str(w.DATA / "warm_factor_cache.txt"))
    diff = survey.reproduce_appendix(7, cache=cache)
    return {str(rec.p): w.record_digest(rec) for rec in diff.records}


def t7_order(tmp: Path, expected: dict[str, str]) -> list[int]:
    cache = ntheory.FactorCache(str(tmp / "t7.txt"))
    ntheory.primes_upto(ntheory.FactorEffort().trial_bound)
    costs = []
    for p in map(int, expected):
        start = time.perf_counter()
        rec = survey.classify(p, 7, cache=cache)
        costs.append((time.perf_counter() - start, p))
        if w.record_digest(rec) != expected[str(p)]:
            raise SystemExit(f"t=7 p={p}: cold and warm records differ")
    return [p for _, p in sorted(costs)]


def main():
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        ref = {"survey_stdout": survey_digests(tmp)}
        ref["t7_records"] = t7_records()
        ref["t7_order"] = t7_order(tmp, ref["t7_records"])
    ref["witness_stdout"] = {
        f"{q}:{r}:{t}": w.digest(w.run_cli(w.witness_argv(q, r, t)).stdout)
        for q, r, t in w.WITNESS_FIELDS}
    ref["charsum_stdout"] = {
        f"{q}:{m}:{suite}": [w.digest(w.run_cli(w.lab_argv(q, m, suite, s)).stdout)
                             for s in range(w.CLI_SEEDS)]
        for q, m, suite in w.LAB_RUNS}
    with open(w.DATA / "reference.json", "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
