"""The benchmark's workloads: inputs made from the seed, the operations that
a pass runs back to back, and the check of every operation's output.

An operation is one call of a public entry point: a ``primpair.cli.main``
subcommand run in-process with its stdout captured, or one library call.
Its check raises ``CheckFailed`` or returns the number of items it settled.

Why these workloads (each pass is kept to a few seconds, so that a run
holds several passes to take the median of):

- ``survey_cold``: ``survey --paper-diff`` for t = 9..62, then ``classify``
  on a sample of the t = 7 candidates, against a factor cache that starts
  empty.  Factorization (trial division, rho, primality) and cache appends
  do the work; the sample carries the rho tail of the cold t = 7 survey.
- ``survey_warm``: ``survey --t 8 --paper-diff``, then ``classify`` on a
  quarter of the t = 7 candidates, against a copy of a warm factor cache
  kept with the benchmark.  Cache loading and lookup, the sieve search and
  JSON output do the work; factorization of p^t - 1 is bypassed.
- ``witness``: exhaustive membership checks on GF(2^13), GF(3^7), GF(4^5)
  (log tables) and CLI witness searches on GF(4^11) and GF(2^23)
  (polynomial arithmetic, no tables).  Field arithmetic and rational
  functions do the work, with little number theory.
- ``charsum``: each of the five ``charsum-lab`` suites once, spread over the
  four acceptance lab fields.  The only workload that reaches the
  character-sum layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

from primpair import cli, ffield, ntheory, ratfunc, survey
from program import SRC

DATA = Path(__file__).resolve().parent / "data"
SHIPPED_CACHE = SRC / "primpair" / "data" / "factor_cache.txt"

# charsum-lab --seed values whose stdout digests are recorded; a run uses
# seed % CLI_SEEDS.
CLI_SEEDS = 16

# Published-table typos: exceptions the paper's tables list but the sieve
# proves, per t.  Every other surveyed t must diff clean.
KNOWN_TYPOS = {8: [193, 419]}

# Exception sets of the headline theorem (as in the acceptance tests).
HEADLINE = {
    8: (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
        41, 43, 47, 83),
    9: (2, 3, 4, 5, 7, 9, 11, 16),
    10: (2, 3, 4, 5, 7),
    11: (2, 3, 4),
    12: (2, 3, 4, 5, 7),
    14: (2,), 15: (2,), 16: (2,), 18: (2,), 20: (2,), 24: (2,),
}
FAILING_COUNTS = {8: 201}

COLD_TS = range(9, 63)
# Cold t = 7 sample: candidates ranked by cold classify time at the
# reference commit.  Of the T7_TAIL slowest, every T7_TAIL_STRIDE-th is
# always taken, so every seed gets the same share of the rho tail; of the
# rest, every T7_BULK_STRIDE-th from an offset drawn from the seed.
T7_TAIL = 64
T7_TAIL_STRIDE = 32
T7_BULK_STRIDE = 128
# Warm t = 7 sample: every T7_WARM_STRIDE-th candidate by p, seeded offset.
T7_WARM_STRIDE = 4

MEMBERSHIP_FIELDS = [(2, 1, 13), (3, 1, 7), (2, 2, 5)]   # (q, r, t)
MEMBERSHIP_FUNCTIONS = 16
# (q, r, t).  A random search's length varies by about 20 % between search
# seeds, so these run with a fixed --seed 0; the run seed varies the
# membership functions instead.
WITNESS_FIELDS = [(2, 2, 11), (2, 1, 23)]
# (q, m, suite): every suite once, over the four acceptance lab fields.
LAB_RUNS = [(2, 7, "indicators"), (3, 4, "expansion"), (5, 3, "weil"),
            (3, 5, "lemma32"), (3, 4, "lemma33")]


class CheckFailed(Exception):
    pass


class CliResult(NamedTuple):
    rc: int
    stdout: str


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], int]


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def load_reference() -> dict:
    with open(DATA / "reference.json") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def normalized_digest(stdout: str, cache_path: str) -> str:
    """Digest of CLI stdout with the run's temporary cache path blanked."""
    field = '"cache_path": '
    return digest(stdout.replace(field + json.dumps(cache_path), field + '""', 1))


def record_digest(rec) -> str:
    return digest(json.dumps(survey.record_to_dict(rec), sort_keys=True))


def file_hash(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_cli(argv) -> CliResult:
    """``primpair`` CLI in-process; ``cli.main`` is looked up per call so an
    installed tracer sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliResult(rc, buf.getvalue())


def cli_op(label, argv, check) -> Op:
    return Op(label, lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# survey

def survey_op(t, cache_path, ref) -> Op:
    want = KNOWN_TYPOS.get(t, [])

    def check(result):
        rc, out = result
        require(rc == (1 if want else 0), f"survey t={t}: exit code {rc}")
        payload = json.loads(out)
        records = payload["records"]
        require(payload["unknown"] == [], f"survey t={t}: unknown {payload['unknown']}")
        require(all(r["status"] != "Unknown" for r in records),
                f"survey t={t}: Unknown record")
        require(payload["paper_diff"] == {
            "failing_missing": [], "failing_extra": [],
            "exceptions_missing": want, "exceptions_extra": [],
            "clean": not want,
        }, f"survey t={t}: paper diff {payload['paper_diff']}")
        exceptions = tuple(r["p"] for r in records
                           if r["status"] == "PossibleException")
        require(exceptions == HEADLINE.get(t, ()),
                f"survey t={t}: exceptions {exceptions}")
        if t in FAILING_COUNTS:
            failing = sum(r["status"] != "ProvenBySufficient" for r in records)
            require(failing == FAILING_COUNTS[t], f"survey t={t}: {failing} failing")
        require(normalized_digest(out, cache_path) == ref["survey_stdout"][str(t)],
                f"survey t={t}: stdout digest changed")
        return len(records)

    return cli_op(f"survey t={t}", survey_argv(cache_path, t), check)


def survey_argv(cache_path, t):
    return ["--cache", cache_path, "survey", "--t", str(t), "--paper-diff"]


def cold_t7_sample(order: list[int], seed: int) -> list[int]:
    bulk, tail = order[:-T7_TAIL], order[-T7_TAIL:]
    offset = random.Random(seed).randrange(T7_BULK_STRIDE)
    return sorted(bulk[offset::T7_BULK_STRIDE] + tail[T7_TAIL_STRIDE // 2::T7_TAIL_STRIDE])


def warm_t7_sample(order: list[int], seed: int) -> list[int]:
    offset = random.Random(seed).randrange(T7_WARM_STRIDE)
    return sorted(order)[offset::T7_WARM_STRIDE]


def classify_ops(sample, path, ref) -> list[Op]:
    """Load the factor cache at ``path``, then ``classify(p, 7)`` for each p,
    each record checked against the reference."""
    holder = []
    ops = [Op("load cache", lambda: holder.append(ntheory.FactorCache(path)),
              lambda _: 0)]
    expected = ref["t7_records"]
    for p in sample:
        def check(rec, p=p):
            require(rec.status is not survey.SurveyStatus.UNKNOWN, f"classify {p}: Unknown")
            require(record_digest(rec) == expected[str(p)], f"classify {p}: record changed")
            return 1
        ops.append(Op(f"classify p={p} t=7",
                      lambda p=p: survey.classify(p, 7, cache=holder[0]), check))
    return ops


def survey_cold(seed, workdir, ref) -> list[Op]:
    path = str(workdir / "factor_cache.txt")
    Path(path).touch()
    sample = cold_t7_sample(ref["t7_order"], seed)
    return [survey_op(t, path, ref) for t in COLD_TS] + classify_ops(sample, path, ref)


def survey_warm(seed, workdir, ref) -> list[Op]:
    path = str(workdir / "factor_cache.txt")
    shutil.copyfile(DATA / "warm_factor_cache.txt", path)
    sample = warm_t7_sample(ref["t7_order"], seed)
    return [survey_op(8, path, ref)] + classify_ops(sample, path, ref)


# ---------------------------------------------------------------------------
# witness

def reached_trace_pairs(ctx, f, r) -> set[tuple[int, int]]:
    """(Tr(eps), Tr(f(eps))) over units eps with f(eps) a unit, as indices."""
    pairs = set()
    for eps in ctx.units():
        val = ratfunc.eval_rational(ctx, f, eps)
        if val is not ratfunc.POLE and not val.is_zero():
            pairs.add((ctx.to_index(ctx.trace_rel(eps, r)), ctx.to_index(ctx.trace_rel(val, r))))
    return pairs


def membership_op(q, r, t, seed) -> Op:
    name = f"membership GF({q ** r}^{t})"

    def check(rep):
        require(rep.definitive, f"{name}: not definitive")
        require(rep.functions_checked == MEMBERSHIP_FUNCTIONS,
                f"{name}: {rep.functions_checked} functions")
        # A missing witness is right only where no unit reaches the trace
        # pair at all: for some polynomials in characteristic 2, Tr(f(x)) is
        # additive in x and half of the pairs are out of reach.
        if rep.failures:
            ctx = ffield.make_field(q, r * t, seed=0)
            reached = {}
            for f, a, b in rep.failures:
                if f not in reached:
                    reached[f] = reached_trace_pairs(ctx, f, r)
                require((ctx.to_index(a), ctx.to_index(b)) not in reached[f],
                        f"{name}: no witness for a reachable trace pair")
        return rep.pairs_checked

    return Op(name, lambda: survey.verify_membership_sample(
        q ** r, t, 2, MEMBERSHIP_FUNCTIONS, seed), check)


def witness_argv(q, r, t):
    return ["--seed", "0", "--cache", "", "witness",
            "--q", str(q), "--r", str(r), "--t", str(t)]


def witness_cli_op(q, r, t, ref) -> Op:
    key = f"{q}:{r}:{t}"

    def check(result):
        rc, out = result
        require(rc == 0, f"witness {key}: exit code {rc}")
        results = json.loads(out)["results"]
        require(all(e["status"] == "Found" for e in results), f"witness {key}: not Found")
        require(digest(out) == ref["witness_stdout"][key],
                f"witness {key}: stdout digest changed")
        return len(results)

    return cli_op(f"witness {key}", witness_argv(q, r, t), check)


def witness(seed, workdir, ref) -> list[Op]:
    rng = random.Random(seed)
    ops = [membership_op(q, r, t, rng.randrange(1 << 30)) for q, r, t in MEMBERSHIP_FIELDS]
    return ops + [witness_cli_op(q, r, t, ref) for q, r, t in WITNESS_FIELDS]


# ---------------------------------------------------------------------------
# charsum

def lab_argv(q, m, suite, cli_seed):
    return ["--seed", str(cli_seed), "--cache", "", "charsum-lab",
            "--q", str(q), "--m", str(m), "--suite", suite]


def lab_items(suite, report) -> int:
    """Lab checks evaluated by one suite run."""
    if suite == "indicators":
        return report["checked"]
    return len(report["samples"])


def lab_op(q, m, suite, cli_seed, ref) -> Op:
    key = f"{q}:{m}:{suite}"

    def check(result):
        rc, out = result
        require(rc == 0, f"charsum-lab {key}: exit code {rc}")
        payload = json.loads(out)
        require(payload["passed"] is True, f"charsum-lab {key}: not passed")
        require(digest(out) == ref["charsum_stdout"][key][cli_seed],
                f"charsum-lab {key} seed {cli_seed}: stdout digest changed")
        return lab_items(suite, payload["report"])

    return cli_op(f"charsum-lab {key}", lab_argv(q, m, suite, cli_seed), check)


def charsum(seed, workdir, ref) -> list[Op]:
    cli_seed = seed % CLI_SEEDS
    return [lab_op(q, m, suite, cli_seed, ref) for q, m, suite in LAB_RUNS]


PASSES = {
    "survey_cold": survey_cold,
    "survey_warm": survey_warm,
    "witness": witness,
    "charsum": charsum,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """A pass's operations, in order; the same seed gives the same inputs."""
    return PASSES[name](seed, workdir, load_reference())
