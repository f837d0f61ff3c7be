"""Survey pipeline: enumerate candidate (p, t), classify them through the
sufficient condition and the sieve, diff against the published lists, and
run witness searches on desk-scale fields.
"""

from __future__ import annotations

import csv
import functools
import json
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources

from .bounds import (
    BoundReport,
    SieveReport,
    Verdict,
    _require_verdict_args,
    check_thm31,
    find_sieve_params,
    table1_row,
    window_threshold,
)
from .ffield import FieldCtx, FieldElement, make_field
from .ntheory import (
    FactorCache,
    FactorEffort,
    factor_prime_power_order,
    integer_nth_root,
    primes_upto,
    split_prime_power,
)
from .ratfunc import RationalFunction, eval_rational, sample_rational

__all__ = [
    "SurveyStatus",
    "SurveyRecord",
    "survey_range",
    "enumerate_prime_powers",
    "classify",
    "AppendixDiff",
    "reproduce_appendix",
    "load_published_failing",
    "load_published_sieve",
    "first_witnesses",
    "witness_search",
    "MembershipReport",
    "verify_membership_sample",
    "record_to_dict",
    "json_value",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 1 << 20

MIN_T = 7   # t = 5, 6 are out of survey scope


def _require_survey_t(t: int) -> None:
    if t < MIN_T:
        raise ValueError(f"t = {t} below survey minimum {MIN_T}")


class SurveyStatus(Enum):
    PROVEN_BY_SUFFICIENT = "ProvenBySufficient"
    PROVEN_BY_SIEVE = "ProvenBySieve"
    POSSIBLE_EXCEPTION = "PossibleException"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SurveyRecord:
    p: int
    t: int
    n: int
    status: SurveyStatus
    bound: BoundReport | None = None
    sieve: SieveReport | None = None
    reason: str = ""


# Worst-case window rows anchoring the p-range derivation: (minimum t the
# row settles, row a, row b).  Each step of the published iteration tightens
# the admissible omega range, so later anchors use narrower windows.
_RANGE_ANCHORS = [(7, 6, 22), (8, 5, 19), (9, 5, 17), (10, 5, 15)]


def survey_range(t: int, n: int = 2) -> int:
    """The exclusive bound p_max of the candidate range for one t: p^t above
    the window threshold is settled, so only p < p_max needs individual
    classification."""
    _require_survey_t(t)    # t >= 7, the first anchor
    t_anchor, a, b = next(anchor for anchor in reversed(_RANGE_ANCHORS)
                          if t >= anchor[0])
    threshold = window_threshold(table1_row(a, b, n).rhs_ub, t_anchor)
    return integer_nth_root(threshold, t) + 1


def enumerate_prime_powers(p_max: int) -> list[int]:
    """All prime powers q^r < p_max, ascending."""
    out = []
    for q in primes_upto(p_max - 1):
        v = q
        while v < p_max:
            out.append(v)
            v *= q
    return sorted(out)


def classify(p: int, t: int, n: int = 2,
             effort: FactorEffort = FactorEffort(),
             cache: FactorCache | None = None) -> SurveyRecord:
    """Sufficient condition first; on failure, automatic sieve search.  A
    proven status covers the classes (n1, n2) of degree sum n with both
    degrees >= 1; the verdict gate runs before anything is factored."""
    _require_survey_t(t)
    _require_verdict_args(p, t, n)
    facts = factor_prime_power_order(p, t, effort=effort, cache=cache)
    if not facts.complete:
        return SurveyRecord(p, t, n, SurveyStatus.UNKNOWN,
                            reason=f"partial factorization of p^t-1, "
                                   f"cofactor {facts.cofactor}")
    bound = check_thm31(p, t, n, facts)
    if bound.verdict is Verdict.PASS:
        return SurveyRecord(p, t, n, SurveyStatus.PROVEN_BY_SUFFICIENT, bound=bound)
    sieve = find_sieve_params(p, t, n, facts)
    if sieve.verdict is Verdict.PASS:
        return SurveyRecord(p, t, n, SurveyStatus.PROVEN_BY_SIEVE,
                            bound=bound, sieve=sieve)
    return SurveyRecord(p, t, n, SurveyStatus.POSSIBLE_EXCEPTION,
                        bound=bound, sieve=sieve)


# ---------------------------------------------------------------------------
# published reference lists

@functools.cache
def _published_failing() -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    with resources.files("primpair.data").joinpath("published_failing.csv").open() as fh:
        for row in csv.DictReader(fh):
            out.setdefault(int(row["t"]), []).append(int(row["p"]))
    return {t: tuple(ps) for t, ps in out.items()}


@functools.cache
def _published_sieve() -> dict[int, tuple[tuple[int, int, int], ...]]:
    out: dict[int, list[tuple[int, int, int]]] = {}
    with resources.files("primpair.data").joinpath("published_sieve.csv").open() as fh:
        for row in csv.DictReader(fh):
            out.setdefault(int(row["t"]), []).append(
                (int(row["p"]), int(row["k"]), int(row["m"])))
    return {t: tuple(rows) for t, rows in out.items()}


# The tables are parsed once per process; the public loaders hand out fresh
# containers, so no caller can change what the next caller reads.
def load_published_failing() -> dict[int, list[int]]:
    return {t: list(ps) for t, ps in _published_failing().items()}


def load_published_sieve() -> dict[int, list[tuple[int, int, int]]]:
    return {t: list(rows) for t, rows in _published_sieve().items()}


def published_exceptions(t: int) -> list[int]:
    """Failing entries with no published sieve row: the possible exceptions."""
    failing = set(_published_failing().get(t, ()))
    sieved = {p for p, _, _ in _published_sieve().get(t, ())}
    return sorted(failing - sieved)


@dataclass(frozen=True)
class AppendixDiff:
    t: int
    n: int
    computed_failing: tuple[int, ...]
    published_failing: tuple[int, ...]
    computed_exceptions: tuple[int, ...]
    published_exceptions: tuple[int, ...]
    unknown: tuple[int, ...]           # partial factorizations, never dropped
    records: tuple[SurveyRecord, ...]

    @property
    def failing_diff(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(missing from computed, extra in computed)."""
        comp, pub = set(self.computed_failing), set(self.published_failing)
        return tuple(sorted(pub - comp)), tuple(sorted(comp - pub))

    @property
    def exceptions_diff(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        comp, pub = set(self.computed_exceptions), set(self.published_exceptions)
        return tuple(sorted(pub - comp)), tuple(sorted(comp - pub))

    @property
    def clean(self) -> bool:
        return (self.failing_diff == ((), ()) and self.exceptions_diff == ((), ())
                and not self.unknown)


def reproduce_appendix(t: int, n: int = 2,
                       effort: FactorEffort = FactorEffort(),
                       cache: FactorCache | None = None) -> AppendixDiff:
    records = [classify(p, t, n, effort=effort, cache=cache)
               for p in enumerate_prime_powers(survey_range(t, n))]
    failing = tuple(r.p for r in records
                    if r.status in (SurveyStatus.PROVEN_BY_SIEVE,
                                    SurveyStatus.POSSIBLE_EXCEPTION))
    exceptions = tuple(r.p for r in records
                       if r.status is SurveyStatus.POSSIBLE_EXCEPTION)
    unknown = tuple(r.p for r in records if r.status is SurveyStatus.UNKNOWN)
    return AppendixDiff(
        t, n,
        computed_failing=failing,
        published_failing=tuple(sorted(_published_failing().get(t, ()))),
        computed_exceptions=exceptions,
        published_exceptions=tuple(published_exceptions(t)),
        unknown=unknown,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# witness search

def _digits(e: int, q: int) -> tuple[tuple[int, int], ...]:
    """(j, e_j) for each nonzero digit e_j of e in base q."""
    return tuple((j, e // q ** j % q) for j in range(e.bit_length()) if e // q ** j % q)


def _recheck_witness(ctx: FieldCtx, f: RationalFunction, a, b, r, eps,
                     eps0, cofactor_digits) -> bool:
    """Independent re-verification of a witness eps with f(eps) = eps0 by
    the kernel alone, with no log table, ctx.mul, inverse or basis traces:
    eps0 * den(eps) = scale * num(eps) with den(eps) != 0, then one chain
    x^(q^j), j < m, per element gives its trace (every r-th term) and each
    x^((Q-1)/l) = prod_j (x^(q^j))^(e_j), e_j from ``cofactor_digits``."""
    kernel = ctx._kernel
    mulmod, powmod = kernel.mulmod, kernel.powmod

    def at_eps(poly):
        acc = ctx.zero
        for c in reversed(poly.coeffs):
            acc = ctx.add(mulmod(acc, eps), c)
        return acc

    den = at_eps(f.den)
    if not den or mulmod(eps0, den) != mulmod(f.scale, at_eps(f.num)):
        return False
    for x, tr in ((eps, a), (eps0, b)):
        conj = ctx._conjugates(x)
        if kernel.reduce(sum(conj[::r])) != tr:
            return False
        for digits in cofactor_digits:      # q = 2: popcount - 1 products
            powers = [powmod(conj[j], e) if e > 1 else conj[j] for j, e in digits]
            if functools.reduce(mulmod, powers) == 1:
                return False
    return True


def first_witnesses(ctx: FieldCtx, f: RationalFunction, pairs, r: int,
                    candidates) -> dict:
    """The first eps of ``candidates`` that witnesses each (a, b) of
    ``pairs``: eps and f(eps) primitive, Tr eps = a and Tr f(eps) = b.  One
    pass settles every pair; a pair that no candidate witnesses is absent.
    A trace outside GF(q^r), which no element has, raises ValueError.

    The checks run cheapest first: an eps whose trace opens no pair costs
    one trace, and primitivity, a powmod per prime of Q - 1 on an untabled
    field, is asked only once (Tr eps, Tr f(eps)) is an open pair.  Each
    witness is rechecked on the base-q digits of every (Q - 1)/l, made once.

    f is evaluated per element, not by FieldCtx.poly_logs over all units,
    because a scan stops early: the 48 exhaustive scans of a seed-1
    perfbench ``witness`` pass, over tabled fields of 1,024 to 8,192 units,
    visit about 97 units each, so a full-field pass would cost 10 to 100
    times more."""
    open_b: dict[FieldElement, set[FieldElement]] = {}
    for a, b in pairs:
        open_b.setdefault(a, set()).add(b)
    for x in set(open_b).union(*open_b.values()):
        if not ctx.in_subfield(x, r):
            raise ValueError(f"trace index {ctx.to_index(x)} is not in "
                             f"the subfield of degree {r}")
    left = sum(map(len, open_b.values()))
    found = {}
    if not left:
        return found
    cofactor_digits = [_digits((ctx.Q - 1) // ell, ctx.q)
                       for ell in ctx.order_facts.primes()]
    trace_rel, is_primitive = ctx.trace_rel, ctx.is_primitive
    for eps in candidates:
        if eps.is_zero():
            continue
        a = trace_rel(eps, r)
        bs = open_b.get(a)
        if not bs:
            continue
        eps0 = eval_rational(ctx, f, eps)
        if not eps0:    # a pole (None) or a zero
            continue
        b = trace_rel(eps0, r)
        if b not in bs or not (is_primitive(eps) and is_primitive(eps0)):
            continue
        if not _recheck_witness(ctx, f, a, b, r, eps, eps0, cofactor_digits):
            raise AssertionError(f"witness {ctx.to_index(eps)} fails the "
                                 "independent recheck")
        found[a, b] = eps
        bs.remove(b)
        left -= 1
        if not left:
            break
    return found


def witness_search(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                   b: FieldElement, r: int, *,
                   exhaustive: bool = True,
                   budget: int = 100_000,
                   seed: int = 0) -> FieldElement | None:
    """The first eps found with eps and f(eps) both primitive and both
    traces prescribed, or None.  A None from an exhaustive search proves
    that no witness exists; from a random one, only that ``budget`` draws
    found none."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ctx.order_facts.require_complete()
    if exhaustive:
        candidates = ctx.units()
    else:
        rng = random.Random(seed)
        candidates = (ctx.from_index(rng.randrange(1, ctx.Q))
                      for _ in range(budget))
    return first_witnesses(ctx, f, [(a, b)], r, candidates).get((a, b))


def _settle_pairs(ctx: FieldCtx, f: RationalFunction, pairs, r: int,
                  exhaustive: bool, budget: int, rng: random.Random) -> dict:
    """The witnesses of ``pairs``: one scan of all units, or else a seeded
    random search per pair.  Both modes draw one seed per pair from ``rng``,
    so whatever the caller draws next does not depend on the mode."""
    seeds = [rng.randrange(1 << 30) for _ in pairs]
    if exhaustive:
        return first_witnesses(ctx, f, pairs, r, ctx.units())
    found = {}
    for (a, b), seed in zip(pairs, seeds):
        witness = witness_search(ctx, f, a, b, r, exhaustive=False,
                                 budget=budget, seed=seed)
        if witness is not None:
            found[a, b] = witness
    return found


@dataclass(frozen=True)
class MembershipReport:
    p: int
    t: int
    n: int
    functions_checked: int
    pairs_checked: int
    failures: tuple[tuple[RationalFunction, FieldElement, FieldElement], ...]
    definitive: bool

    def failing_classes(self) -> dict[tuple[int, int], int]:
        """Failures per class (n1, n2), classes in ascending order."""
        return dict(sorted(Counter((f.n1, f.n2) for f, _, _ in self.failures).items()))


def verify_membership_sample(p: int, t: int, n: int, num_functions: int,
                             seed: int, *,
                             budget: int = 200_000) -> MembershipReport:
    """Sample rational functions across the n + 1 degree splits (n1, n - n1),
    constant sides included, and look for a witness for every prescribed
    trace pair."""
    for name, value in (("degsum", n), ("num_functions", num_functions),
                        ("t", t), ("budget", budget)):  # make_field would name m = r t
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    q, r = split_prime_power(p)
    ctx = make_field(q, r * t, seed=0)
    exhaustive = ctx.Q <= EXHAUSTIVE_CAP
    rng = random.Random(seed)
    subfield = ctx.subfield_elements(r)
    pairs = [(a, b) for a in subfield for b in subfield]
    failures = []
    for i in range(num_functions):
        n1 = i % (n + 1)
        f = sample_rational(ctx, n1, n - n1, rng)
        found = _settle_pairs(ctx, f, pairs, r, exhaustive, budget, rng)
        failures.extend((f, a, b) for a, b in pairs if (a, b) not in found)
    return MembershipReport(p, t, n, num_functions, num_functions * len(pairs),
                            tuple(failures), exhaustive)


# ---------------------------------------------------------------------------
# serialization

def json_value(x: Fraction | Enum | None) -> str | None:
    """The one JSON rule for report values: a Fraction as "num/den", a
    verdict or status by its name, None as null.  It is the ``default`` of
    the CLI's json.dumps; any other type gets json's own TypeError."""
    if x is None:
        return None
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, Fraction):     # an ABC check, the slowest of the three
        return f"{x.numerator}/{x.denominator}"
    return json.JSONEncoder().default(x)


def record_to_dict(rec: SurveyRecord) -> dict:
    """A record as plain JSON data, spelled out: on the warm survey path a
    per-field walk with json_value costs several times more."""
    out = {
        "p": rec.p,
        "t": rec.t,
        "n": rec.n,
        "status": json_value(rec.status),
    }
    if rec.bound is not None:
        out["thm31"] = {
            "W": rec.bound.W,
            "rhs": json_value(rec.bound.rhs),
            "verdict": json_value(rec.bound.verdict),
        }
    if rec.sieve is not None:
        out["sieve"] = {
            "k_primes": list(rec.sieve.k_primes),
            "m": rec.sieve.m,
            "delta": json_value(rec.sieve.delta),
            "Delta": json_value(rec.sieve.Delta),
            "verdict": json_value(rec.sieve.verdict),
        }
    if rec.reason:
        out["reason"] = rec.reason
    return out
