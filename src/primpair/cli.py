"""Command-line frontend.

A subcommand returns its report and exit code, and main alone writes
them: the report, with the run configuration (seed, factor budget) added,
as JSON with stable key order and fixed number formatting, a fraction as
"num/den" and a verdict by name (survey.json_value), so identical
configurations produce byte-identical output.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 unresolved factorization.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys

from .bounds import (
    TABLE1_WINDOWS,
    Verdict,
    _require_verdict_args,
    check_thm31,
    check_thm34,
    find_sieve_params,
    lemma35_constants,
    table1_row,
)
from .charsum import (
    _require_lab_size,
    char_sum_chi,
    count_A_direct,
    rho_indicator,
    tau_indicator,
    verify_lemma32,
    verify_lemma33,
)
from .errors import FactorizationIncomplete
from .ffield import make_field
from .ntheory import FactorCache, FactorEffort, factor_prime_power_order, is_prime
from .ratfunc import (
    Poly,
    RationalFunction,
    check_rational,
    eval_rational,
    sample_rational,
)
from .survey import (
    _settle_pairs,
    json_value,
    record_to_dict,
    reproduce_appendix,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3


# ---------------------------------------------------------------------------
# deterministic emission

def _f10(x: float) -> str:
    """Lab floats: fixed 10-significant-digit formatting."""
    return f"{x:.10g}"


def _run_config(args) -> dict:
    return {
        "seed": args.seed,
        "factor_budget": args.budget,
        "cache_path": args.cache or "",
    }


def _effort(args) -> FactorEffort:
    return FactorEffort(rho_iterations=args.budget)


def _cache(args) -> FactorCache | None:
    return FactorCache(args.cache) if args.cache else None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check_bound(args) -> tuple[dict, int]:
    _require_verdict_args(args.p, args.t, args.n)  # before anything is factored or cached
    facts = factor_prime_power_order(args.p, args.t, effort=_effort(args),
                                     cache=_cache(args))
    rep = check_thm31(args.p, args.t, args.n, facts)
    return (dataclasses.asdict(rep),
            EXIT_UNRESOLVED if rep.verdict is Verdict.UNKNOWN else EXIT_OK)


def _cmd_sieve(args) -> tuple[dict, int]:
    _require_verdict_args(args.p, args.t, args.n)  # before anything is factored or cached
    facts = factor_prime_power_order(args.p, args.t, effort=_effort(args),
                                     cache=_cache(args))
    if not facts.complete:
        reason = f"partial factorization, cofactor {facts.cofactor}"
        return {"verdict": "Unknown", "reason": reason}, EXIT_UNRESOLVED
    if args.k_primes is not None:
        rep = check_thm34(args.p, args.t, args.n, facts, args.k_primes)
    else:
        rep = find_sieve_params(args.p, args.t, args.n, facts)
    return dataclasses.asdict(rep), EXIT_OK


def _cmd_table1(args) -> tuple[dict, int]:
    rows = [table1_row(a, b, args.n) for a, b in TABLE1_WINDOWS]
    return {"rows": [{"a": r.a, "b": r.b, "Wk": r.Wk, "delta": r.delta_lb,
                      "Delta": r.Delta_ub, "bound": r.rhs_ub}
                     for r in rows]}, EXIT_OK


def _cmd_lemma35(args) -> tuple[dict, int]:
    rec = lemma35_constants()
    return {
        "product_digits": rec.product_digits,
        "product_exceeds_657e5586": rec.product_exceeds_657e5586,
        "twelfth_root_exceeds_542e463": rec.twelfth_root_exceeds_542e463,
        "pow2_1547_below_493e463": rec.pow2_1547_below_493e463,
        "next_prime_after_12983": rec.next_prime_after_12983,
        "next_prime_twelfth_power_exceeds_2": rec.next_prime_twelfth_power_exceeds_2,
        "all_hold": rec.all_hold,
    }, EXIT_OK if rec.all_hold else EXIT_MISMATCH


def _cmd_survey(args) -> tuple[dict, int]:
    if args.paper_diff and args.n != 2:
        # the published tables are for n = 2 only
        raise ValueError("--paper-diff needs --n 2")
    diff = reproduce_appendix(args.t, args.n, effort=_effort(args),
                              cache=_cache(args))
    payload = {
        "t": diff.t, "n": diff.n,
        "records": [record_to_dict(r) for r in diff.records],
        "unknown": diff.unknown,
    }
    if args.paper_diff:
        missing_f, extra_f = diff.failing_diff
        missing_e, extra_e = diff.exceptions_diff
        payload["paper_diff"] = {
            "failing_missing": missing_f,
            "failing_extra": extra_f,
            "exceptions_missing": missing_e,
            "exceptions_extra": extra_e,
            "clean": diff.clean,
        }
    if diff.unknown:
        return payload, EXIT_UNRESOLVED
    if args.paper_diff and not diff.clean:
        return payload, EXIT_MISMATCH
    return payload, EXIT_OK


def _parse_function(ctx, spec: str) -> RationalFunction:
    """``scale:num:den`` with comma-separated element indices, low degree
    first, e.g. ``1:0,1:1`` for x over a constant denominator.  A spec that
    is not in canonical form raises ValueError from ratfunc.check_rational."""
    s, num, den = spec.split(":")
    f = RationalFunction(ctx.from_index(int(s)),
                         Poly(tuple(ctx.from_index(int(c)) for c in num.split(","))),
                         Poly(tuple(ctx.from_index(int(c)) for c in den.split(","))))
    check_rational(ctx, f)
    return f


def _cmd_witness(args) -> tuple[dict, int]:
    # checked before GF(q^(r t)) is built, whose error would name m = r t
    # and whose log table may take seconds
    for flag, value in (("--r", args.r), ("--t", args.t),
                        ("--search-budget", args.search_budget)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1")
    if (args.a is None) != (args.b is None):
        raise ValueError("--a and --b go together")
    if args.a is not None:
        sub_size = args.q ** args.r     # GF(q^r) has q^r elements
        for idx in (args.a, args.b):
            if not 0 <= idx < sub_size:
                raise ValueError(f"subfield index {idx} outside [0, {sub_size})")
    ctx = make_field(args.q, args.r * args.t, seed=args.seed,
                     effort=_effort(args), cache=_cache(args))
    if not ctx.order_facts.complete:
        return {"status": "Unresolved"}, EXIT_UNRESOLVED
    rng = random.Random(args.seed)
    if args.f:
        f = _parse_function(ctx, args.f)
    else:
        n1 = args.n - args.n // 2
        n2 = args.n // 2
        f = sample_rational(ctx, n1, n2, rng)
    subfield = ctx.subfield_elements(args.r)
    pairs = ([(subfield[args.a], subfield[args.b])] if args.a is not None
             else [(a, b) for a in subfield for b in subfield])
    found = _settle_pairs(ctx, f, pairs, args.r, args.exhaustive,
                          args.search_budget, rng)
    results = []
    for a, b in pairs:
        entry = {
            "a_index": subfield.index(a),
            "b_index": subfield.index(b),
            "definitive": args.exhaustive,
        }
        eps = found.get((a, b))
        if eps is None:
            entry["status"] = ("NoneExists" if args.exhaustive
                               else "NotFoundWithinBudget")
        else:
            entry["status"] = "Found"
            entry["witness_index"] = ctx.to_index(eps)
            entry["image_index"] = ctx.to_index(eval_rational(ctx, f, eps))
        results.append(entry)
    return {
        "q": args.q, "r": args.r, "t": args.t, "n": f.degsum,
        "function": {
            "scale": ctx.to_index(f.scale),
            "num": [ctx.to_index(c) for c in f.num.coeffs],
            "den": [ctx.to_index(c) for c in f.den.coeffs],
        },
        "results": results,
    }, EXIT_MISMATCH if len(found) < len(pairs) else EXIT_OK


def _divisors(ctx) -> list[int]:
    """Every divisor of Q - 1, ascending, from the field's factorization."""
    divs = [1]
    for ell, e in ctx.order_facts.factors:
        divs = [d * ell ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _suite_indicators(ctx, rng, r, samples):
    subfield = ctx.subfield_elements(r)    # checks r before any work
    mismatches = checked = 0
    for u in list(ctx.order_facts.primes()) + [ctx.Q - 1]:
        for eps in ctx.units():
            checked += 1
            truth = 1 if ctx.is_ufree(eps, u) else 0
            mismatches += rho_indicator(ctx, u, eps) != truth
    for a in subfield:
        for eps in ctx.elements():
            checked += 1
            truth = 1 if ctx.trace_rel(eps, r) == a else 0
            mismatches += tau_indicator(ctx, a, eps, r) != truth
    return {"checked": checked, "mismatches": mismatches}, mismatches == 0


def _suite_weil(ctx, rng, r, samples):
    subfield = ctx.subfield_elements(r)    # checks r before m // r
    p = ctx.q ** r
    t = ctx.m // r
    violations = []
    records = []
    divisors = _divisors(ctx)[1:]
    if not divisors:
        raise ValueError(f"Q - 1 = {ctx.Q - 1} has no character order >= 2")
    for _ in range(samples):
        n1, n2 = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        f = sample_rational(ctx, n1, n2, rng)
        a = rng.choice(subfield)
        b = rng.choice(subfield)
        s1 = rng.choice(divisors)
        s2 = rng.choice(divisors)
        val = abs(char_sum_chi(ctx, f, a, b, s1, s2, r))
        bound = (2 * f.degsum + 1) * p ** (t / 2 + 2)
        records.append({"s1": s1, "s2": s2, "abs": _f10(val),
                        "bound": _f10(bound)})
        if val > bound:
            violations.append(records[-1])
    return {"samples": records, "violations": violations}, not violations


def _suite_expansion(ctx, rng, r, samples):
    subfield = ctx.subfield_elements(r)
    divisors = _divisors(ctx)
    out = []
    for _ in range(samples):
        n1, n2 = rng.choice([(1, 1), (2, 1), (1, 2)])
        f = sample_rational(ctx, n1, n2, rng)
        a, b = rng.choice(subfield), rng.choice(subfield)
        k1, k2 = rng.choice(divisors), rng.choice(divisors)
        count = count_A_direct(ctx, f, a, b, k1, k2, r, check_expansion=True)
        out.append({"k1": k1, "k2": k2, "count": count})
    return {"samples": out}, True


def _suite_lemma32(ctx, rng, r, samples):
    subfield = ctx.subfield_elements(r)
    primes = list(ctx.order_facts.primes())
    if not primes:
        raise ValueError(f"Q - 1 = {ctx.Q - 1} has no prime divisor m")
    divisors = _divisors(ctx)
    out = []
    ok = True
    for _ in range(samples):
        f = sample_rational(ctx, 1, 1, rng)
        a, b = rng.choice(subfield), rng.choice(subfield)
        m_prime = rng.choice(primes)
        k = rng.choice([d for d in divisors if d % m_prime])
        rep = verify_lemma32(ctx, f, a, b, k, m_prime, r)
        out.append({"k": k, "m": m_prime,
                    "lhs_first": _f10(rep.lhs_first),
                    "lhs_second": _f10(rep.lhs_second),
                    "bound": _f10(rep.bound), "holds": rep.holds})
        ok = ok and rep.holds
    return {"samples": out}, ok


def _suite_lemma33(ctx, rng, r, samples):
    subfield = ctx.subfield_elements(r)
    primes = list(ctx.order_facts.primes())
    out = []
    ok = True
    for _ in range(samples):
        f = sample_rational(ctx, 1, 1, rng)
        a, b = rng.choice(subfield), rng.choice(subfield)
        j = rng.randrange(len(primes) + 1)
        k = 1
        for q in primes[:j]:
            k *= q
        rep = verify_lemma33(ctx, f, a, b, k, r)
        out.append({"k": k, "lhs": rep.lhs, "rhs": _f10(rep.rhs),
                    "holds": rep.holds})
        ok = ok and rep.holds
    return {"samples": out}, ok


_SUITES = {
    "indicators": _suite_indicators,
    "weil": _suite_weil,
    "expansion": _suite_expansion,
    "lemma32": _suite_lemma32,
    "lemma33": _suite_lemma33,
}


def _cmd_charsum_lab(args) -> tuple[dict, int]:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    # the lab cap, checked before GF(q^m) and its log table are built; a q
    # that is not prime still gets make_field's message
    if is_prime(args.q):
        _require_lab_size(args.q, args.m)
    ctx = make_field(args.q, args.m, seed=args.seed, effort=_effort(args),
                     cache=_cache(args))
    report, ok = _SUITES[args.suite](ctx, random.Random(args.seed), args.r,
                                     args.samples)
    return {
        "q": args.q, "m": args.m, "r": args.r,
        "suite": args.suite,
        "report": report,
        "passed": ok,
    }, EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="primpair",
        description="Verification toolkit for primitive pairs of rational "
                    "functions with prescribed traces.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=5_000_000,
                        help="iteration budget of Pollard rho, which finds "
                             "every prime factor above 2^16")
    parser.add_argument("--cache", default="",
                        help="factor cache path; none by default")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("check-bound", help="sufficient-condition verdict")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=_cmd_check_bound)

    s = sub.add_parser("sieve", help="sieve verdict; searches k when omitted")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--k-primes", type=int, nargs="*", default=None)
    s.set_defaults(func=_cmd_sieve)

    s = sub.add_parser("table1", help="worst-case sieve window table")
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=_cmd_table1)

    s = sub.add_parser("lemma35", help="squarefree-part bound constants")
    s.set_defaults(func=_cmd_lemma35)

    s = sub.add_parser("survey", help="classify all candidates for one t")
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--paper-diff", action="store_true")
    s.set_defaults(func=_cmd_survey)

    s = sub.add_parser("witness", help="search for a primitive pair witness")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--f", default=None,
                   help="scale:num:den with comma-separated element indices")
    s.add_argument("--a", type=int, default=None, help="subfield index")
    s.add_argument("--b", type=int, default=None, help="subfield index")
    s.add_argument("--exhaustive", action="store_true")
    s.add_argument("--search-budget", type=int, default=100_000)
    s.set_defaults(func=_cmd_witness)

    s = sub.add_parser("charsum-lab", help="character-sum verification suites")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--suite", choices=sorted(_SUITES), required=True)
    s.add_argument("--samples", type=int, default=20)
    s.set_defaults(func=_cmd_charsum_lab)
    return parser


def main(argv=None) -> int:
    """The one writer of process output: a subcommand's report, with the run
    configuration added, on stdout, or one line on stderr."""
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        payload["config"] = _run_config(args)
        print(json.dumps(payload, sort_keys=True, indent=2, default=json_value))
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FactorizationIncomplete as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED


if __name__ == "__main__":
    sys.exit(main())
