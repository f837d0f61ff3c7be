"""Exact-rational evaluation of the sufficient condition and its sieve variant.

The core inequality p^(t/2 - 2) > Y (Y rational) is decided by squaring:
p^(t-4) * den(Y)^2 > num(Y)^2, all in integers.  No floats anywhere here, so
verdicts cannot depend on the floating-point environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations

from .ntheory import (
    Factorization,
    integer_nth_root,
    is_prime,
    primes_window,
    split_prime_power,
)

__all__ = [
    "Verdict",
    "BoundReport",
    "SieveReport",
    "Table1Row",
    "check_thm31",
    "sieve_delta_Delta",
    "check_thm34",
    "find_sieve_params",
    "table1_row",
    "TABLE1_WINDOWS",
    "window_threshold",
    "absorbed_window_constants",
    "lemma35_constants",
    "Lemma35Record",
]


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    UNKNOWN = "Unknown"


def _exceeds(p: int, t: int, rhs: Fraction) -> bool:
    """p^(t/2-2) > rhs, decided exactly."""
    return p ** (t - 4) * rhs.denominator ** 2 > rhs.numerator ** 2


@dataclass(frozen=True)
class BoundReport:
    p: int
    t: int
    n: int
    W: int | None               # None when the factorization was partial
    rhs: Fraction | None        # (2n+1) * W^2
    verdict: Verdict
    reason: str = ""


@dataclass(frozen=True)
class SieveReport:
    p: int
    t: int
    n: int
    k_primes: tuple[int, ...]
    sieve_primes: tuple[int, ...]
    m: int
    delta: Fraction
    Delta: Fraction | None      # None when delta <= 0
    rhs: Fraction | None        # (2n+1) * Delta * W(k)^2, W(k) = 2^|k_primes|
    verdict: Verdict


def _require_degree_sum(n: int) -> None:
    """A verdict covers the classes (n1, n2) of degree sum n with both
    degrees >= 1, so n >= 2; at n = 1 only constant-side classes exist."""
    if n < 2:
        raise ValueError(f"degree sum n = {n} must be >= 2")


def _require_verdict_args(p: int, t: int, n: int) -> None:
    """The gate of every verdict, and of its callers before they factor: p a
    prime power, then n >= 2, then t >= 5 for the exponent t/2 - 2."""
    split_prime_power(p)
    _require_degree_sum(n)
    if t < 5:
        raise ValueError("need t >= 5")


def _require_verdict_input(p: int, t: int, n: int, facts: Factorization) -> None:
    """The gate, then that facts, whose primes the verdict reads, is p^t - 1."""
    _require_verdict_args(p, t, n)
    if facts.n != p ** t - 1:
        raise ValueError("facts must factor p^t - 1")


def check_thm31(p: int, t: int, n: int, facts: Factorization) -> BoundReport:
    """Does p^(t/2-2) > (2n+1) W(p^t - 1)^2 hold?  A Pass covers every f of
    degree sum n >= 2 whose numerator and denominator both have degree
    >= 1."""
    _require_verdict_input(p, t, n, facts)
    if not facts.complete:
        return BoundReport(p, t, n, None, None, Verdict.UNKNOWN,
                           reason=f"partial factorization, cofactor {facts.cofactor}")
    W = 1 << len(facts.factors)
    rhs = Fraction((2 * n + 1) * W * W)
    verdict = Verdict.PASS if _exceeds(p, t, rhs) else Verdict.FAIL
    return BoundReport(p, t, n, W, rhs, verdict)


def sieve_delta_Delta(sieve_primes) -> tuple[Fraction, Fraction | None]:
    """delta = 1 - 2*sum(1/q_i) and Delta = (2m-1)/delta + 2, exact
    rationals; Delta is None when delta <= 0.

    With L the product of the m sieve primes and S = sum(L/q), delta = d/L
    and Delta = D/d for the integers d = L - 2S and D = (2m+1)L - 4S."""
    ps = list(sieve_primes)
    if len(set(ps)) != len(ps):
        raise ValueError("sieve primes must be distinct")
    L = math.prod(ps)
    S = sum(L // q for q in ps)
    d = L - 2 * S
    Delta = Fraction((2 * len(ps) + 1) * L - 4 * S, d) if d > 0 else None
    return Fraction(d, L), Delta


def check_thm34(p: int, t: int, n: int, facts: Factorization,
                k_primes) -> SieveReport:
    """Sieve variant: delta > 0 and p^(t/2-2) > (2n+1) Delta W(k)^2."""
    _require_verdict_input(p, t, n, facts)
    facts.require_complete()
    all_primes = set(facts.primes())
    k_primes = tuple(sorted(k_primes))
    if len(set(k_primes)) != len(k_primes):
        raise ValueError("k primes must be distinct")
    for q in k_primes:
        if q not in all_primes:
            raise ValueError(f"{q} does not divide {p}^{t} - 1" if is_prime(q)
                             else f"{q} is not prime")
    sieve_primes = tuple(sorted(all_primes - set(k_primes)))
    m = len(sieve_primes)
    Wk = 1 << len(k_primes)
    delta, Delta = sieve_delta_Delta(sieve_primes)
    rhs = (None if Delta is None else
           Fraction((2 * n + 1) * Delta.numerator * Wk * Wk, Delta.denominator))
    verdict = (Verdict.PASS if rhs is not None and _exceeds(p, t, rhs)
               else Verdict.FAIL)
    return SieveReport(p, t, n, k_primes, sieve_primes, m, delta, Delta, rhs,
                       verdict)


# The subset stage of the sieve search tries every subset of this many of
# the smallest primes.
_SUBSET_PRIMES = 12


def find_sieve_params(p: int, t: int, n: int, facts: Factorization) -> SieveReport:
    """The report of the k that _sieve_search picks for p^t - 1."""
    _require_verdict_input(p, t, n, facts)
    facts.require_complete()
    return check_thm34(p, t, n, facts,
                       _sieve_search(p ** (t - 4), n, facts.primes()))


def _sieve_search(lhs: int, n: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """The k of the sieve search over the distinct ascending ``primes``,
    with lhs = p^(t-4), in integers alone.

    Order: k = product of the j smallest primes for j = 0..omega, then every
    subset of the smallest min(omega, _SUBSET_PRIMES) primes by size and
    position.  Returns the first k that passes, else the first Fail with
    the largest margin lhs den^2 - num^2 on the reduced rhs = num/den (a k
    with delta <= 0 has none and loses to any k that has one).

    L = prod(q) and A = sum(L/q) over all primes are formed once.  For a k
    with sieve primes s, rest = A - sum(L/q for q in k) is sum(L/q) over s,
    so d = L - 2 rest and D = (2|s|+1) L - 4 rest are the d and D of
    sieve_delta_Delta(s) times prod(k), which the reduced rhs cancels.
    """
    L = math.prod(primes)
    parts = [L // q for q in primes]
    A = sum(parts)
    pool, pool_parts = primes[:_SUBSET_PRIMES], parts[:_SUBSET_PRIMES]
    prefixes = ((primes[:j], parts[:j]) for j in range(len(primes) + 1))
    subsets = (pair for size in range(1, len(pool) + 1)
               for pair in zip(combinations(pool, size),
                               combinations(pool_parts, size)))
    scale = 2 * n + 1
    best = best_margin = None
    for k, k_parts in chain(prefixes, subsets):
        rest = A - sum(k_parts)
        d = L - 2 * rest
        if d > 0:
            D = (2 * (len(primes) - len(k)) + 1) * L - 4 * rest
            num = scale * D << 2 * len(k)
            g = math.gcd(num, d)
            margin = lhs * (d // g) ** 2 - (num // g) ** 2
            if margin > 0:
                return k
            if best_margin is None or margin > best_margin:
                best, best_margin = k, margin
        elif best is None:
            best = k
    return best


@dataclass(frozen=True)
class Table1Row:
    a: int
    b: int
    Wk: int
    delta_lb: Fraction
    Delta_ub: Fraction | None
    rhs_ub: Fraction | None     # (2n+1) * Delta_ub * Wk^2


# (a, b) windows of the published worst-case table, in row order.
TABLE1_WINDOWS = [
    (13, 94), (7, 34), (6, 25), (6, 23), (6, 22),
    (5, 19), (5, 17), (5, 16), (5, 15),
]

# The omega >= 63 section: k absorbs the first _ABSORBED primes and the
# sieve runs over primes _ABSORBED+1 .. _WINDOW_END.
_ABSORBED = 62
_WINDOW_END = 1546


def table1_row(a: int, b: int, n: int = 2) -> Table1Row:
    """Worst case over a <= omega(p^t - 1) <= b: k absorbs the a smallest
    primes, and delta is minimized by the contiguous window of the (a+1)-th
    through b-th primes."""
    _require_degree_sum(n)
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    Wk = 1 << a
    window = primes_window(a + 1, b) if b > a else []
    delta, Delta = sieve_delta_Delta(window)
    rhs = None if Delta is None else (2 * n + 1) * Delta * Wk * Wk
    return Table1Row(a, b, Wk, delta, Delta, rhs)


def window_threshold(bound: Fraction | int, t_min: int) -> int:
    """Ceiling of bound^(2*t/(t-4)) at t = t_min, where the exponent peaks.

    p^t above this value settles the sieve inequality for every t >= t_min.
    """
    if t_min < 5:
        raise ValueError("need t_min >= 5")
    bound = Fraction(bound)
    e = t_min - 4
    num = bound.numerator ** (2 * t_min)
    den = bound.denominator ** (2 * t_min)
    r = integer_nth_root(num // den, e)
    while r ** e * den < num:
        r += 1
    return r


def absorbed_window_constants(n: int = 2) -> tuple[Fraction, Fraction, Fraction]:
    """(delta, Delta, (2n+1) Delta W(k)^2) for k = product of the first
    _ABSORBED primes and sieve window of primes _ABSORBED+1 .. _WINDOW_END."""
    _require_degree_sum(n)
    window = primes_window(_ABSORBED + 1, _WINDOW_END)
    delta, Delta = sieve_delta_Delta(window)
    Wk = 1 << _ABSORBED
    return delta, Delta, (2 * n + 1) * Delta * Wk * Wk


def _decimal_digits(n: int) -> int:
    """Exact decimal digit count without int->str conversion limits."""
    if n <= 0:
        raise ValueError("need n > 0")
    lo = int(n.bit_length() * 0.30102999566398114)   # provisional, then adjust
    while 10 ** lo <= n:
        lo += 1
    while 10 ** (lo - 1) > n:
        lo -= 1
    return lo


@dataclass(frozen=True)
class Lemma35Record:
    product_digits: int
    product_exceeds_657e5586: bool
    twelfth_root: int
    twelfth_root_exceeds_542e463: bool
    pow2_1547_below_493e463: bool
    next_prime_after_12983: int
    next_prime_twelfth_power_exceeds_2: bool

    @property
    def all_hold(self) -> bool:
        return (self.product_exceeds_657e5586
                and self.twelfth_root_exceeds_542e463
                and self.pow2_1547_below_493e463
                and self.next_prime_twelfth_power_exceeds_2)


def lemma35_constants() -> Lemma35Record:
    """Exact big-integer checks behind the omega >= 1547 squarefree bound."""
    ps = primes_window(1, 1547)
    K = 1
    for q in ps:
        K *= q
    twelfth = integer_nth_root(K, 12)
    nxt = 12984
    while not is_prime(nxt):
        nxt += 1
    return Lemma35Record(
        product_digits=_decimal_digits(K),
        product_exceeds_657e5586=K > 657 * 10 ** 5586,
        twelfth_root=twelfth,
        twelfth_root_exceeds_542e463=twelfth > 542 * 10 ** 463,
        pow2_1547_below_493e463=2 ** 1547 < 493 * 10 ** 463,
        next_prime_after_12983=nxt,
        next_prime_twelfth_power_exceeds_2=nxt > 2 ** 12,
    )
