"""Exact integer number theory: factorization, multiplicative functions, primes.

Everything here works on arbitrary-precision Python ints.  Verdicts produced
downstream depend on *complete* factorizations, so a factorization keeps the
composite cofactor it could not split instead of silently guessing; it is
complete when that cofactor is 1.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import threading
from dataclasses import dataclass
from importlib import resources
from typing import ClassVar, Iterator

from .errors import FactorizationIncomplete

__all__ = [
    "Factorization",
    "FactorEffort",
    "FactorCache",
    "is_prime",
    "factorize",
    "factor_prime_power_order",
    "cyclotomic_split",
    "mobius",
    "euler_phi",
    "squarefree_divisors",
    "primes_upto",
    "primes_window",
    "integer_nth_root",
    "split_prime_power",
]


@dataclass(frozen=True)
class Factorization:
    """n = cofactor * prod(p^e); complete iff the cofactor is 1."""

    n: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self):
        prod, last = self.cofactor, 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("need increasing primes >= 2, exponents >= 1")
            prod, last = prod * p ** e, p
        if prod != self.n:
            raise ValueError(f"factor product {prod} != {self.n}")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def require_complete(self) -> None:
        if not self.complete:
            raise FactorizationIncomplete(
                f"factorization of {self.n} has composite cofactor {self.cofactor}"
            )


# ---------------------------------------------------------------------------
# primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# OEIS A014233: the least odd composite that is a strong pseudoprime to each
# of the first k prime bases, for k = 1..13 (Jaeschke, Math. Comp. 61, 1993;
# Sorenson and Webster, Math. Comp. 86, 2017).  Below its k-th entry, the
# first k bases decide primality exactly.
_MR_BOUNDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

# Miller-Rabin is deterministic below this bound.
_DETERMINISTIC_LIMIT = _MR_BOUNDS[-1]

# Random Miller-Rabin rounds above that bound, seeded by n.
_MR_ROUNDS = 64


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Up to TRIAL_BOUND a lookup in the one prime list; above it graded
    Miller-Rabin, exact below _DETERMINISTIC_LIMIT."""
    if n <= TRIAL_BOUND:
        primes = _small_primes()
        i = bisect.bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _DETERMINISTIC_LIMIT:
        k = bisect.bisect_right(_MR_BOUNDS, n) + 1
        return all(_miller_rabin(n, b) for b in _SMALL_PRIMES[:k])
    rng = random.Random(n)
    return all(_miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(_MR_ROUNDS))


# ---------------------------------------------------------------------------
# prime sieves

TRIAL_BOUND = 1 << 16  # trial division's bound and the end of the one prime list


def _eratosthenes(bound: int) -> list[int]:
    """All primes <= bound."""
    flags = bytearray(2) + bytearray([1]) * (bound - 1)    # flags[k] is k
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes((bound - i * i) // i + 1)
    return list(itertools.compress(range(bound + 1), flags))


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes <= TRIAL_BOUND, sieved once per process."""
    return tuple(_eratosthenes(TRIAL_BOUND))


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit: a slice of the one list up to TRIAL_BOUND, a
    sieve of its own above it, which nothing keeps."""
    if limit > TRIAL_BOUND:
        return _eratosthenes(limit)
    primes = _small_primes()
    return list(primes[: bisect.bisect_right(primes, limit)])


def primes_window(i: int, j: int) -> list[int]:
    """The i-th through j-th primes, 1-indexed (prime 1 = 2)."""
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    # overshoot the j-th prime via the standard upper bound
    bound = 15 if j < 6 else int(j * (math.log(j) + math.log(math.log(j)))) + 10
    ps = primes_upto(bound)
    while len(ps) < j:
        bound *= 2
        ps = primes_upto(bound)
    return ps[i - 1 : j]


# ---------------------------------------------------------------------------
# factorization

# Trial division takes the primes <= TRIAL_BOUND in blocks of _BLOCK
# consecutive primes, one gcd against the block's product each; rho takes
# every prime factor above it.
_BLOCK = 256


@dataclass(frozen=True)
class FactorEffort:
    """The rho budget of factorize(); the trial bound is fixed."""

    rho_iterations: int = 5_000_000
    trial_bound: ClassVar[int] = TRIAL_BOUND


class FactorCache:
    """Append-only on-disk cache of complete factorizations, one line per n.

    Line format: ``n=<dec> factors=<p1^e1,...> cofactor=1 status=C``.
    Loading reads the file as bytes and only indexes its lines by their
    first token; ``get(n)`` decodes and parses the lines of token
    ``n=<n>`` on first use and keeps the first one of that form.  Any other
    line, such as a partial (``status=P``) one that older files may hold,
    a corrupt one or one that is no UTF-8, is a miss; the others still load.
    ``put`` appends a complete factorization whose n is not held yet, under
    a lock.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.RLock()
        self._raw: dict[bytes, list[bytes]] = {}
        self._mem: dict[int, Factorization] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        for line in lines:
            self._raw.setdefault(line.partition(b" ")[0], []).append(line)

    def get(self, n: int) -> Factorization | None:
        key = b"n=%d" % n
        if key in self._raw:
            with self._lock:
                for line in self._raw.pop(key, ()):
                    fac = _parse_cache_line(line)
                    if fac is not None and fac.n == n:
                        self._mem[n] = fac
                        break
        return self._mem.get(n)

    def put(self, fac: Factorization) -> None:
        fac.require_complete()
        with self._lock:
            if self.get(fac.n) is None:
                self._mem[fac.n] = fac
                with open(self.path, "ab") as fh:
                    fh.write(_format_cache_line(fac).encode() + b"\n")


def _format_cache_line(fac: Factorization) -> str:
    fs = ",".join(f"{p}^{e}" for p, e in fac.factors)
    return f"n={fac.n} factors={fs} cofactor=1 status=C"


def _parse_cache_line(line: bytes) -> Factorization | None:
    """The complete factorization of a line in the one form that
    _format_cache_line writes; None for any other line, one that is no
    UTF-8 included."""
    try:
        kv = dict(tok.split("=", 1) for tok in line.decode().split())
        if (kv["cofactor"], kv["status"]) != ("1", "C"):
            return None
        factors = []
        if kv["factors"]:
            for part in kv["factors"].split(","):
                p, e = part.split("^")
                factors.append((int(p), int(e)))
        return Factorization(int(kv["n"]), tuple(factors))
    except (KeyError, ValueError):
        return None


def _brent_rho(n: int, budget: int, rng: random.Random) -> tuple[int | None, int]:
    """One Brent-cycle Pollard rho attempt.  Returns (factor or None, iters used)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1 and used < budget:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    if 1 < g < n:
        return g, used
    return None, used


@functools.cache
def _trial_blocks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The primes <= TRIAL_BOUND in blocks of _BLOCK, each with its product."""
    primes = _small_primes()
    blocks = (primes[i : i + _BLOCK] for i in range(0, len(primes), _BLOCK))
    return tuple((block, math.prod(block)) for block in blocks)


@functools.cache
def _rho_hints() -> tuple[int, ...]:
    """Primes above 10^8 that rho had to split off p^t - 1 in the surveys of
    t = 7..62 (tools/derive_rho_hints.py).  Tried as divisors before
    rho; a hint is never trusted, its pieces go through is_prime."""
    text = resources.files("primpair.data").joinpath("rho_hints.txt").read_text()
    return tuple(map(int, text.split()))


def factorize(n: int, effort: FactorEffort = FactorEffort()) -> Factorization:
    """Factor n >= 1.  It is partial only when the rho budget runs out."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Factorization(1, ())

    counts: dict[int, int] = {}
    composites: list[int] = []
    budget = effort.rho_iterations
    rng = None

    # trial division by blocks of primes, until the cofactor is 1 or prime;
    # a block whose gcd with m is 1 is skipped whole.  No isqrt(m) stop is
    # needed: a composite m has a prime factor <= isqrt(m) that no block
    # walked so far held.
    m = n
    m_prime = is_prime(m)
    for block, product in _trial_blocks():
        if m == 1 or m_prime:
            break
        # reducing first is cheaper than a gcd on the block product itself
        g = math.gcd(product % m, m)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                while m % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    m //= p
                g //= p
                if g == 1:
                    break
        m_prime = is_prime(m)
    if m_prime:
        counts[m] = 1
    elif m > 1:
        composites.append(m)

    unresolved = 1
    while composites:
        m = composites.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        # perfect-power check keeps rho off p^k inputs
        power = _prime_degree_root(m)
        if power is not None:
            root, k = power
            composites.extend([root] * k)
            continue
        found = next((h for h in _rho_hints() if 1 < h < m and m % h == 0), None)
        if found is None and rng is None:
            rng = random.Random(n)
        while found is None and budget > 0:
            found, used = _brent_rho(m, budget, rng)
            budget -= max(used, 1)
        if found is None:
            unresolved *= m
            continue
        composites.append(found)
        composites.append(m // found)

    return Factorization(n, tuple(sorted(counts.items())), unresolved)


def cyclotomic_split(p: int, t: int) -> list[int]:
    """Values of the d-th cyclotomic polynomial at p, for each divisor d of t
    in increasing order.

    Their product is p^t - 1, which makes this a useful pre-split before rho.
    """
    if p < 2 or t < 1:
        raise ValueError("need p >= 2, t >= 1")
    divs = [d for d in range(1, t + 1) if t % d == 0]
    values: dict[int, int] = {}
    for d in divs:
        v = p ** d - 1
        for e in divs:
            if e < d and d % e == 0:
                v //= values[e]
        values[d] = v
    return list(values.values())


def factor_prime_power_order(
    p: int,
    t: int,
    effort: FactorEffort = FactorEffort(),
    cache: FactorCache | None = None,
) -> Factorization:
    """Factorization of p^t - 1, pre-split through the cyclotomic values.

    A line of p^t - 1 in ``cache`` is returned as it is; a complete result
    is appended there.  Nothing else reads or writes the cache."""
    n = p ** t - 1
    hit = cache.get(n) if cache is not None else None
    if hit is not None:
        return hit
    counts: dict[int, int] = {}
    cof = 1
    for part in cyclotomic_split(p, t):
        sub = factorize(part, effort=effort)
        for q, e in sub.factors:
            counts[q] = counts.get(q, 0) + e
        cof *= sub.cofactor
    fac = Factorization(n, tuple(sorted(counts.items())), cof)
    if cache is not None and fac.complete:
        cache.put(fac)
    return fac


# ---------------------------------------------------------------------------
# multiplicative functions

def mobius(s: int) -> int:
    if s < 1:
        raise ValueError("mobius needs a positive integer")
    fac = factorize(s)
    fac.require_complete()
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def euler_phi(fac: Factorization) -> int:
    fac.require_complete()
    result = fac.n
    for p, _ in fac.factors:
        result -= result // p
    return result


def squarefree_divisors(fac: Factorization) -> Iterator[int]:
    """Yields the 2^omega squarefree divisors in increasing order."""
    fac.require_complete()
    divs = [1]
    for p, _ in fac.factors:
        divs += [d * p for d in divs]
    yield from sorted(divs)


def _prime_degree_root(m: int) -> tuple[int, int] | None:
    """(root, k) with m = root^k for the least prime k, or None when m >= 2
    is no perfect power.  The least k with m a k-th power is prime, so only
    prime k are tried."""
    for k in primes_upto(m.bit_length() - 1):
        root = integer_nth_root(m, k)
        if root ** k == m:
            return root, k
    return None


def split_prime_power(p: int) -> tuple[int, int]:
    """(q, r) with p = q^r and q prime; ValueError if p is no prime power.
    Integer roots of prime degree and is_prime decide it, never factoring."""
    q, r = p, 1
    while q > 1:
        if is_prime(q):
            return q, r
        power = _prime_degree_root(q)
        if power is None:
            break
        q, r = power[0], r * power[1]
    raise ValueError(f"{p} is not a prime power")


def integer_nth_root(n: int, k: int) -> int:
    """Largest r with r^k <= n (n >= 0, k >= 1)."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    r = 1 << (n.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    return r
