"""Number-theory layer, checked against sympy as an independent oracle."""

import bisect
import itertools
import math
import sys
import threading
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primpair import ntheory
from primpair.bounds import Verdict, check_thm31
from primpair.errors import FactorizationIncomplete
from primpair.ntheory import (
    TRIAL_BOUND,
    FactorCache,
    FactorEffort,
    Factorization,
    cyclotomic_split,
    euler_phi,
    factor_prime_power_order,
    factorize,
    integer_nth_root,
    is_prime,
    mobius,
    primes_upto,
    primes_window,
    squarefree_divisors,
)


class TestIsPrime:
    def test_small_range_vs_sympy(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n)

    def test_every_n_across_the_trial_bound(self):
        # a bisect into the one prime list up to TRIAL_BOUND, Miller-Rabin
        # above it
        for n in range(-2, TRIAL_BOUND + 2001):
            assert is_prime(n) == sympy.isprime(n), n

    def test_large_known_primes(self):
        assert is_prime(2 ** 61 - 1)            # Mersenne
        assert is_prime(2 ** 127 - 1)
        assert not is_prime(2 ** 67 - 1)        # 193707721 * 761838257287
        assert not is_prime(3215031751)         # strong pseudoprime to 2,3,5,7

    @given(st.integers(min_value=2, max_value=10 ** 12))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)


# OEIS A014233, k = 1..13: the least odd composite that is a strong
# pseudoprime to each of the first k prime bases.
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


class TestGradedMillerRabin:
    def test_bound_table(self):
        assert ntheory._MR_BOUNDS == A014233
        assert ntheory._DETERMINISTIC_LIMIT == A014233[-1]
        assert ntheory._SMALL_PRIMES == tuple(sympy.primerange(2, 42))

    @pytest.mark.parametrize("k,n", list(enumerate(A014233, start=1)))
    def test_terms_are_composite(self, k, n):
        assert not sympy.isprime(n)
        # n fools the first k - 1 bases, so is_prime must use the k-th too
        assert all(ntheory._miller_rabin(n, b)
                   for b in ntheory._SMALL_PRIMES[:k - 1])
        assert not is_prime(n)

    def test_twelve_base_pseudoprime(self):
        # a strong pseudoprime to bases 2..37 that only base 41 exposes
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not is_prime(n)

    @pytest.mark.parametrize("bound", sorted(set(A014233)))
    def test_agrees_with_sympy_around_bound(self, bound):
        for n in range(bound - 2000, bound + 2001):
            assert is_prime(n) == sympy.isprime(n), n

    def test_cache_primes_are_prime(self):
        # every factor below the deterministic limit in the benchmark's
        # warm cache, which this test only reads
        primes = set()
        with open(WARM_CACHE, "rb") as fh:
            for line in fh:
                fac = ntheory._parse_cache_line(line)
                if fac is not None:
                    primes.update(fac.primes())
        primes = {q for q in primes if q < ntheory._DETERMINISTIC_LIMIT}
        assert len(primes) > 1000
        assert all(is_prime(q) and sympy.isprime(q) for q in primes)


class TestPrimes:
    def test_primes_upto(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_upto(1) == []

    def test_limits_after_a_larger_sieve(self):
        # either side of the one list's end, 65,537 being the prime above it
        primes_upto(10 ** 6)
        # one oracle list, sliced per limit, from sympy's stored sieve, which
        # extends itself: sympy.primerange re-sieves past it on every call
        oracle = list(sympy.sieve.primerange(2, 10 ** 6 + 1))
        for limit in (0, 1, 2, 7918, 7919, TRIAL_BOUND - 1, TRIAL_BOUND,
                      TRIAL_BOUND + 1, 10 ** 6):
            assert primes_upto(limit) == oracle[:bisect.bisect_right(oracle, limit)]

    def test_returned_list_is_a_copy(self):
        for limit in (100, TRIAL_BOUND, 2 * TRIAL_BOUND):
            ps = primes_upto(limit)
            assert primes_upto(limit) is not ps
            expected = list(ps)
            ps[0] = 9
            ps.append(4)
            assert primes_upto(limit) == expected
            ps.clear()
            assert primes_upto(limit) == expected
        assert primes_upto(100) == list(sympy.primerange(2, 101))

    @staticmethod
    def _plain_sieve(bound):
        flags = bytearray([1]) * (bound + 1)
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(bound ** 0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(flags[i * i :: i]))
        return [i for i, f in enumerate(flags) if f]

    def test_sieve_build_matches_plain_sieve(self):
        for bound in list(range(0, 301)) + [10 ** 6]:
            assert ntheory._eratosthenes(bound) == self._plain_sieve(bound)

    def test_primes_window_one_indexed(self):
        assert primes_window(1, 5) == [2, 3, 5, 7, 11]
        assert primes_window(63, 63) == [307]        # 63rd prime
        assert primes_window(1546, 1546) == [12979]
        assert primes_window(1547, 1547) == [12983]

    def test_nth_prime_vs_sympy(self):
        for i in (1, 10, 100, 1000, 1547):
            assert primes_window(i, i) == [sympy.prime(i)]


class TestFactorize:
    def test_one(self):
        fac = factorize(1)
        assert fac.factors == () and fac.complete

    def test_small_vs_sympy(self):
        # the last row has prime factors in (TRIAL_BOUND, 10^6], which rho
        # splits off, with a square and a cube for the perfect-power check
        for n in list(range(2, 500)) + [2 ** 32 - 1, 10 ** 12 + 39] + [
                65537 * 65539, 999979 * 999983, 3 * 65537 ** 2, 65537 ** 3,
                7 * 131071 ** 3 * 999983, 2 * 65537 ** 2 * 524287 * 999983]:
            fac = factorize(n)
            assert fac.complete
            assert dict(fac.factors) == sympy.factorint(n)

    def test_product_invariant(self):
        fac = factorize(2 ** 64 - 1)
        prod = fac.cofactor
        for p, e in fac.factors:
            prod *= p ** e
        assert prod == 2 ** 64 - 1

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_random_vs_sympy(self, n):
        assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_perfect_power(self):
        fac = factorize(10007 ** 6)
        assert fac.factors == ((10007, 6),)

    def test_partial_on_tiny_budget(self):
        # product of two 16-digit primes; near-zero budget cannot split it
        n = 1000000000000037 * 1000000000000091
        fac = factorize(n, effort=FactorEffort(rho_iterations=1))
        assert not fac.complete
        assert fac.cofactor > 1
        with pytest.raises(FactorizationIncomplete):
            fac.require_complete()

    def test_trial_bound_is_fixed(self):
        assert FactorEffort().trial_bound == TRIAL_BOUND == 1 << 16
        with pytest.raises(TypeError):
            FactorEffort(trial_bound=10)


class TestTrialDivisionWalk:
    @staticmethod
    def _check(n):
        fac = factorize(n)
        assert fac.complete and fac.cofactor == 1
        primes = fac.primes()
        assert list(primes) == sorted(set(primes))
        assert all(sympy.isprime(p) for p in primes)
        prod = 1
        for p, e in fac.factors:
            prod *= p ** e
        assert prod == n
        return fac

    def test_prime_above_1e12(self):
        n = 10 ** 12 + 39
        assert self._check(n).factors == ((n, 1),)

    def test_small_prime_times_20_digit_prime(self):
        big = sympy.nextprime(10 ** 19)
        assert self._check(7 * big).factors == ((7, 1), (big, 1))

    def test_semiprime_beyond_trial_bound_needs_rho(self):
        assert self._check(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))

    def test_square_of_prime_beyond_trial_bound(self):
        assert self._check(1000003 ** 2).factors == ((1000003, 2),)

    @pytest.mark.parametrize("p,t", [(2, 62), (22247, 7), (3, 40)])
    def test_prime_power_orders(self, p, t):
        fac = self._check(p ** t - 1)
        assert fac == factor_prime_power_order(p, t)


class TestFactorizationType:
    def test_validation_rejects_bad_product(self):
        with pytest.raises(ValueError):
            Factorization(10, ((3, 1),), 1)

    def test_validation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Factorization(15, ((5, 1), (3, 1)), 1)

    @pytest.mark.parametrize("n,factors", [
        (15, ((3, 1), (5, 1), (1000003, 0))),   # zero exponent
        (15, ((1, 3), (3, 1), (5, 1))),         # 1, 0 and -1 are no primes
        (0, ((0, 1),)),
        (-15, ((-1, 1), (3, 1), (5, 1))),
        (24, ((2, 1), (2, 2), (3, 1))),         # repeated prime
    ])
    def test_validation_rejects_a_bad_factor_list(self, n, factors):
        with pytest.raises(ValueError):
            Factorization(n, factors, 1)


class TestCyclotomicSplit:
    @pytest.mark.parametrize("p,t", [(2, 7), (2, 12), (3, 8), (5, 6), (7, 10)])
    def test_product_recovers_order(self, p, t):
        vals = cyclotomic_split(p, t)
        prod = 1
        for v in vals:
            prod *= v
        assert prod == p ** t - 1

    def test_values_vs_sympy(self):
        divs = [d for d in range(1, 13) if 12 % d == 0]
        vals = cyclotomic_split(3, 12)
        assert vals == [sympy.cyclotomic_poly(d, 3) for d in divs]


class TestFactorPrimePowerOrder:
    @pytest.mark.parametrize("p,t", [(2, 7), (8, 9), (3, 10), (49, 7)])
    def test_matches_direct(self, p, t):
        fac = factor_prime_power_order(p, t)
        assert fac.complete
        assert dict(fac.factors) == sympy.factorint(p ** t - 1)


class TestArithmeticFunctions:
    def test_mobius_vs_sympy(self):
        for n in range(1, 300):
            assert mobius(n) == sympy.mobius(n)

    def test_mobius_needs_a_complete_factorization(self, monkeypatch):
        monkeypatch.setattr(ntheory, "_rho_hints", lambda: ())
        monkeypatch.setattr(ntheory, "_brent_rho", _rho_finds_nothing)
        with pytest.raises(FactorizationIncomplete):
            mobius(1000003 * 1000033 * 1000037)

    def test_euler_phi_vs_sympy(self):
        for n in range(1, 300):
            assert euler_phi(factorize(n)) == sympy.totient(n)

    def test_squarefree_divisors(self):
        assert list(squarefree_divisors(factorize(12))) == [1, 2, 3, 6]
        assert list(squarefree_divisors(factorize(1))) == [1]

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_squarefree_divisor_count(self, n):
        divs = list(squarefree_divisors(factorize(n)))
        assert len(divs) == 1 << len(factorize(n).factors) == len(set(divs))


class TestIntegerNthRoot:
    @given(st.integers(min_value=0, max_value=10 ** 40),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_floor_root_property(self, n, k):
        r = integer_nth_root(n, k)
        assert r ** k <= n < (r + 1) ** k

    def test_exact_powers(self):
        assert integer_nth_root(7 ** 30, 30) == 7
        assert integer_nth_root(7 ** 30 - 1, 30) == 6


class TestFactorCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = FactorCache(str(path))
        fac = factorize(2 ** 22 - 1)
        cache.put(fac)
        reloaded = FactorCache(str(path))
        assert reloaded.get(2 ** 22 - 1) == fac

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("garbage\nn=15 factors=3^1,5^1 cofactor=1 status=C\n"
                        "n=bad factors= cofactor= status=Q\n")
        cache = FactorCache(str(path))
        assert cache.get(15) is not None
        assert cache.get(15).complete

    def test_thread_safety(self, tmp_path):
        cache = FactorCache(str(tmp_path / "cache.txt"))
        ns = list(range(2, 200))

        def worker(chunk):
            for n in chunk:
                cache.put(factorize(n))

        threads = [threading.Thread(target=worker, args=(ns[i::4],))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        reloaded = FactorCache(str(cache.path))
        for n in ns:
            assert reloaded.get(n) == factorize(n)

    def test_used_by_factor_prime_power_order(self, tmp_path):
        cache = FactorCache(str(tmp_path / "cache.txt"))
        first = factor_prime_power_order(2, 89, cache=cache)
        assert first.complete
        # a hit must be returned even under a budget that cannot refactor
        again = factor_prime_power_order(
            2, 89, effort=FactorEffort(rho_iterations=1), cache=cache)
        assert again == first


WARM_CACHE = (Path(__file__).resolve().parent.parent
              / "perfbench" / "data" / "warm_factor_cache.txt")


class TestLazyFactorCache:
    N = 1000003 * 1000033
    COMPLETE = f"n={N} factors=1000003^1,1000033^1 cofactor=1 status=C\n"
    PARTIAL = f"n={N} factors= cofactor={N} status=P\n"

    def test_construction_parses_no_line(self, monkeypatch):
        parsed = []
        real = ntheory._parse_cache_line

        def counting(line):
            parsed.append(line)
            return real(line)

        monkeypatch.setattr(ntheory, "_parse_cache_line", counting)
        cache = FactorCache(str(WARM_CACHE))
        assert parsed == []
        n = 3 ** 7 - 1
        assert cache.get(n) == factorize(n)
        assert len(parsed) == 1
        # memoised: a second get parses nothing
        assert cache.get(n) == factorize(n)
        assert cache.get(10 ** 50 + 151) is None
        assert len(parsed) == 1

    @pytest.mark.parametrize("order", [(PARTIAL, COMPLETE), (COMPLETE, PARTIAL)])
    def test_complete_beats_partial_duplicate(self, tmp_path, order):
        path = tmp_path / "cache.txt"
        path.write_text("".join(order))
        fac = FactorCache(str(path)).get(self.N)
        assert fac.complete and fac == factorize(self.N)

    def test_partial_entry_alone(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(self.PARTIAL)
        assert FactorCache(str(path)).get(self.N) is None

    @pytest.mark.parametrize("line", [
        "n=15 factors=3^1 cofactor=5 status=C\n",         # C with a cofactor
        "n=15 factors=3^1,5^1 cofactor=1 status=P\n",     # P without one
    ])
    def test_status_disagreeing_with_cofactor_is_a_miss(self, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text(line)
        assert FactorCache(str(path)).get(15) is None

    @pytest.mark.parametrize("corrupt", [
        "n=15 factors=3^1,5^x cofactor=1 status=C\n",
        "n=15 factors=3^1,7^1 cofactor=1 status=C\n",    # product is 21
        "n=15 factors=3^1 status=C\n",
        "n=15\n",
        "factors=3^1,5^1 cofactor=1 status=C n=15\n",   # n is not first
        "n=15 factors=2^4 cofactor=1 status=C n=16\n",   # a line of 16
    ])
    def test_corrupt_line_before_valid_duplicate(self, tmp_path, corrupt):
        path = tmp_path / "cache.txt"
        path.write_text(corrupt + "\n# comment\nn=x\n"
                        "n=15 factors=3^1,5^1 cofactor=1 status=C\n")
        assert FactorCache(str(path)).get(15) == factorize(15)

    def test_non_utf8_line_is_a_miss(self, tmp_path):
        # decoded leniently, the n=15 line would parse; strictly it is no
        # UTF-8, a miss like any corrupt line, and the other lines load
        path = tmp_path / "cache.txt"
        lines = (b"n=15 factors=3^1,5^1 cofactor=1 status=C note=\xff\n"
                 + b"\xfe\xff\n" + self.COMPLETE.encode()
                 + b"n=21 factors=3^1,7^1 cofactor=1 status=C\n")
        path.write_bytes(lines)
        cache = FactorCache(str(path))
        assert cache.get(15) is None
        assert cache.get(self.N) == factorize(self.N)
        assert cache.get(21) == factorize(21)
        # put appends the same bytes as ever after the bad lines
        cache.put(factorize(15))
        assert path.read_bytes() == lines + b"n=15 factors=3^1,5^1 cofactor=1 status=C\n"
        assert FactorCache(str(path)).get(15) == factorize(15)

    def test_token_is_matched_as_written(self, tmp_path):
        # the index key is the line's n= token, never int() of it
        path = tmp_path / "cache.txt"
        path.write_text("n=015 factors=3^1,5^1 cofactor=1 status=C\n")
        assert FactorCache(str(path)).get(15) is None

    @pytest.mark.parametrize("factors", [
        "2^3,11^1,1000003^0,502628805631^1",    # zero exponent
        "1^3,2^3,11^1,502628805631^1",          # 1 is no prime
        "2^1,2^2,11^1,502628805631^1",          # repeated prime
    ])
    def test_bad_factor_list_is_a_miss(self, tmp_path, factors):
        # 89^7 - 1 = 2^3 * 11 * 502628805631: omega 3 and W 8, where the
        # line would give omega 4 and W 16 and turn Pass into Fail
        n = 89 ** 7 - 1
        path = tmp_path / "cache.txt"
        path.write_text(f"n={n} factors={factors} cofactor=1 status=C\n")
        cache = FactorCache(str(path))
        assert cache.get(n) is None
        fac = factor_prime_power_order(89, 7, cache=cache)
        rep = check_thm31(89, 7, 2, fac)
        assert (len(fac.factors), rep.W, rep.verdict) == (3, 8, Verdict.PASS)

    def test_put_reads_back_from_a_fresh_cache(self, tmp_path):
        path = tmp_path / "cache.txt"
        fac = factor_prime_power_order(2, 67, cache=FactorCache(str(path)))
        fresh = FactorCache(str(path))
        assert fresh.get(2 ** 67 - 1) == fac
        assert fresh.get(2 ** 67 - 1).factors == ((193707721, 1), (761838257287, 1))

    def test_put_goes_through_the_file_entries(self, tmp_path):
        path = tmp_path / "cache.txt"
        complete = factorize(self.N)
        # the second cache finds the first one's line on file
        FactorCache(str(path)).put(complete)
        FactorCache(str(path)).put(complete)
        assert path.read_text() == self.COMPLETE
        with pytest.raises(FactorizationIncomplete):
            FactorCache(str(path)).put(Factorization(self.N, (), self.N))
        assert path.read_text() == self.COMPLETE

    def test_partial_result_leaves_no_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        fac = factor_prime_power_order(2, 67, effort=FactorEffort(rho_iterations=1),
                                       cache=FactorCache(str(path)))
        assert not fac.complete
        assert not path.exists()

    def test_concurrent_get_and_put(self, tmp_path):
        # eight threads put every n in the same order, so a check-then-act
        # that is not atomic appends twice
        path = tmp_path / "cache.txt"
        facs = {n: factorize(n) for n in range(2, 2000)}
        cache = FactorCache(str(path))
        errors = []

        def worker():
            try:
                for n, fac in facs.items():
                    cache.put(fac)
                    assert cache.get(n) == fac
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        appended = path.read_text().splitlines()
        assert appended == [ntheory._format_cache_line(fac) for fac in facs.values()]

class TestRhoHints:
    def test_shipped_file(self):
        hints = ntheory._rho_hints()
        assert len(hints) == 521
        assert list(hints) == sorted(set(hints))
        assert all(h > 10 ** 8 and is_prime(h) and sympy.isprime(h) for h in hints)

    # the composite part left after trial division, and a prime above the
    # trial bound that divides the rest of n
    M = 1000003 * 1000033 * 1000037

    @pytest.mark.parametrize("hints", [
        (),
        (1000003 * 1000033,),          # composite divisor
        (1000039, 2 ** 61 - 1),        # not divisors
        (M,),                          # the cofactor itself
        (0, 1, M * 2, 1000003 * 1000037, M),
    ])
    def test_hints_are_never_trusted(self, monkeypatch, hints):
        n = 2 * 3 * self.M
        monkeypatch.setattr(ntheory, "_rho_hints", lambda: hints)
        fac = factorize(n)
        assert fac.complete
        assert dict(fac.factors) == sympy.factorint(n)

    def test_hint_that_divides_is_used_without_rho(self, monkeypatch):
        monkeypatch.setattr(ntheory, "_rho_hints", lambda: (1000003, 1000033))
        monkeypatch.setattr(ntheory, "_brent_rho", _no_rho)
        assert dict(factorize(self.M).factors) == sympy.factorint(self.M)

    @pytest.mark.parametrize("p", [12547, 22273])
    def test_survey_cold_tail_needs_no_rho(self, monkeypatch, p):
        monkeypatch.setattr(ntheory, "_brent_rho", _no_rho)
        fac = factor_prime_power_order(p, 7)
        assert fac.complete
        assert dict(fac.factors) == sympy.factorint(p ** 7 - 1)


def _no_rho(*args):
    raise AssertionError("rho was called")


def _rho_finds_nothing(m, budget, rng):
    return None, budget


class TestCyclotomicProgression:
    """p^t - 1, factored part by part through the cyclotomic split."""

    SAMPLES = [
        (12547, 7), (22273, 7), (10007, 7), (26357, 7), (2, 7),
        (1013, 8), (1346, 8), (3, 8),
        (2, 23),
        (997, 12), (101, 12), (2, 12),
        (31, 30), (13, 30), (2, 30),
        (7, 60), (5, 60), (2, 60),
    ]

    @pytest.mark.parametrize("p,t", SAMPLES)
    def test_matches_sympy(self, p, t):
        fac = factor_prime_power_order(p, t)
        assert fac.complete
        assert dict(fac.factors) == sympy.factorint(p ** t - 1)


def _joined_blocks():
    joined = []
    for block, product in ntheory._trial_blocks():
        assert product == math.prod(block)
        joined += block
    return joined


class TestTrialBlocks:
    def test_blocks_join_to_the_primes_upto_bound(self):
        ntheory._trial_blocks.cache_clear()
        assert _joined_blocks() == primes_upto(TRIAL_BOUND)
        assert {len(block) for block, _ in ntheory._trial_blocks()[:-1]} == {256}

    def test_grown_sieve_leaves_blocks_and_factors(self, monkeypatch):
        orders = [(12547, 7), (1013, 8), (7, 60)]
        ntheory._trial_blocks.cache_clear()
        blocks = _joined_blocks()
        facs = [factor_prime_power_order(p, t) for p, t in orders]
        primes_upto(2 * TRIAL_BOUND)
        ntheory._trial_blocks.cache_clear()
        assert _joined_blocks() == blocks
        assert [factor_prime_power_order(p, t) for p, t in orders] == facs
        # primes between the trial bound and the larger sieve are left to rho
        monkeypatch.setattr(ntheory, "_rho_hints", lambda: ())
        monkeypatch.setattr(ntheory, "_brent_rho", _rho_finds_nothing)
        q1 = sympy.nextprime(TRIAL_BOUND)
        q2 = sympy.prevprime(2 * TRIAL_BOUND)
        n = 6 * q1 * q2
        fac = factorize(n)
        assert (fac.factors, fac.cofactor) == (((2, 1), (3, 1)), q1 * q2)

    def test_seam_at_the_trial_bound(self, monkeypatch):
        # 65,521 is the last trial prime, 65,537 the first prime above it:
        # with rho stubbed, its square still falls to the perfect-power check
        # and a product of two primes above the bound stays the cofactor
        monkeypatch.setattr(ntheory, "_rho_hints", lambda: ())
        monkeypatch.setattr(ntheory, "_brent_rho", _rho_finds_nothing)
        assert primes_upto(TRIAL_BOUND)[-1] == 65521
        assert sympy.nextprime(TRIAL_BOUND) == 65537
        fac = factorize(65521 * 65537 ** 2)
        assert fac.complete and fac.factors == ((65521, 1), (65537, 2))
        fac = factorize(65537 * 65539)
        assert (fac.factors, fac.cofactor) == ((), 65537 * 65539)

    def test_small_factors_keep_the_floor_sieve(self, sieve_bounds):
        # a full walk builds the list up to the trial bound once, and no
        # factorization sieves past it
        factor_prime_power_order(2, 22)
        factorize(242)
        assert sieve_bounds == [TRIAL_BOUND]
        factorize(1000003 * 1000033)
        factor_prime_power_order(12547, 7)
        assert sieve_bounds == [TRIAL_BOUND]

    @pytest.mark.parametrize("n,blocks", [
        (2 ** 10 * 3, [0]),                              # cofactor 1
        (2 * (10 ** 12 + 39), [0]),                      # prime cofactor
        (primes_upto(10 ** 4)[3 * 256 + 5] * (10 ** 12 + 39), [0, 1, 2, 3]),
        (1000003 * 1000033, list(range(-(-len(primes_upto(TRIAL_BOUND)) // 256)))),
    ])
    def test_walk_ends_at_the_exposing_block(self, monkeypatch, n, blocks):
        # a block counts as walked once the loop comes back for the next one
        walked = []
        real = ntheory._trial_blocks

        def recording():
            for i, entry in enumerate(real()):
                yield entry
                walked.append(i)

        monkeypatch.setattr(ntheory, "_trial_blocks", recording)
        assert dict(factorize(n).factors) == sympy.factorint(n)
        assert walked == blocks


class TestInputChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda: factorize(0), "n must be >= 1"),
        (lambda: primes_window(3, 2), "need 1 <= i <= j"),
        (lambda: cyclotomic_split(1, 3), "need p >= 2, t >= 1"),
        (lambda: mobius(0), "mobius needs a positive integer"),
        (lambda: integer_nth_root(-1, 2), "need n >= 0, k >= 1"),
    ], ids=["factorize", "primes_window", "cyclotomic_split", "mobius",
            "integer_nth_root"])
    def test_bad_input_is_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
