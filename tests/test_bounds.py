"""Exact-rational bound checks against published constants and cross-checks."""

import math
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primpair import bounds
from primpair.bounds import (
    TABLE1_WINDOWS,
    Verdict,
    _exceeds,
    absorbed_window_constants,
    check_thm31,
    check_thm34,
    find_sieve_params,
    lemma35_constants,
    sieve_delta_Delta,
    table1_row,
    window_threshold,
)
from primpair.errors import FactorizationIncomplete
from primpair.ntheory import (
    Factorization,
    FactorEffort,
    factor_prime_power_order,
    factorize,
    primes_upto,
)
from primpair.survey import enumerate_prime_powers, survey_range

# Published worst-case window table: (a, b, delta lower bound, Delta upper
# bound, final-column upper bound on 5*Delta*W(k)^2), all printed truncated.
PUBLISHED_TABLE = [
    (13, 94, "0.04481712", "3594.3767988", 1_206_072_718_756),
    (7, 34, "0.04609692", "1151.7513186", 94_351_469),
    (6, 25, "0.08241088", "450.9698124", 9_235_862),
    (6, 23, "0.12550135", "264.9453729", 5_426_082),
    (6, 22, "0.14959773", "209.2223842", 4_284_875),
    (5, 19, "0.07663431", "354.3225878", 1_814_132),
    (5, 17, "0.13927194", "167.1445296", 855_780),
    (5, 16, "0.17317025", "123.2679422", 631_132),
    (5, 15, "0.21090610", "92.0874844", 471_488),
]


class TestTable1:
    def test_window_list_matches(self):
        assert TABLE1_WINDOWS == [(a, b) for a, b, *_ in PUBLISHED_TABLE]

    @pytest.mark.parametrize("a,b,dlb,dub,final", PUBLISHED_TABLE)
    def test_row_brackets_published_values(self, a, b, dlb, dub, final):
        row = table1_row(a, b, n=2)
        assert row.Wk == 1 << a
        assert row.delta_lb > Fraction(dlb)
        assert row.Delta_ub < Fraction(dub)
        assert row.rhs_ub < final
        # printed values are truncations of ours, so they agree to ~1e-6
        assert row.delta_lb - Fraction(dlb) < Fraction(1, 10 ** 7)
        assert Fraction(dub) - row.Delta_ub < Fraction(1, 10 ** 6)
        assert final - row.rhs_ub < 1

    def test_scales_with_n(self):
        r2 = table1_row(5, 15, n=2)
        r3 = table1_row(5, 15, n=3)
        assert r3.rhs_ub == r2.rhs_ub * Fraction(7, 5)


class TestSieveDeltaDelta:
    def test_empty(self):
        assert sieve_delta_Delta([]) == (Fraction(1), Fraction(1))

    def test_single_prime(self):
        # delta = 1 - 2/7, Delta = 1/delta + 2
        delta, Delta = sieve_delta_Delta([7])
        assert delta == Fraction(5, 7)
        assert Delta == Fraction(7, 5) + 2

    def test_nonpositive_has_no_Delta(self):
        # 1 - 2(1/2 + 1/3) < 0
        assert sieve_delta_Delta([2, 3]) == (Fraction(-2, 3), None)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            sieve_delta_Delta([5, 5])

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.sampled_from(primes_upto(2000)), max_size=40))
    def test_matches_the_per_term_sum(self, ps):
        delta = 1 - 2 * sum((Fraction(1, q) for q in ps), Fraction(0))
        Delta = (2 * len(ps) - 1) / delta + 2 if delta > 0 else None
        assert sieve_delta_Delta(ps) == (delta, Delta)


class TestCheckThm31:
    def test_known_fail(self):
        facts = factor_prime_power_order(2, 7)     # 127 prime, W = 2
        rep = check_thm31(2, 7, 2, facts)
        assert rep.verdict is Verdict.FAIL
        assert rep.W == 2 and rep.rhs == 20

    def test_known_pass(self):
        facts = factor_prime_power_order(89, 7)
        rep = check_thm31(89, 7, 2, facts)
        assert rep.verdict is Verdict.PASS

    def test_unknown_on_partial(self):
        facts = factor_prime_power_order(43, 11, effort=FactorEffort(rho_iterations=1))
        assert facts.cofactor == 22126041415981493
        rep = check_thm31(43, 11, 2, facts)
        assert rep.verdict is Verdict.UNKNOWN
        assert (rep.W, rep.rhs) == (None, None)

    def test_boundary_exact_equality_fails(self):
        # p^(t/2-2) > rhs is strict: 4^(8/2-2) = 16 does not exceed 16
        assert not _exceeds(4, 8, Fraction(16))
        assert _exceeds(4, 8, Fraction(31, 2))


def _every_verdict_rejects(n):
    facts = factor_prime_power_order(2, 22)
    calls = [
        lambda: check_thm31(2, 22, n, facts),
        lambda: check_thm34(2, 22, n, facts, [3, 23]),
        lambda: find_sieve_params(2, 22, n, facts),
        lambda: table1_row(5, 15, n),
        lambda: absorbed_window_constants(n),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degree sum"):
            call()


class TestDegreeSum:
    @pytest.mark.parametrize("n", [0, -3])
    def test_below_one_rejected(self, n):
        _every_verdict_rejects(n)

    def test_one_rejected(self):
        # n = 1 has only the constant-side classes (1, 0) and (0, 1), which
        # no verdict covers: f = x has Tr f(eps) = Tr eps on every field
        _every_verdict_rejects(1)


class TestExtensionDegree:
    @pytest.mark.parametrize("t", [4, 3, 1, -2])
    def test_below_five_rejected(self, t):
        # find_sieve_params once searched every k first, with p^(t-4) a
        # float below t = 4, and left t to its one check_thm34 call
        facts = factor_prime_power_order(2, 22)
        for call in (check_thm31, find_sieve_params,
                     lambda *args: check_thm34(*args, [3])):
            with pytest.raises(ValueError, match=r"^need t >= 5$"):
                call(2, t, 2, facts)

    def test_degree_sum_checked_first(self):
        facts = factor_prime_power_order(2, 22)
        for call in (check_thm31, find_sieve_params,
                     lambda *args: check_thm34(*args, [3])):
            with pytest.raises(ValueError, match="degree sum n = 1"):
                call(2, 3, 1, facts)

    def test_search_rejects_before_any_report(self, monkeypatch):
        def no_report(*args):
            raise AssertionError("check_thm34 called")
        monkeypatch.setattr(bounds, "check_thm34", no_report)
        with pytest.raises(ValueError, match="need t >= 5"):
            find_sieve_params(2, 3, 2, factor_prime_power_order(2, 3))


# (p, t, facts, k) a verdict must refuse: 6 is no prime power, and the
# primes of 3^8 - 1 are not those of 2^22 - 1, although the sieve with
# k = {2} passes on them at (2, 22)
_BAD_INPUT = [
    pytest.param((6, 9, factorize(6 ** 9 - 1), (5,)), "6 is not a prime power",
                 id="p6"),
    pytest.param((2, 22, factor_prime_power_order(3, 8), (2,)),
                 "facts must factor p^t - 1", id="facts-of-3^8"),
]


class TestVerdictInput:
    @pytest.mark.parametrize("args,err", _BAD_INPUT)
    def test_every_verdict_rejects(self, args, err):
        p, t, facts, k = args
        for call in (check_thm31, find_sieve_params,
                     lambda *args: check_thm34(*args, k)):
            with pytest.raises(ValueError, match=f"^{re.escape(err)}$"):
                call(p, t, 2, facts)

    @pytest.mark.parametrize("args,err", _BAD_INPUT)
    def test_search_rejects_before_it_runs(self, monkeypatch, args, err):
        def no_search(*args):
            raise AssertionError("search ran")
        monkeypatch.setattr(bounds, "_sieve_search", no_search)
        p, t, facts, _ = args
        with pytest.raises(ValueError, match=f"^{re.escape(err)}$"):
            find_sieve_params(p, t, 2, facts)

    def test_partial_rejects_before_search(self, monkeypatch):
        # the search reads only facts.primes(), so a partial factorization
        # could be searched before check_thm34 rejected it
        def no_search(*args):
            raise AssertionError("search ran")
        monkeypatch.setattr(bounds, "_sieve_search", no_search)
        facts = factor_prime_power_order(2, 101, effort=FactorEffort(rho_iterations=1))
        assert not facts.complete
        with pytest.raises(FactorizationIncomplete,
                           match=f"^factorization of {facts.n} has composite "
                                 f"cofactor {facts.cofactor}$"):
            find_sieve_params(2, 101, 2, facts)


class TestCheckThm34:
    def test_spec_like_example(self):
        # 2^22 - 1 = 3 * 23 * 89 * 683; absorbing {3, 23} leaves m = 2
        facts = factor_prime_power_order(2, 22)
        rep = check_thm34(2, 22, 2, facts, [3, 23])
        assert rep.verdict is Verdict.PASS
        assert rep.m == 2
        assert rep.sieve_primes == (89, 683)

    def test_invalid_k_prime(self):
        facts = factor_prime_power_order(2, 22)
        with pytest.raises(ValueError, match=r"^5 does not divide 2\^22 - 1$"):
            check_thm34(2, 22, 2, facts, [3, 5])
        # 4 and 1 divide 3^8 - 1 = 6560; what rules them out is that
        # neither is prime
        facts = factor_prime_power_order(3, 8)
        for q in (4, 1):
            with pytest.raises(ValueError, match=f"^{q} is not prime$"):
                check_thm34(3, 8, 2, facts, [q])

    def test_repeated_k_prime(self):
        # W(k) counts the distinct primes of k; a repeat would double it
        facts = factor_prime_power_order(3, 8)
        with pytest.raises(ValueError):
            check_thm34(3, 8, 2, facts, [2, 2])

    def test_all_primes_equals_thm31(self):
        for p, t in [(2, 9), (3, 7), (5, 8), (8, 9), (13, 7)]:
            facts = factor_prime_power_order(p, t)
            direct = check_thm31(p, t, 2, facts)
            sieved = check_thm34(p, t, 2, facts, facts.primes())
            assert sieved.verdict == direct.verdict
            assert sieved.rhs == direct.rhs

    def test_nonpositive_delta_fails(self):
        # 3^8 - 1 = 2^5 * 5 * 41: sieving all three leaves delta < 0
        rep = check_thm34(3, 8, 2, factor_prime_power_order(3, 8), [])
        assert (rep.delta, rep.Delta, rep.rhs) == (Fraction(-92, 205), None, None)
        assert rep.verdict is Verdict.FAIL

    def test_appendix_row(self):
        # published row: p = 8, t = 9 absorbs k = 7 with m = 2
        facts = factor_prime_power_order(8, 9)
        rep = check_thm34(8, 9, 2, facts, [7])
        assert rep.verdict is Verdict.PASS and rep.m == 2


class TestFindSieveParams:
    def test_finds_passing_certificate(self):
        facts = factor_prime_power_order(8, 9)
        rep = find_sieve_params(8, 9, 2, facts)
        assert rep.verdict is Verdict.PASS
        # the search may find a smaller k than the published row; both must
        # certify, and the published one is covered in TestCheckThm34
        assert check_thm34(8, 9, 2, facts, rep.k_primes).verdict is Verdict.PASS

    def test_exhausts_to_fail(self):
        facts = factor_prime_power_order(2, 7)
        rep = find_sieve_params(2, 7, 2, facts)
        assert rep.verdict is Verdict.FAIL

    @given(st.sampled_from([(2, 9), (2, 10), (3, 7), (4, 7), (5, 7), (7, 7),
                            (9, 7), (11, 7), (8, 8), (16, 7)]))
    @settings(max_examples=10, deadline=None)
    def test_pass_implies_valid_certificate(self, pt):
        p, t = pt
        facts = factor_prime_power_order(p, t)
        rep = find_sieve_params(p, t, 2, facts)
        if rep.verdict is Verdict.PASS:
            # re-check the certificate independently
            again = check_thm34(p, t, 2, facts, rep.k_primes)
            assert again.verdict is Verdict.PASS
            assert again.m == rep.m

    @pytest.mark.parametrize("p,t", [(8, 9), (2, 7), (3, 8), (2, 22)])
    def test_one_report_per_search(self, monkeypatch, p, t):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_thm34(*args)
        monkeypatch.setattr(bounds, "check_thm34", counted)
        rep = find_sieve_params(p, t, 2, factor_prime_power_order(p, t))
        assert len(calls) == 1 and calls[0][4] == rep.k_primes


def _report_per_k_search(p, t, n, facts):
    """find_sieve_params as a report per candidate k: the same k order, the
    first Pass, else the first largest margin on the reduced rhs, and a
    delta <= 0 report kept only while nothing else is."""
    def margin(rep):
        return p ** (t - 4) * rep.rhs.denominator ** 2 - rep.rhs.numerator ** 2

    primes = list(facts.primes())
    pool = primes[:12]
    ks = [primes[:j] for j in range(len(primes) + 1)]
    ks += [[pool[i] for i in combo] for size in range(1, len(pool) + 1)
           for combo in combinations(range(len(pool)), size)]
    best, seen = None, set()
    for k in ks:
        key = tuple(sorted(k))
        if key in seen:
            continue
        seen.add(key)
        rep = check_thm34(p, t, n, facts, key)
        if rep.verdict is Verdict.PASS:
            return rep
        if rep.rhs is not None and (best is None or best.rhs is None
                                    or margin(rep) > margin(best)):
            best = rep
        elif best is None:
            best = rep
    return best


def _search_per_k(lhs, n, primes):
    """The sieve search's k from sieve_delta_Delta per candidate k: the same
    k order, the first Pass, else the first largest margin on the reduced
    rhs, and a delta <= 0 k kept only while nothing else is."""
    pool = primes[:12]
    ks = [primes[:j] for j in range(len(primes) + 1)]
    ks += [combo for size in range(1, len(pool) + 1)
           for combo in combinations(pool, size)]
    best = best_margin = None
    for k in ks:
        _, Delta = sieve_delta_Delta(q for q in primes if q not in k)
        if Delta is None:
            if best is None:
                best = k
            continue
        rhs = (2 * n + 1) * Delta * 4 ** len(k)
        margin = lhs * rhs.denominator ** 2 - rhs.numerator ** 2
        if margin > 0:
            return k
        if best_margin is None or margin > best_margin:
            best, best_margin = k, margin
    return best


def _thm31_failures(ts):
    for t in ts:
        for p in enumerate_prime_powers(survey_range(t)):
            facts = factor_prime_power_order(p, t)
            if check_thm31(p, t, 2, facts).verdict is not Verdict.PASS:
                yield p, t, facts


class TestSearchMatchesReportPerK:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_survey_failure_t8_to_16(self, n):
        cases = list(_thm31_failures(range(8, 17)))
        assert len(cases) == 303
        first_k_nonpositive = 0
        for p, t, facts in cases:
            first_k_nonpositive += check_thm34(p, t, n, facts, ()).rhs is None
            assert find_sieve_params(p, t, n, facts) \
                == _report_per_k_search(p, t, n, facts), (p, t)
        assert first_k_nonpositive > 0

    @given(data=st.data(), n=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_synthetic_factorizations(self, data, n):
        # omega from 0 to 16, past the _SUBSET_PRIMES pool, over primes
        # small enough that delta <= 0 for many k
        omega = data.draw(st.integers(0, 16), label="omega")
        primes = data.draw(st.lists(st.sampled_from(primes_upto(100)),
                                    min_size=omega, max_size=omega, unique=True))
        exps = data.draw(st.lists(st.integers(1, 3), min_size=omega, max_size=omega))
        factors = tuple(sorted(zip(primes, exps)))
        facts = Factorization(math.prod(q ** e for q, e in factors), factors)
        # p^(t/2-2) next to the rhs of some k, where the search order and
        # the margins decide which k is returned
        k = data.draw(st.lists(st.sampled_from(primes), unique=True)
                      if primes else st.just([]))
        _, Delta = sieve_delta_Delta(q for q in primes if q not in k)
        rhs = 1 if Delta is None else (2 * n + 1) * Delta * 4 ** len(k)
        p = data.draw(st.sampled_from([2, 3]), label="p")
        t = max(5, 4 + round(2 * math.log(rhs, p)) + data.draw(st.integers(-2, 2)))
        assert bounds._sieve_search(p ** (t - 4), n, facts.primes()) \
            == _search_per_k(p ** (t - 4), n, facts.primes())

    @pytest.mark.parametrize("p,t,k", [
        (3, 8, (2, 5, 41)),     # delta <= 0 at k = 1, largest-margin Fail
        (2, 7, (127,)),         # one prime, Fail
        (2, 9, (73,)),          # Fail from the subset stage
        (49, 8, (2, 3)),        # Pass from the prefix stage
    ])
    def test_pinned(self, p, t, k):
        facts = factor_prime_power_order(p, t)
        rep = find_sieve_params(p, t, 2, facts)
        assert rep == _report_per_k_search(p, t, 2, facts)
        assert rep.k_primes == k


class TestAbsorbedWindow:
    def test_published_section_constants(self):
        delta, Delta, Z = absorbed_window_constants(n=2)
        assert delta > Fraction("0.004174")
        assert Delta < Fraction("710770.7395")
        assert Z < Fraction(7.558211e43)

    def test_window_identity(self):
        # sieve window is primes 63..1546: first is 307, last is 12979
        from primpair.ntheory import primes_window
        w = primes_window(63, 1546)
        assert (w[0], w[-1], len(w)) == (307, 12979, 1484)


class TestWindowThreshold:
    @pytest.mark.parametrize("bound,t_min,published", [
        (4_284_875, 7, 8.8929e30),
        (4_284_875, 8, 3.371e26),
        (1_814_132, 8, 1.084e25),
        (855_780, 9, 2.2725e21),
        (471_488, 10, 8.158e18),
    ])
    def test_published_thresholds(self, bound, t_min, published):
        thr = window_threshold(bound, t_min)
        assert abs(thr - published) / published < 1e-3

    def test_ceiling_property(self):
        # result is the least integer whose (t-4)/2-power dominates bound^t
        thr = window_threshold(10, 7)       # ceil(10^(14/3))
        assert (thr - 1) ** 3 < 10 ** 14 <= thr ** 3

    @given(st.integers(min_value=2, max_value=10 ** 6),
           st.integers(min_value=5, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_ceiling_property_random(self, bound, t_min):
        thr = window_threshold(bound, t_min)
        e = t_min - 4
        assert thr ** e >= bound ** (2 * t_min) > (thr - 1) ** e


class TestLemma35Constants:
    def test_record(self):
        rec = lemma35_constants()
        assert rec.product_digits == 5589
        assert rec.product_exceeds_657e5586
        assert rec.twelfth_root_exceeds_542e463
        assert rec.next_prime_after_12983 == 13001
        assert rec.next_prime_twelfth_power_exceeds_2
        # the published claim 2^1547 < 4.93x10^465 is false (2^1547 is
        # 4.9363x10^465); the surrounding argument still closes because the
        # twelfth root exceeds 5.42x10^465
        assert not rec.pow2_1547_below_493e463
        assert 493 * 10 ** 463 < 2 ** 1547 < 494 * 10 ** 463


class TestInputChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda: table1_row(3, 2), "need 1 <= a <= b"),
        (lambda: window_threshold(5, 4), "need t_min >= 5"),
        (lambda: bounds._decimal_digits(0), "need n > 0"),
    ], ids=["table1_row", "window_threshold", "_decimal_digits"])
    def test_bad_input_is_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
