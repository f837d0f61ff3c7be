"""Acceptance gate: end-to-end reproduction of the published computation.

Each test class corresponds to one acceptance criterion.  Tolerances are as
stated per criterion; published decimal values are truncations, so bracketing
inequalities are exact rationals on our side.

One published constant is provably wrong by truncation (2^1547 printed as
below 4.93x10^465); that sub-claim is implemented faithfully and marked
strict-xfail rather than weakened — see the class docstring.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from primpair.bounds import (
    TABLE1_WINDOWS,
    Verdict,
    absorbed_window_constants,
    check_thm31,
    check_thm34,
    lemma35_constants,
    table1_row,
    window_threshold,
)
from primpair.charsum import (
    char_sum_chi,
    count_A_direct,
    rho_indicator,
    tau_indicator,
    verify_lemma32,
    verify_lemma33,
)
from primpair.ffield import make_field
from primpair.ntheory import FactorCache, factor_prime_power_order, factorize
from primpair.ratfunc import sample_rational
from primpair.survey import (
    load_published_sieve,
    published_exceptions,
    record_to_dict,
    reproduce_appendix,
    verify_membership_sample,
)

# -- criterion 1 ------------------------------------------------------------

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


class TestCriterion1Table1:
    """Nine worst-case window rows, exact inequalities, < 1 s."""

    def test_rows(self):
        assert TABLE1_WINDOWS == [(a, b) for a, b, *_ in PUBLISHED_TABLE]
        for a, b, delta_pub, Delta_pub, final_pub in PUBLISHED_TABLE:
            row = table1_row(a, b, n=2)
            assert row.delta_lb >= Fraction(delta_pub)
            assert row.Delta_ub <= Fraction(Delta_pub)
            assert row.rhs_ub <= final_pub


# -- criterion 2 ------------------------------------------------------------

class TestCriterion2SectionConstants:
    """Absorbed 62-prime window constants and derived thresholds, < 5 s."""

    def test_window_constants(self):
        delta, Delta, Z = absorbed_window_constants(n=2)
        assert delta > Fraction("0.004174")
        assert Delta < Fraction("710770.7395")
        assert Z < Fraction("7.558211e43")

    def test_thresholds_within_tenth_percent(self):
        _, _, Z = absorbed_window_constants(n=2)
        cases = [
            (Z, 7, 5.834e204),
            (4_284_875, 7, 8.8929e30),
            (4_284_875, 8, 3.371e26),
            (855_780, 9, 2.2725e21),
            (471_488, 10, 8.158e18),
        ]
        for bound, t_min, published in cases:
            thr = window_threshold(bound, t_min)
            assert abs(thr - published) / published < 1e-3


# -- criterion 3 ------------------------------------------------------------

class TestCriterion3SquarefreeBoundConstants:
    """Exact big-integer constants behind the omega >= 1547 bound, < 5 s.

    The published comparison 2^1547 < 4.93x10^465 is false: 2^1547 is
    4.9363x10^465, so the printed 4.93 is a truncation of the wrong side.
    The comparison that the argument actually needs — 2^1547 below the
    twelfth root of the first-1547-prime product (> 5.42x10^465) — does
    hold, so the lemma's conclusion survives.  The printed claim is kept
    faithfully and expected to fail.
    """

    def test_product_exceeds(self):
        rec = lemma35_constants()
        assert rec.product_exceeds_657e5586

    def test_twelfth_root_exceeds(self):
        rec = lemma35_constants()
        assert rec.twelfth_root_exceeds_542e463

    @pytest.mark.xfail(reason="published constant is a truncation of the "
                              "wrong side: 2^1547 = 4.9363x10^465",
                       strict=True)
    def test_pow2_below_printed_constant(self):
        rec = lemma35_constants()
        assert rec.pow2_1547_below_493e463

    def test_argument_still_closes(self):
        # the inequality the proof needs, independent of the misprint
        rec = lemma35_constants()
        assert 2 ** 1547 < rec.twelfth_root
        assert rec.next_prime_after_12983 == 13001
        assert rec.next_prime_twelfth_power_exceeds_2


# -- criteria 4 and 5 -------------------------------------------------------

# Exception sets of the headline theorem, t >= 9; all other t in 9..62 have
# empty exception sets.  For t = 9 the theorem's printed set ("2<=p<=8 or
# p=11,16") disagrees with the same paper's appendix, which proves p = 8 by
# sieve (k = 7, m = 2) and leaves p = 9 unproven; the n = 3 analogue prints
# "2<=p<=7 or p=9,11,16", confirming a typo.  The appendix-consistent set is
# used here and the printed one is covered by a strict xfail below.
THM11_EXCEPTIONS = {
    9: (2, 3, 4, 5, 7, 9, 11, 16),
    10: (2, 3, 4, 5, 7),
    11: (2, 3, 4),
    12: (2, 3, 4, 5, 7),
    14: (2,), 15: (2,), 16: (2,), 18: (2,), 20: (2,), 24: (2,),
}

THM11_EXCEPTIONS_T7 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
                       19, 23, 25, 27, 31, 37, 43, 49, 61, 67, 79)
THM11_EXCEPTIONS_T8 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                       27, 29, 31, 32, 37, 41, 43, 47, 83)


class TestCriterion4FastTier:
    """t in 9..62: failing lists match the appendix, pruning matches the
    headline exception sets.  < 10 min cold."""

    @pytest.mark.parametrize("t", list(range(9, 63)))
    def test_reproduction(self, t, tmp_path):
        cache = FactorCache(str(tmp_path / "cache.txt"))   # cold per t
        diff = reproduce_appendix(t, cache=cache)
        assert diff.unknown == ()
        assert diff.failing_diff == ((), ())
        assert diff.computed_exceptions == THM11_EXCEPTIONS.get(t, ())

    @pytest.mark.xfail(reason="theorem's printed t=9 set swaps 8 for 9, "
                              "contradicting the paper's own appendix",
                       strict=True)
    def test_t9_printed_statement(self, tmp_path):
        cache = FactorCache(str(tmp_path / "cache.txt"))
        diff = reproduce_appendix(9, cache=cache)
        assert diff.computed_exceptions == (2, 3, 4, 5, 7, 8, 11, 16)


def _survey_digests(diff, cache_path):
    """sha256 of the records, sorted, one JSON line each, and of the cache
    file the survey wrote."""
    recs = sorted((record_to_dict(r) for r in diff.records),
                  key=lambda d: (d["t"], d["p"], d["n"]))
    text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in recs)
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(cache_path.read_bytes()).hexdigest())


class TestCriterion5ExtendedTier:
    """t = 7 and t = 8 full ranges, cold: no factor cache ships.  The digests
    pin every record and every cache line, so every factorization of
    p^t - 1 the survey makes, byte for byte."""

    def test_t7(self, tmp_path):
        path = tmp_path / "cache.txt"
        diff = reproduce_appendix(7, cache=FactorCache(str(path)))
        assert _survey_digests(diff, path) == (
            "89f08844c74ed6c8491732f005e3fcbef6e7d5f5713214480c2a4b60aa0284a4",
            "15aabec0f66e7a7c1397990bd44ac325bacbf441dfd4c690861a7e2c4a9ff992",
        )
        assert diff.unknown == ()
        assert diff.failing_diff == ((), ())
        assert len(diff.computed_failing) == 253
        assert diff.computed_exceptions == THM11_EXCEPTIONS_T7
        # the published sieve table types one p (14232 for 14323), so the
        # naive published exception set carries one stray
        missing, extra = diff.exceptions_diff
        assert missing == (14323,) and extra == ()

    def test_t8(self, tmp_path):
        path = tmp_path / "cache.txt"
        diff = reproduce_appendix(8, cache=FactorCache(str(path)))
        assert _survey_digests(diff, path) == (
            "e8813e391d3cef00b88168b8ab3afc70a5bc1b72cd53fa20cb29fe2bddebcb30",
            "acaff75687b92d71979f38ab283ea5ea0ce3ca90a4d8f9ec05ed00a6a74788d4",
        )
        assert diff.unknown == ()
        assert diff.failing_diff == ((), ())
        assert len(diff.computed_failing) == 201
        assert diff.computed_exceptions == THM11_EXCEPTIONS_T8
        # published table types 410 for 419 and duplicates the 191 row
        # where 193 belongs, leaving two strays
        missing, extra = diff.exceptions_diff
        assert missing == (193, 419) and extra == ()


# -- criterion 6 ------------------------------------------------------------

class TestCriterion6SieveRows:
    """>= 95% of valid published (p, t, k, m) rows re-certify with matching
    m; rows with impossible k or p are reported, not hidden."""

    # rows whose p is not a prime power or whose k cannot divide p^t - 1
    # (e.g. even k against even p); all are consistent with single-digit
    # typos in the source tables
    EXPECTED_INVALID = [
        (7, 4013, 27, 7), (7, 14232, 6, 8),
        (8, 64, 6, 7), (8, 410, 30, 6), (8, 512, 6, 10),
        (8, 729, 30, 9), (8, 919, 76, 7),
        (10, 64, 6, 9), (12, 27, 30, 6), (22, 2, 15, 2),
    ]

    def test_rows(self, tmp_path):
        cache = FactorCache(str(tmp_path / "cache.txt"))
        rows = [(t, p, k, m) for t, entries in load_published_sieve().items()
                for p, k, m in entries]
        assert len(rows) == 499
        invalid = []
        checked = passed = 0
        for t, p, k, m in rows:
            pfac = factorize(p)
            if len(pfac.factors) != 1:
                invalid.append((t, p, k, m))
                continue
            facts = factor_prime_power_order(p, t, cache=cache)
            assert facts.complete
            k_primes = [q for q, _ in factorize(k).factors]
            if (p ** t - 1) % k or not set(k_primes) <= set(facts.primes()):
                invalid.append((t, p, k, m))
                continue
            checked += 1
            rep = check_thm34(p, t, 2, facts, k_primes)
            if rep.verdict is Verdict.PASS and rep.m == m:
                passed += 1
        # dedicated diff section: exactly the known suspect rows
        assert sorted(invalid) == sorted(self.EXPECTED_INVALID)
        # remaining disagreements (5 rows with off-by-a-few m or a verdict
        # that does not re-certify) stay well under the 5% allowance
        assert passed / checked >= 0.95


# -- criterion 7 ------------------------------------------------------------

class TestCriterion7ExistenceWitnesses:
    """Definitive witness searches on desk-scale proven cases, < 10 min."""

    def test_gf_2_13(self):
        rep = verify_membership_sample(2, 13, 2, num_functions=50, seed=0)
        assert rep.definitive
        assert rep.functions_checked == 50
        assert rep.failures == ()

    def test_gf_3_7(self):
        rep = verify_membership_sample(3, 7, 2, num_functions=50, seed=0)
        assert rep.definitive
        assert rep.failures == ()


# -- criterion 8 ------------------------------------------------------------

LAB_FIELDS = [(2, 7), (3, 4), (3, 5), (5, 3)]


class TestCriterion8CharacterSums:
    """Indicator equivalences, expansion identity, inequality spot checks."""

    @pytest.mark.parametrize("q,m", LAB_FIELDS)
    def test_indicator_equivalence_exhaustive(self, q, m):
        ctx = make_field(q, m)
        for u in list(ctx.order_facts.primes()) + [ctx.Q - 1]:
            for eps in ctx.units():
                truth = 1 if ctx.is_ufree(eps, u) else 0
                assert rho_indicator(ctx, u, eps) == truth
        for a in ctx.subfield_elements(1):
            for eps in ctx.elements():
                truth = 1 if ctx.trace_rel(eps, 1) == a else 0
                assert tau_indicator(ctx, a, eps, 1) == truth

    @pytest.mark.parametrize("q,m", LAB_FIELDS)
    def test_expansion_identity_sampled(self, q, m):
        # >= 20 sampled tuples across the four fields: 6 each
        ctx = make_field(q, m)
        rng = random.Random(100 * q + m)
        subfield = ctx.subfield_elements(1)
        divisors = [d for d in range(1, ctx.Q) if (ctx.Q - 1) % d == 0]
        for _ in range(6):
            f = sample_rational(ctx, *rng.choice([(1, 1), (2, 1), (1, 2)]), rng)
            a, b = rng.choice(subfield), rng.choice(subfield)
            k1, k2 = rng.choice(divisors), rng.choice(divisors)
            # raises internally when direct count and expansion disagree
            count_A_direct(ctx, f, a, b, k1, k2, 1, check_expansion=True)

    @pytest.mark.parametrize("q,m", LAB_FIELDS)
    def test_weil_bound_sampled(self, q, m):
        ctx = make_field(q, m)
        rng = random.Random(200 * q + m)
        subfield = ctx.subfield_elements(1)
        divisors = [d for d in range(2, ctx.Q) if (ctx.Q - 1) % d == 0]
        for _ in range(5):
            f = sample_rational(ctx, 1, 1, rng)
            a, b = rng.choice(subfield), rng.choice(subfield)
            s1, s2 = rng.choice(divisors), rng.choice(divisors)
            val = abs(char_sum_chi(ctx, f, a, b, s1, s2, 1))
            assert val <= (2 * f.degsum + 1) * q ** (m / 2 + 2)

    @pytest.mark.parametrize("q,m", LAB_FIELDS)
    def test_lemma_inequalities(self, q, m):
        ctx = make_field(q, m)
        rng = random.Random(300 * q + m)
        subfield = ctx.subfield_elements(1)
        primes = list(ctx.order_facts.primes())
        for _ in range(3):
            f = sample_rational(ctx, 1, 1, rng)
            a, b = rng.choice(subfield), rng.choice(subfield)
            m_prime = rng.choice(primes)
            k_pool = [d for d in range(1, ctx.Q)
                      if (ctx.Q - 1) % d == 0 and d % m_prime]
            rep32 = verify_lemma32(ctx, f, a, b, rng.choice(k_pool), m_prime, 1)
            assert rep32.holds
            j = rng.randrange(len(primes) + 1)
            k = 1
            for p_ in primes[:j]:
                k *= p_
            rep33 = verify_lemma33(ctx, f, a, b, k, 1)
            assert rep33.holds


# -- criterion 9 ------------------------------------------------------------

class TestCriterion9SieveConsistency:
    """check_thm34 with every prime absorbed degenerates to check_thm31."""

    def test_hundred_random_cases(self):
        rng = random.Random(9)
        bases = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]
        done = 0
        while done < 100:
            p = rng.choice(bases)
            t = rng.randrange(5, 26)
            facts = factor_prime_power_order(p, t)
            if not facts.complete:
                continue
            direct = check_thm31(p, t, 2, facts)
            sieved = check_thm34(p, t, 2, facts, facts.primes())
            assert sieved.verdict == direct.verdict
            assert sieved.rhs == direct.rhs
            assert sieved.m == 0
            done += 1
