"""Survey pipeline: ranges, classification, published-list diffs, witnesses."""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from primpair import cli, ntheory, survey
from primpair.bounds import Verdict
from primpair.errors import FactorizationIncomplete
from primpair.ffield import make_field
from primpair.ntheory import FactorCache, FactorEffort, factorize, split_prime_power
from primpair.ratfunc import (
    POLE,
    Poly,
    RationalFunction,
    eval_rational,
    is_irreducible,
    sample_rational,
)
from primpair.survey import (
    SurveyStatus,
    classify,
    enumerate_prime_powers,
    first_witnesses,
    json_value,
    load_published_failing,
    load_published_sieve,
    published_exceptions,
    record_to_dict,
    reproduce_appendix,
    survey_range,
    verify_membership_sample,
    witness_search,
)

# Published per-t candidate ranges (p strictly below the bound).
PUBLISHED_RANGES = {
    7: 26382, 8: 1347, 9: 237, 10: 78, 11: 53, 12: 38, 13: 29, 14: 23,
    15: 19, 16: 16, 17: 13, 18: 12, 19: 10, 20: 9, 21: 8, 22: 8,
    23: 7, 24: 7, 25: 6, 26: 6, 27: 6, 28: 5, 29: 5, 30: 5, 31: 5,
}


class TestRanges:
    @pytest.mark.parametrize("t,p_max", sorted(PUBLISHED_RANGES.items()))
    def test_published_ranges(self, t, p_max):
        assert survey_range(t) == p_max

    def test_tail_ranges(self):
        for t in range(32, 40):
            assert survey_range(t) == 4
        for t in range(40, 63):
            assert survey_range(t) == 3
        assert survey_range(63) == 2    # no candidates beyond t = 62

    def test_out_of_scope(self):
        with pytest.raises(ValueError, match="^t = 6 below survey minimum 7$"):
            survey_range(6)


class TestEnumeration:
    def test_prime_powers(self):
        assert enumerate_prime_powers(30) == \
            [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]

    def test_empty(self):
        assert enumerate_prime_powers(2) == []


WARM_CACHE = (Path(__file__).resolve().parent.parent
              / "perfbench" / "data" / "warm_factor_cache.txt")


class TestSplitPrimePower:
    def test_agrees_with_factorize(self):
        for n in range(1, 20_001):
            factors = factorize(n).factors
            if len(factors) == 1:
                assert split_prime_power(n) == factors[0]
            else:
                with pytest.raises(ValueError):
                    split_prime_power(n)

    @pytest.mark.parametrize("p,split", [
        (2 ** 89, (2, 89)),
        (3 ** 50, (3, 50)),
        ((2 ** 61 - 1) ** 3, (2 ** 61 - 1, 3)),
    ])
    def test_large_powers(self, p, split):
        assert split_prime_power(p) == split

    @pytest.mark.parametrize("p", [0, 1, -8, 36, 6 ** 5, 2 ** 61 * 3])
    def test_rejects(self, p):
        with pytest.raises(ValueError):
            split_prime_power(p)

    @staticmethod
    def _survey_codes(capsys, cache, ts):
        """Exit codes of ``survey --t T`` on ``cache`` for each T."""
        codes = [cli.main(["--cache", str(cache), "survey", "--t", str(t)])
                 for t in ts]
        capsys.readouterr()
        return codes

    def test_warm_survey_keeps_the_small_sieve(self, sieve_bounds, capsys, tmp_path):
        # on a warm cache nothing factors, and no sieve passes the trial bound
        cache = tmp_path / "cache.txt"
        shutil.copyfile(WARM_CACHE, cache)
        assert self._survey_codes(capsys, cache, [8]) == [0]
        assert sieve_bounds == [ntheory.TRIAL_BOUND]

    def test_cold_survey_keeps_the_small_sieve(self, sieve_bounds, capsys, tmp_path):
        # trial division never sieves past its bound; rho takes the larger
        # factors of p^t - 1, so a cold survey builds the one list only
        cache = tmp_path / "cache.txt"
        assert self._survey_codes(capsys, cache, [9, 11]) == [0, 0]
        assert sieve_bounds == [ntheory.TRIAL_BOUND]
        assert cache.read_text().count("\n") > 0


class TestClassify:
    def test_out_of_scope(self):
        with pytest.raises(ValueError, match="^t = 6 below survey minimum 7$"):
            classify(2, 6)

    def test_rejects_non_prime_power(self, tmp_path):
        # the verdict gate rejects p before p^t - 1 is factored and cached
        path = tmp_path / "c.txt"
        with pytest.raises(ValueError, match="^6 is not a prime power$"):
            classify(6, 7, cache=FactorCache(str(path)))
        assert not path.exists()

    @pytest.mark.parametrize("p,t,status", [
        (2, 7, SurveyStatus.POSSIBLE_EXCEPTION),
        (8, 9, SurveyStatus.PROVEN_BY_SIEVE),
        (89, 7, SurveyStatus.PROVEN_BY_SUFFICIENT),
        (2, 14, SurveyStatus.POSSIBLE_EXCEPTION),
        (11, 9, SurveyStatus.POSSIBLE_EXCEPTION),
    ])
    def test_known_classifications(self, p, t, status):
        assert classify(p, t, 2).status is status

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_degree_sum_below_two_rejected_before_factoring(self, monkeypatch, n):
        # n = 1 has only the constant-side classes (1, 0) and (0, 1); f = x
        # has Tr f(eps) = Tr eps, so classify(2, 30, 1) once said
        # ProvenBySieve for a class with no pair a != b
        monkeypatch.setattr(survey, "factor_prime_power_order", None)
        with pytest.raises(ValueError, match="degree sum"):
            classify(2, 30, n)

    def test_unknown_on_partial(self):
        # 43^11 - 1 keeps the cofactor 22126041415981493 when rho is starved
        rec = classify(43, 11, 2, effort=FactorEffort(rho_iterations=1))
        assert rec.status is SurveyStatus.UNKNOWN
        assert "partial" in rec.reason


class TestPublishedData:
    def test_totals(self):
        failing = load_published_failing()
        sieve = load_published_sieve()
        assert sum(len(v) for v in failing.values()) == 570
        assert sum(len(v) for v in sieve.values()) == 499
        # 570 failing minus 499 sieve-proven rows leaves the 71 possible
        # exceptions of the headline theorem
        assert 570 - 499 == 71

    def test_per_t_failing_counts(self):
        failing = load_published_failing()
        counts = {t: len(v) for t, v in failing.items()}
        assert counts == {7: 253, 8: 201, 9: 35, 10: 26, 11: 7, 12: 18,
                          14: 5, 15: 6, 16: 5, 18: 4, 20: 3, 22: 1, 24: 3,
                          28: 1, 30: 1, 36: 1}

    def test_returned_tables_are_fresh(self):
        ref_failing, ref_sieve = load_published_failing(), load_published_sieve()
        failing, sieve = load_published_failing(), load_published_sieve()
        failing[8].clear()
        failing[99] = [5]
        sieve[8].clear()
        del sieve[9]
        assert load_published_failing() == ref_failing
        assert load_published_sieve() == ref_sieve
        diff = reproduce_appendix(8)
        assert diff.published_failing == tuple(sorted(ref_failing[8]))
        sieved = {p for p, _, _ in ref_sieve[8]}
        assert diff.published_exceptions == tuple(
            sorted(set(ref_failing[8]) - sieved))
        assert len(diff.published_failing) == 201
        assert len(diff.published_exceptions) == 25

    def test_exception_sets_fast_tier(self):
        assert published_exceptions(9) == [2, 3, 4, 5, 7, 9, 11, 16]
        assert published_exceptions(11) == [2, 3, 4]
        assert published_exceptions(14) == [2]


class TestReproduce:
    def test_t9_clean(self):
        diff = reproduce_appendix(9)
        assert diff.clean
        assert len(diff.computed_failing) == 35
        assert diff.computed_exceptions == (2, 3, 4, 5, 7, 9, 11, 16)

    def test_t12_clean(self):
        diff = reproduce_appendix(12)
        assert diff.clean
        assert len(diff.computed_failing) == 18

    def test_unknowns_never_dropped(self):
        diff = reproduce_appendix(11, effort=FactorEffort(rho_iterations=1))
        # with a starved budget some candidates must surface as unknown
        # rather than silently landing in either list; rho takes every
        # factor above the trial bound, so these include factors below 10^6
        assert diff.unknown == (19, 41, 43, 47, 49)
        assert set(diff.unknown).isdisjoint(diff.computed_failing)
        total = len(diff.unknown) + len(diff.records) - len(diff.unknown)
        assert total == len(diff.records)


def _expect_recheck_failure(flags, corruption, target):
    """Run witness_search on GF(2^7), f = 1/x, Tr(eps) = Tr(f(eps)) = target,
    and first_witnesses over all four trace pairs, after ``corruption`` in a
    fresh interpreter with ``flags``; both search modes and the all-pairs
    scan must raise the recheck's AssertionError."""
    import primpair
    src = os.path.dirname(os.path.dirname(primpair.__file__))
    script = (
        "import sys\n"
        f"if __debug__ != {'-O' not in flags}: sys.exit('wrong optimization mode')\n"
        "from primpair import survey\n"
        "from primpair.ffield import make_field\n"
        "from primpair.ratfunc import Poly, RationalFunction\n"
        "ctx = make_field(2, 7)\n"
        + corruption +
        "f = RationalFunction(ctx.one, Poly((ctx.one,)), Poly((ctx.zero, ctx.one)))\n"
        "for exhaustive in (True, False):\n"
        "    try:\n"
        f"        survey.witness_search(ctx, f, {target}, {target}, 1,\n"
        "                              exhaustive=exhaustive)\n"
        "    except AssertionError as exc:\n"
        "        if 'independent recheck' in str(exc):\n"
        "            continue\n"
        "    sys.exit('witness_search returned without the recheck')\n"
        "traces = ctx.subfield_elements(1)\n"
        "try:\n"
        "    survey.first_witnesses(ctx, f, [(a, b) for a in traces for b in traces],\n"
        "                           1, ctx.units())\n"
        "except AssertionError as exc:\n"
        "    if 'independent recheck' in str(exc):\n"
        "        sys.exit(0)\n"
        "sys.exit('first_witnesses returned without the recheck')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestWitnessSearch:
    def test_exhaustive_finds_inverse_map_witness(self):
        ctx = make_field(2, 7)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        eps = witness_search(ctx, f, ctx.one, ctx.one, 1)
        assert ctx.is_primitive(eps)
        inv = ctx.inv(eps)
        assert ctx.is_primitive(inv)
        assert ctx.trace_rel(eps, 1) == ctx.one
        assert ctx.trace_rel(inv, 1) == ctx.one

    def test_recheck_survives_optimized_mode(self):
        # the independent recheck is an explicit raise, so python -O keeps it
        _expect_recheck_failure(
            ["-O"], "survey._recheck_witness = lambda *args: False\n", "ctx.one")

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_recheck_catches_corrupt_basis_traces(self, flags):
        # with zeroed basis traces every trace_rel reads 0; the recheck sums
        # Frobenius powers itself, so the first accepted eps fails it
        _expect_recheck_failure(
            flags, "ctx.basis_traces[1] = ((0, 0),)\n", "ctx.zero")

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_recheck_catches_corrupt_products(self, flags):
        # every table product comes out times the generator, so the scan
        # reads f(eps) = g/eps; the recheck evaluates f by the kernel and
        # multiplies out the denominator, so no accepted eps passes it
        _expect_recheck_failure(
            flags, "mul = ctx.mul\n"
                   "ctx.mul = lambda x, y: mul(mul(x, y), ctx.generator)\n",
            "ctx.one")

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        # a random search of no candidates would report a non-definitive None
        ctx = make_field(2, 6)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        with pytest.raises(ValueError, match="budget must be >= 1"):
            witness_search(ctx, f, ctx.one, ctx.one, 1, exhaustive=False,
                           budget=budget)

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_trace_outside_subfield_rejected(self, exhaustive):
        # x has no trace in GF(2): no scan may call its absence definitive
        ctx = make_field(2, 6)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        x = ctx.from_index(2)
        for a, b in ((x, ctx.one), (ctx.one, x)):
            with pytest.raises(ValueError, match="trace index 2"):
                witness_search(ctx, f, a, b, 1, exhaustive=exhaustive)

    def test_randomized_reports_non_definitive(self):
        ctx = make_field(2, 7)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        assert witness_search(ctx, f, ctx.one, ctx.one, 1, exhaustive=False,
                              budget=2000, seed=9) is not None

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_partial_order_names_the_cofactor(self, exhaustive):
        # one rho iteration leaves 2^101 - 1 unsplit: primitivity is undecidable
        ctx = make_field(2, 101, effort=FactorEffort(rho_iterations=1))
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        n = 2 ** 101 - 1
        with pytest.raises(FactorizationIncomplete,
                           match=f"^factorization of {n} has composite "
                                 f"cofactor {n}$"):
            witness_search(ctx, f, ctx.one, ctx.one, 1, exhaustive=exhaustive)

    def test_exhaustive_none_is_definitive(self):
        # GF(4): single unit orbit; pick traces that cannot occur for x
        ctx = make_field(2, 4)
        f = RationalFunction(ctx.one, Poly((ctx.zero, ctx.one)),
                             Poly((ctx.one,)))
        found = {}
        for a in ctx.subfield_elements(1):
            found[ctx.to_index(a)] = witness_search(ctx, f, a, a, 1) is not None
        # identity map: witness iff a primitive element with trace a exists
        have = {0: False, 1: False}
        for eps in ctx.units():
            if ctx.is_primitive(eps):
                have[ctx.trace_rel(eps, 1)] = True
        assert found == have


class TestConstantSideClasses:
    """The classes (1, 0) and (2, 0), which no verdict covers: over
    GF(2^t), f = x has Tr f(eps) = Tr eps, and an irreducible x^2 + x + alpha
    (exactly when Tr alpha = 1) has Tr f(eps) = 2 Tr eps + Tr alpha = 1."""

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
    def test_x_has_no_witness_at_0_1(self, m):
        ctx = make_field(2, m)
        f = RationalFunction(ctx.one, Poly((ctx.zero, ctx.one)), Poly((ctx.one,)))
        assert witness_search(ctx, f, ctx.zero, ctx.one, 1) is None
        assert witness_search(ctx, f, ctx.one, ctx.one, 1) is not None

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
    def test_irreducible_quadratic_never_has_trace_zero(self, m):
        ctx = make_field(2, m)
        alphas = [x for x in ctx.elements() if ctx.trace_rel(x, 1) == ctx.one]
        gf2 = ctx.subfield_elements(1)
        pairs = [(a, b) for a in gf2 for b in gf2]
        for alpha in random.Random(m).sample(alphas, 8):
            num = Poly((alpha, ctx.one, ctx.one))
            assert is_irreducible(ctx, num)
            f = RationalFunction(ctx.one, num, Poly((ctx.one,)))
            found = first_witnesses(ctx, f, pairs, 1, ctx.units())
            # the exhaustive scan finds b = 1 only: (0, 0), (1, 0) have none
            assert found and all(b == ctx.one for _, b in found)


def _brute_force_witness(ctx, f, a, b, r):
    """The first unit witnessing (a, b), checked pair by pair from scratch."""
    for eps in ctx.units():
        eps0 = eval_rational(ctx, f, eps)
        if (eps0 is not POLE and not eps0.is_zero()
                and ctx.trace_rel(eps, r) == a and ctx.trace_rel(eps0, r) == b
                and ctx.is_primitive(eps) and ctx.is_primitive(eps0)):
            return eps
    return None


# (q, m, r): GF(2^4) over GF(2) and GF(4), GF(3^3) over GF(3), GF(2^6) over
# GF(4) and GF(8)
SCAN_FIELDS = [(2, 4, 1), (2, 4, 2), (3, 3, 1), (2, 6, 2), (2, 6, 3)]


class TestRecheck:
    @pytest.mark.parametrize("q,m", [(2, 6), (3, 4)])
    def test_matches_the_tables_on_every_unit(self, q, m):
        # one chain of conjugates per element gives both traces and every
        # x^((Q-1)/l); the tables' answer is the reference
        ctx = make_field(q, m)
        digits = [survey._digits((ctx.Q - 1) // ell, q)
                  for ell in ctx.order_facts.primes()]
        rng = random.Random(m)
        for n1, n2 in ((1, 1), (2, 0), (0, 2)):
            f = sample_rational(ctx, n1, n2, rng)
            for r in (d for d in range(1, m + 1) if m % d == 0):
                for eps in ctx.units():
                    eps0 = eval_rational(ctx, f, eps)
                    if not eps0:
                        continue
                    a, b = ctx.trace_rel(eps, r), ctx.trace_rel(eps0, r)
                    primitive = ctx.is_primitive(eps) and ctx.is_primitive(eps0)
                    assert survey._recheck_witness(
                        ctx, f, a, b, r, eps, eps0, digits) == primitive
                    if primitive:
                        wrong_a, wrong_b = ctx.add(a, ctx.one), ctx.add(b, ctx.one)
                        assert not survey._recheck_witness(
                            ctx, f, wrong_a, b, r, eps, eps0, digits)
                        assert not survey._recheck_witness(
                            ctx, f, a, wrong_b, r, eps, eps0, digits)

    def test_digits_rebuild_the_exponent(self):
        for q, e in ((2, 341), (3, 1093), (5, 62), (7, 1)):
            assert sum(d * q ** j for j, d in survey._digits(e, q)) == e
            assert all(0 < d < q for _, d in survey._digits(e, q))


class TestFirstWitnesses:
    @pytest.mark.parametrize("q,m,r", SCAN_FIELDS)
    def test_all_pairs_equal_per_pair_brute_force(self, q, m, r):
        ctx = make_field(q, m)
        rng = random.Random(100 * q + 10 * m + r)
        traces = ctx.subfield_elements(r)
        pairs = [(a, b) for a in traces for b in traces]
        missing = 0
        for n in (1, 2, 3):
            for n1 in range(n + 1):
                for _ in range(2):
                    f = sample_rational(ctx, n1, n - n1, rng)
                    expected = {(a, b): eps for a, b in pairs
                                if (eps := _brute_force_witness(ctx, f, a, b, r))
                                is not None}
                    assert first_witnesses(ctx, f, pairs, r, ctx.units()) == expected
                    missing += len(pairs) - len(expected)
        assert missing > 0      # the pairs without a witness are covered too

    @pytest.mark.parametrize("q,m,r", SCAN_FIELDS)
    def test_one_evaluation_per_unit(self, monkeypatch, q, m, r):
        # f once per unit visited; the recheck evaluates f by the kernel
        ctx = make_field(q, m)
        traces = ctx.subfield_elements(r)
        pairs = [(a, b) for a in traces for b in traces]
        f = sample_rational(ctx, 1, 1, random.Random(m))
        calls = []

        def counting(ctx, f, eps):
            calls.append(eps)
            return eval_rational(ctx, f, eps)

        monkeypatch.setattr(survey, "eval_rational", counting)
        found = first_witnesses(ctx, f, pairs, r, ctx.units())
        assert found
        assert len(calls) == len(set(calls)) <= ctx.Q - 1

    def test_stops_once_every_pair_is_settled(self):
        ctx = make_field(2, 7)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))
        traces = ctx.subfield_elements(1)
        pairs = [(a, b) for a in traces for b in traces]
        candidates = ctx.units()
        found = first_witnesses(ctx, f, pairs, 1, candidates)
        assert len(found) == 4
        last = max(map(ctx.to_index, found.values()))
        assert ctx.to_index(next(candidates)) == last + 1

    def test_no_pairs_reads_no_candidate(self):
        ctx = make_field(2, 13)
        f = RationalFunction(ctx.one, Poly((ctx.one,)),
                             Poly((ctx.zero, ctx.one)))

        def candidates():
            raise AssertionError("a candidate was read")
            yield

        assert first_witnesses(ctx, f, [], 1, candidates()) == {}


class TestMembershipSample:
    def test_small_field_definitive(self):
        rep = verify_membership_sample(2, 7, 2, num_functions=6, seed=0)
        assert rep.definitive
        assert rep.failures == ()
        assert rep.pairs_checked == 6 * 4     # |F_2|^2 pairs per function

    def test_prime_power_base(self):
        rep = verify_membership_sample(4, 7, 2, num_functions=2, seed=1)
        assert rep.failures == ()
        assert rep.pairs_checked == 2 * 16

    def test_splits_pinned(self):
        # n = 2 cycles through (0, 2), (1, 1), (2, 0), draw for draw
        rep = verify_membership_sample(4, 3, 2, num_functions=30, seed=0)
        assert (rep.pairs_checked, len(rep.failures)) == (480, 237)
        assert rep.failing_classes() == {(0, 2): 82, (1, 1): 76, (2, 0): 79}
        assert rep.failing_classes() == Counter(
            (f.n1, f.n2) for f, _, _ in rep.failures)

    def test_modes_sample_the_same_functions(self, monkeypatch):
        # the one-scan exhaustive mode still draws a seed per pair, so the
        # next function comes from the same stream as in the random mode
        sampled = []

        def recording(ctx, n1, n2, rng):
            sampled.append(sample_rational(ctx, n1, n2, rng))
            return sampled[-1]

        monkeypatch.setattr(survey, "sample_rational", recording)
        exhaustive = verify_membership_sample(4, 3, 2, num_functions=6, seed=0)
        monkeypatch.setattr(survey, "EXHAUSTIVE_CAP", 0)
        randomized = verify_membership_sample(4, 3, 2, num_functions=6, seed=0,
                                              budget=300)
        assert exhaustive.definitive and not randomized.definitive
        assert sampled[:6] == sampled[6:]
        assert exhaustive.failures
        assert set(exhaustive.failures) <= set(randomized.failures)

    @pytest.mark.parametrize("num_functions", [0, -3])
    def test_no_functions_rejected(self, monkeypatch, num_functions):
        # rejected before any field is built, not reported as a
        # definitive check of -3 functions
        monkeypatch.setattr(survey, "make_field", None)
        with pytest.raises(ValueError, match="num_functions must be >= 1"):
            verify_membership_sample(2, 7, 2, num_functions=num_functions, seed=0)

    @pytest.mark.parametrize("t", [0, -1])
    def test_t_below_one_rejected(self, monkeypatch, t):
        # rejected before any field is built, whose error would name m = r t
        monkeypatch.setattr(survey, "make_field", None)
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            verify_membership_sample(2, t, 2, num_functions=1, seed=0)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, monkeypatch, budget):
        # rejected before any field is built; above EXHAUSTIVE_CAP a search
        # of no candidates would list every pair as a failure
        monkeypatch.setattr(survey, "make_field", None)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            verify_membership_sample(2, 7, 2, num_functions=1, seed=0,
                                     budget=budget)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_sum_below_one_rejected(self, monkeypatch, n):
        # rejected before any field is built
        monkeypatch.setattr(survey, "make_field", None)
        with pytest.raises(ValueError, match="degsum"):
            verify_membership_sample(4, 3, n, num_functions=3, seed=0)


class TestSerialization:
    def test_record_dict_roundtrips_as_json(self):
        rec = classify(8, 9, 2)
        d = record_to_dict(rec)
        json.dumps(d)     # must be serializable
        assert d["status"] == "ProvenBySieve"
        assert d["sieve"]["m"] == rec.sieve.m

    def test_json_value(self):
        assert json_value(Fraction(-6, 4)) == "-3/2"
        assert json_value(Fraction(20)) == "20/1"
        assert json_value(Verdict.UNKNOWN) == "Unknown"
        assert json_value(SurveyStatus.PROVEN_BY_SIEVE) == "ProvenBySieve"
        assert json_value(None) is None
        with pytest.raises(TypeError, match="^Object of type float is not"):
            json_value(0.5)
