"""The sieve refinement and the survey pipeline.

When the basic inequality fails because p^t - 1 has many prime divisors, a
divisor k of p^t - 1 can absorb the small primes: with the m remaining
primes q_1..q_m one forms delta = 1 - 2*sum(1/q_i) and
Delta = (2m-1)/delta + 2, and the condition weakens to

    p^(t/2 - 2) > (2n + 1) * Delta * W(k)^2.

The survey classifies every candidate (p, t) in the derived ranges and
diffs the outcome against the published tables shipped with the package.
"""

from primpair import classify, factor_prime_power_order, find_sieve_params
from primpair.survey import reproduce_appendix, survey_range

# --- one candidate rescued by the sieve ------------------------------------
facts = factor_prime_power_order(8, 9)
rep = find_sieve_params(8, 9, 2, facts)
print(f"p=8 t=9: absorbed k primes {rep.k_primes or '(none)'}, "
      f"m={rep.m}, delta={rep.delta}, verdict {rep.verdict.value}")

# --- classification statuses ----------------------------------------------
for p, t in [(89, 7), (8, 9), (2, 7)]:
    print(f"p={p} t={t}: {classify(p, t).status.value}")

# --- a full tier against the published lists ------------------------------
t = 9
p_max = survey_range(t)
print(f"\nSurvey t={t}: all prime powers below {p_max}")
diff = reproduce_appendix(t)
print(f"  candidates: {len(diff.records)}")
print(f"  failing the sufficient condition: {len(diff.computed_failing)}")
print(f"  unproven after sieving: {diff.computed_exceptions}")
print(f"  matches published tables: {diff.clean}")
