"""The character-sum laboratory: why the bounds work.

The existence proofs rest on two indicator expansions over GF(Q):

  - rho_u(eps): 1 iff eps is "u-free", written as a weighted sum of
    multiplicative characters;
  - tau_a(eps): 1 iff Tr(eps) = a, written via additive characters.

Multiplying them out expresses the count of valid eps as a main term plus
character sums, each bounded in absolute value by (2n+1) * p^(t/2+2).
On a small field we can verify all of this: the indicators and the count
expansion exactly (their character values are residues in a prime field
that holds the roots of unity), the sums numerically.
"""

import random

from primpair import make_field, sample_rational
from primpair.charsum import (
    char_sum_chi,
    count_A_direct,
    rho_indicator,
    tau_indicator,
)

ctx = make_field(3, 4)      # GF(81)
rng = random.Random(1)

# --- indicators are exactly 0/1 -------------------------------------------
mismatch = 0
for eps in ctx.units():
    truth = 1 if ctx.is_primitive(eps) else 0
    if rho_indicator(ctx, ctx.Q - 1, eps) != truth:
        mismatch += 1
for a in ctx.subfield_elements(1):
    for eps in ctx.elements():
        truth = 1 if ctx.trace_rel(eps, 1) == a else 0
        if tau_indicator(ctx, a, eps, 1) != truth:
            mismatch += 1
print(f"indicator mismatches over GF(81): {mismatch}")

# --- the expansion reproduces the direct count ----------------------------
f = sample_rational(ctx, 1, 1, rng)
a = b = ctx.one
count = count_A_direct(ctx, f, a, b, ctx.Q - 1, ctx.Q - 1, 1,
                       check_expansion=True)
print(f"primitive pairs with both traces 1 for a sampled f: {count} "
      "(direct count = character-sum expansion)")

# --- individual character sums sit below the analytic bound ---------------
bound = (2 * f.degsum + 1) * 3 ** (4 / 2 + 2)
worst = 0.0
for _ in range(10):
    s1 = rng.choice([2, 4, 5, 8])
    s2 = rng.choice([2, 4, 5, 8])
    worst = max(worst, abs(char_sum_chi(ctx, f, a, b, s1, s2, 1)))
print(f"largest sampled |char sum| = {worst:.2f} <= bound {bound:.2f}")
