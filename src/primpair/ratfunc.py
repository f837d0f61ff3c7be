"""Rational functions num/den over GF(q^m), on ffield's polynomials.

A RationalFunction is canonicalized, as check_rational checks, as scale *
(monic num / monic den) with num, den irreducible and coprime.  A class is
named by its degree pair (n1, n2); a 0 in it is a constant side, the monic
constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import (
    FieldCtx,
    FieldElement,
    Poly,
    _random_monic_irreducible,
    is_irreducible,
    poly_eval,
    poly_one,
)
from .ntheory import mobius

__all__ = [
    "Poly",
    "POLE",
    "RationalFunction",
    "check_rational",
    "poly_eval",
    "is_irreducible",
    "num_monic_irreducible",
    "eval_rational",
    "zero_pole_set",
    "sample_rational",
]


POLE = None     # f(eps) at a pole: no value, as in FieldCtx.poly_logs


def num_monic_irreducible(Q: int, n: int) -> int:
    """Necklace count: (1/n) * sum_{d|n} mu(d) Q^(n/d)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = sum(mobius(d) * Q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


@dataclass(frozen=True)
class RationalFunction:
    scale: FieldElement
    num: Poly
    den: Poly

    @property
    def n1(self) -> int:
        return self.num.degree

    @property
    def n2(self) -> int:
        return self.den.degree

    @property
    def degsum(self) -> int:
        return self.n1 + self.n2


def check_rational(ctx: FieldCtx, f: RationalFunction) -> None:
    """ValueError unless f is canonical: nonzero scale, monic sides, degsum
    >= 1, each nonconstant side irreducible, and coprime sides, which for
    monic irreducibles or 1 means num != den, so no gcd is taken."""
    if f.scale.is_zero():
        raise ValueError("scale must be nonzero")
    if not (f.num.is_monic(ctx) and f.den.is_monic(ctx)):
        raise ValueError("num and den must be monic")
    if f.degsum < 1:
        raise ValueError("degsum must be >= 1")
    if not all(is_irreducible(ctx, part) for part in (f.num, f.den) if part.degree):
        raise ValueError("num and den must be irreducible")
    if f.num == f.den:
        raise ValueError("num and den must be coprime")


def eval_rational(ctx: FieldCtx, f: RationalFunction, eps: FieldElement):
    """f(eps), or None (POLE) at a pole of f."""
    dv = poly_eval(ctx, f.den, eps)
    if dv.is_zero():
        return None
    nv = poly_eval(ctx, f.num, eps)
    return ctx.mul(f.scale, ctx.mul(nv, ctx.inv(dv)))


def zero_pole_set(ctx: FieldCtx, f: RationalFunction) -> tuple[frozenset, frozenset]:
    """(P, P') with P the in-field zeros and poles of f and P' = P + {0}.
    The scale of a canonical f is nonzero, so f(x) is falsy, 0 or POLE,
    exactly on P."""
    P = frozenset(x for x in ctx.elements() if not eval_rational(ctx, f, x))
    return P, P | {ctx.zero}


def sample_rational(ctx: FieldCtx, n1: int, n2: int, rng) -> RationalFunction:
    """Uniform over valid (scale, num, den) triples of the (n1, n2) class;
    a degree 0 is the constant side 1."""
    if min(n1, n2) < 0 or n1 + n2 < 1:
        raise ValueError("degrees must be >= 0 and degsum >= 1")
    if n1 == n2 and num_monic_irreducible(ctx.Q, n1) < 2:
        raise ValueError(f"class ({n1}, {n2}) is empty over GF({ctx.Q})")
    while True:
        num = poly_one(ctx) if n1 == 0 else _random_monic_irreducible(ctx, n1, rng)
        den = poly_one(ctx) if n2 == 0 else _random_monic_irreducible(ctx, n2, rng)
        if n1 == n2 and num == den:
            continue
        scale = ctx.from_index(rng.randrange(1, ctx.Q))
        return RationalFunction(scale, num, den)
