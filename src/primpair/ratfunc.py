"""Rational functions num/den over GF(q^m), on ffield's polynomials.

A RationalFunction is canonicalized as scale * (monic num / monic den) with
num, den irreducible and coprime.  Degree-0 numerators or denominators (the
"polynomial mode" classes) are only admitted when explicitly allowed, with
the constant side fixed to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import EmptyClass, EnumerationTooLarge
from .ffield import (
    FieldCtx,
    FieldElement,
    Poly,
    is_irreducible,
    poly_eval,
    poly_gcd,
    poly_one,
)
from .ntheory import mobius

__all__ = [
    "Poly",
    "Pole",
    "POLE",
    "RationalFunction",
    "poly_eval",
    "poly_gcd",
    "is_irreducible",
    "num_monic_irreducible",
    "eval_rational",
    "zero_pole_set",
    "sample_rational",
    "enumerate_rationals",
]


class Pole:
    """Marker for evaluation at a pole; a value, not an error."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"


POLE = Pole()


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


def _validate(ctx: FieldCtx, f: RationalFunction, allow_constant: bool) -> None:
    if f.scale.is_zero():
        raise ValueError("scale must be nonzero")
    for part in (f.num, f.den):
        if not part.is_monic(ctx):
            raise ValueError("num and den must be monic")
        if part.degree == 0:
            if not allow_constant:
                raise ValueError("degree-0 side needs polynomial mode")
            if part.coeffs[0] != ctx.one:
                raise ValueError("constant side must be 1")
    if f.num.degree >= 1 and f.den.degree >= 1:
        if poly_gcd(ctx, f.num, f.den).degree != 0:
            raise ValueError("num and den must be coprime")


def eval_rational(ctx: FieldCtx, f: RationalFunction, eps: FieldElement):
    dv = poly_eval(ctx, f.den, eps)
    if dv.is_zero():
        return POLE
    nv = poly_eval(ctx, f.num, eps)
    return ctx.mul(f.scale, ctx.mul(nv, ctx.inv(dv)))


def zero_pole_set(ctx: FieldCtx, f: RationalFunction) -> tuple[frozenset, frozenset]:
    """(P, P') with P the in-field zeros and poles of f and P' = P + {0}."""
    P = set()
    for x in ctx.elements():
        if poly_eval(ctx, f.num, x).is_zero() or poly_eval(ctx, f.den, x).is_zero():
            P.add(x)
    return frozenset(P), frozenset(P | {ctx.zero})


def _random_monic_irreducible(ctx: FieldCtx, n: int, rng) -> Poly:
    while True:
        coeffs = [ctx.from_index(rng.randrange(ctx.Q)) for _ in range(n)]
        cand = Poly(tuple(coeffs) + (ctx.one,))
        if is_irreducible(ctx, cand):
            return cand


def sample_rational(ctx: FieldCtx, n1: int, n2: int, rng, *,
                    allow_constant: bool = False) -> RationalFunction:
    """Uniform over valid (scale, num, den) triples of the (n1, n2) class."""
    if n1 + n2 < 1:
        raise ValueError("degsum must be >= 1")
    if (n1 == 0 or n2 == 0) and not allow_constant:
        raise ValueError("degree-0 classes need allow_constant=True")
    if n1 == n2 and num_monic_irreducible(ctx.Q, n1) < 2:
        raise EmptyClass(f"class ({n1}, {n2}) is empty over GF({ctx.Q})")
    while True:
        num = poly_one(ctx) if n1 == 0 else _random_monic_irreducible(ctx, n1, rng)
        den = poly_one(ctx) if n2 == 0 else _random_monic_irreducible(ctx, n2, rng)
        if n1 == n2 and num == den:
            continue
        scale = ctx.from_index(rng.randrange(1, ctx.Q))
        f = RationalFunction(scale, num, den)
        _validate(ctx, f, allow_constant)
        return f


def _monic_irreducibles(ctx: FieldCtx, n: int) -> Iterator[Poly]:
    """Lexicographic by coefficient index vector (constant term fastest)."""
    for idx in range(ctx.Q ** n):
        coeffs = []
        rem = idx
        for _ in range(n):
            coeffs.append(ctx.from_index(rem % ctx.Q))
            rem //= ctx.Q
        cand = Poly(tuple(coeffs) + (ctx.one,))
        if is_irreducible(ctx, cand):
            yield cand


def enumerate_rationals(ctx: FieldCtx, n1: int, n2: int, *,
                        allow_constant: bool = False,
                        cap: int = 1_000_000) -> Iterator[RationalFunction]:
    """Exhaustive, duplicate-free stream of the (n1, n2) class."""
    if n1 + n2 < 1:
        raise ValueError("degsum must be >= 1")
    if (n1 == 0 or n2 == 0) and not allow_constant:
        raise ValueError("degree-0 classes need allow_constant=True")
    cnt1 = 1 if n1 == 0 else num_monic_irreducible(ctx.Q, n1)
    cnt2 = 1 if n2 == 0 else num_monic_irreducible(ctx.Q, n2)
    est = (ctx.Q - 1) * cnt1 * (cnt2 - (n1 == n2))     # num != den
    if est > cap:
        raise EnumerationTooLarge(f"~{est} functions exceeds cap {cap}")
    if est == 0:
        raise EmptyClass(f"class ({n1}, {n2}) is empty over GF({ctx.Q})")
    nums = [poly_one(ctx)] if n1 == 0 else list(_monic_irreducibles(ctx, n1))
    dens = [poly_one(ctx)] if n2 == 0 else list(_monic_irreducibles(ctx, n2))
    for s_idx in range(1, ctx.Q):
        scale = ctx.from_index(s_idx)
        for num in nums:
            for den in dens:
                if n1 == n2 and num == den:
                    continue
                yield RationalFunction(scale, num, den)
