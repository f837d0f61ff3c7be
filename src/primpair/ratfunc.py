"""Polynomials and rational functions num/den over GF(q^m).

A RationalFunction is canonicalized as scale * (monic num / monic den) with
num, den irreducible and coprime.  Degree-0 numerators or denominators (the
"polynomial mode" classes) are only admitted when explicitly allowed, with
the constant side fixed to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DegreeZero, EmptyClass, EnumerationTooLarge
from .ffield import FieldCtx, FieldElement
from .ntheory import is_prime, mobius

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


@dataclass(frozen=True)
class Poly:
    """Coefficients lowest degree first; empty tuple is the zero polynomial."""

    coeffs: tuple[FieldElement, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1].is_zero():
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self, ctx: FieldCtx) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ctx.one


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


def make_poly(ctx: FieldCtx, coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return Poly(tuple(cs))


def poly_one(ctx: FieldCtx) -> Poly:
    return Poly((ctx.one,))


def poly_x(ctx: FieldCtx) -> Poly:
    return Poly((ctx.zero, ctx.one))


def poly_eval(ctx: FieldCtx, poly: Poly, x: FieldElement) -> FieldElement:
    acc = ctx.zero
    for c in reversed(poly.coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def poly_add(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    n = max(len(a.coeffs), len(b.coeffs))
    out = []
    for i in range(n):
        x = a.coeffs[i] if i < len(a.coeffs) else ctx.zero
        y = b.coeffs[i] if i < len(b.coeffs) else ctx.zero
        out.append(ctx.add(x, y))
    return make_poly(ctx, out)


def poly_scale(ctx: FieldCtx, a: Poly, c: FieldElement) -> Poly:
    if c.is_zero():
        return Poly(())
    return make_poly(ctx, [ctx.mul(x, c) for x in a.coeffs])


def poly_mul(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly(())
    out = [ctx.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return make_poly(ctx, out)


def poly_mod(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if b.is_zero():
        raise ZeroDivisionError("poly mod zero")
    rem = list(a.coeffs)
    inv_lead = ctx.inv(b.coeffs[-1])
    while len(rem) >= len(b.coeffs):
        c = ctx.mul(rem[-1], inv_lead)
        shift = len(rem) - len(b.coeffs)
        if not c.is_zero():
            for i, bi in enumerate(b.coeffs):
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, bi))
        rem.pop()
        while rem and rem[-1].is_zero():
            rem.pop()
    return Poly(tuple(rem))


def poly_gcd(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, poly_mod(ctx, a, b)
    if a.is_zero():
        return a
    return poly_scale(ctx, a, ctx.inv(a.coeffs[-1]))   # monic normalization


def _poly_powmod(ctx: FieldCtx, base: Poly, e: int, mod: Poly) -> Poly:
    result = poly_one(ctx)
    base = poly_mod(ctx, base, mod)
    while e:
        if e & 1:
            result = poly_mod(ctx, poly_mul(ctx, result, base), mod)
        base = poly_mod(ctx, poly_mul(ctx, base, base), mod)
        e >>= 1
    return result


def is_irreducible(ctx: FieldCtx, poly: Poly) -> bool:
    """Rabin irreducibility test over GF(Q), Q = ctx.Q."""
    d = poly.degree
    if d < 1:
        raise DegreeZero("irreducibility undefined for constants")
    if d == 1:
        return True
    Q = ctx.Q
    x = poly_x(ctx)
    prime_divs = {p for p in range(2, d + 1) if d % p == 0 and is_prime(p)}
    for ell in prime_divs:
        h = _poly_powmod(ctx, x, Q ** (d // ell), poly)
        diff = poly_add(ctx, h, poly_scale(ctx, x, ctx.neg(ctx.one)))
        if poly_gcd(ctx, poly, diff).degree != 0:
            return False
    h = _poly_powmod(ctx, x, Q ** d, poly)
    diff = poly_add(ctx, h, poly_scale(ctx, x, ctx.neg(ctx.one)))
    return diff.is_zero()


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
    est = (ctx.Q - 1) * cnt1 * cnt2
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
