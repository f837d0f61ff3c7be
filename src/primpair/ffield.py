"""GF(q^m) in polynomial basis: arithmetic, trace, order, primitivity.

A tower F_p <= F_{p^t} with p = q^r is flattened into the single extension
GF(q^{r*t}); the intermediate field is the fixed field of x -> x^(q^r).
Small fields carry dense log/exp tables so multiplicative structure queries
are O(1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul

from .errors import (
    BadSubfieldDegree,
    BudgetExceeded,
    FactorizationIncomplete,
    NotADivisor,
    ZeroElement,
)
from .ntheory import (
    FactorEffort,
    FactorCache,
    Factorization,
    factor_prime_power_order,
    is_prime,
)

__all__ = ["FieldElement", "FieldCtx", "make_field"]

DEFAULT_TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class FieldElement:
    """Polynomial-basis coordinates over the prime field, lowest degree first."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# -- dense polynomial helpers over GF(q), little-endian int lists -----------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, f, q):
    a = [c % q for c in a]
    _ptrim(a)
    inv_lead = pow(f[-1], -1, q)
    while len(a) >= len(f):
        shift = len(a) - len(f)
        c = a[-1] * inv_lead % q
        if c:
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % q
        a.pop()
        _ptrim(a)
    return a


def _pmulmod(a, b, f, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _pmod(out, f, q)


def _ppowmod(a, e, f, q):
    result = [1]
    base = _pmod(a, f, q)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, q)
        base = _pmulmod(base, base, f, q)
        e >>= 1
    return result


def _pgcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        b_monic = [c * pow(b[-1], -1, q) % q for c in b]
        a = _pmod(a, b_monic, q)
        a, b = b, a
    return a


def _base_irreducible(f, q):
    """Rabin test for a monic polynomial over GF(q)."""
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    for ell in {p for p in range(2, m + 1) if m % p == 0 and is_prime(p)}:
        h = _ppowmod(x, q ** (m // ell), f, q)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % q
        if len(_pgcd(f, _ptrim(diff), q)) != 1:
            return False
    h = _ppowmod(x, q ** m, f, q)
    while len(h) < 2:
        h.append(0)
    h[1] = (h[1] - 1) % q
    return not _ptrim(h)


class FieldCtx:
    """Arithmetic is fixed at construction; only labs and basis traces fill in."""

    def __init__(self, q: int, m: int, modulus: tuple[int, ...],
                 order_facts: Factorization,
                 table_cap: int = DEFAULT_TABLE_CAP,
                 gen_seed: int = 0):
        self.q = q
        self.m = m
        self.modulus = modulus
        self.Q = q ** m
        self.order_facts = order_facts
        self.generator: FieldElement | None = None
        self._exp: list[tuple[int, ...]] | None = None
        self._log: dict[tuple[int, ...], int] | None = None
        # charsum labs and basis traces by subfield degree r die with the field
        self.labs: dict = {}
        self.basis_traces: dict[int, tuple[tuple[int, ...], ...]] = {}
        if order_facts.complete:
            self.generator = self._find_generator(gen_seed)
            if self.Q <= table_cap:
                self._build_tables()

    # -- construction helpers

    def _find_generator(self, seed: int) -> FieldElement:
        rng = random.Random(("generator", self.q, self.m, seed).__repr__())
        primes = self.order_facts.primes()
        n = self.Q - 1
        while True:
            cand = FieldElement(tuple(rng.randrange(self.q) for _ in range(self.m)))
            if cand.is_zero():
                continue
            if n == 1:
                return cand
            if all(self.pow(cand, n // ell) != self.one for ell in primes):
                return cand

    def _build_tables(self):
        g = self.generator
        exp = [self.one.coeffs]
        cur = self.one
        for _ in range(self.Q - 2):
            cur = self._mul_poly(cur, g)
            exp.append(cur.coeffs)
        self._exp = exp
        self._log = {c: j for j, c in enumerate(exp)}

    # -- canonical elements

    @property
    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.m)

    @property
    def one(self) -> FieldElement:
        return FieldElement((1,) + (0,) * (self.m - 1))

    def scalar(self, c: int) -> FieldElement:
        return FieldElement((c % self.q,) + (0,) * (self.m - 1))

    def from_index(self, idx: int) -> FieldElement:
        """Base-q digit expansion; indexes all Q elements."""
        if not 0 <= idx < self.Q:
            raise ValueError(f"element index {idx} outside [0, {self.Q})")
        digits = []
        for _ in range(self.m):
            digits.append(idx % self.q)
            idx //= self.q
        return FieldElement(tuple(digits))

    def to_index(self, x: FieldElement) -> int:
        return sum(c * self.q ** i for i, c in enumerate(x.coeffs))

    def elements(self):
        for idx in range(self.Q):
            yield self.from_index(idx)

    def units(self):
        for idx in range(1, self.Q):
            yield self.from_index(idx)

    # -- arithmetic

    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        q = self.q
        return FieldElement(tuple((a + b) % q for a, b in zip(x.coeffs, y.coeffs)))

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        q = self.q
        return FieldElement(tuple((a - b) % q for a, b in zip(x.coeffs, y.coeffs)))

    def neg(self, x: FieldElement) -> FieldElement:
        q = self.q
        return FieldElement(tuple(-a % q for a in x.coeffs))

    def _mul_poly(self, x: FieldElement, y: FieldElement) -> FieldElement:
        prod = _pmulmod(list(x.coeffs), list(y.coeffs), list(self.modulus), self.q)
        prod += [0] * (self.m - len(prod))
        return FieldElement(tuple(prod[: self.m]))

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if self._log is not None:
            if x.is_zero() or y.is_zero():
                return self.zero
            j = (self._log[x.coeffs] + self._log[y.coeffs]) % (self.Q - 1)
            return FieldElement(self._exp[j])
        return self._mul_poly(x, y)

    def pow(self, x: FieldElement, e: int) -> FieldElement:
        if x.is_zero():
            if e == 0:
                return self.one
            if e < 0:
                raise ZeroElement("negative power of zero")
            return self.zero
        if self._log is not None:
            j = self._log[x.coeffs] * e % (self.Q - 1)
            return FieldElement(self._exp[j])
        if e < 0:
            x, e = self.inv(x), -e
        return self._pow_poly(x, e)

    def _pow_poly(self, x: FieldElement, e: int) -> FieldElement:
        """x^e for e >= 0 by square-and-multiply, bypassing the log table."""
        result = self.one
        while e:
            if e & 1:
                result = self._mul_poly(result, x)
            x = self._mul_poly(x, x)
            e >>= 1
        return result

    def inv(self, x: FieldElement) -> FieldElement:
        if x.is_zero():
            raise ZeroElement("zero has no inverse")
        return self.pow(x, self.Q - 2)

    # -- structure queries

    def _frobenius_trace(self, eps: FieldElement, r: int) -> FieldElement:
        """Sum of eps^(p^j) for j < m/r with p = q^r, bypassing the log table."""
        acc = cur = eps
        for _ in range(self.m // r - 1):
            cur = self._pow_poly(cur, self.q ** r)
            acc = self.add(acc, cur)
        return acc

    def _trace_columns(self, r: int) -> tuple[tuple[int, ...], ...]:
        """Column k: coordinate k of Tr(x^i), i < m; Tr is GF(q)-linear."""
        cols = self.basis_traces.get(r)
        if cols is None:
            if self.m % r != 0:
                raise BadSubfieldDegree(f"{r} does not divide {self.m}")
            basis = (self.from_index(self.q ** i) for i in range(self.m))
            cols = tuple(zip(*(self._frobenius_trace(x, r).coeffs for x in basis)))
            if r == 1 and any(map(any, cols[1:])):
                raise AssertionError("absolute traces of the basis are not scalar")
            self.basis_traces[r] = cols
        return cols

    def trace_rel(self, eps: FieldElement, r: int) -> FieldElement:
        """Trace onto the intermediate field GF(q^r) <= GF(q^m)."""
        q = self.q
        return FieldElement(tuple(sum(map(mul, eps.coeffs, col)) % q
                                  for col in self._trace_columns(r)))

    def abs_trace_int(self, eps: FieldElement) -> int:
        """Trace to the prime field GF(q), read off as an integer."""
        return sum(map(mul, eps.coeffs, self._trace_columns(1)[0])) % self.q

    def element_order(self, eps: FieldElement) -> int:
        if eps.is_zero():
            raise ZeroElement("order of zero is undefined")
        if not self.order_facts.complete:
            raise FactorizationIncomplete(self.order_facts.n)
        n = self.Q - 1
        if self._log is not None:
            return n // math.gcd(n, self._log[eps.coeffs])
        order = n
        for ell, e in self.order_facts.factors:
            for _ in range(e):
                if order % ell == 0 and self.pow(eps, order // ell) == self.one:
                    order //= ell
                else:
                    break
        return order

    def is_primitive(self, eps: FieldElement) -> bool:
        return self.element_order(eps) == self.Q - 1

    def is_ufree(self, eps: FieldElement, u: int) -> bool:
        """gcd(u, (Q-1)/order) = 1; u-free per the character-sum setup."""
        if eps.is_zero():
            raise ZeroElement("u-free is defined on units only")
        if (self.Q - 1) % u != 0:
            raise NotADivisor(f"{u} does not divide {self.Q - 1}")
        return math.gcd(u, (self.Q - 1) // self.element_order(eps)) == 1

    def in_subfield(self, x: FieldElement, r: int) -> bool:
        if self.m % r != 0:
            raise BadSubfieldDegree(f"{r} does not divide {self.m}")
        return self.pow(x, self.q ** r) == x

    def subfield_elements(self, r: int) -> list[FieldElement]:
        """The q^r elements fixed by x -> x^(q^r): zero, then powers of the
        subfield generator g^((Q-1)/(q^r-1))."""
        if self.m % r != 0:
            raise BadSubfieldDegree(f"{r} does not divide {self.m}")
        if self.generator is None:
            raise FactorizationIncomplete("subfield enumeration needs a generator")
        sub_order = self.q ** r - 1
        h = self.pow(self.generator, (self.Q - 1) // sub_order)
        out = [self.zero]
        cur = self.one
        for _ in range(sub_order):
            out.append(cur)
            cur = self.mul(cur, h)
        return out

    def discrete_log(self, eps: FieldElement) -> int:
        """j with generator^j = eps, read from the log table."""
        if eps.is_zero():
            raise ZeroElement("discrete log of zero")
        if self.generator is None:
            raise FactorizationIncomplete("discrete log needs a generator")
        if self._log is None:
            raise BudgetExceeded(f"GF({self.q}^{self.m}) is above the log-table cap")
        return self._log[eps.coeffs]

    def __repr__(self):
        return f"FieldCtx(GF({self.q}^{self.m}))"


def make_field(q: int, m: int, seed: int = 0, *,
               table_cap: int = DEFAULT_TABLE_CAP,
               effort: FactorEffort = FactorEffort(),
               cache: FactorCache | None = None) -> FieldCtx:
    """Deterministic for fixed (q, m, seed): the modulus is the first monic
    irreducible found by a seeded random search."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        modulus = (0, 1)          # x; degree-0 elements never need reduction
    else:
        rng = random.Random(("modulus", q, m, seed).__repr__())
        while True:
            cand = [rng.randrange(q) for _ in range(m)] + [1]
            if _base_irreducible(cand, q):
                modulus = tuple(cand)
                break
    facts = factor_prime_power_order(q, m, effort=effort, cache=cache)
    return FieldCtx(q, m, modulus, facts, table_cap=table_cap, gen_seed=seed)
