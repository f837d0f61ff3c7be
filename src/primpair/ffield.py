"""GF(q^m) in polynomial basis: arithmetic, trace, order, primitivity, and
polynomials over the field with the one Rabin irreducibility test.

A tower F_p <= F_{p^t} with p = q^r is flattened into the single extension
GF(q^{r*t}); the intermediate field is the fixed field of x -> x^(q^r).
Small fields carry dense log/exp tables so multiplicative structure queries
are O(1), and a Zech table, built on first use, that evaluates a polynomial
at every unit in the log domain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add
from typing import NoReturn

from .errors import FactorizationIncomplete
from .ntheory import (
    FactorEffort,
    FactorCache,
    Factorization,
    factor_prime_power_order,
    is_prime,
)

__all__ = ["FieldElement", "FieldCtx", "Poly", "is_irreducible", "make_field",
           "poly_eval", "poly_gcd"]

DEFAULT_TABLE_CAP = 1 << 20


class FieldElement(int):
    """An element of GF(q^m) in its field's packed form: polynomial-basis
    coordinate i over GF(q), in [0, q), in slot i of the field's _Kernel."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


class _Kernel:
    """Products in GF(q)[x]/(f), f monic of degree m, by Kronecker
    substitution (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).

    A polynomial is packed into one int, coefficient i in bits
    [i*w, (i+1)*w), so a polynomial product is one int product.  No slot
    ever holds more than v = max(m, 2)*(q-1)^2, which bounds the slots of a
    product and of x + (q-1)*y alike, so no slot carries into the next.
    The slot width w and the reduction of all slots mod q at once depend on
    the characteristic:

    - q = 2: w = v.bit_length(), so every slot is at most v = max(m, 2) <
      2^w.  A slot mod 2 is its low bit, so one AND with ``ones``, bit 0 of
      each of the 2m - 1 slots of a product, reduces them all.
    - odd q: for x <= v, x // q is (x * recip) >> s, and w is the bit length
      of v * recip, so the quotient fits in the w - s bits above bit s and
      x - q * quotient is x mod q.

    A product, of degree <= 2m - 2, is reduced by one polynomial Barrett
    step: its quotient by f is (high * mu) div x^m, where high is the
    product div x^m and mu = x^(2m) div f, and its remainder is the low m
    slots of low + quotient * (-f mod x^m).  A product therefore costs a
    fixed number of int operations, whatever m is.
    """

    __slots__ = ("q", "m", "w", "ones", "recip", "s", "qmask", "shift", "low",
                 "mu", "fneg")

    def __init__(self, f, q):
        if f[-1] != 1:
            raise ValueError("the modulus must be monic")
        m = len(f) - 1
        v = max(m, 2) * (q - 1) ** 2
        self.q, self.m = q, m
        if q == 2:
            self.w = w = v.bit_length()
            self.ones = sum(1 << i * w for i in range(2 * m - 1))
        else:
            self.s = (v * q).bit_length()
            self.recip = (1 << self.s) // q + 1
            self.w = w = (v * self.recip).bit_length()
            self.qmask = sum(((1 << (w - self.s)) - 1) << (i * w) for i in range(2 * m - 1))
        self.shift = m * w
        self.low = (1 << self.shift) - 1
        # mu reversed is 1 / (f reversed) mod x^(m+1), a power series mod q
        h = [1]
        for k in range(1, m + 1):
            h.append(-sum(f[m - j] * h[k - j] for j in range(1, k + 1)) % q)
        self.mu = self.pack(h[::-1])
        self.fneg = self.pack([-fi % q for fi in f[:m]])

    def pack(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = (v << self.w) | c
        return v

    def unpack(self, v: int) -> tuple[int, ...]:
        w = self.w
        mask = (1 << w) - 1
        out = []
        for _ in range(self.m):
            out.append(v & mask)
            v >>= w
        return tuple(out)

    def reduce(self, v: int) -> int:
        """Every slot of v taken mod q; each slot must be at most the bound."""
        if self.q == 2:
            return v & self.ones
        return v - self.q * (((v * self.recip) >> self.s) & self.qmask)

    def mulmod(self, a: int, b: int) -> int:
        shift, low = self.shift, self.low
        if self.q == 2:     # the three reductions are one AND each
            ones = self.ones
            p = a * b & ones
            t = (p >> shift) * self.mu & ones
            return ((p & low) + ((t >> shift) * self.fneg & low)) & ones
        q, recip, s, qmask = self.q, self.recip, self.s, self.qmask   # reduce, no call
        p = a * b
        p -= q * (((p * recip) >> s) & qmask)
        t = (p >> shift) * self.mu
        t -= q * (((t * recip) >> s) & qmask)
        r = (p & low) + (((t >> shift) * self.fneg) & low)
        return r - q * (((r * recip) >> s) & qmask)

    def powmod(self, a: int, e: int) -> int:
        """a^e for e >= 0, left-to-right square-and-multiply from the
        leading bit, which needs no product."""
        if not e:
            return 1
        r = a
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, a)
        return r


# -- polynomials over a field, coefficients lowest degree first -------------

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


def make_poly(ctx: FieldCtx, coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return Poly(tuple(cs))


def poly_one(ctx: FieldCtx) -> Poly:
    return Poly((ctx.one,))


def poly_eval(ctx: FieldCtx, poly: Poly, x: FieldElement) -> FieldElement:
    acc = ctx.zero
    for c in reversed(poly.coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


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
    # a monic divisor, as every Rabin modulus is, needs no inverse
    inv_lead = None if b.is_monic(ctx) else ctx.inv(b.coeffs[-1])
    while len(rem) >= len(b.coeffs):
        c = rem[-1] if inv_lead is None else ctx.mul(rem[-1], inv_lead)
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
    """base^e mod ``mod`` for e >= 1, left-to-right from the leading bit."""
    base = result = poly_mod(ctx, base, mod)
    for bit in bin(e)[3:]:
        result = poly_mod(ctx, poly_mul(ctx, result, result), mod)
        if bit == "1":
            result = poly_mod(ctx, poly_mul(ctx, result, base), mod)
    return result


def is_irreducible(ctx: FieldCtx, poly: Poly) -> bool:
    """Rabin irreducibility test over GF(Q), Q = ctx.Q (von zur Gathen &
    Gerhard, Modern Computer Algebra, 14.9): P of degree d is irreducible
    exactly when h_d = x and h_k - x is prime to P at each k = d/l, l prime,
    where h_k = x^(Q^k) mod P.  Over a prime field each link is the packed
    q-th power of the last in a _Kernel built on P, and coprimality is a
    unit test: once h_d = x, P divides x^(q^d) - x, so GF(q)[x]/(P) is a
    product of fields GF(q^e) with e | d, where a (q^d - 1)-th power is 1
    exactly on the units.  Over GF(Q), m > 1, the Q-th power fixes every
    coefficient, so h_(k+1) = h_k(h_1) mod P: one power x^Q, then a Horner
    composition per link (von zur Gathen & Shoup, Computing Frobenius maps
    and factoring polynomials, Comput. Complexity 2, 1992), with a gcd at
    each k = d/l."""
    d = poly.degree
    if d < 1:
        raise ValueError("irreducibility undefined for constants")
    if d == 1:
        return True
    poly = poly_scale(ctx, poly, ctx.inv(poly.coeffs[-1]))
    rabin = {d // p for p in range(2, d + 1) if d % p == 0 and is_prime(p)}
    if ctx.m == 1:
        kernel, q = _Kernel(poly.coeffs, ctx.q), ctx.q
        x = h = kernel.pack((0, 1))
        links = []
        for k in range(1, d + 1):       # h = x^(q^k) mod P
            h = kernel.powmod(h, q)
            if k in rabin:
                links.append(kernel.reduce(h + (q - 1) * x))
        return h == x and all(kernel.powmod(g, q ** d - 1) == 1 for g in links)
    x = Poly((ctx.zero, ctx.one))
    x_q = h = _poly_powmod(ctx, x, ctx.Q, poly)
    for k in range(1, d):               # h = x^(Q^k) mod P
        if k in rabin:
            cs = list(h.coeffs) + [ctx.zero] * (2 - len(h.coeffs))
            cs[1] = ctx.sub(cs[1], ctx.one)
            if poly_gcd(ctx, poly, make_poly(ctx, cs)).degree != 0:
                return False
        acc = Poly(())                  # h(x^Q) mod P by Horner's rule
        for c in reversed(h.coeffs):
            cs = list(poly_mod(ctx, poly_mul(ctx, acc, x_q), poly).coeffs) or [ctx.zero]
            cs[0] = ctx.add(cs[0], c)
            acc = make_poly(ctx, cs)
        h = acc
    return h == x


def _random_monic_irreducible(ctx: FieldCtx, n: int, rng) -> Poly:
    """The first monic irreducible of degree n over GF(Q) drawn by rng, each
    candidate's n low coefficients drawn uniformly, lowest first."""
    while True:
        coeffs = [ctx.from_index(rng.randrange(ctx.Q)) for _ in range(n)]
        cand = Poly(tuple(coeffs) + (ctx.one,))
        if is_irreducible(ctx, cand):
            return cand


class FieldCtx:
    """Arithmetic is fixed at construction; only labs, basis traces and the
    Zech table fill in."""

    def __init__(self, q: int, m: int, modulus: tuple[int, ...],
                 order_facts: Factorization, table_cap: int, gen_seed: int):
        self.q = q
        self.m = m
        self.modulus = modulus
        self.Q = q ** m
        self.order_facts = order_facts
        self._kernel = _Kernel(modulus, q)
        # from_index reads c base-q digits at a time from a table of the
        # packed form of every index below q^c <= max(q, 256)
        w, c, packed = self._kernel.w, 1, range(q)    # a digit packs as itself
        while q ** (c + 1) <= 256:
            packed = [t | d << c * w for d in range(q) for t in packed]
            c += 1
        self._chunks = (q ** c, c * w, packed)
        self.zero = FieldElement(0)
        self.one = FieldElement(1)
        self.generator: FieldElement | None = None
        self._exp: list[FieldElement] | None = None
        self._log: dict[int, int] | None = None
        self._zech: list[int | None] | None = None
        # charsum labs and basis traces by subfield degree r die with the field
        self.labs: dict = {}
        self.basis_traces: dict[int, tuple[tuple[int, int], ...]] = {}
        if order_facts.complete:
            self.generator = self._find_generator(gen_seed)
            if self.Q <= table_cap:
                self._build_tables()

    # -- construction helpers

    def _find_generator(self, seed: int) -> FieldElement:
        rng = random.Random(("generator", self.q, self.m, seed).__repr__())
        while True:
            cand = FieldElement(self._kernel.pack(
                [rng.randrange(self.q) for _ in range(self.m)]))
            if cand and self.is_primitive(cand):
                return cand

    def _build_tables(self):
        mulmod, g = self._kernel.mulmod, self.generator
        exp = [self.one]
        cur = 1
        for _ in range(self.Q - 2):
            cur = mulmod(cur, g)
            exp.append(FieldElement(cur))
        self._exp = exp
        self._log = {x: j for j, x in enumerate(exp)}

    # -- conversions: the base-q index of coordinates, lowest degree first

    def from_index(self, idx: int) -> FieldElement:
        """Base-q digit expansion; indexes all Q elements."""
        if not 0 <= idx < self.Q:
            raise ValueError(f"element index {idx} outside [0, {self.Q})")
        base, width, packed = self._chunks
        v = shift = 0
        while idx:
            idx, d = divmod(idx, base)
            v |= packed[d] << shift
            shift += width
        return FieldElement(v)

    def to_index(self, x: FieldElement) -> int:
        return sum(c * self.q ** i for i, c in enumerate(self._kernel.unpack(x)))

    def elements(self):
        return map(self.from_index, range(self.Q))

    def units(self):
        return map(self.from_index, range(1, self.Q))

    # -- arithmetic

    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return FieldElement(self._kernel.reduce(x + y))

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return FieldElement(self._kernel.reduce(x + (self.q - 1) * y))

    def neg(self, x: FieldElement) -> FieldElement:
        return FieldElement(self._kernel.reduce((self.q - 1) * x))

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if self._log is not None:
            if not x or not y:
                return self.zero
            return self._exp[(self._log[x] + self._log[y]) % (self.Q - 1)]
        return FieldElement(self._kernel.mulmod(x, y))

    def pow(self, x: FieldElement, e: int) -> FieldElement:
        if not x:
            if e == 0:
                return self.one
            if e < 0:
                raise ValueError("negative power of zero")
            return self.zero
        if self._log is not None:
            return self._exp[self._log[x] * e % (self.Q - 1)]
        if e < 0:
            x, e = self.inv(x), -e
        return FieldElement(self._kernel.powmod(x, e))

    def inv(self, x: FieldElement) -> FieldElement:
        if not x:
            raise ValueError("zero has no inverse")
        return self.pow(x, self.Q - 2)

    # -- structure queries

    def _conjugates(self, x: int) -> list[int]:
        """x^(q^j) for j < m, packed, by the kernel alone: each is the q-th
        power of the last, one product when q = 2."""
        kernel, q = self._kernel, self.q
        out = [x]
        for _ in range(self.m - 1):
            x = kernel.mulmod(x, x) if q == 2 else kernel.powmod(x, q)
            out.append(x)
        return out

    def _frobenius_trace(self, eps: FieldElement, r: int) -> FieldElement:
        """Sum of eps^(p^j) for j < m/r with p = q^r, bypassing the log table:
        every r-th conjugate.  No slot of the sum exceeds m*(q-1)."""
        return FieldElement(self._kernel.reduce(sum(self._conjugates(eps)[::r])))

    def _check_subfield_degree(self, r: int) -> None:
        """GF(q^r) is a subfield of GF(q^m) exactly when r >= 1 divides m."""
        if r < 1 or self.m % r:
            raise ValueError(f"{r} is not a positive divisor of {self.m}")

    def _check_orders(self, *orders: int) -> None:
        """Every order, of a character or of a u-free test, is a positive
        divisor of Q - 1."""
        for k in orders:
            if k < 1 or (self.Q - 1) % k:
                raise ValueError(f"{k} is not a positive divisor of {self.Q - 1}")

    def _trace_columns(self, r: int) -> tuple[tuple[int, int], ...]:
        """(k, column k packed in reverse) for each coordinate k that Tr can
        make nonzero: slot m-1-i of column k is coordinate k of Tr(x^i), so
        coordinate k of Tr(eps) is slot m-1 of eps * column; Tr is
        GF(q)-linear, and no slot of that product exceeds m*(q-1)^2."""
        cols = self.basis_traces.get(r)
        if cols is None:
            self._check_subfield_degree(r)
            kernel = self._kernel
            images = (kernel.unpack(self._frobenius_trace(1 << i * kernel.w, r))
                      for i in range(self.m))
            cols = tuple((k, kernel.pack(col[::-1]))
                         for k, col in enumerate(zip(*images)) if any(col))
            if r == 1 and any(k for k, _ in cols):
                raise AssertionError("absolute traces of the basis are not scalar")
            self.basis_traces[r] = cols
        return cols

    def trace_rel(self, eps: FieldElement, r: int) -> FieldElement:
        """Trace onto the intermediate field GF(q^r) <= GF(q^m)."""
        w, q = self._kernel.w, self.q
        top, slot = self._kernel.shift - w, (1 << w) - 1
        tr = 0
        for k, col in self._trace_columns(r):
            tr |= ((eps * col >> top) & slot) % q << k * w
        return FieldElement(tr)

    def element_order(self, eps: FieldElement) -> int:
        if not eps:
            raise ValueError("order of zero is undefined")
        if not self.order_facts.complete:
            raise FactorizationIncomplete(self.order_facts.n)
        n = self.Q - 1
        if self._log is not None:
            return n // math.gcd(n, self._log[eps])
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
        if not eps:
            raise ValueError("u-free is defined on units only")
        self._check_orders(u)
        return math.gcd(u, (self.Q - 1) // self.element_order(eps)) == 1

    def in_subfield(self, x: FieldElement, r: int) -> bool:
        self._check_subfield_degree(r)
        return self.pow(x, self.q ** r) == x

    def subfield_elements(self, r: int) -> list[FieldElement]:
        """The q^r elements fixed by x -> x^(q^r): zero, then powers of the
        subfield generator g^((Q-1)/(q^r-1))."""
        self._check_subfield_degree(r)
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
        if not eps:
            raise ValueError("discrete log of zero")
        if self._log is None:
            self._raise_no_tables()
        return self._log[eps]

    def _raise_no_tables(self) -> NoReturn:
        """Why this field has no exp/log tables, raised."""
        if self.generator is None:
            raise FactorizationIncomplete("the log table needs a generator")
        raise ValueError(f"GF({self.q}^{self.m}) is above the log-table cap")

    def zech(self) -> list[int | None]:
        """Z[k] = log(1 + g^k) for k in [0, Q-1), None where 1 + g^k = 0
        (Huber, Some comments on Zech's logarithms, IEEE Trans. Inf. Theory
        36, 1990).  Read from the log table, built on first use."""
        if self._zech is None:
            if self._log is None:
                self._raise_no_tables()
            log, one = self._log, self.one
            self._zech = [log.get(self.add(x, one)) for x in self._exp]
        return self._zech

    def poly_logs(self, poly: Poly) -> list[int | None]:
        """log P(g^l) for every l in [0, Q-1), None where P(g^l) = 0.

        Horner's rule in the log domain, one coefficient c at a time over all
        l: multiplying by g^l adds l, and adding c = g^k to g^s gives
        g^(k + Z[s - k]).  A log s + l is below 2(Q-1) and 0 is marked by
        2(Q-1), so a marked zero plus l lands in [2(Q-1), 3(Q-1)); one list
        per coefficient maps all three ranges, and a step is a lookup per l."""
        zech, n = self.zech(), self.Q - 1
        zero = 2 * n
        acc = [zero] * n
        for c in reversed(poly.coeffs):
            if c:
                k = self._log[c]
                shift = -k % n
                row = [zero if z is None else (z + k) % n
                       for z in zech[shift:] + zech[:shift]]
                tail = k
            else:
                row, tail = list(range(n)), zero
            step = row + row + [tail] * n
            acc = list(map(step.__getitem__, map(add, acc, range(n))))
        return [None if s == zero else s for s in acc]

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
        # over the prime field, with no O(q) log table and not the caller's
        # cache, an element index is the element itself
        base = make_field(q, 1, table_cap=0)
        rng = random.Random(("modulus", q, m, seed).__repr__())
        modulus = tuple(map(int, _random_monic_irreducible(base, m, rng).coeffs))
    facts = factor_prime_power_order(q, m, effort=effort, cache=cache)
    return FieldCtx(q, m, modulus, facts, table_cap=table_cap, gen_seed=seed)
