"""Character-sum laboratory on small fields.

Character values are residues mod ell, the least prime = 1 mod q(Q-1), in
powers of a root z of order q(Q-1): chi(g^j) = z^(q j mhat) for the character
of exponent multiplier mhat, and psi(x) = z^((Q-1) Tr(x)) on the absolute
trace.  p, phi(s) and k are units mod ell and every count is below ell, so
the indicators and the count-A expansion are checked exactly; only
char_sum_chi, whose absolute value the Weil bound is about, is complex.

The field is GF(q^m) = F_{p^t} with p = q^r and t = m/r; the subfield degree
r is passed explicitly to every operation that involves traces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, NotADivisor, NotInSubfield, ZeroElement
from .ffield import FieldCtx, FieldElement
from .ntheory import factorize, is_prime, mobius, squarefree_divisors, euler_phi
from .ratfunc import POLE, RationalFunction, eval_rational

__all__ = [
    "LAB_CAP",
    "theta",
    "characters_of_order",
    "canonical_additive",
    "rho_indicator",
    "tau_indicator",
    "char_sum_chi",
    "count_A_direct",
    "Lemma32Report",
    "verify_lemma32",
    "Lemma33Report",
    "verify_lemma33",
]

LAB_CAP = 1 << 14


def theta(u: int) -> float:
    return euler_phi(factorize(u)) / u


class _Lab:
    """F_ell and its roots of unity, the subfield and the two indicator
    expansions (rho by discrete log, shifted tau) for one (ctx, r)."""

    def __init__(self, ctx: FieldCtx, r: int):
        if ctx.Q > LAB_CAP:
            raise BudgetExceeded(f"field size {ctx.Q} above lab cap {LAB_CAP}")
        ctx._check_subfield_degree(r)
        self.ctx = ctx
        self.r = r
        self.p = ctx.q ** r
        self.t = ctx.m // r
        n = ctx.Q - 1
        order = ctx.q * n
        self.ell = ell = next(e for e in itertools.count(order + 1, order)
                              if is_prime(e))
        # z has exact order `order` iff z^(order/f) != 1 for each prime f | order
        powers = (pow(c, (ell - 1) // order, ell) for c in itertools.count(2))
        z = next(z for z in powers if all(pow(z, order // f, ell) != 1
                                          for f in (ctx.q, *ctx.order_facts.primes())))
        self.mult_roots = [pow(z, ctx.q * k, ell) for k in range(n)]
        self.add_roots = [pow(z, n * k, ell) for k in range(ctx.q)]
        self.inv_p = pow(self.p, -1, ell)
        self.subfield = ctx.subfield_elements(r)
        # Tr_{F_Q/F_p}(w) = 1, so Tr_{F_p/F_q}(z) = Tr_{F_Q/F_q}(z w) on F_p
        self.w = next(x for x in ctx.elements() if ctx.trace_rel(x, r) == ctx.one)
        self._weights: dict[int, list[int]] = {}
        self._rows: tuple[RationalFunction | None, list] = (None, [])

    def weights(self, k: int) -> list[int]:
        """The k-free indicator by discrete log j: theta(k) times the sum over
        squarefree s | k and characters of exact order s of
        mu(s)/phi(s) * chi(g^j), mod ell.  Built once per k."""
        out = self._weights.get(k)
        if out is None:
            n, ell, roots = self.ctx.Q - 1, self.ell, self.mult_roots
            out = [0] * n
            for s in squarefree_divisors(factorize(k)):
                w = mobius(s) * pow(euler_phi(factorize(s)), -1, ell)
                chars = characters_of_order(self.ctx, s)
                # j -> cj with c prime to s permutes these characters, so
                # their sum at g^j depends only on gcd(j, s)
                by_gcd = {d: sum(roots[d * mhat % n] for mhat in chars)
                          for d in squarefree_divisors(factorize(s))}
                out = [o + w * by_gcd[math.gcd(j, s)] for j, o in enumerate(out)]
            th = euler_phi(factorize(k)) * pow(k, -1, ell)
            out = self._weights[k] = [th * o % ell for o in out]
        return out

    def rows(self, f: RationalFunction) -> list:
        """(eps, f(eps), Tr_r eps, Tr_r f(eps)) for eps outside P', in
        element order.  Built once per function; only the last f is kept."""
        last, rows = self._rows
        if last != f:
            ctx, r = self.ctx, self.r
            rows = [(eps, eps0, ctx.trace_rel(eps, r), ctx.trace_rel(eps0, r))
                    for eps, eps0 in _outside_Pp(ctx, f)]
            self._rows = (f, rows)
        return rows

    def chi(self, mhat: int, x: FieldElement) -> int:
        if x.is_zero():
            raise ZeroElement("multiplicative character at zero")
        return self.mult_roots[self.ctx.discrete_log(x) * mhat % (self.ctx.Q - 1)]

    def sub_trace(self, z: FieldElement) -> int:
        """Tr_{F_p/F_q}(z) for z in F_p, the index of psi0_sub(z)."""
        if not self.ctx.in_subfield(z, self.r):
            raise NotInSubfield(f"element index {self.ctx.to_index(z)} "
                                f"not fixed by Frobenius^{self.r}")
        return self.ctx.trace_rel(self.ctx.mul(z, self.w), 1)

    def psi_hat0(self, x: FieldElement) -> int:
        """Canonical additive character of the big field."""
        return self.add_roots[self.ctx.trace_rel(x, 1)]

    def psi0_sub(self, z: FieldElement) -> int:
        """Canonical additive character of the subfield F_p at z in F_p."""
        return self.add_roots[self.sub_trace(z)]

    def shift(self, a: FieldElement) -> list[int]:
        """psi0(-u a) for each u in the subfield, in subfield order."""
        ctx = self.ctx
        return [self.psi0_sub(ctx.neg(ctx.mul(u, a))) for u in self.subfield]

    def tau(self, shift: list[int], x: FieldElement) -> int:
        """Indicator of Tr(x) = a in shifted-canonical form, for
        shift = self.shift(a): (1/p) * sum over u in F_p of
        psi_hat0(u x) * psi0(-u a)."""
        ctx = self.ctx
        return sum(self.psi_hat0(ctx.mul(u, x)) * s
                   for u, s in zip(self.subfield, shift)) * self.inv_p % self.ell


def _lab(ctx: FieldCtx, r: int) -> _Lab:
    """The lab of (ctx, r), kept on the field so it dies with it."""
    lab = ctx.labs.get(r)
    if lab is None:
        lab = ctx.labs[r] = _Lab(ctx, r)
    return lab


def _outside_Pp(ctx: FieldCtx, f: RationalFunction):
    """(eps, f(eps)) for every eps outside P', i.e. with eps and f(eps) both
    units, in element order."""
    for eps in ctx.units():
        eps0 = eval_rational(ctx, f, eps)
        if eps0 is not POLE and not eps0.is_zero():
            yield eps, eps0


def characters_of_order(ctx: FieldCtx, s: int) -> list[int]:
    """Exponent multipliers of the phi(s) characters of exact order s."""
    n = ctx.Q - 1
    if n % s != 0:
        raise NotADivisor(f"{s} does not divide {n}")
    step = n // s
    return [step * c % n for c in range(1, s + 1) if math.gcd(c, s) == 1]


def canonical_additive(ctx: FieldCtx, eps: FieldElement, r: int = 1) -> int:
    return _lab(ctx, r).psi_hat0(eps)


def rho_indicator(ctx: FieldCtx, u: int, eps: FieldElement, r: int = 1) -> int:
    """Indicator of u-free units, via the explicit character expansion: 0 or 1."""
    if eps.is_zero():
        raise ZeroElement("rho is defined on units")
    if (ctx.Q - 1) % u != 0:
        raise NotADivisor(f"{u} does not divide {ctx.Q - 1}")
    lab = _lab(ctx, r)
    return lab.weights(u)[ctx.discrete_log(eps)]


def tau_indicator(ctx: FieldCtx, a: FieldElement, eps: FieldElement, r: int) -> int:
    """Indicator of Tr(eps) = a, 0 or 1; evaluates both the direct form and
    the shifted-canonical form and checks they agree."""
    lab = _lab(ctx, r)
    if not ctx.in_subfield(a, r):
        raise NotInSubfield("a must lie in the subfield")
    diff = ctx.sub(ctx.trace_rel(eps, r), a)
    direct = (sum(lab.psi0_sub(ctx.mul(u, diff)) for u in lab.subfield)
              * lab.inv_p % lab.ell)
    shifted = lab.tau(lab.shift(a), eps)
    if direct != shifted:
        raise AssertionError(
            f"additive-character forms disagree: {direct} vs {shifted}")
    return shifted


def char_sum_chi(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                 b: FieldElement, s1: int, s2: int, r: int) -> complex:
    """The hybrid sum over (u, v) in F_p^2 and eps outside the zero/pole set,
    for the pair of characters chi^((Q-1)/s1), chi^((Q-1)/s2) of exact
    orders s1 and s2."""
    lab = _lab(ctx, r)
    n = ctx.Q - 1
    if n % s1 or n % s2:
        raise NotADivisor("character orders must divide Q - 1")
    mhat1, mhat2 = n // s1, n // s2
    add_roots = [cmath.exp(2j * cmath.pi * k / ctx.q) for k in range(ctx.q)]
    sub = lab.subfield
    pos = {z: i for i, z in enumerate(sub)}
    # per-eps data reused across the (u, v) loop: the character value and
    # the subfield positions of Tr_r eps and Tr_r f(eps)
    rows = []
    for eps, eps0, tr, tr0 in lab.rows(f):
        k = (ctx.discrete_log(eps) * mhat1 + ctx.discrete_log(eps0) * mhat2) % n
        rows.append((cmath.exp(2j * cmath.pi * k / n), pos[tr], pos[tr0]))
    # Tr_{Q/q}(u eps + v eps0) = Tr_{p/q}(u Tr_r eps) + Tr_{p/q}(v Tr_r eps0),
    # by transitivity and F_q-linearity of the trace
    sub_tr = [[lab.sub_trace(ctx.mul(u, z)) for z in sub] for u in sub]
    total = 0.0 + 0.0j
    for u, tr_u in zip(sub, sub_tr):
        for v, tr_v in zip(sub, sub_tr):
            w = add_roots[lab.sub_trace(ctx.neg(ctx.add(ctx.mul(a, u), ctx.mul(b, v))))]
            tbl = [[add_roots[(x + y) % ctx.q] for y in tr_v] for x in tr_u]
            inner = 0.0 + 0.0j
            for chi_part, i, j in rows:
                inner += chi_part * tbl[i][j]
            total += w * inner
    return total


def count_A_direct(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                   b: FieldElement, k1: int, k2: int, r: int,
                   check_expansion: bool = True) -> int:
    """|{eps outside P' : eps k1-free, f(eps) k2-free, Tr(eps)=a, Tr(f(eps))=b}|.

    Optionally re-derives the count through the character-sum expansion and
    checks agreement; both are below ell, so agreement mod ell is equality."""
    lab = _lab(ctx, r)
    n = ctx.Q - 1
    if n % k1 or n % k2:
        raise NotADivisor("k1, k2 must divide Q - 1")
    count = sum(1 for eps, eps0, tr, tr0 in lab.rows(f)
                if tr == a and tr0 == b
                and ctx.is_ufree(eps, k1) and ctx.is_ufree(eps0, k2))
    if check_expansion:
        expansion = _count_A_expansion(ctx, f, a, b, k1, k2, r)
        if expansion != count:
            raise AssertionError(
                f"direct count {count} != expansion {expansion}")
    return count


def _count_A_expansion(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                       b: FieldElement, k1: int, k2: int, r: int) -> int:
    """The full character-sum expansion mod ell, with the sums over character
    pairs and (u, v) regrouped per eps (an exact reordering of finite sums).
    Uses only character arithmetic, never the boolean freeness/trace tests
    nor the rows' cached traces."""
    lab = _lab(ctx, r)
    rho1 = lab.weights(k1)
    rho2 = lab.weights(k2)
    shift_a, shift_b = lab.shift(a), lab.shift(b)
    total = 0
    for eps, eps0, _, _ in lab.rows(f):
        total += (rho1[ctx.discrete_log(eps)] * rho2[ctx.discrete_log(eps0)]
                  * lab.tau(shift_a, eps) * lab.tau(shift_b, eps0))
    return total % lab.ell


@dataclass(frozen=True)
class Lemma32Report:
    k: int
    m_prime: int
    lhs_first: float      # |A(mk,k) - theta(m) A(k,k)|
    lhs_second: float     # |A(k,mk) - theta(m) A(k,k)|
    bound: float

    @property
    def holds(self) -> bool:
        return self.lhs_first <= self.bound and self.lhs_second <= self.bound


def verify_lemma32(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                   b: FieldElement, k: int, m_prime: int, r: int) -> Lemma32Report:
    n = ctx.Q - 1
    if n % k or n % m_prime or not is_prime(m_prime) or k % m_prime == 0:
        raise NotADivisor(
            "need k | Q-1 and m a prime dividing Q-1 but not k")
    lab = _lab(ctx, r)
    A_kk = count_A_direct(ctx, f, a, b, k, k, r, check_expansion=False)
    A_mk_k = count_A_direct(ctx, f, a, b, m_prime * k, k, r, check_expansion=False)
    A_k_mk = count_A_direct(ctx, f, a, b, k, m_prime * k, r, check_expansion=False)
    tm = theta(m_prime)
    nf = f.degsum
    bound = (theta(k) ** 2 * tm / lab.p ** 2
             * (2 * nf + 1) * (1 << (len(factorize(k).factors))) ** 2
             * lab.p ** (lab.t / 2 + 2))
    return Lemma32Report(k, m_prime,
                         abs(A_mk_k - tm * A_kk),
                         abs(A_k_mk - tm * A_kk),
                         bound)


@dataclass(frozen=True)
class Lemma33Report:
    k: int
    sieve_primes: tuple[int, ...]
    lhs: int              # A(Q-1, Q-1)
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


def verify_lemma33(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                   b: FieldElement, k: int, r: int) -> Lemma33Report:
    n = ctx.Q - 1
    if n % k:
        raise NotADivisor(f"{k} does not divide {n}")
    sieve = tuple(q for q in ctx.order_facts.primes() if k % q != 0)
    m = len(sieve)
    A_full = count_A_direct(ctx, f, a, b, n, n, r, check_expansion=False)
    A_kk = count_A_direct(ctx, f, a, b, k, k, r, check_expansion=False)
    rhs = -(2 * m - 1) * A_kk
    for q in sieve:
        rhs += count_A_direct(ctx, f, a, b, k, q * k, r, check_expansion=False)
        rhs += count_A_direct(ctx, f, a, b, q * k, k, r, check_expansion=False)
    return Lemma33Report(k, sieve, A_full, rhs)
