"""Character-sum laboratory on small fields.

Multiplicative characters are realized through the dense discrete-log table:
a character is indexed by an exponent multiplier mhat, with
chi(g^j) = exp(2*pi*i * j * mhat / (Q-1)).  The canonical additive character
uses the absolute trace to the prime field.

The field is GF(q^m) = F_{p^t} with p = q^r and t = m/r; the subfield degree
r is passed explicitly to every operation that involves traces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, NotADivisor, NotInSubfield, ZeroElement
from .ffield import FieldCtx, FieldElement
from .ntheory import factorize, is_prime, mobius, squarefree_divisors, euler_phi
from .ratfunc import POLE, RationalFunction, eval_rational

__all__ = [
    "INDICATOR_TOL",
    "LAB_CAP",
    "sum_tolerance",
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

INDICATOR_TOL = 1e-6
LAB_CAP = 1 << 14


def sum_tolerance(Q: int, n_summands: int) -> float:
    """Accumulated-rounding allowance for sum comparisons."""
    return 1e-6 * math.sqrt(Q) * math.sqrt(max(n_summands, 1))


def theta(u: int) -> float:
    return euler_phi(factorize(u)) / u


class _Lab:
    """Roots of unity, the subfield and the two indicator expansions (rho by
    discrete log, shifted tau) for one (ctx, r)."""

    def __init__(self, ctx: FieldCtx, r: int):
        if ctx.Q > LAB_CAP:
            raise BudgetExceeded(f"field size {ctx.Q} above lab cap {LAB_CAP}")
        self.ctx = ctx
        self.r = r
        self.p = ctx.q ** r
        self.t = ctx.m // r
        n = ctx.Q - 1
        self.mult_roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        self.add_roots = [cmath.exp(2j * cmath.pi * k / ctx.q) for k in range(ctx.q)]
        self.subfield = ctx.subfield_elements(r)
        # Tr_{F_Q/F_p}(w) = 1, so Tr_{F_p/F_q}(z) = Tr_{F_Q/F_q}(z w) on F_p
        self.w = next(x for x in ctx.elements() if ctx.trace_rel(x, r) == ctx.one)
        self._weights: dict[int, list[complex]] = {}

    def log(self, x: FieldElement) -> int:
        return self.ctx.discrete_log(x)

    def weights(self, k: int) -> list[complex]:
        """The k-free indicator by discrete log j: theta(k) times the sum over
        squarefree s | k and characters of exact order s of
        mu(s)/phi(s) * chi(g^j).  Built once per k."""
        out = self._weights.get(k)
        if out is None:
            n = self.ctx.Q - 1
            roots = self.mult_roots
            out = [0.0 + 0.0j] * n
            for s in squarefree_divisors(factorize(k)):
                w = mobius(s) / euler_phi(factorize(s))
                for mhat in characters_of_order(self.ctx, s):
                    out = [o + w * roots[j * mhat % n] for j, o in enumerate(out)]
            th = theta(k)
            out = self._weights[k] = [th * o for o in out]
        return out

    def chi(self, mhat: int, x: FieldElement) -> complex:
        if x.is_zero():
            raise ZeroElement("multiplicative character at zero")
        return self.mult_roots[self.log(x) * mhat % (self.ctx.Q - 1)]

    def psi_hat0(self, x: FieldElement) -> complex:
        """Canonical additive character of the big field."""
        return self.add_roots[self.ctx.trace_rel(x, 1)]

    def psi0_sub(self, z: FieldElement) -> complex:
        """Canonical additive character of the subfield F_p at z in F_p."""
        if not self.ctx.in_subfield(z, self.r):
            raise NotInSubfield(f"element index {self.ctx.to_index(z)} "
                                f"not fixed by Frobenius^{self.r}")
        return self.psi_hat0(self.ctx.mul(z, self.w))

    def tau(self, a: FieldElement, x: FieldElement) -> complex:
        """Indicator of Tr(x) = a in shifted-canonical form:
        (1/p) * sum over u in F_p of psi_hat0(u x) * psi0(-u a)."""
        ctx = self.ctx
        return sum(
            self.psi_hat0(ctx.mul(u, x)) * self.psi0_sub(ctx.neg(ctx.mul(u, a)))
            for u in self.subfield
        ) / self.p


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


def canonical_additive(ctx: FieldCtx, eps: FieldElement, r: int = 1) -> complex:
    return _lab(ctx, r).psi_hat0(eps)


def rho_indicator(ctx: FieldCtx, u: int, eps: FieldElement, r: int = 1) -> complex:
    """Indicator of u-free units, via the explicit character expansion."""
    if eps.is_zero():
        raise ZeroElement("rho is defined on units")
    if (ctx.Q - 1) % u != 0:
        raise NotADivisor(f"{u} does not divide {ctx.Q - 1}")
    lab = _lab(ctx, r)
    return lab.weights(u)[lab.log(eps)]


def tau_indicator(ctx: FieldCtx, a: FieldElement, eps: FieldElement, r: int) -> complex:
    """Indicator of Tr(eps) = a; evaluates both the direct form and the
    shifted-canonical form and checks they agree."""
    lab = _lab(ctx, r)
    if not ctx.in_subfield(a, r):
        raise NotInSubfield("a must lie in the subfield")
    p = lab.p
    tr = ctx.trace_rel(eps, r)
    diff = ctx.sub(tr, a)
    direct = sum(lab.psi0_sub(ctx.mul(u, diff)) for u in lab.subfield) / p
    shifted = lab.tau(a, eps)
    if abs(direct - shifted) > sum_tolerance(ctx.Q, p):
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
    # per-eps data reused across the (u, v) loop
    rows = []
    for eps, eps0 in _outside_Pp(ctx, f):
        chi_part = lab.mult_roots[(lab.log(eps) * mhat1 + lab.log(eps0) * mhat2) % n]
        rows.append((eps, eps0, chi_part))
    total = 0.0 + 0.0j
    for u in lab.subfield:
        for v in lab.subfield:
            w = lab.psi0_sub(ctx.neg(ctx.add(ctx.mul(a, u), ctx.mul(b, v))))
            inner = 0.0 + 0.0j
            for eps, eps0, chi_part in rows:
                add_arg = ctx.add(ctx.mul(u, eps), ctx.mul(v, eps0))
                inner += chi_part * lab.psi_hat0(add_arg)
            total += w * inner
    return total


def count_A_direct(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                   b: FieldElement, k1: int, k2: int, r: int,
                   check_expansion: bool = True) -> int:
    """|{eps outside P' : eps k1-free, f(eps) k2-free, Tr(eps)=a, Tr(f(eps))=b}|.

    Optionally re-derives the count through the character-sum expansion and
    asserts agreement."""
    lab = _lab(ctx, r)
    n = ctx.Q - 1
    if n % k1 or n % k2:
        raise NotADivisor("k1, k2 must divide Q - 1")
    count = 0
    for eps, eps0 in _outside_Pp(ctx, f):
        if not (ctx.is_ufree(eps, k1) and ctx.is_ufree(eps0, k2)):
            continue
        if ctx.trace_rel(eps, r) != a or ctx.trace_rel(eps0, r) != b:
            continue
        count += 1
    if check_expansion:
        expansion = _count_A_expansion(ctx, f, a, b, k1, k2, r)
        tol = sum_tolerance(ctx.Q, lab.p ** 2 * ctx.Q)
        if abs(expansion - count) > tol:
            raise AssertionError(
                f"direct count {count} != expansion {expansion}")
    return count


def _count_A_expansion(ctx: FieldCtx, f: RationalFunction, a: FieldElement,
                       b: FieldElement, k1: int, k2: int, r: int) -> complex:
    """The full character-sum expansion, with the sums over character pairs
    and (u, v) regrouped per eps (an exact reordering of finite sums).  Uses
    only character arithmetic, never the boolean freeness/trace tests."""
    lab = _lab(ctx, r)
    rho1 = lab.weights(k1)
    rho2 = lab.weights(k2)
    total = 0.0 + 0.0j
    for eps, eps0 in _outside_Pp(ctx, f):
        total += (rho1[lab.log(eps)] * rho2[lab.log(eps0)]
                  * lab.tau(a, eps) * lab.tau(b, eps0))
    return total


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
