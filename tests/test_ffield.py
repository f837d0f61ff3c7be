"""Finite-field layer: arithmetic laws, traces, orders, subfields."""

import gc
import math
import random
import weakref

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.galoistools import gf_pow_mod

from primpair.errors import (
    BadSubfieldDegree,
    BudgetExceeded,
    NotADivisor,
    ZeroElement,
)
from primpair.ffield import (
    FieldElement,
    Poly,
    _Kernel,
    is_irreducible,
    make_field,
    poly_eval,
)
from primpair.ntheory import FactorCache, FactorEffort, euler_phi, factorize


@pytest.fixture(scope="module")
def gf128():
    return make_field(2, 7)


@pytest.fixture(scope="module")
def gf81():
    return make_field(3, 4)


@pytest.fixture(scope="module")
def gf125():
    return make_field(5, 3)


def _elements(ctx, idxs):
    return [ctx.from_index(i % ctx.Q) for i in idxs]


def _coeffs(ctx, x):
    """Coordinates of x over GF(q), lowest degree first: its index's digits.
    The round trip fails on a packed int with a slot outside [0, q)."""
    idx = ctx.to_index(x)
    assert ctx.from_index(idx) == x
    return tuple(idx // ctx.q ** i % ctx.q for i in range(ctx.m))


class TestConstruction:
    def test_determinism(self):
        a = make_field(3, 5, seed=0)
        b = make_field(3, 5, seed=0)
        assert a.modulus == b.modulus
        assert a.generator == b.generator

    def test_seed_changes_modulus_eventually(self):
        mods = {make_field(2, 8, seed=s).modulus for s in range(6)}
        assert len(mods) > 1

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            make_field(6, 2)

    def test_degree_one(self):
        ctx = make_field(7, 1)
        assert ctx.Q == 7
        assert sorted(ctx.to_index(x) for x in ctx.elements()) == list(range(7))

    def test_from_index_range(self, gf81):
        assert gf81.to_index(gf81.from_index(80)) == 80
        for idx in (-1, 81, 999):
            with pytest.raises(ValueError):
                gf81.from_index(idx)


class TestArithmetic:
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_ring_laws_gf81(self, i, j, k):
        ctx = make_field(3, 4)
        x, y, z = _elements(ctx, (i, j, k))
        assert ctx.add(x, y) == ctx.add(y, x)
        assert ctx.mul(x, y) == ctx.mul(y, x)
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.add(x, ctx.neg(x)) == ctx.zero
        assert ctx.sub(x, y) == ctx.add(x, ctx.neg(y))

    def test_inverse(self, gf125):
        for x in gf125.units():
            assert gf125.mul(x, gf125.inv(x)) == gf125.one
        with pytest.raises(ZeroElement):
            gf125.inv(gf125.zero)

    def test_pow_agrees_with_repeated_mul(self, gf128):
        x = gf128.from_index(5)
        acc = gf128.one
        for e in range(10):
            assert gf128.pow(x, e) == acc
            acc = gf128.mul(acc, x)

    def test_frobenius_is_additive(self, gf81):
        # (x+y)^3 = x^3 + y^3 in characteristic 3
        for i in range(0, 81, 7):
            for j in range(0, 81, 11):
                x, y = gf81.from_index(i), gf81.from_index(j)
                lhs = gf81.pow(gf81.add(x, y), 3)
                rhs = gf81.add(gf81.pow(x, 3), gf81.pow(y, 3))
                assert lhs == rhs


class TestPackedElements:
    """Elements are packed ints: additive arithmetic against digit-wise
    arithmetic on the index digits, and FieldElement out of every method."""

    # m = 1 takes x + (q-1)*y up to q*(q-1) in one slot, more than m*(q-1)^2
    @pytest.mark.parametrize("q", [2, 3, 257, 65537])
    @pytest.mark.parametrize("m", [1, 2, 13, 23])
    def test_add_sub_neg_digitwise(self, q, m):
        # additive arithmetic does not read the factorization of Q - 1
        ctx = make_field(q, m, table_cap=1,
                         effort=FactorEffort(rho_iterations=1))
        rng = random.Random(q * m)
        els = [ctx.zero, ctx.from_index(ctx.Q - 1)]
        els += [ctx.from_index(rng.randrange(ctx.Q)) for _ in range(10)]
        for x in els:
            cx = _coeffs(ctx, x)
            assert _coeffs(ctx, ctx.neg(x)) == tuple(-a % q for a in cx)
            for y in els:
                cy = _coeffs(ctx, y)
                assert _coeffs(ctx, ctx.add(x, y)) == tuple(
                    (a + b) % q for a, b in zip(cx, cy))
                assert _coeffs(ctx, ctx.sub(x, y)) == tuple(
                    (a - b) % q for a, b in zip(cx, cy))

    # from_index packs 8 binary digits per chunk of 256 indexes
    @pytest.mark.parametrize("m", [8, 9, 13])
    def test_binary_index_round_trip(self, m):
        ctx = make_field(2, m, table_cap=1)
        idxs = {0, 1, ctx.Q - 1, ctx.Q - 2}
        idxs |= {k * 256 + d for k in range(1, ctx.Q // 256) for d in (-1, 0, 1)}
        for idx in sorted(idxs):
            x = ctx.from_index(idx)
            assert x == ctx._kernel.pack([idx >> i & 1 for i in range(m)]), idx
            assert ctx.to_index(x) == idx

    @pytest.mark.parametrize("table_cap", [1, 1 << 20])
    def test_methods_return_field_elements(self, table_cap):
        ctx = make_field(3, 4, table_cap=table_cap)
        x, y = ctx.from_index(37), ctx.from_index(11)
        out = [
            ctx.add(x, y), ctx.sub(x, y), ctx.neg(x),
            ctx.mul(x, y), ctx.mul(x, ctx.zero),
            ctx.pow(x, 5), ctx.pow(x, -3), ctx.pow(ctx.zero, 0), ctx.pow(ctx.zero, 2),
            ctx.inv(x),
            ctx.trace_rel(x, 1), ctx.trace_rel(x, 2), ctx.trace_rel(x, 4),
            ctx.trace_rel(ctx.zero, 1),
            ctx.from_index(0), ctx.from_index(80), next(ctx.elements()),
            *ctx.subfield_elements(2),
            ctx.zero, ctx.one, ctx.generator,
        ]
        assert [type(v) for v in out] == [FieldElement] * len(out)


# make_field(q, m) at the default seed: (modulus, generator), lowest degree
# first.  Every discrete log, and so every charsum output, depends on both.
PINNED_FIELDS = {
    (2, 13): ((1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1),
              (0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0)),
    (3, 7): ((2, 2, 2, 2, 2, 1, 1, 1), (1, 1, 2, 2, 2, 2, 0)),
    (2, 10): ((1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1),
              (1, 1, 1, 0, 0, 1, 1, 0, 1, 0)),
    (2, 22): ((1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1),
              (1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1)),
    (2, 23): ((1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1),
              (1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0)),
    (3, 13): ((1, 2, 1, 0, 0, 2, 2, 2, 2, 2, 2, 1, 1, 1),
              (2, 1, 2, 1, 2, 1, 0, 2, 0, 2, 0, 0, 2)),
    (5, 9): ((4, 2, 0, 3, 2, 1, 3, 1, 1, 1), (3, 0, 4, 0, 0, 2, 4, 0, 2)),
    (7, 8): ((1, 1, 4, 0, 5, 4, 5, 3, 1), (3, 2, 1, 6, 1, 4, 4, 1)),
}


@pytest.mark.parametrize("q,m", sorted(PINNED_FIELDS))
def test_modulus_and_generator_pinned(q, m):
    ctx = make_field(q, m)
    assert (ctx.modulus, _coeffs(ctx, ctx.generator)) == PINNED_FIELDS[(q, m)]


def test_factor_cache_lines_pinned(tmp_path):
    # the cache holds 3^7 - 1 alone; an n=2 line would mean that the prime
    # field make_field(3, 1), built for the modulus search, got the
    # caller's cache
    path = tmp_path / "cache.txt"
    make_field(3, 7, cache=FactorCache(path))
    assert path.read_text().splitlines() == [
        "n=2186 factors=2^1,1093^1 cofactor=1 status=C",
    ]


_X = sympy.Symbol("x")


def _sympy_poly(coeffs, q):
    return sympy.Poly(list(reversed(coeffs)), _X, modulus=q)


def _sympy_mulmod(ctx, x, y):
    """x*y reduced mod the field's modulus, computed by sympy."""
    q = ctx.q
    rem = (_sympy_poly(_coeffs(ctx, x), q) * _sympy_poly(_coeffs(ctx, y), q)).rem(
        _sympy_poly(ctx.modulus, q))
    out = [int(c) % q for c in reversed(rem.all_coeffs())]
    return tuple(out + [0] * (ctx.m - len(out)))


class TestProductOracle:
    """Untabled products and the Rabin test against sympy."""

    # m = 1 has the modulus x; (65537, 2) packs into 67-bit slots
    @pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3, 5, 7)
                                     for m in (1, 2, 3, 7, 13, 22, 23)]
                             + [(257, 3), (65537, 2)])
    def test_products_match_sympy(self, q, m):
        ctx = make_field(q, m, table_cap=1)
        rng = random.Random(100 * q + m)
        top = ctx.from_index(ctx.Q - 1)       # the largest value in every slot
        rand = [ctx.from_index(rng.randrange(ctx.Q)) for _ in range(40)]
        pairs = [(top, top)] + [(top, x) for x in rand[:4]] + list(zip(rand[::2], rand[1::2]))
        for x, y in pairs:
            assert _coeffs(ctx, ctx.mul(x, y)) == _sympy_mulmod(ctx, x, y)

    @pytest.mark.parametrize("q,m", [(2, 22), (3, 13)])
    def test_inverse_of_random_units(self, q, m):
        ctx = make_field(q, m, table_cap=1)
        rng = random.Random(m)
        f = list(reversed(ctx.modulus))
        for _ in range(200):
            x = ctx.from_index(rng.randrange(1, ctx.Q))
            assert ctx.mul(x, ctx.inv(x)) == ctx.one
        # the inverse itself, as x^(Q-2) by sympy, on a few of them
        for _ in range(5):
            x = ctx.from_index(rng.randrange(1, ctx.Q))
            ref = gf_pow_mod(list(reversed(_coeffs(ctx, x))), ctx.Q - 2, f, q, sympy.ZZ)
            assert _coeffs(ctx, ctx.inv(x)) == tuple(reversed([0] * (m - len(ref)) + ref))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_rabin_matches_sympy(self, q):
        base = make_field(q, 1)
        rng = random.Random(q)
        seen = set()
        for deg in range(1, 13):
            for _ in range(25):
                f = [rng.randrange(q) for _ in range(deg)] + [1]
                expected = _sympy_poly(f, q).is_irreducible
                assert is_irreducible(base, Poly(tuple(map(FieldElement, f)))) == expected, f
                seen.add(expected)
        assert seen == {True, False}

    # GF(2^7), GF(3^5), a Rabin kernel on a reducible sextic over GF(5),
    # GF(2^22), and a Rabin kernel on (x^3 + x + 1)^2 (x^2 + x + 1)(x + 1)
    # over GF(2)
    @pytest.mark.parametrize("q,f", [
        (2, make_field(2, 7).modulus),
        (3, make_field(3, 5).modulus),
        (5, (1, 0, 3, 0, 0, 2, 1)),
        (2, make_field(2, 22).modulus),
        (2, (1, 0, 1, 1, 0, 1, 1, 0, 0, 1)),
    ])
    def test_powmod_matches_sympy(self, q, f):
        kernel = _Kernel(f, q)
        m = len(f) - 1
        top = q ** m
        rng = random.Random(q)
        bases = [(0, 1), (q - 1,) * m] + [
            tuple(rng.randrange(q) for _ in range(m)) for _ in range(3)]
        for base in bases:
            for e in [*range(71), top - 2]:
                ref = gf_pow_mod(list(reversed(base)), e, list(reversed(f)), q, sympy.ZZ)
                ref = tuple(reversed(ref)) + (0,) * (m - len(ref))
                assert kernel.unpack(kernel.powmod(kernel.pack(base), e)) == ref, (base, e)

    def test_binary_slots_are_narrow(self):
        # over GF(2) a slot holds at most max(m, 2), so w is its bit length
        for m in range(1, 24):
            f = (1,) + (0,) * (m - 1) + (1,)
            assert _Kernel(f, 2).w == max(m, 2).bit_length(), m

    @pytest.mark.parametrize("q", [2, 3, 257])
    def test_barrett_constant_matches_sympy(self, q):
        # mu = x^(2m) div f, the quotient a polynomial division would give
        rng = random.Random(q)
        for m in range(1, 24):
            for _ in range(3):
                f = [rng.randrange(q) for _ in range(m)] + [1]
                quot = _sympy_poly([0] * (2 * m) + [1], q).quo(_sympy_poly(f, q))
                kernel = _Kernel(f, q)
                assert kernel.mu == kernel.pack([int(c) % q for c in reversed(quot.all_coeffs())]), f


class TestMultiplicativeStructure:
    def test_generator_order(self, gf128):
        assert gf128.element_order(gf128.generator) == 127

    def test_primitive_count(self, gf128):
        # phi(127) = 126 primitive elements
        count = sum(1 for x in gf128.units() if gf128.is_primitive(x))
        assert count == euler_phi(factorize(127)) == 126

    def test_primitive_count_gf81(self, gf81):
        count = sum(1 for x in gf81.units() if gf81.is_primitive(x))
        assert count == euler_phi(factorize(80))

    def test_order_divides_group_order(self, gf125):
        for x in gf125.units():
            order = gf125.element_order(x)
            assert (gf125.Q - 1) % order == 0
            assert gf125.pow(x, order) == gf125.one
            # minimality over prime quotients
            for ell in factorize(order).primes():
                assert gf125.pow(x, order // ell) != gf125.one

    def test_ufree_equivalences(self, gf81):
        # (Q-1)-free iff primitive; 1-free is every unit
        for x in gf81.units():
            assert gf81.is_ufree(x, gf81.Q - 1) == gf81.is_primitive(x)
            assert gf81.is_ufree(x, 1)

    def test_ufree_requires_divisor(self, gf81):
        with pytest.raises(NotADivisor):
            gf81.is_ufree(gf81.one, 3)      # 3 does not divide 80

    def test_order_without_tables(self):
        # same field with tables disabled must agree with tabled version
        tabled = make_field(3, 4)
        raw = make_field(3, 4, table_cap=1)
        for i in range(1, 81):
            x = tabled.from_index(i)
            assert tabled.element_order(x) == raw.element_order(x)

    def test_discrete_log_roundtrip(self, gf128):
        for j in range(127):
            x = gf128.pow(gf128.generator, j)
            assert gf128.discrete_log(x) == j

    def test_discrete_log_needs_table(self):
        ctx = make_field(2, 13, table_cap=1)
        with pytest.raises(BudgetExceeded):
            ctx.discrete_log(ctx.generator)


class TestZech:
    @pytest.mark.parametrize("q,m", [(2, 4), (2, 7), (3, 4), (3, 5), (5, 3)])
    def test_table_is_log_of_one_plus(self, q, m):
        # Z[k] = log(1 + g^k); 1 + g^k = 0 only at g^k = -1
        ctx = make_field(q, m)
        n = ctx.Q - 1
        zech = ctx.zech()
        assert len(zech) == n
        for k, z in enumerate(zech):
            s = ctx.add(ctx.pow(ctx.generator, k), ctx.one)
            assert z == (None if s.is_zero() else ctx.discrete_log(s))
        assert [k for k, z in enumerate(zech) if z is None] == [0 if q == 2 else n // 2]

    def test_built_once_on_first_use(self):
        ctx = make_field(3, 4)
        assert ctx._zech is None
        assert ctx.zech() is ctx.zech()

    def test_needs_table(self):
        ctx = make_field(2, 13, table_cap=1)
        with pytest.raises(BudgetExceeded):
            ctx.zech()
        with pytest.raises(BudgetExceeded):
            ctx.poly_logs(Poly((ctx.one,)))

    @pytest.mark.parametrize("q,m", [(2, 4), (3, 4), (5, 3)])
    def test_poly_logs_match_horner(self, q, m):
        # sparse, constant and zero polynomials, and a dense random one
        ctx = make_field(q, m)
        rng = random.Random(q * m)
        zero, one, x = ctx.zero, ctx.one, ctx.from_index(q)
        c = ctx.from_index(rng.randrange(1, ctx.Q))
        polys = [(), (one,), (c,), (zero, one), (c, zero, one), (zero, zero, one),
                 (zero, one, zero, one), (x, zero, zero, c),
                 tuple(ctx.from_index(rng.randrange(ctx.Q)) for _ in range(4)) + (c,)]
        for coeffs in polys:
            poly = Poly(coeffs)
            got = ctx.poly_logs(poly)
            assert len(got) == ctx.Q - 1
            for l, v in enumerate(got):
                y = poly_eval(ctx, poly, ctx.pow(ctx.generator, l))
                assert v == (None if y.is_zero() else ctx.discrete_log(y))


def _frobenius_reference(ctx, eps, r):
    """Tr(eps) onto GF(q^r) as the sum of eps^(q^(r j)), by ctx.pow."""
    acc = cur = eps
    for _ in range(ctx.m // r - 1):
        cur = ctx.pow(cur, ctx.q ** r)
        acc = ctx.add(acc, cur)
    return acc


class TestTrace:
    @pytest.mark.parametrize("q,m", [(2, 6), (3, 4), (3, 6), (5, 4)])
    @pytest.mark.parametrize("table_cap", [1, 1 << 20])
    def test_matches_frobenius_sum_everywhere(self, q, m, table_cap):
        ctx = make_field(q, m, table_cap=table_cap)
        for r in (d for d in range(1, m + 1) if m % d == 0):
            for x in ctx.elements():
                ref = _frobenius_reference(ctx, x, r)
                assert ctx.trace_rel(x, r) == ref
                if r == 1:
                    assert ctx.trace_rel(x, 1) == _coeffs(ctx, ref)[0]

    @pytest.mark.parametrize("q,m,degrees", [(2, 22, (1, 2, 11)), (2, 23, (1,)),
                                             (3, 13, (1,)), (65537, 2, (1,))])
    def test_matches_frobenius_sum_untabled(self, q, m, degrees):
        ctx = make_field(q, m)
        rng = random.Random(m)
        for r in degrees:
            for _ in range(200):
                x = ctx.from_index(rng.randrange(ctx.Q))
                assert ctx.trace_rel(x, r) == _frobenius_reference(ctx, x, r)

    def test_basis_traces_die_with_field(self):
        ctx = make_field(2, 6)
        ctx.trace_rel(ctx.one, 2)
        ctx.trace_rel(ctx.one, 1)
        assert sorted(ctx.basis_traces) == [1, 2]
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None

    def test_absolute_trace_is_scalar_and_additive(self, gf128):
        for i in range(0, 128, 5):
            for j in range(0, 128, 9):
                x, y = gf128.from_index(i), gf128.from_index(j)
                s = (gf128.trace_rel(x, 1) + gf128.trace_rel(y, 1)) % 2
                assert gf128.trace_rel(gf128.add(x, y), 1) == s

    def test_trace_balanced(self, gf128):
        # each value of the absolute trace is hit Q/q times
        from collections import Counter
        c = Counter(gf128.trace_rel(x, 1) for x in gf128.elements())
        assert c == {0: 64, 1: 64}

    def test_trace_frobenius_invariant(self, gf81):
        for i in range(81):
            x = gf81.from_index(i)
            assert gf81.trace_rel(x, 1) == gf81.trace_rel(gf81.pow(x, 3), 1)

    def test_relative_trace_lands_in_subfield(self):
        ctx = make_field(2, 6)
        for i in range(64):
            tr = ctx.trace_rel(ctx.from_index(i), 2)
            assert ctx.in_subfield(tr, 2)

    def test_relative_trace_transitivity(self):
        # Tr_{F64/F2} = Tr_{F4/F2} o Tr_{F64/F4}
        ctx = make_field(2, 6)
        for i in range(64):
            x = ctx.from_index(i)
            inner = ctx.trace_rel(x, 2)
            # absolute trace of the intermediate result
            outer = ctx.add(inner, ctx.pow(inner, 2))
            total = ctx.trace_rel(x, 1)
            assert outer == total

    def test_bad_subfield_degree(self, gf128):
        with pytest.raises(BadSubfieldDegree):
            gf128.trace_rel(gf128.one, 2)   # 2 does not divide 7


class TestSubfield:
    def test_subfield_size_and_closure(self):
        ctx = make_field(2, 6)
        sub = ctx.subfield_elements(2)
        assert len(sub) == 4
        assert len({_coeffs(ctx, x) for x in sub}) == 4
        subset = {_coeffs(ctx, x) for x in sub}
        for x in sub:
            for y in sub:
                assert _coeffs(ctx, ctx.add(x, y)) in subset
                assert _coeffs(ctx, ctx.mul(x, y)) in subset

    def test_subfield_matches_fixed_points(self):
        ctx = make_field(3, 4)
        sub = {_coeffs(ctx, x) for x in ctx.subfield_elements(2)}
        fixed = {_coeffs(ctx, x) for x in ctx.elements() if ctx.in_subfield(x, 2)}
        assert sub == fixed

    def test_order_deterministic(self):
        a = make_field(2, 8).subfield_elements(4)
        b = make_field(2, 8).subfield_elements(4)
        assert a == b

    @pytest.mark.parametrize("r", [0, -1, 2])
    @pytest.mark.parametrize("method", ["trace_rel", "in_subfield", "subfield_elements"])
    def test_degree_not_a_positive_divisor(self, method, r):
        # 5 % -1 == 0, and the trace for r = -1 was the identity
        ctx = make_field(2, 5)
        args = (r,) if method == "subfield_elements" else (ctx.from_index(3), r)
        with pytest.raises(BadSubfieldDegree, match=f"{r} is not a positive divisor of 5"):
            getattr(ctx, method)(*args)

    def test_trivial_subfield(self, gf128):
        sub = gf128.subfield_elements(7)
        assert len(sub) == 128
