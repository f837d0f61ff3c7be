"""Rational-function layer: canonical form, evaluation, sampling."""

import gc
import random
import weakref
from collections import Counter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import primpair
from primpair import ratfunc
from primpair.ffield import make_field, poly_gcd
from primpair.ratfunc import (
    POLE,
    Poly,
    RationalFunction,
    check_rational,
    eval_rational,
    is_irreducible,
    num_monic_irreducible,
    poly_eval,
    sample_rational,
    zero_pole_set,
)


@pytest.fixture(scope="module")
def gf7():
    return make_field(7, 1)


@pytest.fixture(scope="module")
def gf4():
    return make_field(2, 2)


def _poly(ctx, *int_coeffs):
    return Poly(tuple(ctx.from_index(c) for c in int_coeffs))


def _monic_irreducibles(ctx, max_degree):
    """The constant 1 and every monic irreducible of degree <= max_degree."""
    out = [Poly((ctx.one,))]
    for n in range(1, max_degree + 1):
        for idx in range(ctx.Q ** n):
            coeffs = tuple(ctx.from_index(idx // ctx.Q ** i % ctx.Q) for i in range(n))
            cand = Poly(coeffs + (ctx.one,))
            if is_irreducible(ctx, cand):
                out.append(cand)
    return out


class TestPoly:
    def test_rejects_trailing_zero(self, gf7):
        with pytest.raises(ValueError):
            Poly((gf7.one, gf7.zero))

    def test_degree(self, gf7):
        assert _poly(gf7, 3, 0, 1).degree == 2
        assert Poly(()).degree == -1

    def test_eval_horner_vs_direct(self, gf7):
        # f(x) = 2 + 3x + x^2 over F7: f(3) = 2 + 9 + 9 = 20 = 6
        f = _poly(gf7, 2, 3, 1)
        assert poly_eval(gf7, f, gf7.from_index(3)) == gf7.from_index(6)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_eval_vs_sympy(self, coeffs, x0):
        ctx = make_field(7, 1)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            return
        f = _poly(ctx, *coeffs)
        got = ctx.to_index(poly_eval(ctx, f, ctx.from_index(x0)))
        want = sum(c * x0 ** i for i, c in enumerate(coeffs)) % 7
        assert got == want


class TestIrreducibility:
    def test_constants_raise(self, gf7):
        with pytest.raises(ValueError, match="^irreducibility undefined for constants$"):
            is_irreducible(gf7, _poly(gf7, 1))

    def test_linear_always(self, gf7):
        assert is_irreducible(gf7, _poly(gf7, 3, 1))

    def test_vs_sympy_over_prime_field(self, gf7):
        x = sympy.symbols("x")
        rng = random.Random(1)
        for _ in range(60):
            deg = rng.randrange(2, 5)
            coeffs = [rng.randrange(7) for _ in range(deg)] + [1]
            ours = is_irreducible(gf7, _poly(gf7, *coeffs))
            poly = sympy.Poly(list(reversed(coeffs)), x, modulus=7)
            theirs = poly.is_irreducible
            assert ours == theirs, coeffs
            # a nonzero multiple has the same factors
            scaled = _poly(gf7, *(3 * c % 7 for c in coeffs))
            assert is_irreducible(gf7, scaled) == theirs, coeffs

    def test_counts_match_necklace_formula(self, gf4):
        # GF(4), GF(8) and GF(9) are not prime fields: the schoolbook branch
        for ctx in (gf4, make_field(2, 3), make_field(3, 2)):
            degrees = Counter(side.degree for side in _monic_irreducibles(ctx, 3))
            assert degrees == {0: 1, **{n: num_monic_irreducible(ctx.Q, n)
                                        for n in (1, 2, 3)}}, ctx.Q

    @pytest.mark.parametrize("q,m,n,count", [
        (2, 2, 2, 6), (2, 2, 3, 20), (2, 2, 4, 60), (2, 2, 6, 670),
        (2, 3, 2, 28), (2, 3, 3, 168), (3, 2, 2, 36), (3, 2, 3, 240)])
    def test_composition_chain_counts(self, q, m, n, count):
        # every monic polynomial of degree n over GF(q^m), m > 1: the chain
        # x^(Q^(k+1)) = h(x^Q) reaches the Rabin gcds at k = 2 for n = 4
        # and at k = 2, 3 for n = 6
        ctx = make_field(q, m)
        accepted = sum(is_irreducible(ctx, Poly(tuple(
            ctx.from_index(idx // ctx.Q ** i % ctx.Q) for i in range(n)) + (ctx.one,)))
            for idx in range(ctx.Q ** n))
        assert accepted == num_monic_irreducible(ctx.Q, n) == count

    def test_necklace_values(self):
        # classic values over GF(2): 2, 1, 2, 3, 6, 9 for degrees 1..6
        assert [num_monic_irreducible(2, n) for n in range(1, 7)] == \
            [2, 1, 2, 3, 6, 9]


class TestRationalFunction:
    def test_eval_and_pole(self, gf7):
        # f = x / (x + 6) has a pole at x = 1
        f = RationalFunction(gf7.one, _poly(gf7, 0, 1), _poly(gf7, 6, 1))
        assert eval_rational(gf7, f, gf7.from_index(1)) is POLE
        assert POLE is None and primpair.POLE is None
        # f(3) = 3 / 2 = 3 * 4 = 12 = 5 mod 7
        assert eval_rational(gf7, f, gf7.from_index(3)) == gf7.from_index(5)

    def test_zero_pole_set(self, gf7):
        f = RationalFunction(gf7.one, _poly(gf7, 0, 1), _poly(gf7, 6, 1))
        P, Pp = zero_pole_set(gf7, f)
        assert {gf7.to_index(x) for x in P} == {0, 1}
        assert Pp == P | {gf7.zero}

    def test_pole_cache_entry_dies_with_field(self):
        # zero_pole_set keeps nothing that outlives the field
        ctx = make_field(2, 3)
        f = RationalFunction(ctx.one, _poly(ctx, 5, 1), _poly(ctx, 1))
        zero_pole_set(ctx, f)
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None

    def test_degsum(self, gf7):
        f = RationalFunction(gf7.one, _poly(gf7, 3, 1), _poly(gf7, 6, 1))
        assert (f.n1, f.n2, f.degsum) == (1, 1, 2)


class TestCheckRational:
    @pytest.mark.parametrize("spec,message", [
        ((0, (0, 1), (1,)), "scale must be nonzero"),
        ((0, (0, 2), (1,)), "scale must be nonzero"),         # checked first
        ((1, (0, 2), (1,)), "num and den must be monic"),
        ((1, (1,), (2,)), "num and den must be monic"),       # constant side 2
        ((1, (1,), (1,)), "degsum must be >= 1"),
        ((1, (0, 0, 1), (1,)), "num and den must be irreducible"),
        ((1, (0, 0, 1), (0, 1)), "num and den must be irreducible"),
        ((1, (0, 1), (0, 1)), "num and den must be coprime"),
        ((1, (1, 0, 1), (1, 0, 1)), "num and den must be coprime"),
    ])
    def test_rejections(self, gf7, spec, message):
        s, num, den = spec
        f = RationalFunction(gf7.from_index(s), _poly(gf7, *num), _poly(gf7, *den))
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_rational(gf7, f)

    @pytest.mark.parametrize("spec", [
        (1, (0, 1), (6, 1)), (3, (1, 0, 1), (1,)), (6, (1,), (0, 1)),
    ])
    def test_accepts_canonical(self, gf7, spec):
        s, num, den = spec
        check_rational(gf7, RationalFunction(gf7.from_index(s), _poly(gf7, *num),
                                             _poly(gf7, *den)))

    @pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)])
    def test_differ_exactly_when_coprime(self, q, m):
        # the gate's num != den stands for gcd(num, den) = 1; 1/1, equal
        # and coprime, is rejected first for its degree sum
        ctx = make_field(q, m)
        sides = _monic_irreducibles(ctx, 2)
        for num in sides:
            for den in sides:
                if num.degree + den.degree:
                    assert (num != den) == (poly_gcd(ctx, num, den).degree == 0)

    @pytest.mark.parametrize("q,m", [(2, 7), (3, 4), (3, 5), (5, 3), (7, 1)])
    def test_every_draw_passes(self, q, m):
        ctx = make_field(q, m)
        rng = random.Random(q * m)
        for n1, n2 in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 0), (0, 1), (2, 0), (0, 2)]:
            for _ in range(2):
                check_rational(ctx, sample_rational(ctx, n1, n2, rng))


class TestSampling:
    def test_draw_is_not_rechecked(self, gf7, monkeypatch):
        # a draw is canonical by construction: no gcd and no gate
        def fail(*args):
            raise AssertionError("sample_rational rechecked its draw")

        monkeypatch.setattr(ratfunc, "poly_gcd", fail, raising=False)
        monkeypatch.setattr(ratfunc, "check_rational", fail)
        rng = random.Random(0)
        for n1, n2 in [(1, 1), (2, 1), (2, 2), (1, 0), (0, 2)]:
            assert sample_rational(gf7, n1, n2, rng).degsum == n1 + n2

    def test_class_membership(self, gf7):
        rng = random.Random(7)
        for _ in range(20):
            f = sample_rational(gf7, 1, 1, rng)
            assert (f.n1, f.n2) == (1, 1)
            assert f.num != f.den
            assert is_irreducible(gf7, f.num)
            assert is_irreducible(gf7, f.den)
            assert not f.scale.is_zero()

    def test_coprimality_rechecked(self, gf7):
        rng = random.Random(11)
        for _ in range(20):
            f = sample_rational(gf7, 2, 2, rng)
            assert poly_gcd(gf7, f.num, f.den).degree == 0

    def test_polynomial_mode_gate(self, gf7):
        f = sample_rational(gf7, 2, 0, random.Random(3))
        assert f.n2 == 0 and f.den.coeffs == (gf7.one,)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (-1, 2), (2, -1)])
    def test_degree_pair_rejected(self, gf7, n1, n2):
        # a negative degree raised the irreducibility test's error for constants
        with pytest.raises(ValueError, match="degrees must be >= 0"):
            sample_rational(gf7, n1, n2, random.Random(0))

    def test_deterministic_under_seed(self, gf7):
        a = sample_rational(gf7, 1, 1, random.Random(5))
        b = sample_rational(gf7, 1, 1, random.Random(5))
        assert a == b


class _BoundedRandom(random.Random):
    """A seeded rng that fails the test instead of drawing forever."""

    def __init__(self, seed, draws):
        super().__init__(seed)
        self.draws = draws

    def randrange(self, *args):
        self.draws -= 1
        if self.draws < 0:
            pytest.fail("kept drawing from an empty class")
        return super().randrange(*args)


class TestEmptyClass:
    """GF(2) has one monic irreducible quadratic, x^2 + x + 1, and num != den
    leaves its (2, 2) class empty."""

    def test_sample_raises(self):
        ctx = make_field(2, 1)
        with pytest.raises(ValueError, match=r"class \(2, 2\) is empty over GF\(2\)"):
            sample_rational(ctx, 2, 2, _BoundedRandom(0, draws=10_000))

    def test_sample_nonempty_square_class(self):
        # GF(2) has two monic irreducible cubics, so (3, 3) samples
        f = sample_rational(make_field(2, 1), 3, 3, _BoundedRandom(0, draws=10_000))
        assert (f.n1, f.n2) == (3, 3) and f.num != f.den
