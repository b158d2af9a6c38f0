import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from oihilbert import polyarith
from oihilbert.automata import _pack, _unpack
from oihilbert.errors import NonDivisible, OihError, SingularAtOrigin
from oihilbert.polyarith import (
    ONE_MINUS_T,
    BiPoly,
    FactoredRational,
    UniPoly,
    common_denominator,
    expand_series,
    one_minus_t_order,
    render_poly,
    render_rational,
    split_content,
)

from oracles import (
    equals_cross_mul,
    expand_cellwise,
    geometric,
    schoolbook,
    trial_reduce,
    unpack_digits,
)

S, T = sympy.symbols("s t")


def to_sympy(p):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in p.terms.items()))


small_unis = st.lists(st.integers(-6, 6), min_size=0, max_size=5).map(UniPoly)

small_bis = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=6,
).map(BiPoly)


class TestUniPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert UniPoly([0, 0]).is_zero()

    def test_arith(self):
        f = UniPoly([1, -1])  # 1 - t
        assert (f * f).coeffs == (1, -2, 1)
        assert (f + UniPoly([0, 1])).coeffs == (1,)
        assert (f - f).is_zero()
        assert (f ** 3)(1) == 0
        assert geometric(2).coeffs == (1, 1, 1)

    def test_exact_div(self):
        f = UniPoly([1, -1]) * UniPoly([2, 0, 3])
        assert f.exact_div(UniPoly([1, -1])).coeffs == (2, 0, 3)
        with pytest.raises(NonDivisible):
            UniPoly([1, 1]).exact_div(UniPoly([1, -1]))

    def test_one_minus_t_order_against_repeated_division(self):
        # leading zeros, negative coefficients, and powers of 1 - t up to
        # the whole polynomial
        def divide(u):
            k = 0
            while u and u(1) == 0:
                u = u.exact_div(UniPoly((1, -1)))
                k += 1
            return u, k

        rng = random.Random(1801)
        zero = UniPoly()
        assert one_minus_t_order(zero) == (zero, 0)
        for _ in range(300):
            low = [0] * rng.choice((0, 0, 1, 3))
            u = UniPoly(low + [rng.randint(-6, 6)
                               for _ in range(rng.randint(1, 6))])
            u = u * UniPoly((1, -1)) ** rng.randint(0, 5)
            assert one_minus_t_order(u) == divide(u), u

    @given(small_unis, small_unis)
    @settings(max_examples=80, deadline=None)
    def test_product_divisible_by_factor(self, f, g):
        if f.is_zero():
            return
        assert (f * g).exact_div(f) == g


class TestBiPoly:
    def test_constructor_merges_and_drops_zeros(self):
        p = BiPoly([((0, 0), 1), ((0, 0), -1), ((1, 2), 3)])
        assert p.terms == {(1, 2): 3}

    def test_arith_round_trip(self):
        one_minus_t = BiPoly({(0, 0): 1, (0, 1): -1})
        f = one_minus_t ** 2 - BiPoly.s() * BiPoly({(0, 0): 1, (0, 1): 1})
        assert f.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): -1, (1, 1): -1}
        assert f.deg_s() == 1 and f.deg_t() == 2

    def test_exact_div(self):
        a = BiPoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})  # 1 - t - s
        b = BiPoly({(0, 0): 1, (1, 0): 1})  # 1 + s
        with pytest.raises(NonDivisible):
            a.exact_div(b)
        assert (a * b).exact_div(b) == a
        assert (a * b).try_div(a) == b
        assert a.try_div(b) is None
        # long division in s over Z[t]: the s-row -1 of t - s is no
        # multiple of 1 - t
        with pytest.raises(NonDivisible):
            (BiPoly.t() - BiPoly.s()).exact_div(BiPoly.one() - BiPoly.t())

    def test_exact_div_sparse_high_degree(self):
        # long division in s over Z[t] at s-degree 400: every s-row but
        # the top one is zero, and that one has t-degree 401
        one_minus_t = BiPoly.one() - BiPoly.t()
        big = BiPoly.term(400, 400) * one_minus_t
        assert big.exact_div(one_minus_t) == BiPoly.term(400, 400)
        with pytest.raises(NonDivisible):
            big.exact_div(BiPoly.one() - BiPoly.s())

    def test_powers_against_repeated_products(self):
        # two-term bases are written from a binomial row, with
        # coefficients past 2^62 from n = 66 on; the others square
        s, t = BiPoly.s(), BiPoly.t()
        bases = [(ONE_MINUS_T, 80), (BiPoly.one() + t, 80),
                 (s - BiPoly.term(0, 3, 2), 80),
                 (BiPoly.term(2, 1, -3) + BiPoly.term(1, 4, 5), 30),
                 (ONE_MINUS_T - s, 12), (BiPoly.term(1, 1, 7), 12)]
        for base, top in bases:
            acc = BiPoly.one()
            for n in range(top + 1):
                assert base ** n == acc, (base, n)
                acc = acc * base

    def test_s_coeff_views(self):
        p = BiPoly({(0, 0): 1, (0, 2): 5, (2, 1): -3})
        cs = p.as_s_coeffs()
        assert cs[0].coeffs == (1, 0, 5)
        assert cs[1].is_zero()
        assert cs[2].coeffs == (0, -3)
        assert BiPoly.from_s_coeffs(cs) == p

    @given(small_bis, small_bis)
    @settings(max_examples=80, deadline=None)
    def test_product_divisible_by_factor(self, a, b):
        if a.is_zero():
            return
        assert (a * b).exact_div(a) == b

    def test_product_against_schoolbook(self):
        # one-term operands on either side, with coefficients 1, -1 and
        # past 2^62
        rng = random.Random(1202)
        big = (1 << 62) + 5
        monomials = [BiPoly.term(i, j, c)
                     for c in (1, -1, 3, big, -big)
                     for i, j in ((0, 0), (2, 5), (7, 0))]
        for _ in range(300):
            deg = rng.choice((2, 6, 40))
            mag = rng.choice((3, 1 << 40, 1 << 70))
            a = BiPoly({(rng.randint(0, deg), rng.randint(0, deg)):
                        rng.randint(-mag, mag)
                        for _ in range(rng.randint(0, 8))})
            m = rng.choice(monomials)
            zero = BiPoly.zero()
            for x, y in ((a, m), (m, a), (a, a), (m, m), (a, zero), (zero, m)):
                assert (x * y).terms == schoolbook(x, y), (x, y)

    def test_product_routes_against_schoolbook(self):
        # term-pair counts from 1 to 1,225: dense operands with small
        # coefficients, sparse high-degree operands (more cells in the
        # degree box than term pairs) and coefficients past 2^62, in both
        # orders; every product goes term by term, and BiPoly has no
        # packed format: only the transfer-matrix solve packs
        assert not hasattr(BiPoly, "_pack")
        assert not hasattr(BiPoly, "_unpack")
        rng = random.Random(1802)

        def draw(n, ds, dt, mag):
            cells = rng.sample([(i, j) for i in range(ds + 1)
                                for j in range(dt + 1)], n)
            return BiPoly({c: rng.choice((-1, 1)) * rng.randint(1, mag)
                           for c in cells})

        sizes = [(1, 1), (2, 3), (8, 6), (16, 24), (24, 17), (33, 35),
                 (35, 35)]
        sizes += [(rng.randint(1, 35), rng.randint(1, 35)) for _ in range(40)]
        mono, zero = BiPoly.term(3, 1, -7), BiPoly.zero()
        for na, nb in sizes:
            pairs = na * nb
            for kind in ("dense", "sparse", "big"):
                if kind == "sparse":
                    a = draw(na, 60, 60, 9)
                    b = draw(nb, 60, 60, 9)
                else:
                    mag = (1 << 62) + 9 if kind == "big" else 1 << 28
                    a, b = draw(na, 4, 6, mag), draw(nb, 4, 6, mag)
                if kind == "sparse" and min(na, nb) > 1:
                    assert ((a.deg_s() + b.deg_s() + 1)
                            * (a.deg_t() + b.deg_t() + 1) > pairs)
                for x, y in ((a, b), (b, a), (a, mono), (mono, a),
                             (a, zero), (zero, b)):
                    assert (x * y).terms == schoolbook(x, y), (x, y)

    @pytest.mark.parametrize("nbytes", [1, 2, 3, 8, 9, 16])
    def test_pack_unpack_round_trip(self, nbytes):
        # automata's packed format, at digit sizes from one byte up:
        # negative coefficients, runs of zero digits between terms and
        # coefficients one short of the digit bound on either side
        rng = random.Random(1700 + nbytes)
        safe = 1 << (8 * nbytes - 2)
        pool = (1, -1, 7, -7, safe - 1, 1 - safe)
        for width in range(1, 6):
            assert _pack(BiPoly.zero(), width, nbytes) == 0
            assert _unpack(0, width, nbytes) == BiPoly.zero()
            for _ in range(60):
                p = BiPoly({(rng.randint(0, 6), rng.randrange(width)):
                            rng.choice(pool) if rng.random() < 0.6
                            else rng.randint(1 - safe, safe - 1)
                            for _ in range(rng.randint(1, 8))})
                assert _unpack(_pack(p, width, nbytes), width,
                               nbytes) == p, p

    @pytest.mark.parametrize("nbytes", [1, 2, 3, 8, 9, 16])
    def test_unpack_against_per_digit_decoder(self, nbytes):
        rng = random.Random(nbytes)
        safe = 1 << (8 * nbytes - 2)
        pool = (0, 0, 0, 1, -1, 2, -2, safe - 1, 1 - safe)
        for case in range(300):
            count = rng.randint(1, 12)
            digits = [rng.choice(pool) if rng.random() < 0.7
                      else rng.randint(1 - safe, safe - 1)
                      for _ in range(count)]
            if case % 3 == 0:
                # a negative digit, then a 1: its raw digit is zero and
                # the carry from below makes it 1
                k = rng.randrange(count)
                digits[k:k + 2] = [-rng.randint(1, 5), 1]
            if case % 4 == 1:
                digits[rng.randrange(count)] = rng.choice((safe, -safe))
            val = sum(d << (8 * nbytes * i) for i, d in enumerate(digits))
            width = rng.randint(1, 4)
            want = unpack_digits(val, width, nbytes)
            if case % 4 == 1:
                assert want is None
                with pytest.raises(OihError):
                    _unpack(val, width, nbytes)
                continue
            assert want == {(i // width, i % width): d
                            for i, d in enumerate(digits) if d}
            assert _unpack(val, width, nbytes).terms == want, digits


class TestFactoredRational:
    def setup_method(self):
        self.one_minus_t = BiPoly({(0, 0): 1, (0, 1): -1})
        self.one_minus_t_minus_s = BiPoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})

    def test_add_merges_factor_multisets(self):
        a = FactoredRational(BiPoly.one(), [(self.one_minus_t, 2)])
        b = FactoredRational(BiPoly.one(), [(self.one_minus_t, 1), (self.one_minus_t_minus_s, 1)])
        c = a + b
        assert dict((base.key(), e) for base, e in c.factors) == {
            self.one_minus_t.key(): 2,
            self.one_minus_t_minus_s.key(): 1,
        }
        # 1/(1-t)^2 + 1/((1-t)(1-t-s)) has numerator (1-t-s) + (1-t)
        assert c.num == self.one_minus_t_minus_s + self.one_minus_t

    @staticmethod
    def draw_summand(rng):
        """A random numerator over a factor multiset drawn from one pool,
        so two draws share some bases and not others."""
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.t()
        pool = [one - t, one + t, one - s, one - s * t - t * t,
                one - s - s * t * 2]
        num = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                      rng.randint(-4, 4) for _ in range(rng.randint(0, 3))})
        return FactoredRational(num, [
            (b, rng.randint(1, 3))
            for b in rng.sample(pool, rng.randint(0, len(pool)))])

    def test_sums_and_differences_match_cross_multiplication(self):
        # the reference keeps the product of both denominators, the sum
        # their multiset maximum
        rng = random.Random(1509)
        for _ in range(200):
            a, b = self.draw_summand(rng), self.draw_summand(rng)
            for got, sign in ((a + b, 1), (a - b, -1)):
                want = FactoredRational(
                    a.num * b.den_expanded()
                    + b.num * a.den_expanded() * sign,
                    a.factors + b.factors)
                assert equals_cross_mul(got, want), (a, b, sign)
                if got.is_zero():
                    continue
                most = {}
                for base, e in a.factors + b.factors:
                    most[base.key()] = max(e, most.get(base.key(), 0))
                assert {base.key(): e for base, e in got.factors} == most

    def test_zero_operand_sums_expand_no_denominator(self, monkeypatch):
        # a sum with a zero operand is the other operand, factors and all,
        # and builds no common denominator to multiply by the zero
        calls = []

        def counted(factor_tuples, memo=None):
            calls.append(factor_tuples)
            return common_denominator(factor_tuples, memo)

        monkeypatch.setattr(polyarith, "common_denominator", counted)
        zero = FactoredRational.zero()
        rng = random.Random(1509)
        for _ in range(200):
            r = self.draw_summand(rng)
            for got, sign in ((zero + r, 1), (r + zero, 1), (zero - r, -1)):
                want = FactoredRational(r.num * sign, r.factors)
                assert equals_cross_mul(got, want), (r, sign)
                assert got.factors == r.factors, (r, sign)
        assert calls == []

    def test_cross_mul_equality(self):
        half = FactoredRational(self.one_minus_t, [(self.one_minus_t, 2)])
        simple = FactoredRational(BiPoly.one(), [(self.one_minus_t, 1)])
        assert equals_cross_mul(half, simple)
        assert not equals_cross_mul(half, FactoredRational(BiPoly.one()))

    def test_reduce_cancels_whole_factors(self):
        r = FactoredRational(
            self.one_minus_t ** 2 * BiPoly.s(),
            [(self.one_minus_t, 1), (self.one_minus_t_minus_s, 1)],
        )
        red = r.reduce()
        assert red.num == self.one_minus_t * BiPoly.s()
        assert red.factors == ((self.one_minus_t_minus_s, 1),)
        coprime = FactoredRational(BiPoly.t() - BiPoly.s(),
                                   [(self.one_minus_t, 1)])
        red = coprime.reduce()
        assert (red.num, red.factors) == (coprime.num, coprime.factors)

    def test_reduce_cancels_split_pieces(self):
        # numerator shares only the (1-t) part of a composite determinant:
        # split, its pieces cancel one by one; whole, it cancels only whole
        composite = self.one_minus_t * self.one_minus_t_minus_s
        pieces = split_content(composite)
        assert sorted(pieces, key=lambda be: be[0].key()) == [
            (self.one_minus_t, 1), (self.one_minus_t_minus_s, 1)]
        red = FactoredRational(self.one_minus_t * BiPoly.s(), pieces).reduce()
        assert red.num == BiPoly.s()
        assert red.factors == ((self.one_minus_t_minus_s, 1),)
        whole = FactoredRational(self.one_minus_t * BiPoly.s(),
                                 [(composite, 1)])
        red = whole.reduce()
        assert (red.num, red.factors) == (whole.num, whole.factors)

    def test_reduce_zero(self):
        r = FactoredRational(BiPoly.zero(), [(self.one_minus_t, 3)])
        assert r.reduce().factors == ()

    def test_reduce_against_trial_division(self, monkeypatch):
        # numerators N * (1-t)^k for k = 0 .. e + 2 over (1-t)^e and other
        # factors; N has negative coefficients and s-rows starting above
        # t^0, and sometimes exactly one s-row whose sum is nonzero
        rng = random.Random(1803)
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.t()
        pool = [self.one_minus_t_minus_s, one - s * (one + t),
                ONE_MINUS_T ** 2 - s, one + t]
        assert ONE_MINUS_T == self.one_minus_t

        def draw_num():
            terms = {}
            for i in rng.sample(range(5), rng.randint(1, 4)):
                start = rng.choice((0, 0, 1, 4))
                for j in range(start, start + rng.randint(1, 4)):
                    terms[(i, j)] = rng.randint(-5, 5)
            num = BiPoly(terms)
            if rng.random() < 0.5:
                # every row divisible by 1 - t but one
                i, j = rng.randrange(5), rng.randrange(4)
                num = num * ONE_MINUS_T + BiPoly.term(i, j, rng.choice((1, -3)))
            if rng.random() < 0.3:
                num = num * rng.choice(pool)
            return num

        divisions = []
        real_try_div = BiPoly.try_div

        def counted(num, base):
            divisions.append((num, base))
            return real_try_div(num, base)

        monkeypatch.setattr(BiPoly, "try_div", counted)

        def ruled_out(num, base):
            # num(b0(2)/b1(2), 2) != 0 for base = b0(t) - s*b1(t), in
            # exact fractions
            if base.deg_s() != 1:
                return False
            b0 = sum(c * 2 ** j for (i, j), c in base.terms.items() if not i)
            b1 = -sum(c * 2 ** j for (i, j), c in base.terms.items() if i)
            if not b1:
                return False
            x = Fraction(b0, b1)
            return sum(c * x ** i * 2 ** j
                       for (i, j), c in num.terms.items()) != 0

        def check(r):
            divisions.clear()
            got = r.reduce()
            tried = list(divisions)
            want = trial_reduce(r)
            assert (got.num, got.factors) == (want.num, want.factors), r
            assert not [d for d in tried if ruled_out(*d)], r
            return got, tried

        for _ in range(60):
            e = rng.randint(1, 4)
            others = [(b, rng.randint(1, 2))
                      for b in rng.sample(pool, rng.randint(0, 3))]
            num = draw_num()
            for k in range(e + 3):
                check(FactoredRational(num * ONE_MINUS_T ** k,
                                       [(ONE_MINUS_T, e)] + others))
        zero = FactoredRational(BiPoly.zero(), [(ONE_MINUS_T, 2)] + others)
        assert zero.reduce().factors == trial_reduce(zero).factors == ()

        # pipeline-shaped factors (1-t)^k - s*f(t), f(0) = 1: N * b^m
        # over b^e reduces to N over b^(e-m) when b does not divide N,
        # and N * b^m plus one term keeps b^e without a division, since
        # no monomial is a multiple of b
        for _ in range(60):
            f = UniPoly([1] + [rng.randint(-3, 3)
                               for _ in range(rng.randint(0, 3))])
            b = ONE_MINUS_T ** rng.randint(0, 3) - s * BiPoly.from_uni_t(f)
            num, e = draw_num(), rng.randint(1, 3)
            m = rng.randint(0, e)
            got, _ = check(FactoredRational(num * b ** m, [(b, e)]))
            if num.try_div(b) is None:
                want = FactoredRational(num, [(b, e - m)])
                assert (got.num, got.factors) == (want.num, want.factors)
            near = num * b ** m + BiPoly.term(rng.randrange(5),
                                              rng.randrange(5),
                                              rng.choice((1, -2)))
            got, tried = check(FactoredRational(near, [(b, e)]))
            assert got.factors == ((b, e),) and tried == [], b

        # hand-built bases the screen cannot judge: b1(2) = 0, and
        # s-degree 2; each is divided, and still cancels exactly
        for b in (ONE_MINUS_T - s * (BiPoly.term(0, 0, 2) - t),
                  one - s * 2 + s * s):
            for _ in range(10):
                num, e = draw_num(), rng.randint(1, 3)
                m = rng.randint(1, e)
                got, tried = check(FactoredRational(num * b ** m, [(b, e)]))
                if num.is_zero():
                    continue
                assert tried and all(base == b for _, base in tried)
                assert got.factors == () or got.factors[0][1] <= e - m


class TestSeries:
    def test_geometric_series(self):
        one_minus_t_minus_s = BiPoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})
        one_minus_t = BiPoly({(0, 0): 1, (0, 1): -1})
        # (1-t)/(1-t-s) counts all monomials of all widths, c = 1
        r = FactoredRational(one_minus_t, [(one_minus_t_minus_s, 1)])
        w = expand_series(r, 5, 5)
        import math

        for n in range(6):
            for j in range(6):
                expect = math.comb(n + j - 1, j) if n else (1 if j == 0 else 0)
                assert w[n][j] == expect

    def test_against_fraction_brute_force(self):
        num = BiPoly({(0, 0): 2, (1, 1): -3})
        den = BiPoly({(0, 0): 1, (1, 0): -2, (0, 1): 5})
        w = expand_series(FactoredRational(num, [(den, 2)]), 4, 4)
        # brute force with sympy series
        expr = to_sympy(num) / to_sympy(den) ** 2
        ser = sympy.series(
            sympy.series(expr, S, 0, 5).removeO(), T, 0, 5
        ).removeO().expand()
        for n in range(5):
            for j in range(5):
                assert w[n][j] == ser.coeff(S, n).coeff(T, j)

    def test_factors_reaching_past_the_window(self):
        # terms of s-degree 6 and t-degree 7 lie outside a 4 x 4 window,
        # and (1 - t - s^6)^3 has many more
        num = BiPoly({(0, 0): 1, (2, 1): 5})
        f1 = BiPoly({(0, 0): 1, (0, 1): -1, (6, 0): -1})
        f2 = BiPoly({(0, 0): 1, (1, 7): 3, (1, 0): -1})
        w = expand_series(FactoredRational(num, [(f1, 3), (f2, 1)]), 4, 4,
                          t_prefactor=1)
        expr = to_sympy(num) / (to_sympy(f1) ** 3 * to_sympy(f2))
        ser = sympy.series(
            sympy.series(expr, S, 0, 5).removeO(), T, 0, 6
        ).removeO().expand()
        for n in range(5):
            for j in range(5):
                assert w[n][j] == ser.coeff(S, n).coeff(T, j + 1)

    def test_t_prefactor_shifts_columns(self):
        num = BiPoly({(0, 2): 1, (1, 3): 4})
        r = FactoredRational(num)
        w = expand_series(r, 1, 1, t_prefactor=2)
        assert w[0][0] == 1 and w[1][1] == 4

    def test_rows_against_cells(self):
        # the row-wise window against the cell-by-cell loop over the
        # multiplied-out denominator
        rng = random.Random(1920)

        def poly(terms, lo=0):
            return BiPoly({(rng.randint(lo, 3), rng.randint(0, 4)):
                           rng.randint(-3, 3) for _ in range(terms)})

        def factor():
            kind = rng.randrange(5)
            if kind == 0:  # 1 - t
                return ONE_MINUS_T
            if kind == 1:  # (1-t)^c - s f(t), as the pipeline's factors
                f = BiPoly({(1, j): -rng.randint(1, 2)
                            for j in range(rng.randint(0, 3))})
                return ONE_MINUS_T ** rng.randint(0, 2) + f
            if kind == 2:  # a t-only piece such as a split content
                return BiPoly.one() + BiPoly.t() ** rng.randint(1, 3)
            if kind == 3:  # constant -1, squared below
                return BiPoly.term(0, 0, -1) + poly(3, lo=1)
            # past the window: s^6, t^7 and beyond
            return BiPoly({(0, 0): 1, (6, 0): -1, (1, 7): 3, (0, 9): 2})

        for case in range(150):
            factors = []
            for _ in range(rng.randint(0, 3)):
                base = factor()
                e = rng.randint(1, 3)
                if base.coeff(0, 0) == -1:
                    e = 2 * e
                factors.append((base, e))
            r = FactoredRational(poly(rng.randint(0, 6)), factors)
            n_max, j_max = rng.randint(0, 5), rng.randint(0, 5)
            if case % 7 == 0:
                n_max = 0
            if case % 7 == 1:
                j_max = 0
            tp = rng.randint(0, 2)
            assert expand_series(r, n_max, j_max, tp) == expand_cellwise(
                r, n_max, j_max, tp), (r.num, r.factors, n_max, j_max, tp)

    def test_singular_like_the_cells(self):
        # a denominator other than 1 at the origin raises on both routes,
        # also when each factor's constant is a unit: (-1 + s)^3
        for factors in ([(BiPoly.term(0, 0, -1) + BiPoly.s(), 3)],
                        [(BiPoly.term(0, 0, 3) - BiPoly.t(), 1),
                         (ONE_MINUS_T, 2)],
                        [(BiPoly.s() + BiPoly.t(), 1)]):
            r = FactoredRational(BiPoly.one(), factors)
            for route in (expand_series, expand_cellwise):
                with pytest.raises(SingularAtOrigin):
                    route(r, 3, 3)

    def test_singular_at_origin(self):
        with pytest.raises(SingularAtOrigin):
            expand_series(FactoredRational(BiPoly.one(), [(BiPoly.t(), 1)]), 2, 2)
        # a constant term other than 1 would leave the integers
        with pytest.raises(SingularAtOrigin):
            expand_series(FactoredRational(
                BiPoly.one(), [(BiPoly.term(0, 0, 2) - BiPoly.s(), 1)]), 2, 2)


class TestRendering:
    def test_poly_canonical_order(self):
        p = BiPoly({(1, 0): -1, (0, 0): 1, (0, 1): -1})
        assert render_poly(p) == "1 - t - s"
        assert render_poly(BiPoly.zero()) == "0"
        assert render_poly(BiPoly({(2, 3): 4})) == "4*s^2*t^3"
        assert render_poly(BiPoly({(0, 0): -2, (1, 1): 1})) == "-2 + s*t"

    def test_rational_rendering(self):
        one_minus_s = BiPoly({(0, 0): 1, (1, 0): -1})
        r = FactoredRational(BiPoly.one(), [(one_minus_s, 1)])
        assert render_rational(r) == "1/(1 - s)"
        r2 = FactoredRational(BiPoly({(1, 0): 1, (1, 1): -1}), [(one_minus_s, 2)])
        assert render_rational(r2) == "(s - s*t)/(1 - s)^2"
        assert render_rational(r, 1) == "t^-1/(1 - s)"
        assert render_rational(r2, 1) == "t^-1*(s - s*t)/(1 - s)^2"
        assert render_rational(FactoredRational(BiPoly.one()), 2) == "t^-2"
