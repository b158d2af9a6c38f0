import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sympy

from oihilbert import polyarith
from oihilbert.analysis import _closed_form
from oihilbert.errors import NonDivisible, SingularAtOrigin
from oihilbert.polyarith import (
    ONE_MINUS_T,
    BiPoly,
    FactoredRational,
    _exact_quotient,
    bareiss,
    common_denominator,
    divide_out,
    exact,
    expand_series,
    mul_into,
    over,
    render_poly,
    render_rational,
    split_content,
    times_one_minus_t,
)

from oracles import (
    UniPoly,
    _ref_solve,
    bipoly,
    divide_out_reference,
    equals_cross_mul,
    expand_cellwise,
    one_minus_t_divide,
    schoolbook,
    term_key,
    term_power,
    term_quotient,
    term_render,
    term_sum,
    terms_of,
    trial_reduce,
)

S, T = sympy.symbols("s t")


def to_sympy(p):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in terms_of(p).items()))


small_unis = st.lists(st.integers(-6, 6), min_size=0, max_size=5)

small_bis = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=6,
).map(bipoly)


class TestUniPoly:
    # the list kernels on univariate polynomials, against the reference
    # arithmetic of tests/oracles.py

    def test_exact_div(self):
        f = mul_into([], [1, -1], [2, 0, 3])
        assert _exact_quotient(f, [1, -1]) == [2, 0, 3]
        # trailing zeros, as BiPoly.exact_div hands a row over after a
        # subtraction; the input is left as it was
        padded = f + [0, 0]
        assert _exact_quotient(padded, [1, -1]) == [2, 0, 3]
        assert padded == f + [0, 0]
        assert _exact_quotient([0, 0], [1, -1]) == []
        with pytest.raises(NonDivisible, match="remainder"):
            _exact_quotient([1, 1], [1, -1])
        # a top coefficient that the divisor's lead does not divide stops
        # the division there, before a remainder is formed
        with pytest.raises(NonDivisible, match="leading coefficient"):
            _exact_quotient([0, 3, 1], [1, 2])

    def test_one_minus_t_order_against_repeated_division(self):
        # one row divided by 1 - t as far as it goes: leading zeros,
        # negative coefficients, and powers of 1 - t up to the whole
        # polynomial
        rng = random.Random(1801)
        assert divide_out([[]], -1) == ([[]], 0)
        for _ in range(300):
            low = [0] * rng.choice((0, 0, 1, 3))
            u = UniPoly(low + [rng.randint(-6, 6)
                               for _ in range(rng.randint(1, 6))])
            u = u * UniPoly((1, -1)) ** rng.randint(0, 5)
            q, k = one_minus_t_divide(u)
            u = list(u.coeffs)
            assert divide_out([u], len(u) - 1) == ([list(q.coeffs)], k), u

    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    def test_over_and_divide_out_against_long_division(self, c):
        # rows r_i (1 - c y)^k_i: zero rows, most below the least k_i,
        # rows that 1 - c y does not divide, several rows of different
        # orders; over's series times 1 - c y gives its input back
        rng = random.Random(3400 + c)
        factor = UniPoly((1, -c))
        assert over([], c) == [] and divide_out([], 3, c) == ([], 3)
        assert divide_out([[], []], 2, c) == ([[], []], 2)
        seen = set()
        for _ in range(200):
            rows, orders = [], []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.15:
                    rows.append([])
                    continue
                r = UniPoly([rng.randint(-6, 6)
                             for _ in range(rng.randint(1, 5))]
                            + [rng.choice((-3, -1, 1, 2))])
                k = rng.randint(0, 4)
                rows.append(list((r * factor ** k).coeffs))
                orders.append(k)
            most = rng.randint(0, 5)
            for row in rows:
                q = over(row, c)
                assert len(q) == len(row)
                assert mul_into([], q, [1, -c])[:len(row)] == row
            want = divide_out_reference(rows, most, c)
            got = divide_out(rows, most, c)
            assert got == want, (rows, most, c)
            if not want[1]:
                assert got[0] == rows
            if orders:
                least = min(orders)
                assert got[1] >= min(least, most)
                seen.add((least < most, least == 0, len(orders) > 1,
                          len(orders) < len(rows)))
        assert len(seen) >= 6, seen

    @given(small_unis, small_unis, small_unis)
    @settings(max_examples=80, deadline=None)
    def test_product_divisible_by_factor(self, f, g, h):
        # g and so the product may end in zeros; f may not, as a divisor
        f = list(UniPoly(f).coeffs)
        prod = mul_into([], f, g)
        assert UniPoly(prod).coeffs == (UniPoly(f) * UniPoly(g)).coeffs
        assert UniPoly(mul_into(list(h), f, g, -1)).coeffs == (
            UniPoly(h) - UniPoly(f) * UniPoly(g)).coeffs
        if f:
            assert _exact_quotient(prod, f) == list(UniPoly(g).coeffs)


class TestBareiss:
    # systems shaped like analysis._closed_form's: rows n = start ... of
    # c^n n^e over whole bases in falling order, integer right-hand sides

    def test_exact(self):
        assert exact(-12, 3) == -4 and exact(5, 1) == 5
        with pytest.raises(NonDivisible):
            exact(7, 2)

    def test_empty_system(self):
        # a column eventually 0 cancels every factor of the closed form
        assert bareiss([], 0) == (1, []) and _ref_solve([], []) == []
        assert _closed_form([], [(1, 3)]) == (0, ())
        assert _closed_form([1, -3], [(3, 1)]) == (1, ())

    def test_closed_form_systems_against_fractions(self):
        rng = random.Random(3401)
        for _ in range(60):
            bases = sorted(rng.sample(range(1, 6), rng.randint(1, 5)),
                           reverse=True)
            cols = [(c, e) for c in bases for e in range(rng.randint(1, 4))]
            start = rng.randint(0, 6)
            dense = [[c ** n * n ** e for c, e in cols]
                     for n in range(start, start + len(cols))]
            rhs = [rng.randint(-50, 50) for _ in cols]
            first = rng.randrange(len(cols))
            det, nums = bareiss(
                [{i: v for i, v in enumerate(row + [b]) if v}
                 for row, b in zip(dense, rhs)], first)
            assert det
            assert [Fraction(v, det) for v in nums] == _ref_solve(
                dense, rhs)[first:], (cols, start, rhs)


class TestBiPoly:
    def test_constructor_merges_and_drops_zeros(self):
        p = bipoly([((0, 0), 1), ((0, 0), -1), ((1, 2), 3)])
        assert terms_of(p) == {(1, 2): 3}

    def test_arith_round_trip(self):
        one_minus_t = bipoly({(0, 0): 1, (0, 1): -1})
        f = one_minus_t ** 2 - BiPoly.s() * bipoly({(0, 0): 1, (0, 1): 1})
        assert terms_of(f) == {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): -1,
                               (1, 1): -1}
        assert f.deg_s() == 1 and f.deg_t() == 2

    def test_exact_div(self):
        a = bipoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})  # 1 - t - s
        b = bipoly({(0, 0): 1, (1, 0): 1})  # 1 + s
        with pytest.raises(NonDivisible):
            a.exact_div(b)
        assert (a * b).exact_div(b) == a
        assert (a * b).try_div(a) == b
        assert a.try_div(b) is None
        # long division in s over Z[t]: the s-row -1 of t - s is no
        # multiple of 1 - t
        t = BiPoly.term(0, 1)
        with pytest.raises(NonDivisible):
            (t - BiPoly.s()).exact_div(BiPoly.one() - t)

    def test_exact_div_sparse_high_degree(self):
        # long division in s over Z[t] at s-degree 400: every s-row but
        # the top one is zero, and that one has t-degree 401
        one_minus_t = BiPoly.one() - BiPoly.term(0, 1)
        big = BiPoly.term(400, 400) * one_minus_t
        assert big.exact_div(one_minus_t) == BiPoly.term(400, 400)
        with pytest.raises(NonDivisible):
            big.exact_div(BiPoly.one() - BiPoly.s())

    def test_powers_against_repeated_products(self):
        # two-term bases are written from a binomial row, with
        # coefficients past 2^62 from n = 66 on; the others square
        s, t = BiPoly.s(), BiPoly.term(0, 1)
        bases = [(ONE_MINUS_T, 80), (BiPoly.one() + t, 80),
                 (s - BiPoly.term(0, 3, 2), 80),
                 (BiPoly.term(2, 1, -3) + BiPoly.term(1, 4, 5), 30),
                 (ONE_MINUS_T - s, 12), (BiPoly.term(1, 1, 7), 12)]
        for base, top in bases:
            acc = BiPoly.one()
            for n in range(top + 1):
                assert base ** n == acc, (base, n)
                acc = acc * base

    def test_rows_against_term_dicts(self):
        # the row form against the term-dict arithmetic of tests/oracles.py:
        # sums, differences, products with an int, a one-term and a general
        # operand, powers, exact division of products and of non-divisors,
        # and the term order that factors sort and render in
        rng = random.Random(3501)

        def draw(n, ds, dt, mag=5):
            out = {}
            for _ in range(n):
                out[(rng.randint(0, ds), rng.randint(0, dt))] = rng.choice(
                    (-1, 1)) * rng.randint(1, mag)
            return out

        for case in range(300):
            a = draw(rng.randint(0, 7), rng.choice((0, 2, 6)),
                     rng.choice((0, 2, 6)), rng.choice((5, 1 << 70)))
            b = draw(rng.randint(0, 5), rng.choice((0, 1, 3)),
                     rng.choice((0, 1, 3)))
            one = draw(1, 4, 4, rng.choice((1, 1 << 65)))
            k = rng.choice((0, 1, -1, 3, -(1 << 65)))
            pa, pb, pm = bipoly(a), bipoly(b), bipoly(one)
            assert terms_of(pa) == a and pa.key() == term_key(a)
            assert render_poly(pa) == term_render(a)
            assert (pa.deg_s(), pa.deg_t()) == (
                max((i for i, _ in a), default=-1),
                max((j for _, j in a), default=-1))
            assert terms_of(pa + pb) == term_sum(a, b)
            assert terms_of(pa - pb) == term_sum(a, b, -1)
            assert terms_of(-pa) == term_sum({}, a, -1)
            assert terms_of(pa * k) == terms_of(k * pa) == {
                kl: v * k for kl, v in a.items() if k}
            for x, y in ((pa, pb), (pb, pa), (pa, pm), (pm, pa), (pm, pm)):
                assert terms_of(x * y) == schoolbook(terms_of(x),
                                                     terms_of(y)), (x, y)
            if b:
                assert terms_of((pa * pb).exact_div(pb)) == a, (a, b)
                near = term_sum(schoolbook(a, b), draw(1, 4, 4))
                try:
                    want = term_quotient(near, b)
                except NonDivisible:
                    want = None
                got = bipoly(near).try_div(pb)
                assert (got if got is None else terms_of(got)) == want, (
                    near, b)
                if want is None:
                    with pytest.raises(NonDivisible):
                        bipoly(near).exact_div(pb)
            if case < 40:
                n = rng.randint(0, 5)
                assert terms_of(pa ** n) == term_power(a, n), (a, n)

        s, t = BiPoly.s(), BiPoly.term(0, 1)
        one_minus_s = BiPoly.one() - s
        for base in (ONE_MINUS_T, one_minus_s, ONE_MINUS_T ** 2 - s,
                     ONE_MINUS_T - s * t):
            for n in range(12):
                assert terms_of(base ** n) == term_power(terms_of(base), n)

        # factors sort by their terms, not by their rows: 1 - t has the
        # larger rows, ((1, -1),) against ((1,), (-1,)), and sorts first
        assert one_minus_s.rows < ONE_MINUS_T.rows
        assert ONE_MINUS_T.key() < one_minus_s.key()
        r = FactoredRational(BiPoly.one(), [(one_minus_s, 1),
                                            (ONE_MINUS_T, 1)])
        assert r.factors == ((ONE_MINUS_T, 1), (one_minus_s, 1))
        assert render_rational(r) == "1/(1 - t)*(1 - s)"

    def test_row_sharing_against_term_dicts(self):
        # sums, differences and one-term products keep every row their
        # operation leaves as it was, the very tuple; results are in the
        # trimmed form and agree with the term-dict arithmetic, also when
        # the top rows cancel; key() is computed once
        rng = random.Random(3702)

        def draw(rows, dt):
            return bipoly({(i, rng.randint(0, dt)): rng.choice((-2, 1, 3))
                           for i in rows for _ in range(rng.randint(1, 3))})

        for _ in range(200):
            a = draw(rng.sample(range(8), rng.randint(1, 5)), 6)
            b = draw(rng.sample(range(8), rng.randint(0, 4)), 6)
            for got, want in ((a + b, term_sum(terms_of(a), terms_of(b))),
                              (a - b, term_sum(terms_of(a), terms_of(b), -1)),
                              (a - a, {}), (b + a - b, terms_of(a))):
                assert terms_of(got) == want
                assert got == bipoly(want)
                assert all(not row or row[-1] for row in got.rows)
                assert not got.rows or got.rows[-1]
            total = a + b
            for i, row in enumerate(a.rows):
                if i >= len(b.rows) or not b.rows[i]:
                    assert total.rows[i] is row
            shifted = BiPoly.term(rng.randint(0, 3), 0) * a
            assert terms_of(shifted) == schoolbook(
                terms_of(BiPoly.term(shifted.deg_s() - a.deg_s(), 0)),
                terms_of(a))
            assert all(x is y for x, y in zip(
                [r for r in shifted.rows if r], [r for r in a.rows if r]))
            assert a.key() is a.key()

    def test_s_coeff_views(self):
        p = bipoly({(0, 0): 1, (0, 2): 5, (2, 1): -3})
        assert p.rows == ((1, 0, 5), (), (0, -3))
        # the constructor trims trailing zeros and trailing empty rows
        assert BiPoly([[1, 0, 5, 0], [0], (0, -3), [], [0, 0]]) == p
        assert BiPoly.zero().rows == () == BiPoly([[0], []]).rows

    @given(small_bis, small_bis, st.integers(0, 4), st.integers(0, 4),
           st.sampled_from((-2, -1, 1, 3)))
    @settings(max_examples=80, deadline=None)
    # a top s-row no multiple of the divisor's, a dividend of lower
    # s-degree, and a remainder left in Z[t]
    @example(BiPoly.term(1, 0, 2), BiPoly.zero(), 1, 0, 1)
    @example(BiPoly.s(), BiPoly.zero(), 0, 1, 1)
    @example(ONE_MINUS_T, BiPoly.zero(), 0, 1, 1)
    def test_product_divisible_by_factor(self, a, b, i, j, c):
        if a.is_zero():
            return
        assert (a * b).exact_div(a) == b
        # one term more: divisible over Z exactly when sympy's quotient
        # over Q leaves no remainder and has integer coefficients (on s
        # / 2s it reports remainder 0 and quotient 1/2, even over ZZ)
        near = a * b + BiPoly.term(i, j, c)
        q, r = sympy.div(to_sympy(near), to_sympy(a), S, T, domain="QQ")
        q = sympy.Poly(q, S, T)
        if r == 0 and all(v.is_integer for v in q.coeffs()):
            assert near.exact_div(a) == bipoly(
                {(int(m), int(n)): int(v)
                 for (m, n), v in zip(q.monoms(), q.coeffs())})
        else:
            with pytest.raises(NonDivisible):
                near.exact_div(a)

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
            a = bipoly({(rng.randint(0, deg), rng.randint(0, deg)):
                        rng.randint(-mag, mag)
                        for _ in range(rng.randint(0, 8))})
            m = rng.choice(monomials)
            zero = BiPoly.zero()
            for x, y in ((a, m), (m, a), (a, a), (m, m), (a, zero), (zero, m)):
                assert terms_of(x * y) == schoolbook(terms_of(x),
                                                     terms_of(y)), (x, y)

    def test_times_one_minus_t_against_schoolbook(self):
        # k running differences of each s-row, with empty rows between
        # nonzero ones, give p * (1-t)^k trimmed, and divide_out takes
        # them off again
        rng = random.Random(1963)
        for _ in range(200):
            p = bipoly({(rng.choice((0, 2, 3)), rng.randint(0, 5)):
                        rng.randint(-6, 6) for _ in range(rng.randint(0, 6))})
            k = rng.randint(0, 4)
            got = times_one_minus_t(p, k)
            assert terms_of(got) == schoolbook(
                terms_of(p), term_power({(0, 0): 1, (0, 1): -1}, k))
            assert got.rows == BiPoly(got.rows).rows
            rows, j = divide_out(got.rows, k)
            assert (BiPoly(rows), j) == (p, k)

    def test_product_routes_against_schoolbook(self):
        # term-pair counts from 1 to 1,225: dense operands with small
        # coefficients, sparse high-degree operands (more cells in the
        # degree box than term pairs) and coefficients past 2^62, in both
        # orders; every product goes term by term, and BiPoly has no
        # packed format
        assert not hasattr(BiPoly, "_pack")
        assert not hasattr(BiPoly, "_unpack")
        rng = random.Random(1802)

        def draw(n, ds, dt, mag):
            cells = rng.sample([(i, j) for i in range(ds + 1)
                                for j in range(dt + 1)], n)
            return bipoly({c: rng.choice((-1, 1)) * rng.randint(1, mag)
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
                    assert terms_of(x * y) == schoolbook(
                        terms_of(x), terms_of(y)), (x, y)


class TestFactoredRational:
    def setup_method(self):
        self.one_minus_t = bipoly({(0, 0): 1, (0, 1): -1})
        self.one_minus_t_minus_s = bipoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})

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
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.term(0, 1)
        pool = [one - t, one + t, one - s, one - s * t - t * t,
                one - s - s * t * 2]
        num = bipoly({(rng.randint(0, 2), rng.randint(0, 2)):
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

        def counted(factor_tuples):
            calls.append(factor_tuples)
            return common_denominator(factor_tuples)

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
        coprime = FactoredRational(BiPoly.term(0, 1) - BiPoly.s(),
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
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.term(0, 1)
        pool = [self.one_minus_t_minus_s, one - s * (one + t),
                ONE_MINUS_T ** 2 - s, one + t]
        assert ONE_MINUS_T == self.one_minus_t

        def draw_num():
            terms = {}
            for i in rng.sample(range(5), rng.randint(1, 4)):
                start = rng.choice((0, 0, 1, 4))
                for j in range(start, start + rng.randint(1, 4)):
                    terms[(i, j)] = rng.randint(-5, 5)
            num = bipoly(terms)
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
            b0 = sum(c * 2 ** j for (i, j), c in terms_of(base).items() if not i)
            b1 = -sum(c * 2 ** j for (i, j), c in terms_of(base).items() if i)
            if not b1:
                return False
            x = Fraction(b0, b1)
            return sum(c * x ** i * 2 ** j
                       for (i, j), c in terms_of(num).items()) != 0

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
            f = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
            b = ONE_MINUS_T ** rng.randint(0, 3) - s * bipoly(
                {(0, j): v for j, v in enumerate(f)})
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
        one_minus_t_minus_s = bipoly({(0, 0): 1, (0, 1): -1, (1, 0): -1})
        one_minus_t = bipoly({(0, 0): 1, (0, 1): -1})
        # (1-t)/(1-t-s) counts all monomials of all widths, c = 1
        r = FactoredRational(one_minus_t, [(one_minus_t_minus_s, 1)])
        w = expand_series(r, 5, 5)
        import math

        for n in range(6):
            for j in range(6):
                expect = math.comb(n + j - 1, j) if n else (1 if j == 0 else 0)
                assert w[n][j] == expect

    def test_against_fraction_brute_force(self):
        num = bipoly({(0, 0): 2, (1, 1): -3})
        den = bipoly({(0, 0): 1, (1, 0): -2, (0, 1): 5})
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
        num = bipoly({(0, 0): 1, (2, 1): 5})
        f1 = bipoly({(0, 0): 1, (0, 1): -1, (6, 0): -1})
        f2 = bipoly({(0, 0): 1, (1, 7): 3, (1, 0): -1})
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
        num = bipoly({(0, 2): 1, (1, 3): 4})
        r = FactoredRational(num)
        w = expand_series(r, 1, 1, t_prefactor=2)
        assert w[0][0] == 1 and w[1][1] == 4

    def test_rows_against_cells(self):
        # the row-wise window against the cell-by-cell loop over the
        # multiplied-out denominator
        rng = random.Random(1920)

        def poly(terms, lo=0):
            return bipoly({(rng.randint(lo, 3), rng.randint(0, 4)):
                           rng.randint(-3, 3) for _ in range(terms)})

        def factor():
            kind = rng.randrange(5)
            if kind == 0:  # 1 - t
                return ONE_MINUS_T
            if kind == 1:  # (1-t)^c - s f(t), as the pipeline's factors
                f = bipoly({(1, j): -rng.randint(1, 2)
                            for j in range(rng.randint(0, 3))})
                return ONE_MINUS_T ** rng.randint(0, 2) + f
            if kind == 2:  # a t-only piece such as a split content
                return BiPoly.one() + BiPoly.term(0, 1) ** rng.randint(1, 3)
            if kind == 3:  # constant -1, squared below
                return BiPoly.term(0, 0, -1) + poly(3, lo=1)
            # past the window: s^6, t^7 and beyond
            return bipoly({(0, 0): 1, (6, 0): -1, (1, 7): 3, (0, 9): 2})

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
                        [(BiPoly.term(0, 0, 3) - BiPoly.term(0, 1), 1),
                         (ONE_MINUS_T, 2)],
                        [(BiPoly.s() + BiPoly.term(0, 1), 1)]):
            r = FactoredRational(BiPoly.one(), factors)
            for route in (expand_series, expand_cellwise):
                with pytest.raises(SingularAtOrigin):
                    route(r, 3, 3)

    def test_singular_at_origin(self):
        with pytest.raises(SingularAtOrigin):
            expand_series(
                FactoredRational(BiPoly.one(), [(BiPoly.term(0, 1), 1)]), 2, 2)
        # a constant term other than 1 would leave the integers
        with pytest.raises(SingularAtOrigin):
            expand_series(FactoredRational(
                BiPoly.one(), [(BiPoly.term(0, 0, 2) - BiPoly.s(), 1)]), 2, 2)


class TestRendering:
    def test_poly_canonical_order(self):
        p = bipoly({(1, 0): -1, (0, 0): 1, (0, 1): -1})
        assert render_poly(p) == "1 - t - s"
        assert render_poly(BiPoly.zero()) == "0"
        assert render_poly(bipoly({(2, 3): 4})) == "4*s^2*t^3"
        assert render_poly(bipoly({(0, 0): -2, (1, 1): 1})) == "-2 + s*t"

    def test_rational_rendering(self):
        one_minus_s = bipoly({(0, 0): 1, (1, 0): -1})
        r = FactoredRational(BiPoly.one(), [(one_minus_s, 1)])
        assert render_rational(r) == "1/(1 - s)"
        r2 = FactoredRational(bipoly({(1, 0): 1, (1, 1): -1}), [(one_minus_s, 2)])
        assert render_rational(r2) == "(s - s*t)/(1 - s)^2"
        assert render_rational(r, 1) == "t^-1/(1 - s)"
        assert render_rational(r2, 1) == "t^-1*(s - s*t)/(1 - s)^2"
        assert render_rational(FactoredRational(BiPoly.one()), 2) == "t^-2"
