import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oihilbert.analysis import (
    ArtinianCertificate,
    DegreeFit,
    _nearest_int,
    artinian_test,
    asymptotic_dimension,
    asymptotic_multiplicity,
    fixed_degree_polynomial,
    validate_shape,
)
from oihilbert.errors import NoStableFit, ZeroModule
from oihilbert.oicore import Monomial, ModulePresentation, dim_deg_width
from oihilbert.polyarith import BiPoly, FactoredRational, UniPoly, split_content
from oihilbert.series import SeriesResult, module_series

from corpus import random_presentation


def ideal(c, *gens):
    return ModulePresentation(
        c, [(0, 0)], [Monomial(c, len(cols), cols) for cols in gens])


def principal_power(a):
    return ideal(1, ((a,),))


def shape_of(p):
    res = module_series(p, quotient=True, reduce=True)
    return res, validate_shape(res, p.c)


ONE_MINUS_T = BiPoly.one() - BiPoly.t()
S, T = sympy.symbols("s t")


def sympy_pieces(b):
    """sympy's irreducible factors of b, each with positive constant term."""
    expr = sympy.Add(*(c * S**i * T**j for (i, j), c in b.terms.items()))
    _, pieces = sympy.factor_list(expr, S, T)
    out = []
    for piece, mult in pieces:
        poly = sympy.Poly(piece, S, T)
        q = BiPoly({(int(i), int(j)): int(c)
                    for (i, j), c in zip(poly.monoms(), poly.coeffs())})
        out.append((-q if q.coeff(0, 0) < 0 else q, int(mult)))
    return out


def hand_series(num_terms, den_terms):
    return SeriesResult(
        FactoredRational(BiPoly(num_terms), ((BiPoly(den_terms), 1),)),
        0, "quotient")


class TestShape:
    def test_principal_square(self):
        _, rep = shape_of(principal_power(2))
        assert rep.conformant
        assert rep.one_minus_t_power == 0
        assert rep.factors == ((0, UniPoly((1, 1))),)
        assert rep.leftover is None

    def test_free_modules(self):
        for c in (1, 2, 3):
            _, rep = shape_of(ModulePresentation(c, [(0, 0)], []))
            assert rep.conformant
            assert rep.factors == ((c, UniPoly.one()),)

    def test_squarefree_pair_splits_pole(self):
        _, rep = shape_of(ideal(1, ((1,), (1,))))
        assert rep.conformant
        assert rep.one_minus_t_power == 1
        assert rep.factors == ((0, UniPoly.one()),) * 2

    def test_hand_built_nonconformant(self):
        bad = hand_series({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (2, 1): -1})
        rep = validate_shape(bad, 1)
        assert not rep.conformant
        assert rep.leftover == BiPoly({(0, 0): 1, (2, 1): -1})

    @given(st.lists(st.integers(-3, 3), max_size=3),
           st.lists(st.integers(-3, 3), max_size=4),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_split_of_s_linear_base(self, tail, growth, k):
        # b = (1-t)^k * (u0(t) + s*u1(t)) with u0(0) = 1
        b = BiPoly.from_s_coeffs([UniPoly([1] + tail), UniPoly(growth)]) \
            * ONE_MINUS_T ** k
        pieces = split_content(b)
        prod = BiPoly.one()
        for piece, mult in pieces:
            assert piece.coeff(0, 0) == 1
            prod = prod * piece ** mult
        assert prod == b
        theirs = sympy_pieces(b)

        def power(ps):
            return sum(m for q, m in ps if q == ONE_MINUS_T)

        def s_linear(ps):
            return sorted((q.key(), m) for q, m in ps if q.deg_s() > 0)

        assert power(pieces) == power(theirs)
        assert s_linear(pieces) == s_linear(theirs)
        assert all(q.deg_s() <= 1 for q, _ in pieces)

    def test_single_row_refinement(self):
        # (1-t) - s(1+t) conforms for two rows but not for one
        factor = {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): -1}
        res = hand_series({(0, 0): 1, (0, 1): -1}, factor)
        assert validate_shape(res, 2).conformant
        rep = validate_shape(res, 1)
        assert not rep.conformant
        assert rep.leftover == BiPoly(factor)

    def test_report_reconstructs_series(self):
        for p in [principal_power(3),
                  ideal(2, ((1, 1),)),
                  ideal(1, ((1,), (1,))),
                  ModulePresentation(2, [(1, 1)], []),
                  ModulePresentation(
                      1, [(1, 0)],
                      [Monomial(1, 2, ((1,), (1,)), (2,))])]:
            res, rep = shape_of(p)
            den = (BiPoly.one() - BiPoly.t()) ** rep.one_minus_t_power
            for tp, f in rep.factors:
                den = den * ((BiPoly.one() - BiPoly.t()) ** tp
                             - BiPoly.s() * BiPoly.from_uni_t(f))
            assert res.rational.equals_cross_mul(
                FactoredRational(rep.numerator, ((den, 1),)))

    def test_random_presentations_conform(self):
        rng = random.Random(61409)
        for _ in range(25):
            p = random_presentation(rng)
            _, rep = shape_of(p)
            assert rep.conformant, p
            if p.c == 1:
                for tp, f in rep.factors:
                    assert set(f.coeffs) == {1}
                    assert tp == 0 or f == UniPoly.one()


def widthwise_artinian(p, window):
    """Krull dimension zero (or emptiness) on every width in the window."""
    for n in range(window[0], window[1] + 1):
        try:
            if dim_deg_width(p, n, quotient=True)[0] != 0:
                return False
        except ZeroModule:
            pass
    return True


class TestArtinian:
    def test_known_verdicts(self):
        assert artinian_test(principal_power(1)).verdict
        assert artinian_test(principal_power(2)).verdict
        assert not artinian_test(ideal(1, ((1,), (1,)))).verdict
        assert not artinian_test(ModulePresentation(1, [(0, 0)], [])).verdict
        assert not artinian_test(ModulePresentation(2, [(0, 0)], [])).verdict
        assert not artinian_test(ideal(2, ((1, 1),))).verdict

    def test_certificate_division_identity(self):
        cert = artinian_test(principal_power(2))
        assert cert == ArtinianCertificate(
            True, 0, (0,), (UniPoly((1, 1)),), 0,
            BiPoly.zero(), BiPoly.one(), 0)
        # r^e * g = quotient * prod(1 - s f_j) + remainder
        cert = artinian_test(ideal(1, ((1,), (1,))))
        assert cert.f_list == (UniPoly.one(), UniPoly.one())
        den = BiPoly.one()
        r = UniPoly.one()
        for f in cert.f_list:
            den = den * (BiPoly.one() - BiPoly.s() * BiPoly.from_uni_t(f))
            r = r * f
        res, rep = shape_of(ideal(1, ((1,), (1,))))
        lhs = BiPoly.from_uni_t(r ** cert.e) * rep.numerator
        assert lhs == cert.quotient * den + cert.remainder
        assert cert.remainder.deg_s() < len(cert.f_list)

    def test_eventually_zero_widths(self):
        # unit generator at width 2: K, then K[x], then zero
        cert = artinian_test(ideal(1, ((0,), (0,))))
        assert cert.verdict
        assert cert.one_minus_t_power == 1
        assert cert.remainder == BiPoly.zero()
        assert cert.remainder_order == 1
        assert artinian_test(ideal(1, ((0,),))).verdict

    def test_matches_widthwise_krull(self):
        rng = random.Random(90210)
        cases = [principal_power(a) for a in (1, 2, 3)]
        cases += [ModulePresentation(c, [(0, 0)], []) for c in (1, 2)]
        cases += [random_presentation(rng, max_summands=1, shifts=(0,))
                  for _ in range(15)]
        for p in cases:
            wi = max([g.width for g in p.generators], default=1)
            assert artinian_test(p).verdict == widthwise_artinian(
                p, (wi + 1, wi + 5)), p

    def test_artinian_tail_numerator_nonzero_at_one(self):
        for a in (1, 2, 3):
            p = principal_power(a)
            for n in range(3, 8):
                assert dim_deg_width(p, n, quotient=True) == (0, a ** n)


class TestDimensionGrowth:
    def test_free_modules(self):
        for c in (1, 2):
            g = asymptotic_dimension(ModulePresentation(c, [(0, 0)], []))
            assert (g.slope, g.intercept) == (c, 0)

    def test_known_quotients(self):
        g = asymptotic_dimension(principal_power(1))
        assert (g.slope, g.intercept) == (0, 0)
        g = asymptotic_dimension(ideal(1, ((1,), (1,))))
        assert (g.slope, g.intercept) == (0, 1)

    def test_zero_submodule_side(self):
        g = asymptotic_dimension(
            ModulePresentation(1, [(0, 0)], []), quotient=False)
        assert (g.slope, g.intercept) == (0, 0)

    def test_slope_bounded_by_rows(self):
        rng = random.Random(4096)
        for _ in range(15):
            p = random_presentation(rng)
            g = asymptotic_dimension(p)
            assert 0 <= g.slope <= p.c
            assert g.dims[-1] == g.slope * 8 + g.intercept

    def test_short_window_rejected(self):
        with pytest.raises(NoStableFit):
            asymptotic_dimension(principal_power(1), window=(3, 5))


class TestMultiplicityGrowth:
    def test_principal_powers(self):
        for a in (1, 2, 3):
            g = asymptotic_multiplicity(principal_power(a))
            assert g.base == a
            assert g.poly_exponent == 0
            assert g.exact
            assert g.limit_estimate == 1

    def test_free_modules(self):
        for c in (1, 2):
            g = asymptotic_multiplicity(ModulePresentation(c, [(0, 0)], []))
            assert (g.base, g.poly_exponent, g.limit_estimate) == (1, 0, 1)

    def test_max_exponent_wins(self):
        g = asymptotic_multiplicity(ideal(1, ((2,), (3,))))
        assert g.base == 3

    def test_polynomial_correction(self):
        g = asymptotic_multiplicity(ideal(1, ((1,), (1,))))
        assert (g.base, g.poly_exponent) == (1, 1)
        assert g.limit_estimate == 1
        assert not g.exact

    def test_eventually_zero(self):
        g = asymptotic_multiplicity(ideal(1, ((0,), (0,))))
        assert (g.base, g.limit_estimate) == (1, 0)

    def test_short_window_rejected(self):
        with pytest.raises(NoStableFit):
            asymptotic_multiplicity(principal_power(2), window=(3, 7))

    def test_ambiguous_ratio_rejected(self):
        assert _nearest_int(Fraction(7, 3)) == 2
        assert _nearest_int(Fraction(5)) == 5
        with pytest.raises(NoStableFit):
            _nearest_int(Fraction(3, 2))


class TestFixedDegree:
    def test_free_single_row(self):
        res = module_series(ModulePresentation(1, [(0, 0)], []))
        fit = fixed_degree_polynomial(res, 1)
        assert fit.coefficients() == (Fraction(0), Fraction(1))
        fit = fixed_degree_polynomial(res, 2)
        assert fit.coefficients() == (
            Fraction(0), Fraction(1, 2), Fraction(1, 2))
        for n in range(fit.onset, 11):
            assert fit.evaluate(n) == fit.values[n]

    def test_principal_quotient(self):
        res = module_series(principal_power(1), quotient=True)
        assert fixed_degree_polynomial(res, 0).coefficients() == (Fraction(1),)
        assert fixed_degree_polynomial(res, 1).coefficients() == (Fraction(0),)

    def test_late_onset(self):
        # unit generator at width 4 zeroes the tail from there on
        gens = [Monomial(1, 4, ((0,), (0,), (0,), (0,)))]
        res = module_series(
            ModulePresentation(1, [(0, 0)], gens), quotient=True)
        fit = fixed_degree_polynomial(res, 1)
        assert fit.onset == 4
        assert fit.values[3] == 3 and fit.values[4] == 0
        assert fit.evaluate(9) == 0

    def test_reproduces_window_tail(self):
        rng = random.Random(777)
        for _ in range(10):
            p = random_presentation(rng)
            res = module_series(p, quotient=True)
            for j in range(4):
                fit = fixed_degree_polynomial(res, j)
                for n in range(fit.onset, 11):
                    assert fit.evaluate(n) == fit.values[n]

    def test_unstable_within_window_rejected(self):
        gens = [Monomial(1, 10, tuple(((0,),) * 10))]
        res = module_series(
            ModulePresentation(1, [(0, 0)], gens), quotient=True)
        with pytest.raises(NoStableFit):
            fixed_degree_polynomial(res, 0, n_max=10)

    def test_short_window_rejected(self):
        res = module_series(ModulePresentation(1, [(0, 0)], []))
        with pytest.raises(NoStableFit):
            fixed_degree_polynomial(res, 4, n_max=6)

    def test_power_coefficients_eventually_polynomial(self):
        # coefficient of t^j in f(t)^n, for f with constant term 1
        for f in (UniPoly((1, 1)), UniPoly((1, 1, 1))):
            for j in range(5):
                vals = []
                for n in range(15):
                    fn = f ** n
                    vals.append(fn.coeffs[j] if j <= fn.degree else 0)
                row = vals[j:]  # below onset j the binomials still grow
                depth = 0
                while row and any(v != 0 for v in row):
                    row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
                    depth += 1
                assert row and len(row) >= 2, (f.coeffs, j)
                assert depth <= j + 1
