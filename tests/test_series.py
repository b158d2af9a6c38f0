from math import comb

from oihilbert.oicore import Monomial, ModulePresentation, hilbert_width
from oihilbert.polyarith import BiPoly, FactoredRational, render_rational
from oihilbert.series import SeriesResult, free_series, module_series

from oracles import equals_cross_mul


def poly_dim(ncells, j):
    """Monomials of degree j in ncells variables."""
    if ncells == 0:
        return 1 if j == 0 else 0
    return comb(ncells + j - 1, j)


def window_vs_widthwise(p, n_max=5, j_max=5):
    for quotient in (True, False):
        res = module_series(p, quotient=quotient)
        win = res.window(n_max, j_max)
        for n in range(n_max + 1):
            dims = hilbert_width(p, n, quotient=quotient).dims(j_max)
            for j in range(j_max + 1):
                assert win[n][j] == dims[j], (quotient, n, j)


class TestFreeSeries:
    def test_dimension_window(self):
        for c, d in [(1, 0), (2, 0), (1, 1), (2, 2)]:
            p = ModulePresentation(c, [(d, 0)], [])
            res = module_series(p)
            win = res.window(5, 5)
            for n in range(6):
                for j in range(6):
                    assert win[n][j] == comb(n, d) * poly_dim(c * n, j)

    def test_automaton_agrees_with_closed_form(self):
        for c, d in [(1, 0), (2, 1), (1, 2)]:
            p = ModulePresentation(c, [(d, 0)], [])
            res = module_series(p)
            assert equals_cross_mul(res.rational, free_series(c, d))


class TestModuleSeries:
    def test_principal_reduces_to_known_form(self):
        p = ModulePresentation(1, [(0, 0)], [Monomial(1, 1, ((1,),))])
        res = module_series(p, quotient=True, reduce=True)
        want = FactoredRational(
            BiPoly.one(), ((BiPoly.one() - BiPoly.s(), 1),))
        assert equals_cross_mul(res.rational, want)
        assert res.reduced
        assert "1 - s" in res.render()

    def test_windows_match_widthwise(self):
        window_vs_widthwise(
            ModulePresentation(1, [(0, 0)], [Monomial(1, 2, ((1,), (1,)))]))
        window_vs_widthwise(
            ModulePresentation(2, [(1, 0)],
                               [Monomial(2, 1, ((1, 0),), (1,)),
                                Monomial(2, 2, ((0, 1), (0, 1)), (2,))]))
        window_vs_widthwise(
            ModulePresentation(1, [(0, 0), (1, 1)],
                               [Monomial(1, 1, ((2,),), (), 0),
                                Monomial(1, 1, ((1,),), (1,), 1)]))

    def test_positive_shift(self):
        p = ModulePresentation(1, [(0, 3)], [Monomial(1, 1, ((1,),))])
        res = module_series(p, quotient=True)
        assert res.t_prefactor == 0
        win = res.window(4, 5)
        for n in range(5):
            assert win[n][3] == 1  # shifted unit in each width
            assert win[n][0] == 0

    def test_negative_shift_prefactor(self):
        p = ModulePresentation(1, [(0, -2), (0, 0)], [])
        res = module_series(p, quotient=True)
        assert res.t_prefactor == 2
        assert res.render().startswith("t^-2*")
        win = res.window(3, 4)
        # dims of P_n in degree j plus P_n shifted down by 2
        for n in range(4):
            for j in range(5):
                want = poly_dim(n, j) + poly_dim(n, j + 2)
                assert win[n][j] == want

    def test_automaton_sizes_recorded(self):
        p = ModulePresentation(1, [(0, 0), (0, 0)],
                               [Monomial(1, 1, ((1,),), (), 0)])
        res = module_series(p)
        assert len(res.automaton_states) == 2
        assert res.automaton_states[0] > 0
        assert res.automaton_states[1] == 0

    def test_render_stable(self):
        p = ModulePresentation(1, [(0, 0)], [Monomial(1, 1, ((1,),))])
        sub = module_series(p, quotient=False, reduce=True)
        assert render_rational(sub.rational) == sub.render()
        assert isinstance(sub, SeriesResult)
