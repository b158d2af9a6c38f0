"""Assembly of equivariant Hilbert series for module presentations.

Each summand contributes independently: the submodule part is solved on
the summand's column automaton of derived ideals (`columns`), the
quotient part is the free series minus it, and degree shifts multiply by
powers of t.  A negative shift is carried as an explicit t^-K prefactor
so the rational part stays polynomial.
"""

from collections import namedtuple

from .columns import summand_series
from .polyarith import (
    ONE_MINUS_T,
    BiPoly,
    FactoredRational,
    expand_series,
    render_rational,
)


def free_series(c, d):
    """Series of the free module on one rank-d generator in degree 0:
    s^d (1-t)^c / ((1-t)^c - s)^(d+1)."""
    om = ONE_MINUS_T ** c
    return FactoredRational(
        BiPoly.term(d, 0) * om, ((om - BiPoly.s(), d + 1),))


class SeriesResult(namedtuple(
        "SeriesResult",
        "rational t_prefactor mode column_states reduced",
        defaults=((), False))):
    """A bivariate Hilbert series t^-K * rational, plus pipeline metadata:
    mode is "quotient" or "submodule", column_states the number of
    derived ideals solved for each summand, and reduced whether rational
    is in lowest terms."""

    __slots__ = ()

    def window(self, n_max, j_max):
        return expand_series(self.rational, n_max, j_max, self.t_prefactor)

    def render(self):
        return render_rational(self.rational, self.t_prefactor)


def module_series(p, quotient=True, reduce=False):
    """Hilbert series of the submodule presented by p, or of its quotient,
    each summand solved on its column automaton."""
    return _assemble(p, quotient, reduce, summand_series)


def letter_series(p, quotient=True):
    """The same series, unreduced, by the letter automaton: each summand's
    minimal DFA on standard words (`automata.module_dfa`) solved by its
    transfer matrix (`automata.generating_function`).  It is `oracle`'s
    second route; no other command loads `automata`.  column_states is
    left empty."""
    from .automata import generating_function, module_dfa

    def solve(c, d, gens):
        return generating_function(module_dfa(c, d, gens)), None

    return _assemble(p, quotient, False, solve)._replace(column_states=())


def _assemble(p, quotient, reduce, solve):
    """The series of p from solve(c, d, gens), which gives one summand's
    submodule series and its state count."""
    prefactor = max(0, -min((sh for _, sh in p.summands), default=0))
    total = FactoredRational.zero()
    sizes = []
    by_summand = {}
    for g in p.generators:
        by_summand.setdefault(g.summand, []).append(g)
    for idx, (d, shift) in enumerate(p.summands):
        part, states = solve(p.c, d, by_summand.get(idx, []))
        sizes.append(states)
        if quotient:
            part = free_series(p.c, d) - part
        total = total + part.mul_t_power(shift + prefactor)
    if reduce:
        total = total.reduce()
    return SeriesResult(
        total,
        prefactor,
        "quotient" if quotient else "submodule",
        tuple(sizes),
        reduce,
    )
