"""Assembly of equivariant Hilbert series for module presentations.

Each summand contributes independently: the submodule part is read off the
summand's word automaton, the quotient part is the free series minus it,
and degree shifts multiply by powers of t.  A negative shift is carried as
an explicit t^-K prefactor so the rational part stays polynomial.
"""

from collections import namedtuple

from .automata import generating_function, module_dfa
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
        "rational t_prefactor mode automaton_states reduced",
        defaults=((), False))):
    """A bivariate Hilbert series t^-K * rational, plus pipeline metadata:
    mode is "quotient" or "submodule", automaton_states the minimal DFA
    size of each summand, and reduced whether rational is in lowest
    terms."""

    __slots__ = ()

    def window(self, n_max, j_max):
        return expand_series(self.rational, n_max, j_max, self.t_prefactor)

    def render(self):
        return render_rational(self.rational, self.t_prefactor)


def module_series(p, quotient=True, reduce=False):
    """Hilbert series of the submodule presented by p, or of its quotient."""
    prefactor = max(0, -min((sh for _, sh in p.summands), default=0))
    total = FactoredRational.zero()
    sizes = []
    by_summand = {}
    for g in p.generators:
        by_summand.setdefault(g.summand, []).append(g)
    for idx, (d, shift) in enumerate(p.summands):
        dfa = module_dfa(p.c, d, by_summand.get(idx, []))
        sizes.append(dfa.n)
        part = generating_function(dfa)
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
