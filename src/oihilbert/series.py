"""Assembly of equivariant Hilbert series for module presentations.

Each summand contributes independently: the submodule part is solved on
the summand's column automaton of derived ideals (`columns`), the
quotient part is the free series minus it, and degree shifts multiply by
powers of t.  A negative shift is carried as an explicit t^-K prefactor
so the rational part stays polynomial.
"""

from collections import namedtuple
from functools import cache

from .columns import summand_series
from .polyarith import (
    ONE_MINUS_T,
    BiPoly,
    FactoredRational,
    expand_series,
    render_rational,
)


@cache
def free_series(c, d):
    """Series of the free module on one rank-d generator in degree 0:
    s^d (1-t)^c / ((1-t)^c - s)^(d+1).  Built once per (c, d): every
    summand of a quotient needs it, and no caller mutates it."""
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
    return assemble(p, column_parts(p), quotient, reduce)


def summand_generators(p):
    """The generators of each summand of p, in summand order."""
    out = [[] for _ in p.summands]
    for g in p.generators:
        out[g.summand].append(g)
    return out


def column_parts(p):
    """(submodule series, number of derived ideals solved) per summand of
    p, each on its column automaton (`columns.summand_series`)."""
    return [summand_series(p.c, d, gens)
            for (d, _), gens in zip(p.summands, summand_generators(p))]


def assemble(p, parts, quotient=True, reduce=False):
    """The series of p from parts, one (submodule series, state count)
    per summand: a quotient takes each from its free series, and each
    shift multiplies by a power of t."""
    prefactor = max(0, -min((sh for _, sh in p.summands), default=0))
    total = FactoredRational.zero()
    for (d, shift), (part, _) in zip(p.summands, parts):
        if quotient:
            part = free_series(p.c, d) - part
        total = total + part.mul_t_power(shift + prefactor)
    if reduce:
        total = total.reduce()
    return SeriesResult(
        total,
        prefactor,
        "quotient" if quotient else "submodule",
        tuple(states for _, states in parts),
        reduce,
    )
