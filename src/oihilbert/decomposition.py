"""Column-splitting decomposition of a quotient by its derived ideals.

Reading the first column of a standard monomial, with exponent vector e,
splits the quotient one width down into a marked part (the basis tuple
started at column 1, so the rank drops by one) and an unmarked part (rank
kept).  Both parts are again monomial quotients, the derived ideals of
the minimal generators: each generator whose first column is at most e
contributes its tail, the generator moved one column down.  The split
holds at every width n >= 1, with no generation width to reach first.
"""

from collections import namedtuple
from operator import le

from .columns import Ideals
from .errors import WidthMismatch
from .oicore import ModulePresentation


class Decomposition(namedtuple("Decomposition", "e marked unmarked")):
    """Width-independent presentations of the two split parts: marked has
    rank d-1 (None when d == 0), unmarked rank d."""

    __slots__ = ()


def compute_decomposition(p, e):
    """The two derived ideals of p's minimal generators G for the
    first-column exponent e, as the column automaton derives them
    (`columns.Ideals.derive`).  Valid for a single unshifted summand.

    The unmarked part is generated by G and the tails of the g in G
    whose first column is at most e and whose basis tuple does not start
    at 1; the marked part by the tails of those that start at 1.  A
    width-0 generator has no first column and stays in G.  Each part's
    generators are minimal, sorted by width, then degree.
    """
    if len(p.summands) != 1 or p.summands[0][1] != 0:
        raise WidthMismatch("decomposition needs one summand, shift 0")
    if len(e) != p.c or any(x < 0 for x in e):
        raise WidthMismatch(f"exponent vector must be {p.c} nonnegatives")
    d = p.summands[0][0]
    table = Ideals(p.c, p.generators)
    ideal = table.minimal(p.generators)
    mons = table.mons
    fit = sum(1 << k for k, g in enumerate(ideal)
              if mons[g].width and all(map(le, mons[g].cols[0], e)))
    unmarked, marked = table.derive(ideal, table.prepare(ideal), fit)

    def part(rank, numbers):
        gens = sorted((mons[k] for k in numbers),
                      key=lambda g: (g.width, g.degree, g.key()))
        return ModulePresentation(p.c, [(rank, 0)], gens)

    return Decomposition(tuple(e), part(d - 1, marked) if d else None,
                         part(d, unmarked))
