"""Column-splitting decomposition of a quotient by width-wise colon ideals.

Dividing out a power of the first column splits the quotient, one width
down, into a marked part (basis tuple starts at column 1, rank drops) and
an unmarked part (rank kept).  Both parts are again monomial quotients,
read off from colon generators at one fixed width, and the construction
yields the repeated-division identity for the width-wise series.
"""

from collections import namedtuple

from .errors import Column1NotEmpty, WidthMismatch
from .oicore import ModulePresentation, Monomial, colon_width, minimalize


def res_monomial(m):
    """Drop the (empty) first column; a basis entry at column 1 is removed,
    the others slide down one."""
    if m.width == 0:
        raise WidthMismatch("cannot drop a column of a width-0 monomial")
    if any(m.cols[0]):
        raise Column1NotEmpty(f"column 1 of {m!r} carries variables")
    if m.pi and m.pi[0] == 1:
        pi = tuple(x - 1 for x in m.pi[1:])
    else:
        pi = tuple(x - 1 for x in m.pi)
    return Monomial(m.c, m.width - 1, m.cols[1:], pi, m.summand)


class Decomposition(namedtuple("Decomposition", "e m marked unmarked")):
    """Width-independent presentations of the two split parts: marked has
    rank d-1 (None when d == 0), unmarked rank d."""

    __slots__ = ()


def compute_decomposition(p, e):
    """Split data for the quotient by p's submodule along column-1 power e.

    Valid for a single unshifted summand.  The marked part reads the
    width-m colon components whose basis tuple starts at 1; the unmarked
    part reads the width-(m+1) components that skip column 1.
    """
    if len(p.summands) != 1 or p.summands[0][1] != 0:
        raise WidthMismatch("decomposition needs one summand, shift 0")
    if len(e) != p.c or any(x < 0 for x in e):
        raise WidthMismatch(f"exponent vector must be {p.c} nonnegatives")
    d = p.summands[0][0]
    wi = max((g.width for g in minimalize(p.generators)), default=0)
    m = wi if wi >= 1 else max(1, d)

    # generators with a column-1 variable are swallowed once the column-1
    # variables are adjoined; the rest lose their empty first column.
    # colon_width's set is minimal and sorted, and res_monomial shifts
    # every kept basis tuple alike, so both lists stay minimal and sorted
    marked = None
    if d >= 1:
        gens = [res_monomial(g) for g in colon_width(p, tuple(e), m)
                if g.pi[0] == 1 and not any(g.cols[0])]
        marked = ModulePresentation(p.c, [(d - 1, 0)], gens)

    gens = [res_monomial(g) for g in colon_width(p, tuple(e), m + 1)
            if not (d >= 1 and g.pi[0] == 1) and not any(g.cols[0])]
    unmarked = ModulePresentation(p.c, [(d, 0)], gens)
    return Decomposition(tuple(e), m, marked, unmarked)
