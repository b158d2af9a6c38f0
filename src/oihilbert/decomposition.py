"""Column-splitting decomposition of a quotient by width-wise colon ideals.

Dividing out a power of the first column splits the quotient, one width
down, into a marked part (basis tuple starts at column 1, rank drops) and
an unmarked part (rank kept).  Both parts are again monomial quotients,
read off from colon generators at one fixed width, and the construction
yields the repeated-division identity for the width-wise series.
"""

from collections import namedtuple
from itertools import combinations, product

from .errors import Column1NotEmpty, WidthMismatch
from .oicore import (
    ModulePresentation,
    Monomial,
    WidthSeries,
    colon_width,
    hilbert_width,
    minimalize,
)
from .polyarith import FactoredRational


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
    # variables are adjoined; the rest lose their empty first column
    marked = None
    if d >= 1:
        gens = [res_monomial(g) for g in colon_width(p, tuple(e), m)
                if g.pi[0] == 1 and not any(g.cols[0])]
        marked = ModulePresentation(p.c, [(d - 1, 0)], minimalize(gens))

    gens = [res_monomial(g) for g in colon_width(p, tuple(e), m + 1)
            if not (d >= 1 and g.pi[0] == 1) and not any(g.cols[0])]
    unmarked = ModulePresentation(p.c, [(d, 0)], minimalize(gens))
    return Decomposition(tuple(e), m, marked, unmarked)


def _column1_generators(c, d, n, summand=0):
    """Width-n generators of the submodule spanned by column-1 variables."""
    out = []
    zero_col = (0,) * c
    for pi in combinations(range(1, n + 1), d):
        for i in range(c):
            col1 = tuple(1 if r == i else 0 for r in range(c))
            cols = (col1,) + (zero_col,) * (n - 1)
            out.append(Monomial(c, n, cols, pi, summand))
    return out


def _column1_all_summands(p, n):
    out = []
    for k, (d, _) in enumerate(p.summands):
        out.extend(_column1_generators(p.c, d, n, k))
    return out


def sliced_quotient_dims(p, e, n, j_max):
    """Degree dims of F_n / (M_n : x1^e + (column 1)F_n)."""
    gens = colon_width(p, tuple(e), n) + _column1_all_summands(p, n)
    pn = p.with_generators(minimalize(gens))
    return hilbert_width(pn, n).dims(j_max)


def verify_decomposition(p, e, n, j_max):
    """Check the width-n slice identity: the colon-plus-column-1 quotient
    matches marked + unmarked parts one width down.  Needs n >= m+1."""
    dec = compute_decomposition(p, e)
    if n < dec.m + 1:
        raise WidthMismatch(f"identity needs width > {dec.m}")
    lhs = sliced_quotient_dims(p, e, n, j_max)
    rhs = [0] * (j_max + 1)
    if dec.marked is not None:
        for j, v in enumerate(hilbert_width(dec.marked, n - 1).dims(j_max)):
            rhs[j] += v
    for j, v in enumerate(hilbert_width(dec.unmarked, n - 1).dims(j_max)):
        rhs[j] += v
    return lhs == rhs, lhs, rhs


def division_exponent_bound(p):
    """One more than the largest column-1 exponent among minimal
    generators; dividing by that power always clears column 1."""
    r = 0
    for g in minimalize(p.generators):
        if g.width >= 1:
            r = max(r, max(g.cols[0]))
    return r + 1


def repeated_division_sides(p, n):
    """Both sides of the width-n series identity obtained by dividing out
    all column-1 powers up to the clearing bound.

    Returns (lhs, rhs) as FactoredRationals in t, equal when
    (lhs - rhs).is_zero(); the right side sums t^|e| / (1-t)^(count of
    saturated entries) times the sliced quotient over all exponent
    vectors e in [0, r]^c.
    """
    r = division_exponent_bound(p)
    lhs = hilbert_width(p, n).as_rational()
    rhs = FactoredRational.zero()
    col1 = _column1_all_summands(p, n)
    for e in product(range(r + 1), repeat=p.c):
        gens = colon_width(p, e, n) + col1
        part = hilbert_width(p.with_generators(minimalize(gens)), n)
        gamma = sum(1 for x in e if x == r)
        rhs = rhs + WidthSeries(part.num.shift(sum(e)),
                                part.den_pow + gamma).as_rational()
    return lhs, rhs
