"""Core objects: order-preserving injections, monomials of free modules over
the polynomial algebra with c variable rows per column, module presentations,
and the width-wise (classical) Hilbert machinery used as the slow oracle.

A width-n monomial is x^u e_pi: an exponent matrix u with c rows and n columns
together with a strictly increasing basis tuple pi of length d (the rank
parameter of its free summand). Width-wise, the free module at width n has one
polynomial-ring summand per strictly increasing tuple [d] -> [n].
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
from math import comb, inf
from operator import le

from .errors import (
    NotAnIdeal,
    SummandMismatch,
    WidthMismatch,
    ZeroElement,
    ZeroModule,
)
from .polyarith import UniPoly, one_minus_t_order


class OIMorphism:
    """A strictly increasing map [m] -> [n], stored as the image tuple."""

    __slots__ = ("src", "dst", "values")

    def __init__(self, src, dst, values):
        values = tuple(values)
        if len(values) != src:
            raise WidthMismatch(f"expected {src} values, got {len(values)}")
        if any(v < 1 or v > dst for v in values):
            raise WidthMismatch(f"images {values} not inside [1..{dst}]")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise WidthMismatch(f"images {values} not strictly increasing")
        self.src = src
        self.dst = dst
        self.values = values

    def __call__(self, j):
        return self.values[j - 1]

    def compose(self, inner):
        """self after inner."""
        if inner.dst != self.src:
            raise WidthMismatch("composition widths do not match")
        return OIMorphism(inner.src, self.dst, tuple(self.values[v - 1] for v in inner.values))

    def __eq__(self, other):
        return (
            isinstance(other, OIMorphism)
            and (self.src, self.dst, self.values) == (other.src, other.dst, other.values)
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.values))

    def __repr__(self):
        return f"OIMorphism({self.src}->{self.dst}, {self.values})"


class Monomial:
    """Monomial element x^u e_pi of a free-module summand.

    cols is the exponent matrix stored column-major: cols[j][i] is the
    exponent of the row-(i+1) variable in column j+1. pi is the basis tuple.
    summand indexes the presentation's free summand the monomial lives in.
    """

    __slots__ = ("c", "summand", "width", "pi", "cols", "_hash")

    def __init__(self, c, width, cols, pi=(), summand=0):
        cols = tuple(tuple(col) for col in cols)
        pi = tuple(pi)
        if len(cols) != width:
            raise WidthMismatch(f"{len(cols)} columns for width {width}")
        if any(len(col) != c for col in cols):
            raise WidthMismatch(f"every column must have {c} entries")
        if any(e < 0 for col in cols for e in col):
            raise ValueError("negative exponent")
        if any(p < 1 or p > width for p in pi):
            raise WidthMismatch(f"basis tuple {pi} not inside [1..{width}]")
        if any(a >= b for a, b in zip(pi, pi[1:])):
            raise WidthMismatch(f"basis tuple {pi} not strictly increasing")
        self.c = c
        self.summand = summand
        self.width = width
        self.pi = pi
        self.cols = cols
        self._hash = None

    @property
    def degree(self):
        return sum(e for col in self.cols for e in col)

    def exp(self, i, j):
        """Exponent of the variable in row i, column j (both 1-based)."""
        return self.cols[j - 1][i - 1]

    def key(self):
        return (self.summand, self.width, self.pi, self.cols)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def var_text(self):
        """The variable product `x[1,1]^2*x[2,3]`, column by column; `1`
        for the unit."""
        vars_ = [
            f"x[{i + 1},{j + 1}]" + (f"^{e}" if e > 1 else "")
            for j, col in enumerate(self.cols)
            for i, e in enumerate(col)
            if e
        ]
        return "*".join(vars_) if vars_ else "1"

    def __repr__(self):
        return (f"Monomial({self.var_text()} e{list(self.pi)} "
                f"w{self.width} k{self.summand})")


def _col_le(a, b):
    return all(x <= y for x, y in zip(a, b))


def find_embedding(g, m):
    """Order-embedding eps with eps(g.pi) = m.pi and exponents of g fitting
    under those of m column by column; None when no such embedding exists."""
    if g.summand != m.summand:
        raise SummandMismatch(f"summand {g.summand} vs {m.summand}")
    if g.width > m.width or len(g.pi) != len(m.pi):
        return None
    values = [0] * g.width
    gp = (0,) + g.pi + (g.width + 1,)
    mp = (0,) + m.pi + (m.width + 1,)
    for k, (a, b) in enumerate(zip(g.pi, m.pi)):
        if not _col_le(g.cols[a - 1], m.cols[b - 1]):
            return None
        values[a - 1] = b
    for seg in range(len(gp) - 1):
        target = mp[seg] + 1
        for gc in range(gp[seg] + 1, gp[seg + 1]):
            col = g.cols[gc - 1]
            while target < mp[seg + 1] and not _col_le(col, m.cols[target - 1]):
                target += 1
            if target >= mp[seg + 1]:
                return None
            values[gc - 1] = target
            target += 1
    return OIMorphism(g.width, m.width, values)


def oi_divides(g, m):
    """True iff m lies in the submodule generated by g."""
    return find_embedding(g, m) is not None


def minimalize(mons):
    """Minimal generating set: drop duplicates and anything another generator
    divides. Monomials in different summands never divide each other."""
    seen = []
    for mon in sorted(set(mons), key=lambda g: (g.width, g.degree, g.key())):
        if not any(
            k.summand == mon.summand and oi_divides(k, mon) for k in seen
        ):
            seen.append(mon)
    return seen


class ModulePresentation:
    """A finite monomial presentation inside a direct sum of free summands.

    summands is a tuple of (d, shift) pairs: rank parameter and degree shift
    of each free summand. generators live in those summands. category is
    "OI" or "FI"; FI data must be symmetrized before the OI machinery runs.
    """

    __slots__ = ("c", "summands", "generators", "category")

    def __init__(self, c, summands, generators, category="OI"):
        if c < 1:
            raise ValueError("c must be >= 1")
        summands = tuple((int(d), int(sh)) for d, sh in summands)
        if not summands:
            raise ValueError("at least one free summand is required")
        if any(d < 0 for d, _ in summands):
            raise ValueError("summand rank parameters must be >= 0")
        if category not in ("OI", "FI"):
            raise ValueError(f"unknown category {category!r}")
        generators = tuple(generators)
        for g in generators:
            if g.c != c:
                raise ValueError(f"generator row count {g.c} != c = {c}")
            if not 0 <= g.summand < len(summands):
                raise ValueError(f"generator summand {g.summand} out of range")
            if len(g.pi) != summands[g.summand][0]:
                raise ValueError(
                    f"generator basis tuple length {len(g.pi)} != d = {summands[g.summand][0]}"
                )
        self.c = c
        self.summands = summands
        self.generators = generators
        self.category = category

    def shift_of(self, k):
        return self.summands[k][1]

    def with_generators(self, gens):
        return ModulePresentation(self.c, self.summands, gens, self.category)

    def __repr__(self):
        return (
            f"ModulePresentation(c={self.c}, summands={self.summands}, "
            f"{len(self.generators)} generators, {self.category})"
        )


def _images(p, n):
    """Every order-embedding image of each generator at width n, in
    generator order, as (summand, basis tuple, list of columns).  An image
    of a valid generator is valid by construction, so nothing is checked
    again here."""
    zero = (0,) * p.c
    for g in p.generators:
        for values in itertools.combinations(range(n), g.width):
            cols = [zero] * n
            for v, col in zip(values, g.cols):
                cols[v] = col
            yield g.summand, tuple(values[k - 1] + 1 for k in g.pi), cols


def expand_to_width(p, n):
    """Width-n generating set of the submodule: every distinct
    order-embedding image of the presentation's generators, in generator
    order.  The set need not be minimal; pass it to `minimalize` for that."""
    return list(dict.fromkeys(
        Monomial(p.c, n, cols, pi, summand)
        for summand, pi, cols in _images(p, n)))


# ---------------------------------------------------------------------------
# width-wise Hilbert machinery (the slow oracle)
#
# A monomial ideal of the polynomial ring is held as a frozenset of flat
# exponent tuples; its support mask has bit i set when variable i occurs.

def _masks(gens):
    """Support mask of each tuple of the list, in order."""
    bits = [1 << i for i in range(len(gens[0]))] if gens else []
    return [sum(itertools.compress(bits, g)) for g in gens]


def _min_tuples(gens):
    """Minimal generating set of the ideal the exponent tuples generate.

    Tuples are visited by degree, so every divisor of a tuple is seen
    before it.  A kept tuple h can divide g only when h's support lies in
    g's, which the support masks test before any exponent is compared.
    `_kpoly` calls this on colon ideals only: its "plus" ideals are
    minimal as written (see there)."""
    gens = sorted(gens, key=lambda t: (sum(t), t))
    kept = []
    for m, g in zip(_masks(gens), gens):
        for hm, h in kept:
            if not hm & ~m and all(map(le, h, g)):
                break
        else:
            kept.append((m, g))
    return frozenset(g for _, g in kept)


def _components(gens):
    """Partition generators into groups with disjoint variable support.

    Groups are kept with the union of their members' masks; each new
    generator merges every group its mask meets, so the groups stay
    pairwise disjoint."""
    gens = list(gens)
    groups = []
    for m, g in zip(_masks(gens), gens):
        members = [g]
        rest = []
        for gm, gs in groups:
            if gm & m:
                m |= gm
                members += gs
            else:
                rest.append((gm, gs))
        rest.append((m, members))
        groups = rest
    return [gs for _, gs in groups]


def kpoly(gens, memo=None):
    """Numerator of the quotient's Hilbert series over (1-t)^(#variables),
    for the monomial ideal generated by the given exponent tuples.

    The recursion splits on a pivot variable x: H(I) = H(I + <x>) +
    t H(I : x).  I + <x> is written down minimal, since a minimal G gives
    the minimal {g in G : x does not divide g} + {x}; only I : x is
    minimalized.  memo maps minimal generating sets to numerators; pass
    one dict to share it across calls."""
    return _kpoly(_min_tuples(gens), {} if memo is None else memo)


def _kpoly(gens, memo):
    if not gens:
        return UniPoly.one()
    hit = memo.get(gens)
    if hit is not None:
        return hit
    nvars = len(next(iter(gens)))
    if (0,) * nvars in gens:
        out = UniPoly.zero()
    else:
        comps = _components(gens)
        if len(comps) > 1:
            out = UniPoly.one()
            for comp in comps:
                out = out * _kpoly(frozenset(comp), memo)
        elif len(gens) == 1:
            (g,) = gens
            out = UniPoly.one() - UniPoly.one().shift(sum(g))
        else:
            counts = [len(col) - col.count(0) for col in zip(*gens)]
            piv = max(range(nvars), key=counts.__getitem__)
            unit = (0,) * piv + (1,) + (0,) * (nvars - piv - 1)
            # G is minimal without the zero tuple: x_piv divides exactly
            # the g with g[piv] > 0, and its only nonzero divisor is
            # itself, so no kept tuple divides another.
            plus = frozenset([g for g in gens if not g[piv]] + [unit])
            colon = _min_tuples(
                g[:piv] + (g[piv] - 1,) + g[piv + 1:] if g[piv] else g
                for g in gens)
            out = _kpoly(plus, memo) + UniPoly((0, 1)) * _kpoly(colon, memo)
    memo[gens] = out
    return out


class WidthSeries:
    """A width-n Hilbert series held as numerator over (1-t)^den_pow."""

    __slots__ = ("num", "den_pow")

    def __init__(self, num, den_pow):
        self.num = num
        self.den_pow = den_pow

    def dims(self, j_max):
        """Coefficients of the series for degrees 0..j_max."""
        inv = [comb(self.den_pow + k - 1, k) if self.den_pow else (1 if k == 0 else 0)
               for k in range(j_max + 1)]
        cs = self.num.coeffs
        return [
            sum(cs[a] * inv[j - a] for a in range(min(j, len(cs) - 1) + 1))
            for j in range(j_max + 1)
        ]

    def align(self, other):
        p = max(self.den_pow, other.den_pow)
        omt = UniPoly((1, -1))
        a = self.num * omt ** (p - self.den_pow)
        b = other.num * omt ** (p - other.den_pow)
        return a, b, p

    def __add__(self, other):
        a, b, p = self.align(other)
        return WidthSeries(a + b, p)

    def __sub__(self, other):
        a, b, p = self.align(other)
        return WidthSeries(a - b, p)

    def shift(self, k):
        return WidthSeries(self.num.shift(k), self.den_pow)

    def over_one_minus_t(self, gamma):
        return WidthSeries(self.num, self.den_pow + gamma)

    def equals(self, other):
        a, b, _ = self.align(other)
        return a == b

    def reduce(self):
        """(numerator with the root t=1 removed, pole order at t=1)."""
        num, k = one_minus_t_order(self.num)
        return num, self.den_pow - k

    def __repr__(self):
        return f"WidthSeries({self.num!r} / (1-t)^{self.den_pow})"


def _free_width_numerator(p, n):
    num = UniPoly.zero()
    for d, shift in p.summands:
        num = num + UniPoly.const(comb(n, d)).shift(shift)
    return num


def hilbert_width(p, n, quotient=True):
    """Classical Hilbert series at width n, as the oracle route computes it:
    enumerate the generators' images as flat exponent tuples, group them
    per (summand, basis tuple), and recurse on each group's monomial ideal
    with one `kpoly` memo for the call.  Each group is minimalized once,
    in `kpoly`: at one width the only order-embedding is the identity, so
    OI-divisibility inside a group is divisibility of exponent tuples.  In
    the recursion only colon ideals are minimalized again, since the
    "plus" ideal of a minimal set is minimal as written (see `kpoly`).
    A basis tuple with no generator is a free summand, numerator 1."""
    if any(shift < 0 for _, shift in p.summands):
        raise WidthMismatch("width-wise series needs nonnegative shifts")
    comps = {}
    for summand, pi, cols in _images(p, n):
        comps.setdefault((summand, pi), set()).add(
            tuple(itertools.chain.from_iterable(cols)))
    memo = {}
    ideal = UniPoly.zero()
    for (k, _), gens in comps.items():
        ideal = ideal + (UniPoly.one() - kpoly(gens, memo)).shift(p.shift_of(k))
    if quotient:
        return WidthSeries(_free_width_numerator(p, n) - ideal, p.c * n)
    return WidthSeries(ideal, p.c * n)


def dim_deg_width(p, n, quotient=True):
    """Krull dimension and multiplicity of the width-n component."""
    ws = hilbert_width(p, n, quotient)
    num, pole = ws.reduce()
    if num.is_zero():
        raise ZeroModule(f"width-{n} component is zero")
    return pole, num(1)


def colon_width(p, e, n):
    """Width-n generators of (M_n : x^e), where x^e is the degree-|e| monomial
    with exponent e_i on the row-i variable of column 1."""
    if len(e) != p.c:
        raise WidthMismatch(f"colon exponent needs {p.c} entries")
    out = []
    for m in expand_to_width(p, n):
        col1 = tuple(max(0, a - b) for a, b in zip(m.cols[0], e))
        out.append(Monomial(m.c, m.width, (col1,) + m.cols[1:], m.pi, m.summand))
    return minimalize(out)


class SizeInvariants:
    __slots__ = ("wi_plus", "e_plus", "si")

    def __init__(self, wi_plus, e_plus, si):
        self.wi_plus = wi_plus
        self.e_plus = e_plus
        self.si = si

    def __repr__(self):
        return f"SizeInvariants(wi+={self.wi_plus}, e+={self.e_plus}, si={self.si})"


def size_invariants(p):
    """Maximal generator width, maximal degree of a minimal generator at
    that width, and the size count used by the decomposition comparisons."""
    gens = minimalize(p.generators)
    if not gens:
        return SizeInvariants(-inf, -inf, inf)
    wi = max(g.width for g in gens)
    top = minimalize(expand_to_width(p, wi))
    e_plus = max(g.degree + p.shift_of(g.summand) for g in top)
    dims = hilbert_width(p, wi, quotient=True).dims(e_plus)
    return SizeInvariants(wi, e_plus, sum(dims))


# ---------------------------------------------------------------------------
# monomial order

def compare_monomials(a, b):
    """Total order: basis part first (smaller summand index wins; then the
    (width, pi) tuple lexicographically), then the coefficient monomial in
    lexicographic order with variables sorted by column, then row."""
    if a.summand != b.summand:
        return 1 if a.summand < b.summand else -1
    ka = (a.width,) + a.pi
    kb = (b.width,) + b.pi
    if ka != kb:
        return 1 if ka > kb else -1
    for j in range(a.width, 0, -1):
        for i in range(a.c, 0, -1):
            ea, eb = a.exp(i, j), b.exp(i, j)
            if ea != eb:
                return 1 if ea > eb else -1
    return 0


def leading_monomial(terms):
    """Largest monomial among (coeff, Monomial) pairs with nonzero coeff."""
    live = [m for cf, m in terms if cf]
    if not live:
        raise ZeroElement("no nonzero term")
    return max(live, key=cmp_to_key(compare_monomials))


def symmetrize_fi_ideal(p):
    """Replace symmetric-group orbits by their order-increasing generators.

    Only rank-zero summands (ideals) are supported: every injection factors
    as an order-embedding after a permutation of the source, so the orbit of
    each generator under column permutations generates the same width-wise
    components as the full injection orbit.
    """
    if p.category != "FI":
        raise NotAnIdeal("presentation is not FI")
    if any(d != 0 for d, _ in p.summands):
        raise NotAnIdeal("FI symmetrization supports rank-zero summands only")
    gens = []
    for g in p.generators:
        for cols in set(itertools.permutations(g.cols)):
            gens.append(Monomial(g.c, g.width, cols, (), g.summand))
    gens = minimalize(gens)
    gens.sort(key=lambda m: m.key())
    return ModulePresentation(p.c, p.summands, gens, "OI")
