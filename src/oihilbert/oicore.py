"""Core objects: monomials of free modules over the polynomial algebra with c
variable rows per column, OI-divisibility, module presentations, and the
width-wise (classical) Hilbert machinery used as the slow oracle.

A width-n monomial is x^u e_pi: an exponent matrix u with c rows and n columns
together with a strictly increasing basis tuple pi of length d (the rank
parameter of its free summand). Width-wise, the free module at width n has one
polynomial-ring summand per strictly increasing tuple [d] -> [n].
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
from math import comb
from operator import le

from .errors import (
    NotAnIdeal,
    SummandMismatch,
    WidthMismatch,
    ZeroElement,
)
from .polyarith import UniPoly


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
    """Images (eps(1), ..., eps(g.width)) of an order-embedding eps with
    eps(g.pi) = m.pi and exponents of g fitting under those of m column by
    column; None when no such embedding exists."""
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
    return tuple(values)


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
    generator order, as (summand, basis tuple, last column, degree, flat
    tuple).  The flat tuple is the image's exponent matrix column-major;
    only the generator's nonzero columns are written into a copy of the
    zero list.  The last column is the largest one the embedding uses
    (0 for a width-0 generator): the image is one at every width from
    there on, its flat tuple padded with zero columns.  An image of a
    valid generator is valid by construction, so nothing is checked
    again here."""
    c = p.c
    zero = [0] * (c * n)
    for g in p.generators:
        nonzero = [(k, col) for k, col in enumerate(g.cols) if any(col)]
        degree = g.degree
        for values in itertools.combinations(range(n), g.width):
            flat = zero.copy()
            for k, col in nonzero:
                at = values[k] * c
                flat[at:at + c] = col
            yield (g.summand, tuple(values[k - 1] + 1 for k in g.pi),
                   values[-1] + 1 if values else 0, degree, tuple(flat))


def expand_to_width(p, n):
    """Width-n generating set of the submodule: every distinct
    order-embedding image of the presentation's generators, in generator
    order.  The set need not be minimal; pass it to `minimalize` for that."""
    c = p.c
    return list(dict.fromkeys(
        Monomial(c, n, [flat[at:at + c] for at in range(0, c * n, c)],
                 pi, summand)
        for summand, pi, _, _, flat in _images(p, n)))


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
    g's, which the support masks test before any exponent is compared."""
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


def _canonical(gens):
    """The ideal with the variables no generator uses dropped and the
    others reordered: the nonzero columns of the sorted generators,
    sorted.  Equal forms mean equal numerators, as a permutation of the
    variables or an unused variable leaves the numerator over
    (1-t)^(#variables) unchanged; ideals that differ only so may still
    get different forms."""
    cols = sorted(col for col in zip(*sorted(gens)) if any(col))
    return frozenset(zip(*cols))


def kpoly(gens, memo=None):
    """Numerator of the quotient's Hilbert series over (1-t)^(#variables),
    for the monomial ideal generated by the given exponent tuples.

    The recursion splits on a pivot variable x over all its powers at
    once (`_split`), so it only enters ideals without x.  memo maps
    minimal generating sets to numerators, each set under its own key and
    under its canonical form (`_canonical`), on which the recursion runs;
    pass one dict to share it across calls, as ideals of different widths
    share canonical forms."""
    return _kpoly(_min_tuples(gens), {} if memo is None else memo)


def _kpoly(gens, memo):
    if not gens:
        return UniPoly.one()
    out = memo.get(gens)
    if out is not None:
        return out
    if (0,) * len(next(iter(gens))) in gens:
        out = UniPoly.zero()
    else:
        key = _canonical(gens)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _split(key, memo)
    memo[gens] = out
    return out


def _split(gens, memo):
    """The numerator of a proper nonzero ideal, from its components or
    its pivot split.

    Unrolling H(I) = H(I + <x>) + t H(I : x) over the powers of the
    pivot x gives H(I) = sum_(i<k) t^i H((I : x^i) + <x>) + t^k H(I : x^k),
    k the pivot's top exponent, so the recursion enters only ideals
    without x and its depth is bounded by the number of variables.
    (I : x^i) + <x> is generated by x and the g with g[piv] <= i, their
    x-exponent dropped, and changes only where i reaches such a g[piv];
    each run of equal terms is one product with t^lo + ... + t^(hi-1)."""
    comps = _components(gens)
    if len(comps) > 1:
        out = UniPoly.one()
        for comp in comps:
            out = out * _kpoly(frozenset(comp), memo)
        return out
    if len(gens) == 1:
        (g,) = gens
        return UniPoly.one() - UniPoly.one().shift(sum(g))
    nvars = len(next(iter(gens)))
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    piv = max(range(nvars), key=counts.__getitem__)
    unit = (0,) * piv + (1,) + (0,) * (nvars - piv - 1)
    levels = sorted({g[piv] for g in gens} | {0})
    out = UniPoly.zero()
    for lo, hi in zip(levels, levels[1:]):
        plus = _min_tuples(g[:piv] + (0,) + g[piv + 1:]
                           for g in gens if g[piv] <= lo) | {unit}
        run = UniPoly((0,) * lo + (1,) * (hi - lo))
        out = out + _kpoly(plus, memo) * run
    colon = _min_tuples(g[:piv] + (0,) + g[piv + 1:] for g in gens)
    return out + _kpoly(colon, memo).shift(levels[-1])


class WidthSeries:
    """A width-n Hilbert series held as numerator over (1-t)^den_pow."""

    __slots__ = ("num", "den_pow")

    def __init__(self, num, den_pow):
        self.num = num
        self.den_pow = den_pow

    def dims(self, j_max):
        """Coefficients of the series for degrees 0..j_max: the
        numerator's, through den_pow running sums."""
        out = list(self.num.coeffs[:j_max + 1])
        out += [0] * (j_max + 1 - len(out))
        for _ in range(self.den_pow):
            out = list(itertools.accumulate(out))
        return out

    def __repr__(self):
        return f"WidthSeries({self.num!r} / (1-t)^{self.den_pow})"


class _Group:
    """The images of one (summand, basis tuple) at the top width: distinct
    flat tuples ordered by the smallest last column that gives each, the
    length of their leading run of one degree, and the numerator of the
    prefix the last width used (1 for none: no image, a free summand)."""

    __slots__ = ("shift", "flats", "uniform", "num")

    def __init__(self, shift, images):
        self.shift = shift
        self.flats = [flat for _, _, flat in images]
        degrees = [degree for _, degree, _ in images]
        self.uniform = next((k for k, deg in enumerate(degrees)
                             if deg != degrees[0]), len(degrees))
        self.num = UniPoly.one()

    def numerator(self, k, memo):
        """kpoly of the first k images.  Images of one degree cannot
        properly divide each other and the flat tuples are distinct, so
        such a prefix is its own minimal generating set."""
        if k <= self.uniform:
            return _kpoly(frozenset(self.flats[:k]), memo)
        return kpoly(self.flats[:k], memo)


def _image_groups(p, n_top):
    """The images at width n_top per (summand, basis tuple), and for each
    width n <= n_top the groups whose prefix of images with last column
    <= n grows there, as (group, prefix length) pairs."""
    firsts = {}
    for summand, pi, last, degree, flat in _images(p, n_top):
        seen = firsts.setdefault((summand, pi), {})
        if flat not in seen or last < seen[flat][0]:
            seen[flat] = (last, degree)
    grows = [[] for _ in range(n_top + 1)]
    for (summand, _), seen in firsts.items():
        images = sorted(((last, degree, flat)
                         for flat, (last, degree) in seen.items()),
                        key=lambda image: image[0])
        group = _Group(p.shift_of(summand), images)
        for k, (last, _, _) in enumerate(images, 1):
            if k == len(images) or images[k][0] != last:
                grows[last].append((group, k))
    return grows


def _add_shifted(out, poly, shift, sign):
    """out += sign * t^shift * poly, on a coefficient list."""
    need = shift + len(poly.coeffs) - len(out)
    if need > 0:
        out.extend([0] * need)
    for i, cf in enumerate(poly.coeffs, shift):
        out[i] += sign * cf


def _width_series(p, n_top, widths, quotient):
    """WidthSeries at each of the ascending widths <= n_top, from one
    enumeration of the images at n_top.  Width n takes, per group, the
    images whose last column is <= n: the padded zero columns are unused
    variables, which leave a numerator over (1-t)^(#variables) unchanged.
    A group's numerator is recomputed only at a width where its prefix
    grows, and the ideal's numerator, every shift applied, is kept as one
    coefficient list that such a width updates by old minus new."""
    if any(shift < 0 for _, shift in p.summands):
        raise WidthMismatch("width-wise series needs nonnegative shifts")
    memo = {}
    grows = _image_groups(p, n_top)
    wanted = set(widths)
    pending = {}
    ideal = []
    out = []
    for n in range(n_top + 1):
        pending.update(grows[n])
        if n not in wanted:
            continue
        for group, k in pending.items():
            num = group.numerator(k, memo)
            _add_shifted(ideal, group.num, group.shift, 1)
            _add_shifted(ideal, num, group.shift, -1)
            group.num = num
        pending.clear()
        if quotient:
            num = [-cf for cf in ideal]
            for d, shift in p.summands:
                _add_shifted(num, UniPoly((comb(n, d),)), shift, 1)
        else:
            num = ideal
        out.append(WidthSeries(UniPoly(num), p.c * n))
    return out


def hilbert_widths(p, n_max, quotient=True):
    """Classical Hilbert series at every width 0..n_max, as the oracle
    route computes them: enumerate the generators' images once, at
    n_max, as flat exponent tuples, group them per (summand, basis tuple),
    and recurse on each group's monomial ideal with one `kpoly` memo for
    the call.  At one width the only order-embedding is the identity, so
    OI-divisibility inside a group is divisibility of exponent tuples,
    which `kpoly` minimalizes.  A basis tuple with no image is a free
    summand, numerator 1."""
    return _width_series(p, n_max, range(n_max + 1), quotient)


def hilbert_width(p, n, quotient=True):
    """Classical Hilbert series at width n alone: `hilbert_widths`'s
    engine asked for one width."""
    (ws,) = _width_series(p, n, (n,), quotient)
    return ws


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
