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
from math import comb

from .errors import NotAnIdeal, WidthMismatch
from .polyarith import mul_into, over


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


def minimalize(mons):
    """Minimal generating set: drop duplicates and anything another generator
    divides, by width, then degree, so a divisor comes first.  Monomials
    in different summands never divide each other."""
    mons = sorted(set(mons), key=lambda g: (g.width, g.degree, g.key()))
    layout = _layout(mons[0].c if mons else 0, mons, 0)
    kept, out = {}, []
    for mon in mons:
        cols = [layout.column(col) for col in mon.cols]
        outs = [~col for col in cols]
        group = kept.setdefault((mon.summand, len(mon.pi)), [])
        if not any(_embeds(g, pi, outs, mon.pi) for g, pi in group):
            group.append((cols, mon.pi))
            out.append(mon)
    return out


def _embeds(g, gpi, outs, mpi):
    """True iff an order-embedding sends gpi to mpi and each column mask
    of g under its image among m's, given by their complements outs.  A
    basis column lands on its fixed target, any other on the first column
    past the last image that holds it: the most room for the rest."""
    fixed = {a - 1: b - 1 for a, b in zip(gpi, mpi)}
    last = -1
    for j, col in enumerate(g):
        at = fixed.get(j)
        if at is None:
            at = last + 1
            while at < len(outs) and col & outs[at]:
                at += 1
            if at == len(outs):
                return False
        elif at <= last or col & outs[at]:
            return False
        last = at
    return True


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


def _images(p, n, place):
    """Every order-embedding image of each generator at width n, in
    generator order, as (summand, basis tuple, last column, image).
    place(g) gives the function that writes g's image from the columns
    (values, 1-based) the embedding sends g's columns to.  The last
    column is the largest one the embedding uses (0 for a width-0
    generator): the image is one at every width from there on, padded
    with zero columns.  An image of a valid generator is valid by
    construction, so nothing is checked again here."""
    for g in p.generators:
        write = place(g)
        basis = [k - 1 for k in g.pi]
        for values in itertools.combinations(range(1, n + 1), g.width):
            yield (g.summand, tuple(map(values.__getitem__, basis)),
                   values[-1] if values else 0, write(values))


def expand_to_width(p, n):
    """Width-n generating set of the submodule: every distinct
    order-embedding image of the presentation's generators, in generator
    order.  The set need not be minimal; pass it to `minimalize` for that.
    No command calls it: the tests do, and the benchmark's tracing looks
    it up by name."""
    c = p.c
    zero = (0,) * c

    def place(g):
        def write(values):
            cols = [zero] * n
            for v, col in zip(values, g.cols):
                cols[v - 1] = col
            return cols
        return write

    return list(dict.fromkeys(
        Monomial(c, n, cols, pi, summand)
        for summand, pi, _, cols in _images(p, n, place)))


# ---------------------------------------------------------------------------
# width-wise Hilbert machinery (the slow oracle)
#
# A monomial of the polynomial ring is held as one int, its exponents in
# bit fields (`MaskLayout`): the exponent e is its field's e low bits.  The
# int is the monomial's polarization, so h divides g exactly when
# h & ~g == 0, two monomials share a variable exactly when they share a
# bit, and a variable's exponent is the popcount of its field.


class MaskLayout:
    """Bit fields of the variables of `ncols` columns of c rows.  Row i's
    field is widths[i] bits wide (0 for a row no generator uses); the
    fields of a column follow each other, and column j starts at bit
    j * stride.  fields lists every nonempty field, lowest bits first."""

    __slots__ = ("stride", "offsets", "fields")

    def __init__(self, widths, ncols):
        offsets = list(itertools.accumulate(widths, initial=0))
        self.stride = offsets.pop()
        self.offsets = offsets
        self.fields = tuple(((1 << w) - 1) << (j * self.stride + at)
                            for j in range(ncols)
                            for at, w in zip(offsets, widths) if w)

    def column(self, col):
        """The mask of one column's exponents, written at column 0."""
        out = 0
        for at, e in zip(self.offsets, col):
            out |= ((1 << e) - 1) << at
        return out


def _layout(c, mons, ncols):
    """The `MaskLayout` of ncols columns that holds every exponent of mons."""
    return MaskLayout(
        [max((col[i] for g in mons for col in g.cols), default=0)
         for i in range(c)], ncols)


def _extend_minimal(gens, new):
    """The minimal generating set of gens and new, gens minimal.  Each
    new mask a kept one divides is dropped; one that stays drops every
    kept mask it divides.  gens itself comes back when nothing is added."""
    out = gens
    for h in new:
        outside = ~h
        for k in out:
            if not k & outside:
                break
        else:
            out = [k for k in out if k & h != h]
            out.append(h)
    return out


def kpoly(gens, layout, memo=None):
    """Numerator of the quotient's Hilbert series over (1-t)^(#variables),
    for the monomial ideal minimally generated by the masks gens, laid
    out by layout.

    The recursion splits on a pivot variable over all its powers at once
    (`_split`), so it only enters ideals without that variable, and nests
    at most once per variable.  memo maps each ideal of two or more
    generators it meets, shifted down by whole columns to the first
    column in use, to its numerator; pass one dict to share it across
    calls.  A mask set is the polarization of every ideal it can stand
    for, and polarization keeps the numerator, so one memo may serve
    different layouts."""
    return _kpoly(list(gens), layout, {} if memo is None else memo)


def _kpoly(gens, layout, memo):
    if not gens:
        return (1,)
    union = 0
    for g in gens:
        union |= g
    if not union:
        return ()
    if len(gens) == 1:
        return (1,) + (0,) * (union.bit_count() - 1) + (-1,)
    low = (union & -union).bit_length() - 1
    shift = low - low % layout.stride
    if shift:
        gens = [g >> shift for g in gens]
        union >>= shift
    key = frozenset(gens)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _split(gens, union, layout, memo)
    return out


def _split(gens, union, layout, memo):
    """The numerator of a minimal ideal of two or more masks, from its
    components or its pivot split.

    Components of disjoint support are merged by OR-ing masks.  A
    connected ideal splits on its most used field x.  Its levels
    l_0 = 0 < l_1 < ... < l_top are 0 and the x-exponents that occur;
    with J_l the minimal set of the generators of x-exponent <= l, x
    dropped, N(I) = sum_i (t^l_i - t^l_(i+1)) N(J_l_i)
    + t^l_top N(J_l_top): H(I) = H(I + <x>) + t H(I : x) unrolled over
    the powers of x."""
    comps = []
    for g in gens:
        members = [g]
        rest = []
        for cm, cs in comps:
            if cm & g:
                g |= cm
                members += cs
            else:
                rest.append((cm, cs))
        rest.append((g, members))
        comps = rest
    if len(comps) > 1:
        out = [1]
        for _, cs in comps:
            if len(cs) > 1:
                out = mul_into([], _kpoly(cs, layout, memo), out)
                continue
            # a lone generator of degree d: out times 1 - t^d, in place
            d = cs[0].bit_count()
            out += [0] * d
            for i in range(len(out) - 1, d - 1, -1):
                out[i] -= out[i - d]
        return tuple(out)
    best = 0
    for field in layout.fields:
        if field > union:
            break
        if field & union:
            count = sum(1 for g in gens if g & field)
            if count > best:
                best, piv = count, field
    levels = {0: []}
    for g in gens:
        levels.setdefault((g & piv).bit_count(), []).append(g & ~piv)
    steps = sorted(levels)
    kept = levels[0]  # J_0: the generators without x, minimal already
    out = []
    for lo, hi in zip(steps, steps[1:]):
        num = _kpoly(kept, layout, memo)
        _add_shifted(out, num, lo, 1)
        _add_shifted(out, num, hi, -1)
        kept = _extend_minimal(kept, levels[hi])
    _add_shifted(out, _kpoly(kept, layout, memo), steps[-1], 1)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class WidthSeries:
    """A width-n Hilbert series held as numerator over (1-t)^den_pow; num
    is a coefficient tuple in t without trailing zeros."""

    __slots__ = ("num", "den_pow")

    def __init__(self, num, den_pow):
        self.num = num
        self.den_pow = den_pow

    def dims(self, j_max):
        """Coefficients of the series for degrees 0..j_max: the
        numerator's, through den_pow running sums."""
        out = list(self.num[:j_max + 1])
        out += [0] * (j_max + 1 - len(out))
        for _ in range(self.den_pow):
            out = over(out)
        return out

    def __repr__(self):
        return f"WidthSeries({self.num!r} / (1-t)^{self.den_pow})"


class _Group:
    """One (summand, basis tuple)'s minimal mask set at the width last
    reached, and its numerator (1 for no mask: a free summand)."""

    __slots__ = ("shift", "gens", "num")

    def __init__(self, shift):
        self.shift = shift
        self.gens = []
        self.num = (1,)


def _image_groups(p, n_top, layout):
    """For each width n <= n_top, the images whose smallest last column
    over all embeddings and generators is n, as (group, masks) pairs, one
    per (summand, basis tuple)."""
    stride = layout.stride

    def place(g):
        parts = [(k, layout.column(col))
                 for k, col in enumerate(g.cols) if any(col)]

        def write(values):
            # column v (1-based) starts at bit (v - 1) * stride
            out = 0
            for k, mask in parts:
                out |= mask << values[k] * stride
            return out >> stride
        return write

    firsts = {}
    for summand, pi, last, mask in _images(p, n_top, place):
        seen = firsts.setdefault((summand, pi), {})
        if last < seen.get(mask, last + 1):
            seen[mask] = last
    grows = [[] for _ in range(n_top + 1)]
    for (summand, _), seen in firsts.items():
        group = _Group(p.shift_of(summand))
        news = {}
        for mask, last in seen.items():
            news.setdefault(last, []).append(mask)
        for last, masks in news.items():
            grows[last].append((group, masks))
    return grows


def _add_shifted(out, coeffs, shift, sign):
    """out += sign * t^shift * coeffs, on coefficient lists."""
    need = shift + len(coeffs) - len(out)
    if need > 0:
        out.extend([0] * need)
    for i, cf in enumerate(coeffs, shift):
        out[i] += sign * cf


def hilbert_widths(p, n_max, quotient=True):
    """Classical Hilbert series at every width 0..n_max, as the oracle
    route computes them: enumerate the generators' images once, at
    n_max, as masks of one `MaskLayout`, group them per (summand, basis
    tuple), and recurse on each group's minimal mask set with one `kpoly`
    memo for the call.  At one width the only order-embedding is the
    identity, so OI-divisibility inside a group is divisibility of
    masks.  A basis tuple with no image is a free summand, numerator 1.

    Width n takes, per group, the images whose last column is <= n: the
    padded zero columns are unused variables, which leave a numerator
    over (1-t)^(#variables) unchanged.  Each group adds a width's new
    images to its minimal set, and its numerator is recomputed only when
    that set changes; the ideal's numerator, every shift applied, is
    kept as one coefficient list that such a width updates by old minus
    new."""
    if any(shift < 0 for _, shift in p.summands):
        raise WidthMismatch("width-wise series needs nonnegative shifts")
    layout = _layout(p.c, p.generators, n_max)
    memo = {}
    ideal = []
    out = []
    for n, grown in enumerate(_image_groups(p, n_max, layout)):
        for group, new in grown:
            gens = _extend_minimal(group.gens, new)
            if gens is group.gens:
                continue
            num = kpoly(gens, layout, memo)
            _add_shifted(ideal, group.num, group.shift, 1)
            _add_shifted(ideal, num, group.shift, -1)
            group.gens, group.num = gens, num
        if quotient:
            num = [-cf for cf in ideal]
            for d, shift in p.summands:
                _add_shifted(num, (comb(n, d),), shift, 1)
        else:
            num = ideal  # trimmed in place below, which keeps its value
        while num and not num[-1]:
            num.pop()
        out.append(WidthSeries(tuple(num), p.c * n))
    return out


def hilbert_width(p, n, quotient=True):
    """Classical Hilbert series at width n alone: the last row of
    `hilbert_widths`."""
    return hilbert_widths(p, n, quotient)[n]


# ---------------------------------------------------------------------------
# monomial order

def order_key(m):
    """Sort key of the monomial order: basis part first (smaller summand
    index wins; then the (width, pi) tuple lexicographically), then the
    coefficient monomial in lexicographic order with variables sorted by
    column, then row, the last column and row highest."""
    return (-m.summand, (m.width,) + m.pi,
            tuple(col[::-1] for col in m.cols[::-1]))


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
    gens = minimalize([Monomial(g.c, g.width, cols, (), g.summand)
                       for g in p.generators for cols in _orderings(g.cols)])
    gens.sort(key=lambda m: m.key())
    return ModulePresentation(p.c, p.summands, gens, "OI")


def _orderings(cols):
    """Every distinct ordering of cols, once each, in increasing order:
    each step makes the next larger one, so repeated columns add none."""
    cols = sorted(cols)
    while True:
        yield tuple(cols)
        i = len(cols) - 2
        while i >= 0 and cols[i] >= cols[i + 1]:
            i -= 1
        if i < 0:
            return
        j = max(k for k in range(i + 1, len(cols)) if cols[k] > cols[i])
        cols[i], cols[j] = cols[j], cols[i]
        cols[i + 1:] = cols[:i:-1]
