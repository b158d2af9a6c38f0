"""The column automaton: one summand's series by the first-column
recursion over its derived ideals.

Reading the first column of a standard monomial of width n >= 1, its
exponent vector e and whether the basis tuple starts there (the marker),
leaves a standard monomial one width down, and the whole lies in the
ideal I with minimal generators G exactly when the rest lies in a derived
ideal of I:
- unmarked: the rank-d ideal generated by G and the tails of the g in G
  whose first column is at most e and whose basis tuple does not start
  at 1;
- marked (d >= 1): the rank-(d-1) ideal generated by the tails of those
  whose basis tuple starts at 1 and whose first column is at most e.

The derived ideals are the states of an automaton that reads one whole
column per edge.  A tail divides its generator, so no generator of I
divides an unmarked tail, and the unmarked derived ideal contains I,
equal to it only on a self-loop; a marked edge lowers the rank.  The
graph is therefore a DAG plus self-loops, and finite, since every
generator met is a suffix of an original one.  The submodule series of
an ideal q satisfies

    (1-t)^c S_q = (1-t)^c h0 + s sum_r P_qr(t) S_r,

with h0 = 1 for the width-0 unit ideal of rank 0, else 0, and
P_qr / (1-t)^c the sum of t^|e| over the e that lead to r.  Only first
columns at most e matter, so each row of e splits at the first-column
exponents of that row into intervals [a, b), summing to
(t^a - t^b) / (1-t), and a last one [a, oo), summing to t^a / (1-t); a
product of intervals is a cell, and every e of a cell fits the same
generators.  Ideals without generators have the series 0 and are
dropped.  This is the system that `solve_sinks_first` solves, with every
component a lone state, J = c and e_qr = s P_qr.
"""

from operator import sub

from .errors import WidthMismatch
from .oicore import Monomial, _embeds, _layout, minimalize
from .polyarith import (
    ONE_MINUS_T,
    BiPoly,
    FactoredRational,
    solve_sinks_first,
)


def tail(m):
    """Drop the first column; a basis entry at column 1 is removed, the
    others slide down one."""
    if not m.width:
        raise WidthMismatch("a width-0 monomial has no first column")
    pi = m.pi[1:] if m.pi[:1] == (1,) else m.pi
    return Monomial._of(m.c, m.width - 1, m.cols[1:],
                        tuple(x - 1 for x in pi), m.summand)


class Ideals:
    """The generators of one summand's derived ideals, numbered as met.

    Every generator met is a suffix of an original one, so one
    `MaskLayout` holds them all.  Per number the table keeps the
    Monomial, its column masks and their complements, and its width and
    row sums, which a divisor never exceeds.  An ideal is the sorted
    tuple of the numbers of its minimal generators."""

    def __init__(self, c, gens):
        self.layout = _layout(c, gens, 0)
        self.mons, self.masks, self.outs, self.sizes = [], [], [], []
        self.numbers = {}
        self.tails = {}
        self.known = {}  # (a, b) -> whether a divides b

    def number(self, m, masks=None, outs=None, sizes=None):
        """m's number; masks, outs and sizes, when given, are m's own."""
        k = self.numbers.get(m)
        if k is None:
            if masks is None:
                masks = tuple(map(self.layout.column, m.cols))
                outs = tuple(~v for v in masks)
                sizes = (m.width, *map(sum, zip(*m.cols))) if m.cols else (
                    (0,) * (m.c + 1))
            k = self.numbers[m] = len(self.mons)
            self.mons.append(m)
            self.masks.append(masks)
            self.outs.append(outs)
            self.sizes.append(sizes)
        return k

    def tail(self, k):
        """The number of tail(mons[k]), whose masks are k's but the
        first."""
        got = self.tails.get(k)
        if got is None:
            m = self.mons[k]
            got = self.tails[k] = self.number(
                tail(m), self.masks[k][1:], self.outs[k][1:], (
                    m.width - 1, *map(sub, self.sizes[k][1:], m.cols[0])))
        return got

    def divides(self, a, b):
        """Whether a divides b: sizes first, then `oicore._embeds`."""
        got = self.known.get((a, b))
        if got is None:
            got = self.known[a, b] = all(
                map(int.__le__, self.sizes[a], self.sizes[b])) and _embeds(
                self.masks[a], self.mons[a].pi, self.outs[b],
                self.mons[b].pi)
        return got

    def minimal(self, gens):
        """The ideal generated by the Monomials gens."""
        return tuple(sorted(map(self.number, minimalize(list(gens)))))

    def prepare(self, ideal):
        """(fits, tails, marked, kills, covers) for an ideal: fits the
        positions of its generators of width >= 1, and per such position
        k its tail's number, whether its basis tuple starts at 1, the mask
        kills[k] of the positions that are dead whenever k fits, and the
        mask covers[k] of the positions of the same marker whose tail
        makes k's redundant: one that divides it, or the same tail at a
        smaller position.

        An unmarked tail kills each generator it divides, itself
        included (a marked one goes to the other rank and kills none).
        A position j whose generator is unmarked and whose first column
        is at most k's fits whenever k fits, so it is put in kills[k]
        untested.  A tail dividing an unmarked tail divides its
        generator, so only j with k in kills[j] can cover an unmarked
        k."""
        mons = self.mons
        fits = [k for k, g in enumerate(ideal) if mons[g].width]
        tails = {k: self.tail(ideal[k]) for k in fits}
        marked = {k: mons[ideal[k]].pi[:1] == (1,) for k in fits}
        below = {k: mons[ideal[k]].cols[0] for k in fits if not marked[k]}
        kills = dict.fromkeys(fits, 0)
        for k, first in below.items():
            t = tails[k]
            for j, g in enumerate(ideal):
                if (j in below and all(map(int.__le__, below[j], first))
                        or self.divides(t, g)):
                    kills[k] |= 1 << j
        covers = {}
        for k in fits:
            t = tails[k]
            covers[k] = sum(1 << j for j in fits if j != k and (
                marked[j] if marked[k] else kills[j] >> k & 1) and (
                j < k if tails[j] == t else self.divides(tails[j], t)))
        return fits, tails, marked, kills, covers

    def derive(self, ideal, prepared, fit):
        """(unmarked, marked) derived ideals for the mask fit of the
        positions whose first column is at most e; marked is the tuple
        of the marked tails' minimal set, whatever the rank."""
        fits, tails, marked, kills, covers = prepared
        dead = 0
        new = [[], []]
        for k in fits:
            if fit >> k & 1:
                dead |= kills[k]
                if not covers[k] & fit:
                    new[marked[k]].append(tails[k])
        unmarked = tuple(sorted(
            [g for j, g in enumerate(ideal) if not dead >> j & 1] + new[0]))
        return unmarked, tuple(sorted(new[1]))


def _cells(c, firsts):
    """(fit mask, {t-exponent: coefficient}) per set of cells of N^c
    that fit the same positions, the second (1-t)^c times the sum of
    t^|e| over those cells, for the first columns firsts of the fitting
    positions (a dict position -> exponents).

    The rows are folded in one at a time, and cells whose fit mask so
    far is equal are merged, since every later row narrows them alike:
    there are at most 2^#positions masks, not prod(cuts + 1) cells."""
    out = {-1: {0: 1}}
    for r in range(c):
        cuts = sorted({col[r] for col in firsts.values()} - {0})
        row = [(a, cuts[i] if i < len(cuts) else None, sum(
            1 << k for k, col in firsts.items() if col[r] <= a))
            for i, a in enumerate([0] + cuts)]
        new = {}
        for fit, terms in out.items():
            for a, b, mask in row:
                acc = new.setdefault(fit & mask, {})
                for e, v in terms.items():
                    acc[e + a] = acc.get(e + a, 0) + v
                    if b is not None:
                        acc[e + b] = acc.get(e + b, 0) - v
        out = new
    return out.items()


def summand_series(c, d, gens):
    """(submodule series, number of derived ideals solved) for the
    monomials gens of one summand of rank d; an ideal without generators
    has the series 0 and counts none."""
    table = Ideals(c, gens)
    root = (d, table.minimal(gens))
    if not root[1]:
        return FactoredRational.zero(), 0
    numbers = {root: 0}  # state -> its number: the solve hashes ints
    rows = {}  # number -> (c, {successor's number or None: entry})
    stack = [root]
    while stack:
        state = stack.pop()
        rank, ideal = state
        prepared = table.prepare(ideal)
        firsts = {k: table.mons[ideal[k]].cols[0] for k in prepared[0]}
        out = {}
        for fit, weight in _cells(c, firsts):
            unmarked, marked = table.derive(ideal, prepared, fit)
            for target in ((rank, unmarked), (rank - 1, marked)):
                if target[1]:
                    acc = out.setdefault(target, {})
                    for e, v in weight.items():
                        acc[e] = acc.get(e, 0) + v
        row = {}
        for target, w in out.items():
            k = numbers.get(target)
            if k is None:
                k = numbers[target] = len(numbers)
                stack.append(target)
            got = [0] * (max(w) + 1)
            for e, v in w.items():
                got[e] = v
            while not got[-1]:
                got.pop()
            row[k] = BiPoly._of(((), tuple(got)))
        if not table.mons[ideal[0]].width:
            row[None] = ONE_MINUS_T ** c
        rows[numbers[state]] = c, row
    return solve_sinks_first(0, rows), len(rows)
