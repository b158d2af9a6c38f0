"""Shared brute-force enumerators and order-embeddings used by unit and
acceptance tests.

These intentionally avoid the package's own language/automata machinery so
they can serve as independent oracles: words are produced straight from the
structural description (sorted variable runs, weakly increasing marker
indices covering 1..d, then zeros), monomials by direct enumeration.
"""

import itertools

from oihilbert.errors import WidthMismatch
from oihilbert.oicore import Monomial


def sorted_runs(c, max_len):
    """All weakly increasing variable-letter tuples with length <= max_len."""
    out = [()]
    for length in range(1, max_len + 1):
        for comb in itertools.combinations_with_replacement(range(1, c + 1), length):
            out.append(comb)
    return out


def marker_patterns(d, m):
    """All marker-index tuples of length m: weakly increasing over 1..d
    covering all of 1..d, then zeros."""
    if m == 0:
        return [()] if d == 0 else []
    out = []
    # l = number of positive entries, composed of d values each appearing >= 1
    for l in range(d, m + 1):
        if d == 0:
            if l == 0:
                out.append((0,) * m)
            continue
        # weakly increasing surjections [l] -> [d]: choose multiplicities
        for cuts in itertools.combinations(range(1, l), d - 1):
            parts = []
            prev = 0
            for cut in cuts + (l,):
                parts.append(cut - prev)
                prev = cut
            seq = []
            for idx, mult in enumerate(parts, start=1):
                seq.extend([idx] * mult)
            out.append(tuple(seq) + (0,) * (m - l))
    if d == 0:
        out = [(0,) * m]
    return out


def lstd_words(c, d, max_tau, max_xi):
    """Every standard word with at most max_tau markers and max_xi variables."""
    words = []
    runs_cache = sorted_runs(c, max_xi)
    for m in range(0, max_tau + 1):
        for pattern in marker_patterns(d, m):
            # distribute variable letters into the m blocks before markers
            def rec(block, used, acc):
                if block == m:
                    words.append(tuple(acc))
                    return
                for run in runs_cache:
                    if used + len(run) > max_xi:
                        continue
                    rec(block + 1, used + len(run), acc + list(run) + [-pattern[block]])
            rec(0, 0, [])
    return words


def all_monomials(c, d, width, max_deg, summand=0):
    """Every width-`width` monomial with total degree <= max_deg."""
    if width < d:
        return []
    out = []
    ncells = c * width
    pis = list(itertools.combinations(range(1, width + 1), d))
    exps = []

    def rec(cell, left, acc):
        if cell == ncells:
            exps.append(tuple(acc))
            return
        for e in range(left + 1):
            rec(cell + 1, left - e, acc + [e])

    rec(0, max_deg, [])
    for flat in exps:
        cols = tuple(tuple(flat[j * c + i] for i in range(c)) for j in range(width))
        for pi in pis:
            out.append(Monomial(c, width, cols, pi, summand))
    return out


def brute_divides(g, m):
    """Divisibility by trying every order-embedding, with no pruning."""
    if g.summand != m.summand or g.width > m.width or len(g.pi) != len(m.pi):
        return False
    for values in itertools.combinations(range(1, m.width + 1), g.width):
        if tuple(values[p - 1] for p in g.pi) != m.pi:
            continue
        ok = True
        for j, col in enumerate(g.cols):
            target = m.cols[values[j] - 1]
            if any(a > b for a, b in zip(col, target)):
                ok = False
                break
        if ok:
            return True
    return False


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


def apply_morphism(eps, mon):
    """Push a monomial along an order-embedding into a larger width, as a
    Monomial built and checked column by column."""
    if eps.src != mon.width:
        raise WidthMismatch(f"morphism source {eps.src} != monomial width {mon.width}")
    zero = (0,) * mon.c
    cols = [zero] * eps.dst
    for j, col in enumerate(mon.cols):
        cols[eps.values[j] - 1] = col
    pi = tuple(eps.values[p - 1] for p in mon.pi)
    return Monomial(mon.c, eps.dst, cols, pi, mon.summand)
