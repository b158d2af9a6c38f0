"""Reference routes that the runtime does not need, kept for the tests:
the right-to-left decoder of words (eta, by shift operators), running a
DFA on one word, the unpruned subset construction, the greatest
simulation as a pairwise fixpoint, Moore minimization, equality of
rational functions by cross-multiplication, the geometric polynomial,
the schoolbook product and per-digit unpacking of bivariate polynomials,
and the paper's pseudo-division criterion for eventual finite length,
written with sympy rather than the package's own polynomial
arithmetic."""

import sympy

from oihilbert.automata import Dfa, empty_dfa
from oihilbert.errors import NotInLanguage
from oihilbert.polyarith import UniPoly
from oihilbert.words import is_xi, tau_index

S, T = sympy.symbols("s t")


def apply_shift(i, exps, positions):
    """The index-i shift operator on a (monomial, positions) pair.

    exps maps (row, column) to exponents; every column moves up by one.
    positions entries at 1-based index >= i increase by one; index 0 leaves
    them all unchanged.
    """
    shifted = {(r, col + 1): e for (r, col), e in exps.items()}
    if i == 0:
        return shifted, tuple(positions)
    return shifted, tuple(p + 1 if k + 1 >= i else p
                          for k, p in enumerate(positions))


def eta(word, c, d):
    """Evaluate a word right to left into an (exponent map, positions) pair."""
    exps = {}
    positions = tuple([0] * d)
    for a in reversed(word):
        if is_xi(a):
            if a > c:
                raise NotInLanguage(f"variable letter x{a} exceeds c = {c}")
            key = (a, 1)
            exps[key] = exps.get(key, 0) + 1
        else:
            j = tau_index(a)
            if j > d:
                raise NotInLanguage(f"marker letter t{j} exceeds d = {d}")
            exps, positions = apply_shift(j, exps, positions)
    return exps, positions


def run_dfa(dfa, word):
    """Whether the DFA accepts the word."""
    if dfa.n == 0:
        return False
    q = dfa.start
    for a in word:
        q = dfa.trans.get((q, a))
        if q is None:
            return False
    return q in dfa.accepts


def subset_dfa(nfa):
    """Subset construction with bitmask states, nothing pruned: the
    reference for automata.determinize, run on the product automaton.
    New subsets are numbered breadth-first in alphabet order."""
    letters = nfa.alphabet
    moves = {}
    for (q, a), dests in nfa.trans.items():
        acc = 0
        for r in dests:
            acc |= 1 << r
        moves.setdefault(q, []).append((a, acc))
    start = 0
    for q in nfa.starts:
        start |= 1 << q
    accept_mask = 0
    for q in nfa.accepts:
        accept_mask |= 1 << q

    if start == 0:
        return empty_dfa(letters)
    ids = {start: 0}
    order = [start]
    trans = {}
    k = 0
    while k < len(order):
        mask = order[k]
        k += 1
        out = {}
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            for a, acc in moves.get(low.bit_length() - 1, ()):
                out[a] = out.get(a, 0) | acc
        for a in letters:
            dest = out.get(a)
            if not dest:
                continue
            if dest not in ids:
                ids[dest] = len(order)
                order.append(dest)
            trans[(ids[mask], a)] = ids[dest]
    accepts = {i for m, i in ids.items() if m & accept_mask}
    return Dfa(letters, len(order), 0, accepts, trans)


def pairwise_simulation(nfa):
    """The greatest direct simulation of nfa as a set of pairs (p, q),
    p <= q: start from all pairs that respect acceptance and delete a pair
    while some edge of p has no matching edge of q, until none goes.  The
    reference for automata._simulation."""
    states = range(nfa.n)
    rel = {(p, q) for p in states for q in states
           if q in nfa.accepts or p not in nfa.accepts}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not all(any((r, r2) in rel
                           for r2 in nfa.trans.get((q, a), ()))
                       for (p1, a), dests in nfa.trans.items() if p1 == p
                       for r in dests):
                rel.discard((p, q))
                changed = True
    return rel


def moore_minimize(dfa):
    """Trim, then Moore partition refinement with the sink kept implicit:
    the reference for automata.minimize."""
    if dfa.n == 0:
        return dfa
    letters = dfa.alphabet
    fwd = {}
    back = {}
    for (q, a), r in dfa.trans.items():
        fwd.setdefault(q, []).append((a, r))
        back.setdefault(r, []).append(q)
    reach = {dfa.start}
    stack = [dfa.start]
    while stack:
        q = stack.pop()
        for _, r in fwd.get(q, ()):
            if r not in reach:
                reach.add(r)
                stack.append(r)
    co = set(dfa.accepts)
    stack = list(co)
    while stack:
        q = stack.pop()
        for p in back.get(q, ()):
            if p not in co:
                co.add(p)
                stack.append(p)
    live = reach & co
    if dfa.start not in live:
        return empty_dfa(letters)

    SINK = -1
    states = sorted(live)
    cls = {SINK: 0}
    for q in states:
        cls[q] = 2 if q in dfa.accepts else 1
    # non-accepting live states start apart from the sink: they reach an
    # accept state, the sink never does, so they can only split further
    while True:
        sigs = {}
        for q in states:
            sig = (cls[q],) + tuple(
                cls[dfa.trans[(q, a)]] if dfa.trans.get((q, a)) in live
                else 0
                for a in letters)
            sigs.setdefault(sig, []).append(q)
        new_cls = {SINK: 0}
        for i, (_, members) in enumerate(sorted(sigs.items()), start=1):
            for q in members:
                new_cls[q] = i
        if new_cls == cls:
            break
        cls = new_cls

    ids = {}
    for q in states:
        ids.setdefault(cls[q], len(ids))
    n = len(ids)
    trans = {}
    accepts = set()
    for q in states:
        me = ids[cls[q]]
        if q in dfa.accepts:
            accepts.add(me)
        for a in letters:
            r = dfa.trans.get((q, a))
            if r in live:
                trans[(me, a)] = ids[cls[r]]
    return Dfa(letters, n, ids[cls[dfa.start]], accepts, trans)


def equals_cross_mul(a, b):
    """Exact equality of two FactoredRationals as rational functions, by
    cross-multiplication."""
    return a.num * b.den_expanded() == b.num * a.den_expanded()


def geometric(e):
    """1 + t + ... + t^e."""
    return UniPoly((1,) * (e + 1))


def schoolbook(a, b):
    """Terms of the BiPoly product a * b, term by term."""
    out = {}
    for (i, j), x in a.terms.items():
        for (k, l), y in b.terms.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
    return {kl: c for kl, c in out.items() if c}


def unpack_digits(val, width, nbytes):
    """BiPoly._unpack one digit at a time, every digit visited: the terms
    of the balanced nbytes-byte digits of val, or None if a digit reaches
    2^(8*nbytes - 2) in absolute value."""
    full = 1 << (8 * nbytes)
    safe = full >> 2
    sign = -1 if val < 0 else 1
    val = abs(val)
    out = {}
    idx = 0
    while val:
        digit = val % full
        val //= full
        if digit >= full >> 1:
            digit -= full
            val += 1
        if digit:
            if abs(digit) >= safe:
                return None
            out[(idx // width, idx % width)] = sign * digit
        idx += 1
    return out


def _expr(b):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in b.terms.items()))


def paper_artinian(rep):
    """Nagel's criterion (arXiv 2006.13083) on the shape report of a reduced
    quotient series g / ((1-t)^a prod_j ((1-t)^k_j - s f_j)): the quotient
    has finite length in every large width exactly when every k_j is 0 and
    (1-t)^a divides the pseudo-remainder in s of g by prod_j (1 - s f_j)."""
    assert rep.conformant, rep.leftover
    if any(tp for tp, _ in rep.factors):
        return False
    den = sympy.Mul(*(1 - S * sympy.Add(*(c * T**k for k, c in enumerate(
        f.coeffs))) for _, f in rep.factors))
    rem = sympy.prem(_expr(rep.numerator), den, S)
    a = rep.one_minus_t_power
    return sympy.rem(rem, (1 - T) ** a, T) == 0
