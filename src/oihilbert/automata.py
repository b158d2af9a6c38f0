"""Finite automata over the column-word alphabet.

The submodule generated by a monomial is recognized, at the level of
standard words, by a small nondeterministic automaton: between the
generator's own column blocks one may insert whole filler columns (whose
marker index is forced by position), and inside a block one may insert
extra variable letters.  Intersecting with the standard-word language and
determinizing yields a DFA whose transfer matrix gives the bivariate
Hilbert series exactly.
"""

from functools import cache
from itertools import chain
from math import isqrt, prod

from .errors import OihError
from .polyarith import (
    BiPoly,
    FactoredRational,
    bareiss,
    common_denominator,
    exact,
    power_product,
    split_content,
)
from .words import alphabet, encode, is_xi, tau, tau_index


class Nfa:
    """Plain NFA builder; states are 0..n-1, no epsilon edges."""

    def __init__(self, letters):
        self.alphabet = tuple(letters)
        self.n = 0
        self.starts = set()
        self.accepts = set()
        self.trans = {}

    def add_state(self):
        self.n += 1
        return self.n - 1

    def add_edge(self, src, letter, dst):
        self.trans.setdefault((src, letter), set()).add(dst)


class Dfa:
    """Partial DFA: a missing transition is an implicit dead state.

    n == 0 encodes the empty language.
    """

    def __init__(self, letters, n, start, accepts, trans):
        self.alphabet = tuple(letters)
        self.n = n
        self.start = start
        self.accepts = frozenset(accepts)
        self.trans = dict(trans)


EMPTY_ACCEPTS = frozenset()


def empty_dfa(letters):
    return Dfa(letters, 0, -1, EMPTY_ACCEPTS, {})


@cache
def lstd_dfa(c, d):
    """DFA for the language of standard words with c colors, rank d.

    State = (highest marker index so far, zero-markers started, last color
    in the current variable run; 0 right after a marker).  It depends on
    (c, d) alone and nothing mutates a Dfa, so each pair is built once.
    """
    letters = alphabet(c, d)
    start = (0, False, 0)
    ids = {start: 0}
    order = [start]
    trans = {}
    k = 0
    while k < len(order):
        st = order[k]
        level, zeros, lx = st
        k += 1
        for a in letters:
            if is_xi(a):
                if a < lx:
                    continue
                nxt = (level, zeros, a)
            else:
                j = tau_index(a)
                if j == 0:
                    if level != d:
                        continue
                    nxt = (d, True, 0)
                else:
                    if zeros or j not in (level, level + 1):
                        continue
                    nxt = (j, False, 0)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            trans[(ids[st], a)] = ids[nxt]
    accepts = {i for st, i in ids.items() if st[0] == d and st[2] == 0}
    return Dfa(letters, len(order), 0, accepts, trans)


def module_nfa(c, d, gens):
    """NFA for the words of monomials OI-divisible by some generator in
    gens (monomials of one summand of rank d).

    Each generator appends its own states, in order, built from its
    standard word: one hub per column block carrying the filler loops (any
    variables, plus the block's marker index), then a chain consuming the
    block's required letters, with extra-variable loops on every chain
    state.  The trailing hub loops on zero-index markers and accepts.
    Unsorted junk the loops admit is standard-word-filtered later.
    """
    nfa = Nfa(alphabet(c, d))
    xs = [a for a in nfa.alphabet if is_xi(a)]
    for g in gens:
        blocks = []
        req = []
        for a in encode(g):
            if is_xi(a):
                req.append(a)
            else:
                blocks.append((tuple(req), tau_index(a)))
                req = []

        hub = nfa.add_state()
        nfa.starts.add(hub)
        for required, tidx in blocks:
            marker = tau(tidx)
            for x in xs:
                nfa.add_edge(hub, x, hub)
            nfa.add_edge(hub, marker, hub)
            cur = hub
            for a in required:
                nxt = nfa.add_state()
                nfa.add_edge(cur, a, nxt)
                for x in xs:
                    nfa.add_edge(nxt, x, nxt)
                cur = nxt
            hub = nfa.add_state()
            nfa.add_edge(cur, marker, hub)
        for x in xs:
            nfa.add_edge(hub, x, hub)
        nfa.add_edge(hub, tau(0), hub)
        nfa.accepts.add(hub)
    return nfa


def intersect_nfa_dfa(nfa, dfa):
    """Product automaton, reachable part only.

    The runtime no longer builds it: `determinize` forms the product
    subset by subset.  It stays as the tests' reference product, and
    because the benchmark's tracing looks it up by name when a traced run
    starts."""
    out = Nfa(nfa.alphabet)
    if dfa.n == 0:
        return out
    ids = {}
    stack = []
    for p in nfa.starts:
        pair = (p, dfa.start)
        ids[pair] = out.add_state()
        out.starts.add(ids[pair])
        stack.append(pair)
    while stack:
        p, q = stack.pop()
        src = ids[(p, q)]
        if p in nfa.accepts and q in dfa.accepts:
            out.accepts.add(src)
        for a in nfa.alphabet:
            q2 = dfa.trans.get((q, a))
            if q2 is None:
                continue
            for p2 in nfa.trans.get((p, a), ()):
                pair = (p2, q2)
                if pair not in ids:
                    ids[pair] = out.add_state()
                    stack.append(pair)
                out.add_edge(src, a, ids[pair])
    return out


def _simulation(nfa):
    """The greatest direct simulation preorder of nfa, as bitmasks.

    Bit q of sim[p] is set when p <= q: if p accepts, so does q, and every
    edge p -a-> p' is matched by an edge q -a-> q' with p' <= q'.  Then q
    accepts every word p accepts.  pre(a, M), the states with an a-edge
    into M, is assembled from the edges grouped by letter and offset
    r - p: each group keeps its sources whose bit, shifted by the offset,
    lies in M.  A generator NFA is a path with self-loops, so only offsets
    0 and 1 occur.  Starting from the relation that only acceptance
    bounds, each state in descending order is refined until it is stable,
    and whole passes repeat until none changes; this reaches the greatest
    fixpoint on any NFA."""
    n = nfa.n
    accept_mask = 0
    for q in nfa.accepts:
        accept_mask |= 1 << q
    sources = {}
    edges = [[] for _ in range(n)]
    for (p, a), dests in nfa.trans.items():
        for r in dests:
            sources[(a, r - p)] = sources.get((a, r - p), 0) | 1 << p
            edges[p].append((a, r))
    groups = {}
    for (a, off), src in sources.items():
        groups.setdefault(a, []).append((off, src))

    def pre(a, m):
        out = 0
        for off, src in groups[a]:
            out |= (m >> off if off >= 0 else m << -off) & src
        return out

    full = (1 << n) - 1
    sim = [accept_mask if q in nfa.accepts else full for q in range(n)]
    changed = True
    while changed:
        changed = False
        for p in reversed(range(n)):
            while True:
                new = sim[p]
                for a, r in edges[p]:
                    new &= pre(a, sim[r])
                if new == sim[p]:
                    break
                sim[p] = new
                changed = True
    return sim


def determinize(nfa, dfa):
    """Subset construction of the product of nfa with dfa, pruned by
    simulation.

    Every reachable subset of product states shares one state of dfa, so
    a state is a pair (bitmask of nfa states, dfa state) and no product
    automaton is built.  A letter moves a state when dfa has that
    transition and the destination mask is nonempty; a state accepts when
    its mask meets nfa's accepting states and its dfa state accepts.
    Each subset's bits are walked once, collecting its destination mask
    per letter; new states are numbered breadth-first in alphabet order.

    The start mask and every destination mask drop each state p that
    dom[p] meets: the states q != p with p <= q (`_simulation`) and
    either not q <= p or q < p.  That is a strict order, so each mask
    keeps its maximal members, and since q accepts every word p accepts,
    its residual language.  The simulation is a preorder, so p <= q <= p
    exactly when sim[p] == sim[q]; grouping the states by their sim value
    finds these ties, dom[p] keeps the tied states below p, and a mask
    keeps the least state of each tie.  A DFA built breadth-first in
    alphabet order numbers its states by their shortlex-least access
    words, and `minimize` numbers blocks by their smallest live state, so
    the minimal DFA depends only on the language: pruning changes the
    subset DFA, mostly shrinking it, and leaves the minimal one as it
    was."""
    letters = nfa.alphabet
    if dfa.n == 0:
        return empty_dfa(letters)
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
    sim = _simulation(nfa)
    tie = {}  # sim value -> its states, the classes of p <= q <= p
    for q, m in enumerate(sim):
        tie[m] = tie.get(m, 0) | 1 << q
    dom = [m & ~(tie[m] & ~((1 << p) - 1)) for p, m in enumerate(sim)]

    def prune(mask):
        keep = rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if dom[low.bit_length() - 1] & mask:
                keep ^= low
        return keep

    first = (prune(start), dfa.start)
    ids = {first: 0}  # also keyed by unpruned destinations
    order = [first]
    trans = {}
    step = dfa.trans
    k = 0
    while k < len(order):
        mask, q = order[k]
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
            q2 = step.get((q, a))
            if q2 is None:
                continue
            j = ids.get((dest, q2))
            if j is None:
                key = (prune(dest), q2)
                j = ids.get(key)
                if j is None:
                    j = ids[key] = len(order)
                    order.append(key)
                ids[(dest, q2)] = j
            trans[(k, a)] = j
        k += 1
    accepts = {i for i, (m, q) in enumerate(order)
               if m & accept_mask and q in dfa.accepts}
    return Dfa(letters, len(order), 0, accepts, trans)


def minimize(dfa):
    """Trim, then Hopcroft partition refinement of the live part.

    The refinement runs on the partial DFA of the live states (reachable
    and co-reachable), with no sink (Hopcroft 1971; for partial DFAs,
    Valmari and Lehtinen 2008).  It starts from the accepting and the
    other live states, both queued, and splits with per-letter inverse
    transitions between live states.  The worklist holds splitter blocks:
    a block split while queued queues both halves, otherwise only the
    smaller one, which needs only determinism (the preimage of a block is
    the disjoint union of its halves' preimages).  A splitter's members
    are copied before refining with it, as refining can split the splitter
    itself.  Blocks are numbered in order of their smallest state.
    """
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

    states = sorted(live)
    inv = {a: {} for a in letters}
    for (q, a), r in dfa.trans.items():
        if q in live and r in live:
            inv[a].setdefault(r, []).append(q)
    accepting = live & dfa.accepts
    members = [m for m in (accepting, live - accepting) if m]
    blk = {q: b for b, m in enumerate(members) for q in m}
    work = list(range(len(members)))
    queued = set(work)
    while work:
        b = work.pop()
        queued.discard(b)
        splitter = list(members[b])
        for a in letters:
            pre = inv[a]
            hit = {}
            for r in splitter:
                for q in pre.get(r, ()):
                    hit.setdefault(blk[q], []).append(q)
            for y, part in hit.items():
                if len(part) == len(members[y]):
                    continue
                z = len(members)
                members[y].difference_update(part)
                members.append(set(part))
                for q in part:
                    blk[q] = z
                add = (z if y in queued or len(part) <= len(members[y])
                       else y)
                queued.add(add)
                work.append(add)

    ids = {}
    for q in states:
        ids.setdefault(blk[q], len(ids))
    n = len(ids)
    trans = {}
    accepts = set()
    for q in states:
        me = ids[blk[q]]
        if q in dfa.accepts:
            accepts.add(me)
        for a in letters:
            r = dfa.trans.get((q, a))
            if r in live:
                trans[(me, a)] = ids[blk[r]]
    return Dfa(letters, n, ids[blk[dfa.start]], accepts, trans)


def module_dfa(c, d, gens):
    """Minimal DFA for the standard words lying in the submodule
    generated by gens (monomials of one summand of rank d): `module_nfa`,
    determinized together with the standard-word DFA (`determinize` forms
    their product as it goes), then minimized.  Without generators the
    NFA has no start state and the DFA is empty."""
    return minimize(determinize(module_nfa(c, d, gens), lstd_dfa(c, d)))


def _sccs(start, succ):
    """Strongly connected components reachable from start, sinks first.

    Tarjan's algorithm with an explicit stack, so long chains do not hit
    the recursion limit.
    """
    index = {start: 0}
    low = {start: 0}
    stack = [start]
    on_stack = {start}
    work = [(start, iter(succ.get(start, ())))]
    out = []
    while work:
        q, it = work[-1]
        for r in it:
            if r not in index:
                index[r] = low[r] = len(index)
                stack.append(r)
                on_stack.add(r)
                work.append((r, iter(succ.get(r, ()))))
                break
            if r in on_stack:
                low[q] = min(low[q], index[r])
        else:
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[q])
            if low[q] == index[q]:
                k = stack.index(q)
                comp = stack[k:][::-1]
                del stack[k:]
                on_stack.difference_update(comp)
                out.append(comp)
    return out


def _pack(p, width, nbytes, sa=0, tb=0):
    """Evaluate p / (s^sa t^tb) at t = 2^(8*nbytes), s = t^width, for
    offsets no larger than p's least s- and t-degrees: a ring
    homomorphism, injective back to terms (see _unpack) while every
    coefficient stays below 2^(8*nbytes - 2) in absolute value and every
    t-degree less tb below width.  Each term is shifted to its digit and
    the terms summed; the zero polynomial packs to 0."""
    bits = 8 * nbytes
    got = 0
    for i, row in enumerate(p.rows[sa:]):
        for k, c in enumerate(row[tb:], i * width):
            if c:
                got += c << bits * k
    return got


def _unpack(val, width, nbytes, sa=0, tb=0):
    """The polynomial whose signed digits of nbytes bytes make val, times
    s^sa t^tb; raises OihError if a digit reaches 2^(8*nbytes - 2), too
    large for the balanced representation to be trustworthy.  Adding half
    a digit at every position makes each digit plain, so every digit is
    read with int.from_bytes and the half taken off again."""
    bits = 8 * nbytes
    half = 1 << (bits - 1)
    count = (abs(val).bit_length() + bits - 1) // bits + 1
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    raw = (val + bias).to_bytes(nbytes * count, "little")
    digits = [int.from_bytes(raw[k:k + nbytes], "little")
              for k in range(0, len(raw), nbytes)]
    if not half - half // 2 < min(digits) <= max(digits) < half + half // 2:
        raise OihError("solve result exceeds its digit bound")
    pad = [0] * tb
    return BiPoly([()] * sa + [pad + [w - half for w in digits[k:k + width]]
                               for k in range(0, len(digits), width)])


def _times(f, a, b, bits, width):
    """Packed f * (a*t + b*s), t = 2^bits and s = t^width."""
    return (a * f << bits if a else 0) + (b * f << bits * width if b else 0)


def _pack_size(square, cols, norm, top):
    """Stride and coefficient bound for packing a component's M x = b:
    square is the product over M's rows of their entries' summed squared
    l1 norms, cols each column's top t-degree, norm a bound on sum_i
    l1(b_i), top one on b's top t-degree less b's packing offset.  det(M)
    and each Cramer numerator take one entry per column, b standing in
    for at most one; on |s| = |t| = 1 Hadamard and Parseval bound their
    coefficients by H = isqrt(square) + 1 and norm * H."""
    return (1 + sum(cols) + max(0, top - min(cols)),
            (1 + norm) * (isqrt(square) + 1))


def _solve_packed(comp, inner, rhs, keep, bits, width):
    """Packed det(I - T_CC) and det(I - T_CC) * x_q, q in keep, for one
    component (see generating_function): inner[q] holds (r, a, b) per edge
    of a variables and b markers from q to r inside it, rhs[q] is packed,
    t = 2^bits and s = t^width, so an edge weight multiplies by shifts."""
    one_minus_t = 1 - (1 << bits)
    kset = set(keep) | {r for q in comp for r, a, b in inner.get(q, ())
                        if b or (r == q and a > 1)}
    later = {}  # state of V -> its successors in V not yet ordered
    preds = {}
    for q in comp:
        if q not in kset:
            later[q] = 0
            for r, _, _ in inner.get(q, ()):
                if r != q and r not in kset:
                    later[q] += 1
                    preds.setdefault(r, []).append(q)
    order = [q for q, n in later.items() if not n]
    for v in order:  # Kahn's algorithm, successors first
        for u in preds.get(v, ()):
            later[u] -= 1
            if not later[u]:
                order.append(u)
    kset.update(q for q, n in later.items() if n)
    powers = [1]

    def power(k):
        while len(powers) <= k:
            powers.append(powers[-1] * one_minus_t)
        return powers[k]

    ks = [q for q in comp if q in kset and q not in keep] + list(keep)
    col = {q: i for i, q in enumerate(ks)}
    size = len(ks)
    done = {}  # state of V -> (j_v, e_v)

    def eliminate(q):
        """(J, q's row over K and the right-hand side (column size) times
        (1-t)^J, its V successors substituted, J their largest j)."""
        edges = inner.get(q, ())
        lift = max((done[r][0] for r, _, _ in edges if r in done),
                   default=0)
        scale = power(lift)
        out = {col[q]: scale} if q in col else {}
        if rhs[q]:
            out[size] = scale * rhs[q]
        for r, a, b in edges:
            if r in col:
                c = col[r]
                out[c] = out.get(c, 0) - _times(scale, a, b, bits, width)
            elif r in done:
                j, row = done[r]
                f = power(lift - j)
                for c, v in row.items():
                    out[c] = out.get(c, 0) + _times(v * f, a, b, bits, width)
        return lift, {c: v for c, v in out.items() if v}

    shift = 0  # m - sum J
    for q in order:
        lift, row = eliminate(q)
        loop = any(r == q for r, _, _ in inner.get(q, ()))
        done[q] = (lift + loop, row)
        shift += loop
    rows = [eliminate(q) for q in ks]
    shift -= sum(lift for lift, _ in rows)
    det, nums = bareiss([row for _, row in rows], size - len(keep))
    f = power(abs(shift))
    if shift >= 0:
        return det * f, [v * f for v in nums]
    return exact(det, f), [exact(v, f) for v in nums]


def _sizes(p):
    """(l1 norm, least s-degree, least t-degree, top t-degree, top
    s-degree, number of terms) of a nonzero p.  A sequence's first
    nonzero entry v is found by filter, and its index is that of v's
    first occurrence."""
    rows = p.rows
    flat = list(chain.from_iterable(rows))
    return (sum(map(abs, flat)), rows.index(next(filter(None, rows))),
            min(row.index(next(filter(None, row))) for row in rows if row),
            max(map(len, rows)) - 1, len(rows) - 1, len(flat) - flat.count(0))


def generating_function(dfa):
    """Sum of s^(markers) t^(variables) over accepted words, as an exact
    rational in s and t.

    Edges between two states are bundled as letter counts, a variables
    (weight t) and b markers (weight s).  x = e_accept + T x is solved one
    strongly connected component C at a time, sinks first, (I - T_CC) x_C
    = e_C + T_C,out x_out; only entry states (the start, targets of other
    components' edges) keep a numerator, with its _sizes, over C's factor
    tuple {id: exponent}.  C's denominator is the multiset maximum of the
    tuples it reaches (common_denominator); an exit term x_r * (a*t + b*s)
    is multiplied by the cofactor its component lacks, and an accepting
    state adds the whole denominator.  These right-hand sides are built
    packed (_pack: t = 2^bits, s = t^width) from shifts of packed x_r and
    powers of packed bases, the whole component's stride and digit bound
    coming from sizes alone (_pack_size; l1(cofactor) <= prod
    l1(base)^e).  A one-state component's determinant is its entry and
    its numerator the right-hand side, summed as BiPoly products instead
    when that takes no more term products than the packed sum has digits.

    In a larger component (_solve_packed), K is the entry states, marker
    targets (entered by a marker edge inside C), states whose diagonal is
    neither 1 nor 1 - t, and states on or above a cycle of edges among
    the rest; V, the rest, is a DAG of variable edges with diagonals 1 or
    1 - t (in a module DFA the last two sets are empty: split_content).
    Successors first, x_v = e_v / (1-t)^j_v, e_v a row over K and the
    right-hand side, j_v the largest j of v's V successors plus one for a
    diagonal 1 - t.  Row k of K times (1-t)^J_k, J_k the largest j of its
    V successors, is a scaled row of the Schur complement S on K, and
    det(I - T_CC) = (1-t)^m det S, m counting V's diagonals 1 - t, as
    M_VV is triangular.  bareiss on the scaled rows gives (1-t)^(sum J)
    det S and numerators over it; both are multiplied by (1-t)^(m - sum
    J), or divided when that is negative: the polynomial division is
    exact and packing is a ring homomorphism, so the integer one is too.
    Intermediates may wrap digits; only the determinant and entry
    numerators unpack, every digit checked.  Weights vanish at the
    origin, so no leading principal minor, or pivot, vanishes.  Each
    determinant joins the denominator split by split_content; one whose
    right-hand sides vanish is dropped.  Cofactors, their sizes and
    splits are memoized for the call.
    """
    if dfa.n == 0 or not dfa.accepts:
        return FactoredRational.zero()
    marker = {a: int(not is_xi(a)) for a in dfa.alphabet}
    succ = {}
    for (q, a), r in dfa.trans.items():
        succ.setdefault(q, {}).setdefault(r, [0, 0])[marker[a]] += 1
    sccs = _sccs(dfa.start, succ)
    where = {q: i for i, comp in enumerate(sccs) for q in comp}
    entry = {dfa.start}
    for q, i in where.items():
        entry.update(r for r in succ.get(q, ()) if where[r] != i)
    x = {}  # entry state -> numerator over its component's factor tuple
    sizes = {}  # entry state with a nonzero numerator -> its _sizes
    home = {}
    tuples = []  # per component: {factor id: exponent}
    bases = {}  # factor id -> base
    shapes = {}  # factor id -> the base's _sizes
    ids = {}  # base -> factor id
    splits = {}  # determinant -> its (factor id, exponent) pairs
    products = {}  # lacking (factor id, exponent) pairs -> their product
    cofs = {}  # the same -> (l1 bound, t-degree, s-degree, term bound)
    one = BiPoly.one()

    def cofactor(lack):
        if lack not in products:
            products[lack] = power_product((bases[i], e) for i, e in lack)
        return products[lack]

    for here, comp in enumerate(sccs):
        inner = {}
        exits = {}  # (state, successor component) -> [(r, a, b)]
        for q in comp:
            for r, (a, b) in succ.get(q, {}).items():
                if where[r] == here:
                    inner.setdefault(q, []).append((r, a, b))
                elif x[r]:
                    exits.setdefault((q, home[r]), []).append((r, a, b))
        reached = list({c for _, c in exits})
        accepting = [q for q in comp if q in dfa.accepts]
        top, lacks = common_denominator(
            [tuples[c] for c in reached] + [{}] * bool(accepting))
        for lack in lacks:
            if lack not in cofs:
                l1, dt, ds, count = 1, 0, 0, 1
                for i, e in lack:
                    got = shapes[i]
                    l1, count = l1 * got[0] ** e, count * got[5] ** e
                    dt, ds = dt + got[3] * e, ds + got[4] * e
                cofs[lack] = (l1, dt, ds, min(count, (dt + 1) * (ds + 1)))
        lacks = dict(zip(reached + [None], lacks))
        wanted = [q for q in comp if q in entry]
        norm = pairs = 0
        hi = ds = -1
        sa = tb = 1 << 62
        if accepting:
            l1, hi, ds, _ = cofs[lacks[None]]
            norm, sa, tb = l1 * len(accepting), 0, 0
        for (q, c), outs in exits.items():
            l1c, dtc, dsc, count = cofs[lacks[c]]
            for r, a, b in outs:
                l1, ls, lt, ht, hs, n = sizes[r]
                norm += l1 * (a + b) * l1c
                pairs += n * count * ((a > 0) + (b > 0))
                hi = max(hi, ht + (a > 0) + dtc)
                ds = max(ds, hs + (b > 0) + dsc)
                sa, tb = min(sa, ls), min(tb, lt)
        det, nums = one, [BiPoly.zero()] * len(wanted)
        if len(comp) == 1:
            a, b = succ.get(comp[0], {}).get(comp[0], (0, 0))
            diag = BiPoly(((1, -a), (-b,)))
        if hi < 0:  # no right-hand side
            pass
        elif len(comp) == 1 and pairs <= (ds - sa + 1) * (hi - tb + 1):
            num = cofactor(lacks[None]) if accepting else BiPoly.zero()
            for (_, c), outs in exits.items():
                part = None
                for r, a, b in outs:
                    term = x[r] * BiPoly(((0, a), (b,)))
                    part = part + term if part else term
                part = part * cofactor(lacks[c]) if lacks[c] else part
                num = num + part if num else part
            if num:
                det, nums = diag, [num]
        else:
            square, cols = 1, dict.fromkeys(comp, 0)
            for q in comp:
                total = 1
                for r, a, b in inner.get(q, ()):
                    total += (a + b + (r == q)) ** 2 - (r == q)
                    cols[r] |= a > 0
                square *= total
            width, bound = _pack_size(square, cols.values(), norm, hi - tb)
            nbytes = -(-(4 * bound).bit_length() // 8)
            bits = 8 * nbytes
            packed = {i: _pack(bases[i], width, nbytes)
                      for lack in lacks.values() for i, _ in lack}
            lifted = {c: prod(packed[i] ** e for i, e in lack)
                      for c, lack in lacks.items()}  # packed cofactors
            rhs = dict.fromkeys(comp, 0)
            for q in accepting:
                rhs[q] = lifted[None]
            held = {}  # state -> its packed numerator
            for (q, c), outs in exits.items():
                part = 0
                for r, a, b in outs:
                    got = held.get(r)
                    if got is None:
                        got = held[r] = _pack(x[r], width, nbytes, sa, tb)
                    part += _times(got, a, b, bits, width)
                rhs[q] += part * lifted[c]
            if any(rhs.values()) and len(comp) == 1:
                det, nums = diag, [_unpack(rhs[comp[0]], width, nbytes, sa,
                                           tb)]
            elif any(rhs.values()):
                det, nums = _solve_packed(comp, inner, rhs, wanted, bits,
                                          width)
                det = _unpack(det, width, nbytes)
                nums = [_unpack(v, width, nbytes, sa, tb) for v in nums]
        pieces = splits.get(det)
        if pieces is None:
            pieces = splits[det] = []
            for base, e in split_content(det):
                i = ids.setdefault(base, len(ids))
                if i not in bases:
                    bases[i], shapes[i] = base, _sizes(base)
                pieces.append((i, e))
        for i, e in pieces:
            top[i] = top.get(i, 0) + e
        tuples.append(top)
        for q, num in zip(wanted, nums):
            x[q], home[q] = num, here
            if num:
                sizes[q] = _sizes(num)
    return FactoredRational(x[dfa.start], [
        (bases[i], e) for i, e in tuples[home[dfa.start]].items()])
