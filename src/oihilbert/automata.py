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

from .polyarith import (
    BiPoly,
    FactoredRational,
    solve_sinks_first,
    times_one_minus_t,
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


def generating_function(dfa):
    """Sum of s^(markers) t^(variables) over accepted words, as an exact
    rational in s and t: x = e_accept + T x, solved for x_start.

    Edges between two states are bundled as letter counts, a variables
    (weight t) and b markers (weight s).  K, the boundary states, is the
    start and every state a marker letter enters, plus any state whose
    self-loop has several letters and any state on or above a cycle of
    the variable edges among the others (Kahn's algorithm); in a module
    DFA these last two sets are empty (split_content).  V, the rest, is a
    DAG of variable edges whose states have at most a one-letter
    self-loop, and each is eliminated once, successors first (state
    elimination, Brzozowski and McCluskey): x_v = (sum_k e_vk x_k + e_v)
    / (1-t)^j_v, a row over K and the constant, j_v the largest j of v's
    V successors plus one for a self-loop, each term brought to it by
    running differences (times_one_minus_t).  A state k of K gets the
    same row, its own self-loop kept as an entry, and so the equation
    (1-t)^J_k x_k = sum_k' e_kk' x_k' + e_k, solved by
    solve_sinks_first.
    """
    if dfa.n == 0 or not dfa.accepts:
        return FactoredRational.zero()
    marker = {a: int(not is_xi(a)) for a in dfa.alphabet}
    succ = {}
    for (q, a), r in dfa.trans.items():
        succ.setdefault(q, {}).setdefault(r, [0, 0])[marker[a]] += 1
    kset = {dfa.start}
    for q, out in succ.items():
        kset.update(r for r, (a, b) in out.items() if b or r == q and a > 1)
    later = {}  # state of V -> its successors in V not yet ordered
    preds = {}
    for q in range(dfa.n):
        if q not in kset:
            later[q] = 0
            for r in succ.get(q, ()):
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
    one = BiPoly.one()
    done = {}  # state of V -> (j_v, its row)

    def expand(q):
        """(J, q's row times (1-t)^J): {state of K or None: entry}."""
        out = succ.get(q, {})
        lift = max((done[r][0] for r in out if r in done), default=0)
        row = {None: times_one_minus_t(one, lift)} if q in dfa.accepts else {}
        for r, (a, b) in out.items():
            if r == q and q not in kset:  # the self-loop of a state of V
                continue
            w = BiPoly(((0, a), (b,)))
            if r in done:
                j, got = done[r]
                got = {k: p * w for k, p in got.items()}
            else:
                j, got = 0, {r: w}
            for k, p in got.items():
                p = times_one_minus_t(p, lift - j)
                row[k] = row[k] + p if k in row else p
        return lift, row

    for v in order:
        lift, row = expand(v)
        done[v] = (lift + (v in succ.get(v, ())), row)
    return solve_sinks_first(dfa.start, {k: expand(k) for k in kset})
