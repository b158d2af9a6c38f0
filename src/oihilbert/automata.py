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
from math import isqrt

from .errors import NonDivisible, OihError
from .polyarith import (
    BiPoly,
    FactoredRational,
    common_denominator,
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
    """Trim, then Hopcroft partition refinement.

    Missing transitions and those into dead states (not both reachable and
    co-reachable) go to an explicit sink block, so the refinement runs on a
    complete automaton (Hopcroft 1971; for partial DFAs, Valmari and
    Lehtinen 2008).  It starts from the accepting live states, the other
    live states and the sink, and splits with per-letter inverse
    transitions.  The worklist holds splitter blocks: a block split while
    queued queues both halves, otherwise only the smaller one.  A
    splitter's members are copied before refining with it, as refining can
    split the splitter itself.  Blocks are numbered in order of their
    smallest live state.
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

    SINK = -1
    states = sorted(live)
    inv = {a: {SINK: [SINK]} for a in letters}
    for q in states:
        for a in letters:
            r = dfa.trans.get((q, a))
            inv[a].setdefault(r if r in live else SINK, []).append(q)
    accepting = live & dfa.accepts
    members = [m for m in (accepting, live - accepting, {SINK}) if m]
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


def _l1(p):
    return sum(map(abs, p.terms.values()))


def _pack(p, width, nbytes, sa=0, tb=0):
    """Evaluate p / (s^sa t^tb) at t = 2^(8*nbytes), s = t^width, for
    offsets no larger than p's least s- and t-degrees: a ring
    homomorphism, injective back to terms (see _unpack) while every
    coefficient stays below 2^(8*nbytes - 2) in absolute value and every
    t-degree less tb below width.  Each term is shifted to its digit and
    the terms summed; the zero polynomial packs to 0."""
    bits = 8 * nbytes
    got = 0
    for (i, j), c in p.terms.items():
        got += c << (bits * ((i - sa) * width + j - tb))
    return got


def _unpack(val, width, nbytes, sa=0, tb=0):
    """The polynomial whose signed digits of nbytes bytes make val, times
    s^sa t^tb; raises OihError if any digit reaches 2^(8*nbytes - 2), too
    large for the balanced representation to be trustworthy.

    Adding half a digit at every digit position turns each balanced
    digit into a plain one, so every digit is read with int.from_bytes
    and the half taken off again."""
    bits = 8 * nbytes
    half = 1 << (bits - 1)
    safe = half >> 1
    count = (abs(val).bit_length() + bits - 1) // bits + 1
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    raw = (val + bias).to_bytes(nbytes * count, "little")
    out = {}
    for idx in range(count):
        off = idx * nbytes
        digit = int.from_bytes(raw[off:off + nbytes], "little") - half
        if digit:
            if not -safe < digit < safe:
                raise OihError("solve result exceeds its digit bound")
            out[idx // width + sa, idx % width + tb] = digit
    return BiPoly._raw(out)


def _pack_size(rows, rhs, tb=0):
    """Stride and coefficient bound for packing one component's system,
    whose right-hand side packs divided by t^tb.

    Only det(M) and Cramer numerators det(M) * x_i must unpack; the bounds
    cover every x_i, a superset of the entry rows' that unpack.  Each
    takes one entry per column, the right-hand side standing in for at
    most one column, so with r the top right-hand-side t-degree less tb,
    their packed t-degree is at most the columns' top t-degrees plus the
    excess of r over the smallest.  On |s| = |t| = 1 each entry is at most
    its l1 norm, so by Hadamard and Parseval no coefficient of det(M)
    exceeds H = isqrt(prod_i sum_j l1(m_ij)^2) + 1, and, expanding along
    the replaced column, none of a numerator exceeds sum_i l1(b_i) * H
    (each row's sum is at least 1, as each diagonal entry has constant
    term 1).  Returns the stride, one past the degree bound, and
    (1 + sum_i l1(b_i)) * H.
    """
    top, norm = -1, 0
    for b in rhs:
        for (_, j), v in b.terms.items():
            top, norm = max(top, j), norm + abs(v)
    seen = {}  # id of a shared entry -> (l1 norm squared, t-degree)
    cols = {}
    square = 1
    for row in rows:
        total = 0
        for j, p in row.items():
            got = seen.get(id(p))
            if got is None:
                got = seen[id(p)] = (_l1(p) ** 2, p.deg_t())
            total += got[0]
            if got[1] >= cols.get(j, 0):
                cols[j] = got[1]
        square *= total
    degree = sum(cols.values()) + max(0, top - tb - min(cols.values()))
    return 1 + degree, (1 + norm) * (isqrt(square) + 1)


def _solve_component(rows, rhs, first):
    """det(M) and the numerators det(M) * x_i, i >= first, of M x = rhs.

    rows[i] maps column to entry of row i of M; rhs[i] is a polynomial,
    not all zero.  Every entry is packed once (_pack; the stride comes
    from _pack_size, and a digit is the fewest bytes that hold four times
    its coefficient bound, as _unpack needs), the right-hand side divided
    by its common monomial s^sa t^tb, which the numerators get back as
    they unpack.  Fraction-free elimination runs on the integers, and only
    the results are unpacked.  A pivot k < first updates only the rows
    below it; from first on, Gauss-Jordan runs among rows first.. alone.
    Every row from first on is thus updated as a full Gauss-Jordan would
    update it, and the rows above first, whose unknowns are not wanted,
    are left half reduced; first = 0 is the full solve.  Packing is a ring
    homomorphism and, by Sylvester's identity, every entry after step k
    is a minor of order k + 1, so the Bareiss divisions are exact on the
    packed integers too (a remainder raises); the intermediates may wrap
    digits, but the results fit theirs, and _unpack checks every digit.

    Rows are rescaled lazily.  At each step Bareiss multiplies each updated
    row by the new pivot and divides it by the previous one; over a run of
    steps those factors telescope to the last pivot over the one before
    the first.  So each row keeps its level, the number of steps as of
    which its stored entries are exact, and pivots[l] is the pivot of step
    l - 1 (pivots[0] = 1).  A row with nothing in the pivot column is
    skipped.  A touched row becomes (pivot * row - row[k] * top) /
    pivots[level], top being the pivot row brought up to date first by
    pivots[k] / pivots[level]; at the end each right-hand side is brought
    up by det / pivots[level].

    The packed integers span the spread of the right-hand side: a sparse
    right-hand side with terms far apart in both s and t makes every
    integer long.
    """
    size = len(rows)
    sa = min(i for b in rhs for i, _ in b.terms)
    tb = min(j for b in rhs for _, j in b.terms)
    width, bound = _pack_size(rows, rhs, tb)
    nbytes = -(-(4 * bound).bit_length() // 8)
    mat = [{j: _pack(p, width, nbytes) for j, p in row.items()}
           for row in rows]
    for row, b in zip(mat, rhs):
        if b:
            row[size] = _pack(b, width, nbytes, sa, tb)
    pivots = [1]
    lvl = [0] * size

    def exact(val, by):
        if by == 1:
            return val
        val, rem = divmod(val, by)
        if rem:
            raise NonDivisible("pivot does not divide a minor")
        return val

    def lift(val, level, step):
        if level == step:
            return val
        return exact(val * pivots[step], pivots[level])

    for k in range(size):
        top = mat[k]
        if lvl[k] < k:
            top = mat[k] = {j: lift(v, lvl[k], k) for j, v in top.items()}
        lvl[k] = k + 1
        pivot = top[k]
        pivots.append(pivot)
        for i in range(k + 1 if k < first else first, size):
            row = mat[i]
            left = row.get(k)
            if i == k or left is None:
                continue
            by = pivots[lvl[i]]
            new = {}
            for j in set(row) | set(top):
                if j > k:
                    val = pivot * row.get(j, 0) - left * top.get(j, 0)
                    if val:
                        new[j] = exact(val, by)
            mat[i] = new
            lvl[i] = k + 1

    return _unpack(pivots[size], width, nbytes), [
        _unpack(lift(mat[i].get(size, 0), lvl[i], size), width, nbytes,
                sa, tb) for i in range(first, size)]


def generating_function(dfa):
    """Sum of s^(markers) t^(variables) over accepted words, as an exact
    rational in s and t.

    A variable letter weighs t and a marker letter s; the edges from one
    state to another are bundled as two letter counts, a variables and b
    markers.  The values x = e_accept + T x are solved one strongly
    connected component C at a time, sinks first:
    (I - T_CC) x_C = e_C + T_C,out x_out
    with x_out already known.  An entry of I - T_CC is d - a*t - b*s, d = 1
    on the diagonal, built once per distinct (d, a, b) in a call; an exit
    term x_r * (a*t + b*s) is written from x_r's terms, one pass per letter
    kind present, with no polynomial product.  A solved state keeps its
    numerator over its component's one factor tuple.  C's denominator is
    the multiset maximum of the tuples of the components its states reach:
    a state's terms are summed per successor component and multiplied by
    that component's cofactor, and the denominator is expanded only for an
    accepting state.  Only entry states are read: the start, and the
    targets of edges from other components.  Each component orders its
    other states first, in Tarjan order, and solves for its entry states
    alone (_solve_component); the others keep no numerator.  The
    elimination leaves det(I - T_CC) times the wanted unknowns, so
    det(I - T) arrives component by component.  Edge weights vanish at the
    origin, as t and s do, so each leading principal minor of I - T_CC is
    1 there: no pivot vanishes and every determinant has constant term 1.
    Each determinant enters the denominator split by split_content, so
    every factor is 1-t or the rest of a determinant after its
    (1-t)-power, each with constant term 1.  A component of one state
    needs no elimination: its determinant is its one entry.  A factor
    tuple is a dict {id: exponent}, each split piece numbered as it first
    appears; the answer's FactoredRational is built at the end.  Components
    of one automaton repeat their cofactor products and determinants, so
    the call memoizes both: cofactors by their lacking factor powers
    (common_denominator), splits by the determinant.
    """
    if dfa.n == 0 or not dfa.accepts:
        return FactoredRational.zero()
    zero, one = BiPoly.zero(), BiPoly.one()
    marker = {a: int(not is_xi(a)) for a in dfa.alphabet}
    succ = {}
    for (q, a), r in dfa.trans.items():
        succ.setdefault(q, {}).setdefault(r, [0, 0])[marker[a]] += 1
    sccs = _sccs(dfa.start, succ)
    where = {q: i for i, comp in enumerate(sccs) for q in comp}
    entry = {dfa.start}
    for q, i in where.items():
        entry.update(r for r in succ.get(q, ()) if where[r] != i)
    x = {}
    home = {}
    tuples = []  # per component: {factor id: exponent}
    bases = {}  # factor id -> base
    ids = {}  # base key -> factor id
    products = {}  # sorted (factor id, exponent) pairs -> their product
    splits = {}  # determinant key -> its (factor id, exponent) pairs
    entries = {}  # (d, a, b) -> d - a*t - b*s
    for comp in sccs:
        inner = [q for q in comp if q not in entry]
        first = len(inner)
        comp = inner + [q for q in comp if q in entry]
        pos = {q: k for k, q in enumerate(comp)}
        rows = []
        parts = []
        for k, q in enumerate(comp):
            row = {k: one}
            part = {}
            for r, (a, b) in succ.get(q, {}).items():
                j = pos.get(r)
                if j is not None:
                    key = (int(j == k), a, b)
                    if key not in entries:
                        entries[key] = BiPoly(
                            {(0, 0): key[0], (0, 1): -a, (1, 0): -b})
                    row[j] = entries[key]
                elif x[r]:
                    c = home[r]
                    for di, dl, m in ((0, 1, a), (1, 0, b)):
                        if m:
                            term = BiPoly._raw({
                                (i + di, l + dl): m * v
                                for (i, l), v in x[r].terms.items()})
                            part[c] = part[c] + term if c in part else term
            rows.append(row)
            parts.append(part)
        reached = list(set().union(*parts))
        accepting = not dfa.accepts.isdisjoint(comp)
        # the empty tuple's cofactor is the expanded denominator
        top, cofs = common_denominator(
            [tuples[c] for c in reached] + [{}] * accepting, bases, products)
        den = cofs.pop() if accepting else zero
        cofs = dict(zip(reached, cofs))
        nums = []
        for q, part in zip(comp, parts):
            num = den if q in dfa.accepts else zero
            for c, p in part.items():
                p = p if cofs[c].is_one() else p * cofs[c]
                num = num + p if num else p
            nums.append(num)
        if not any(nums):
            det = one
            nums = nums[first:]
        elif len(comp) == 1:
            det = rows[0][0]
        else:
            det, nums = _solve_component(rows, nums, first)
        pieces = splits.get(det.key())
        if pieces is None:
            pieces = splits[det.key()] = []
            for base, e in split_content(det):
                i = ids.setdefault(base.key(), len(ids))
                bases[i] = base
                pieces.append((i, e))
        for i, e in pieces:
            top[i] = top.get(i, 0) + e
        tuples.append(top)
        for q, num in zip(comp[first:], nums):
            x[q] = num
            home[q] = len(tuples) - 1
    return FactoredRational(x[dfa.start], [
        (bases[i], e) for i, e in tuples[home[dfa.start]].items()])
