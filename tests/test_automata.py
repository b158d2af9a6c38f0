import itertools
import json
import random
import time
from pathlib import Path

import sympy
from hypothesis import given, settings, strategies as st

from oihilbert import polyarith
from oihilbert.automata import (
    Dfa,
    Nfa,
    _simulation,
    determinize,
    generating_function,
    intersect_nfa_dfa,
    lstd_dfa,
    minimize,
    module_dfa,
    module_nfa,
)
from oihilbert.oicore import Monomial, ModulePresentation, hilbert_width
from oihilbert.polyarith import (
    BiPoly,
    FactoredRational,
    bareiss,
    common_denominator,
    divide_out,
    expand_series,
    power_product,
    split_content,
)
from oihilbert.schema import load_document, parse_document
from oihilbert.series import module_series
from oihilbert.words import alphabet, decode, is_xi

from corpus import random_monomial, random_presentation
from enumerate_small import all_monomials, lstd_words
from oracles import (bipoly, equals_cross_mul, in_lstd, moore_minimize,
                     oi_divides, pairwise_simulation, run_dfa, subset_dfa,
                     terms_of, word_count_window)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"


S, T = sympy.symbols("s t")


def one_minus_t_pow(c):
    return (BiPoly.one() - BiPoly.term(0, 1)) ** c


def to_sympy(p):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in terms_of(p).items()))


def from_sympy(expr):
    if expr == 0:
        return BiPoly.zero()
    return bipoly({k: int(c) for k, c in sympy.Poly(expr, S, T).terms()})


# entries of I - T: weights vanish at the origin, diagonals start at 1
vanishing = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
    st.integers(-4, 4), max_size=3).map(bipoly)
rhs_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.integers(-4, 4), max_size=3).map(bipoly)


@st.composite
def augmented_systems(draw):
    size = draw(st.integers(2, 3))
    rows = []
    for i in range(size):
        row = {j: draw(vanishing) for j in range(size)}
        row[i] = BiPoly.one() - row[i]
        rows.append({j: p for j, p in row.items() if p})
    rhs = draw(st.lists(rhs_polys, min_size=size, max_size=size)
               .filter(lambda bs: any(bs)))
    return rows, rhs


def random_sparse_system(rng, size, density):
    """I - T with a sparse T whose entries vanish at the origin, and a
    right-hand side whose rows are zero with probability one third."""
    def vanishing():
        return bipoly({rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]):
                       rng.choice([-3, -2, -1, 1, 2, 3])
                       for _ in range(rng.randint(1, 2))})

    rows = []
    for i in range(size):
        row = {j: -vanishing() for j in range(size)
               if j != i and rng.random() < density}
        row[i] = BiPoly.one() - vanishing()
        rows.append(row)
    rhs = [BiPoly.zero() if rng.random() < 1 / 3 else
           bipoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                   for _ in range(2)}) for _ in range(size)]
    return rows, rhs


def elimination_levels(rows):
    """The levels the lazy forward elimination moves each row through, by
    the fill pattern (cancellation ignored): per row, (step, level before)
    for each step that rescales it, its own pivot step last."""
    size = len(rows)
    pattern = [set(row) for row in rows]
    lvl = [0] * size
    moves = [[] for _ in rows]
    for k in range(size):
        moves[k].append((k, lvl[k]))
        for i in range(k + 1, size):
            if k in pattern[i]:
                moves[i].append((k, lvl[i]))
                pattern[i] = {j for j in pattern[i] | pattern[k] if j > k}
                lvl[i] = k + 1
    return moves


def sympy_solve(rows, rhs):
    """det(M) and the Cramer numerators det(M) * x_i of M x = rhs, by
    sympy: the reference for bareiss on polynomial rows."""
    size = len(rows)
    mat = sympy.Matrix(size, size, lambda i, j: to_sympy(
        rows[i].get(j, BiPoly.zero())))
    col = sympy.Matrix([to_sympy(b) for b in rhs])
    nums = []
    for i in range(size):
        m = mat.copy()
        m[:, i] = col
        nums.append(from_sympy(sympy.expand(m.det())))
    return from_sympy(sympy.expand(mat.det())), nums


def bareiss_rows(rows, rhs, first):
    """polyarith.bareiss on polynomial rows: det(M) and the numerators
    det(M) * x_i, i >= first, of M x = rhs, rows[i] mapping column to
    entry of row i."""
    mat = [dict(row) for row in rows]
    for row, b in zip(mat, rhs):
        if b:
            row[len(rows)] = b
    det, nums = bareiss(mat, first)
    return det, [v or BiPoly.zero() for v in nums]


def random_boundary_dfa(rng, c):
    """Three to six states over c variables and two markers, start 0,
    each variable present at each state with probability 1/2 and each
    marker with 1/4, aimed at any state, and one or two accepting
    states: marker targets inside one strongly connected component,
    variable cycles longer than one edge and self-loops of several
    letters all occur."""
    letters = alphabet(c, 1)
    n = rng.randint(3, 6)
    trans = {(q, a): rng.randrange(n) for q in range(n) for a in letters
             if rng.random() < (0.5 if is_xi(a) else 0.25)}
    return Dfa(letters, n, 0, rng.sample(range(n), rng.randint(1, 2)),
               trans)


def sympy_generating_function(dfa):
    """x_start of (I - T) x = e_accept by Cramer's rule in sympy, over
    det(I - T) unreduced."""
    mat = sympy.eye(dfa.n)
    for (q, a), r in dfa.trans.items():
        mat[q, r] -= T if is_xi(a) else S
    num = mat.copy()
    num[:, dfa.start] = sympy.Matrix(
        [int(q in dfa.accepts) for q in range(dfa.n)])
    det = from_sympy(sympy.expand(mat.det(method="berkowitz")))
    return FactoredRational(
        from_sympy(sympy.expand(num.det(method="berkowitz"))), [(det, 1)])


class TestLstdDfa:
    def test_exhaustive_small(self):
        for c, d, max_len in [(1, 0, 7), (1, 1, 7), (2, 1, 6), (1, 2, 6), (2, 2, 5)]:
            dfa = lstd_dfa(c, d)
            letters = alphabet(c, d)
            for length in range(max_len + 1):
                for word in itertools.product(letters, repeat=length):
                    assert run_dfa(dfa, word) == in_lstd(word, c, d), word

    def test_empty_word(self):
        assert run_dfa(lstd_dfa(1, 0), ())
        assert not run_dfa(lstd_dfa(1, 1), ())

    def test_minimize_keeps_language(self):
        for c, d in [(1, 1), (2, 2)]:
            dfa = lstd_dfa(c, d)
            small = minimize(dfa)
            assert small.n <= dfa.n
            for word in lstd_words(c, d, 3, 3):
                assert run_dfa(small, word)
            for word in itertools.product(alphabet(c, d), repeat=4):
                assert run_dfa(small, word) == run_dfa(dfa, word)

    def test_built_once_per_pair(self):
        for c, d in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            assert lstd_dfa(c, d) is lstd_dfa(c, d)
        assert lstd_dfa(1, 1) is not lstd_dfa(1, 2)

    def test_module_dfa_leaves_it_unchanged(self):
        # the memo hands every summand of one (c, d) the same object
        rng = random.Random(4242)
        docs = [random_presentation(rng) for _ in range(40)]
        pairs = {(p.c, d) for p in docs for d, _ in p.summands}
        before = {cd: (dict(lstd_dfa(*cd).trans), lstd_dfa(*cd).accepts,
                       lstd_dfa(*cd).start) for cd in pairs}
        for p in docs:
            for idx, (d, _) in enumerate(p.summands):
                gens = [g for g in p.generators if g.summand == idx]
                module_dfa(p.c, d, gens)
        for cd, (trans, accepts, start) in before.items():
            dfa = lstd_dfa(*cd)
            assert (dfa.trans, dfa.accepts, dfa.start) == (
                trans, accepts, start), cd


def random_partial_dfa(rng, letters=None):
    """1-3 letters unless given, up to 40 states, a random start, each
    transition present with a drawn probability and aimed anywhere, and
    accepting states drawn with a probability that may be 0."""
    if letters is None:
        letters = tuple(range(rng.randint(1, 3)))
    n = rng.randint(1, 40)
    present = rng.random()
    accepting = rng.choice([0.0, 0.1, 0.3])
    trans = {(q, a): rng.randrange(n) for q in range(n) for a in letters
             if rng.random() < present}
    accepts = {q for q in range(n) if rng.random() < accepting}
    return Dfa(letters, n, rng.randrange(n), accepts, trans)


def bundled_dfa(rng, letters):
    """Two to four blocks of one to three states, each block a cycle,
    state 0 first.  Each state sends its letters to its successor in its
    block's cycle and to up to two states of later blocks, so one edge
    bundles several letters of both kinds, and a later block is entered
    at one or more of its states.  One to three accepting states, so
    some cycles reach none."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    n = sum(sizes)
    trans = {}
    lo = 0
    for size in sizes:
        hi = lo + size
        for q in range(lo, hi):
            targets = [lo + (q - lo + 1) % size]
            targets += [rng.randrange(hi, n) for _ in range(rng.randint(0, 2))
                        if hi < n]
            for a in letters:
                if rng.random() < 0.7:
                    trans[(q, a)] = rng.choice(targets)
        lo = hi
    accepts = rng.sample(range(n), rng.randint(1, min(3, n)))
    return Dfa(letters, n, 0, accepts, trans)


def closure(seeds, edges):
    """The states reachable from seeds along edges ((q, letter), r)."""
    succ = {}
    for (q, _), r in edges:
        succ.setdefault(q, []).append(r)
    out = set(seeds)
    stack = list(out)
    while stack:
        for r in succ.get(stack.pop(), ()):
            if r not in out:
                out.add(r)
                stack.append(r)
    return out


def same_dfa(a, b):
    return (a.n, a.start, a.accepts, a.trans) == (b.n, b.start, b.accepts,
                                                   b.trans)


def random_nfa(rng):
    """1-3 letters, up to 14 states, one to three starts, edges drawn with
    a drawn density and aimed at any state (offsets of either sign and any
    size), and accepting states drawn with a probability that may be 0."""
    letters = tuple(range(rng.randint(1, 3)))
    nfa = Nfa(letters)
    for _ in range(rng.randint(1, 14)):
        nfa.add_state()
    density = rng.choice([0.05, 0.15, 0.3])
    for p in range(nfa.n):
        for a in letters:
            for r in range(nfa.n):
                if rng.random() < density:
                    nfa.add_edge(p, a, r)
    nfa.starts.update(rng.sample(range(nfa.n), min(nfa.n, rng.randint(1, 3))))
    accepting = rng.choice([0.0, 0.2, 0.5])
    nfa.accepts.update(q for q in range(nfa.n) if rng.random() < accepting)
    return nfa


def summand_pairs(corpus):
    """(document id, union NFA, standard-word DFA) of every summand of a
    benchmark corpus."""
    for entry in corpus["docs"]:
        p = parse_document(entry["doc"]).effective_presentation()
        for k, (d, _) in enumerate(p.summands):
            gens = [g for g in p.generators if g.summand == k]
            if gens:
                yield entry["id"], module_nfa(p.c, d, gens), lstd_dfa(p.c, d)


def summand_automata(corpus):
    """The unpruned subset-construction DFA of the product automaton of
    every summand of a benchmark corpus."""
    for doc_id, u, lstd in summand_pairs(corpus):
        yield doc_id, subset_dfa(intersect_nfa_dfa(u, lstd))


class TestMinimize:
    def test_random_partial_dfas_against_moore(self):
        rng = random.Random(1971)
        cases = {"unreachable": 0, "dead": 0, "missing": 0,
                 "no accepts": 0, "several blocks": 0}
        for _ in range(400):
            dfa = random_partial_dfa(rng)
            small = minimize(dfa)
            assert same_dfa(small, moore_minimize(dfa)), (
                dfa.n, dfa.start, dfa.accepts, dfa.trans)
            reach = closure({dfa.start}, dfa.trans.items())
            co = closure(dfa.accepts, (((r, a), q) for (q, a), r
                                       in dfa.trans.items()))
            cases["unreachable"] += len(reach) < dfa.n
            cases["dead"] += bool(dfa.accepts and reach - co)
            cases["missing"] += len(dfa.trans) < dfa.n * len(dfa.alphabet)
            cases["no accepts"] += not dfa.accepts
            cases["several blocks"] += small.n > 2
        assert all(cases.values()), cases

    def test_missing_transition_alone_splits(self):
        # states 1 and 2 both lead to the accepting state 3 on letter 0;
        # only 1 has a letter-1 edge, so no sink block is needed to keep
        # them apart: the preimage of the live block {3} under letter 1
        # splits them.  With the edge added to 2 they merge.
        trans = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 3, (2, 0): 3}
        dfa = Dfa((0, 1), 4, 0, {3}, trans)
        small = minimize(dfa)
        assert small.n == 4 and same_dfa(small, moore_minimize(dfa))
        full = Dfa((0, 1), 4, 0, {3}, trans | {(2, 1): 3})
        small = minimize(full)
        assert small.n == 3 and same_dfa(small, moore_minimize(full))

    def test_corpus_automata_against_moore(self):
        # refining with a splitter block that is not copied first (later
        # letters then see it shrunk) merges states in 8 of these
        seen = 0
        for path in sorted((ROOT / "perfbench" / "corpus").glob("*.json")):
            corpus = json.loads(path.read_text())
            for doc_id, dfa in summand_automata(corpus):
                assert same_dfa(minimize(dfa), moore_minimize(dfa)), doc_id
                seen += 1
        assert seen > 600


def simulation_pairs(nfa):
    return {(p, q) for p, m in enumerate(_simulation(nfa))
            for q in range(nfa.n) if m >> q & 1}


class TestSubsetConstruction:
    def test_simulation_against_pairwise_fixpoint(self):
        rng = random.Random(2010)
        cases = {"negative offset": 0, "offset past 4": 0, "no accepts": 0,
                 "strict pair": 0, "equivalent pair": 0}
        for _ in range(300):
            nfa = random_nfa(rng)
            rel = simulation_pairs(nfa)
            assert rel == pairwise_simulation(nfa), (nfa.n, nfa.trans)
            offsets = {r - p for (p, _), ds in nfa.trans.items() for r in ds}
            cases["negative offset"] += min(offsets, default=0) < 0
            cases["offset past 4"] += max(offsets, default=0) > 4
            cases["no accepts"] += not nfa.accepts
            cases["strict pair"] += any((q, p) not in rel for p, q in rel)
            cases["equivalent pair"] += any(
                p != q and (q, p) in rel for p, q in rel)
        assert all(cases.values()), cases

    def test_random_products_against_unpruned(self):
        # the pruned subset DFA is often smaller, though not always: of
        # two equivalent states, a mask keeps whichever is smaller, so
        # masks of one language can differ; the minimal DFAs may not
        # differ in any state number
        rng = random.Random(2006)
        shrunk = 0
        for _ in range(400):
            nfa = random_nfa(rng)
            dfa = random_partial_dfa(rng, nfa.alphabet)
            pruned = determinize(nfa, dfa)
            full = subset_dfa(intersect_nfa_dfa(nfa, dfa))
            assert same_dfa(minimize(pruned), minimize(full)), (
                nfa.trans, dfa.trans)
            shrunk += pruned.n < full.n
        assert shrunk > 20

    def test_corpus_summands_against_unpruned(self):
        seen = 0
        for path in sorted((ROOT / "perfbench" / "corpus").glob("*.json")):
            corpus = json.loads(path.read_text())
            for doc_id, u, lstd in summand_pairs(corpus):
                want = minimize(subset_dfa(intersect_nfa_dfa(u, lstd)))
                assert same_dfa(minimize(determinize(u, lstd)), want), doc_id
                seen += 1
        assert seen > 600

    def test_degree_probe_subsets_shrink(self):
        e = 400
        gens = [Monomial(1, 2, ((e,), (1,))), Monomial(1, 2, ((1,), (e,)))]
        u = module_nfa(1, 0, gens)
        lstd = lstd_dfa(1, 0)
        pruned = determinize(u, lstd)
        full = subset_dfa(intersect_nfa_dfa(u, lstd))
        assert pruned.n < full.n
        assert minimize(pruned).n == 804

    def test_repeated_generator_is_pruned(self):
        # each state of the second copy ties with its twin of the first:
        # every mask keeps one of the two, so the subset DFA is the
        # one-generator DFA state for state (dropping both would lose words)
        cases = [(1, 0, Monomial(1, 2, ((2,), (1,)))),
                 (2, 1, Monomial(2, 2, ((1, 0), (0, 1)), (2,))),
                 (1, 2, Monomial(1, 3, ((1,), (0,), (2,)), (1, 3)))]
        for c, d, g in cases:
            lstd = lstd_dfa(c, d)
            once = determinize(module_nfa(c, d, [g]), lstd)
            twice = determinize(module_nfa(c, d, [g, g]), lstd)
            assert same_dfa(twice, once), (c, d, g)


def automaton_vs_divisibility(c, d, gens, max_tau=4, max_xi=4):
    dfa = module_dfa(c, d, gens)
    for word in lstd_words(c, d, max_tau, max_xi):
        m = decode(word, c, d)
        want = any(oi_divides(g, m) for g in gens)
        assert run_dfa(dfa, word) == want, (gens, word)


class TestGeneratorLanguage:
    def test_principal_variable(self):
        automaton_vs_divisibility(1, 0, [Monomial(1, 1, ((1,),))])

    def test_marked_column(self):
        automaton_vs_divisibility(1, 1, [Monomial(1, 1, ((1,),), (1,))])

    def test_off_column(self):
        automaton_vs_divisibility(1, 1, [Monomial(1, 2, ((0,), (1,)), (1,))])

    def test_unit_generator(self):
        automaton_vs_divisibility(1, 1, [Monomial(1, 1, ((0,),), (1,))])
        automaton_vs_divisibility(1, 0, [Monomial(1, 0, (), ())])

    def test_two_colors(self):
        automaton_vs_divisibility(2, 0, [Monomial(2, 1, ((1, 2),))], 3, 4)

    def test_union(self):
        gens = [Monomial(1, 1, ((2,),)), Monomial(1, 2, ((1,), (1,)))]
        automaton_vs_divisibility(1, 0, gens)

    def test_rank_two(self):
        automaton_vs_divisibility(
            1, 2, [Monomial(1, 2, ((1,), (0,)), (1, 2))], 4, 3)

    def test_random_generators(self):
        rng = random.Random(20240817)
        for c, d in [(1, 0), (1, 1), (2, 1), (1, 2)]:
            pool = []
            for w in range(d if d else 1, 4):
                if w == 0:
                    continue
                pool.extend(all_monomials(c, d, w, 2))
            for g in rng.sample(pool, 6):
                automaton_vs_divisibility(c, d, [g], 4, 3)

    def test_determinize_minimize_agree(self):
        gens = [Monomial(2, 2, ((1, 0), (0, 1)), (2,)),
                Monomial(2, 1, ((0, 2),), (1,))]
        big = determinize(module_nfa(2, 1, gens), lstd_dfa(2, 1))
        small = minimize(big)
        assert small.n <= big.n
        for word in itertools.product(alphabet(2, 1), repeat=4):
            assert run_dfa(small, word) == run_dfa(big, word)

    def test_minimal_sizes_match_the_benchmark_corpus(self):
        # the corpus records each summand's minimal-DFA state count at the
        # commit that drew it: the construction must not change them
        corpus = json.loads(
            (ROOT / "perfbench" / "corpus" / "solve-heavy.json").read_text())
        for entry in corpus["docs"]:
            p = parse_document(entry["doc"]).effective_presentation()
            sizes = [module_dfa(p.c, d, [g for g in p.generators
                                         if g.summand == k]).n
                     for k, (d, _) in enumerate(p.summands)]
            assert sizes == entry["min_states"], entry["id"]


class TestGeneratingFunction:
    def test_full_language_rank_zero(self):
        for c in (1, 2):
            gf = generating_function(minimize(lstd_dfa(c, 0)))
            om = one_minus_t_pow(c)
            want = FactoredRational(om, ((om - BiPoly.s(), 1),))
            assert equals_cross_mul(gf, want)

    def test_full_language_rank_one(self):
        gf = generating_function(minimize(lstd_dfa(1, 1)))
        om = one_minus_t_pow(1)
        want = FactoredRational(
            BiPoly.s() * om, ((om - BiPoly.s(), 2),))
        assert equals_cross_mul(gf, want)

    def test_principal_module_closed_form(self):
        # <x_{1,1}>: st / ((1-t-s)(1-s))
        gf = generating_function(module_dfa(1, 0, [Monomial(1, 1, ((1,),))]))
        st = BiPoly.s() * BiPoly.term(0, 1)
        d1 = BiPoly.one() - BiPoly.term(0, 1) - BiPoly.s()
        d2 = BiPoly.one() - BiPoly.s()
        assert equals_cross_mul(gf, FactoredRational(st, ((d1, 1), (d2, 1))))
        # one determinant per strongly connected component, not expanded
        assert set(gf.factors) == {(d1, 1), (d2, 1)}

    def test_long_chain_past_recursion_limit(self):
        # 0 -x1-> 1 -t0-> 2 -x1-> ... -x1-> 1099, which loops on x1
        n = 1100
        trans = {(q, 1 if q % 2 == 0 else 0): q + 1 for q in range(n - 1)}
        trans[(n - 1, 1)] = n - 1
        gf = generating_function(Dfa(alphabet(1, 0), n, 0, {n - 1}, trans))
        assert gf.num == BiPoly.term(549, 550)
        assert gf.factors == ((BiPoly.one() - BiPoly.term(0, 1), 1),)

    def test_cycle_ahead_of_long_chain(self):
        # the chain above, with 1 -x1-> 0 closing a 2-cycle at its start:
        # its right-hand side is the monomial s^549*t^549 alone
        n = 1100
        trans = {(q, 1 if q % 2 == 0 else 0): q + 1 for q in range(n - 1)}
        trans[(n - 1, 1)] = n - 1
        trans[(1, 1)] = 0
        t0 = time.monotonic()
        gf = generating_function(Dfa(alphabet(1, 0), n, 0, {n - 1}, trans))
        assert time.monotonic() - t0 < 1.0
        one, t = BiPoly.one(), BiPoly.term(0, 1)
        assert gf.num == BiPoly.term(549, 550)
        # the chain's 1 - t times the cycle's 1 - t^2, split
        assert set(gf.factors) == {(one - t, 2), (one + t, 1)}

    def test_cycle_with_wide_spread_exits(self):
        # 0 <-x1-> 1 is a 2-cycle; 0 -t0-> F directly, 1 -t0-> through a
        # chain of n states to F: right-hand sides s and s^301*t^300, whose
        # common monomial s leaves a spread of s^300*t^300
        n = 600
        final = 2
        trans = {(0, 1): 1, (1, 1): 0, (0, 0): final, (1, 0): 3}
        for k in range(1, n + 1):
            trans[(2 + k, 1 if k % 2 else 0)] = 3 + k if k < n else final
        t0 = time.monotonic()
        gf = generating_function(
            Dfa(alphabet(1, 0), n + 3, 0, {final}, trans))
        assert time.monotonic() - t0 < 1.0
        # x0 = s + t*x1, x1 = t*x0 + s^301*t^300
        assert gf.num == bipoly({(1, 0): 1, (301, 301): 1})
        # the cycle's 1 - t^2, split
        one, t = BiPoly.one(), BiPoly.term(0, 1)
        assert set(gf.factors) == {(one - t, 1), (one + t, 1)}

    def test_entries_wider_than_eight_byte_digits(self):
        # I - T of a 3-cycle with signed wide entries: the determinant
        # carries (2^40 + 3)^3 * t^3, and bareiss on BiPoly rows keeps
        # every coefficient exact
        big = BiPoly.term(0, 1, 2 ** 40 + 3)
        marker = BiPoly.s() - BiPoly.term(1, 1, 5)
        one, zero = BiPoly.one(), BiPoly.zero()
        rows = [{0: one, 1: -big},
                {0: -marker, 1: one, 2: -big},
                {0: -big, 2: one - marker}]
        rhs = [one, zero, zero]
        det, nums = sympy_solve(rows, rhs)
        assert max(map(abs, terms_of(det).values())) > 2 ** 64
        assert bareiss_rows(rows, rhs, 0) == (det, nums)

    def test_counts_wider_than_eight_byte_digits(self):
        # a 13-cycle whose every edge carries all 40 variable letters:
        # 1 / (1 - 40^13 t^13), past 2^64 from t^13 on
        c, n = 40, 13
        trans = {(q, x): (q + 1) % n for q in range(n)
                 for x in range(1, c + 1)}
        gf = generating_function(Dfa(alphabet(c, 0), n, 0, {0}, trans))
        assert max(abs(v) for base, _ in gf.factors
                   for v in terms_of(base).values()) == c ** n
        win = expand_series(gf, 0, 3 * n)
        assert list(win[0]) == [c ** j if j % n == 0 else 0
                          for j in range(3 * n + 1)]

    @given(augmented_systems())
    @settings(max_examples=40, deadline=None)
    def test_polynomial_bareiss_against_sympy(self, system):
        rows, rhs = system
        assert bareiss_rows(rows, rhs, 0) == sympy_solve(rows, rhs)

    def test_lazy_levels_against_sympy(self):
        rng = random.Random(20261018)
        splits = random.Random(1971)
        cases = {"skips several": 0, "lifted as pivot": 0,
                 "untouched until its pivot": 0, "zero rhs": 0,
                 "split inside": 0, "last row alone": 0}
        for _ in range(12):
            size = rng.randint(4, 7)
            rows, rhs = random_sparse_system(rng, size, 0.25)
            if not any(rhs):
                continue
            moves = elimination_levels(rows)
            for i, steps in enumerate(moves):
                cases["skips several"] += any(k - l >= 2 for k, l in steps)
                # brought up to date only when it becomes the pivot row
                cases["lifted as pivot"] += steps[-1][1] < i
                cases["untouched until its pivot"] += i > 1 and len(steps) == 1
                cases["zero rhs"] += not rhs[i]
            mat = sympy.Matrix(size, size, lambda i, j: to_sympy(
                rows[i].get(j, BiPoly.zero())))
            det = from_sympy(sympy.expand(mat.det(method="berkowitz")))
            got_det, nums = bareiss_rows(rows, rhs, 0)
            assert got_det == det
            # M (det x) = det b determines det x, as det is nonzero
            for row, b in zip(rows, rhs):
                total = BiPoly.zero()
                for j, p in row.items():
                    total = total + p * nums[j]
                assert total == det * b
            # read only rows first.. (entry states): Cramer's numerators
            # for those rows, and the same determinant
            first = splits.randrange(size)
            cases["split inside"] += 0 < first < size - 1
            cases["last row alone"] += first == size - 1
            col = sympy.Matrix([to_sympy(b) for b in rhs])
            got_det, entry = bareiss_rows(rows, rhs, first)
            assert got_det == det
            assert len(entry) == size - first
            for i, num in zip(range(first, size), entry):
                m = mat.copy()
                m[:, i] = col
                assert num == from_sympy(sympy.expand(
                    m.det(method="berkowitz")))
        assert all(cases.values()), cases

    def test_dag_first_solve_against_sympy(self):
        # hand-built DFAs whose boundary components have two or more
        # states: marker targets inside one strongly connected component
        # and variable cycles longer than one edge, next to self-loops of
        # several letters and states eliminated along the variable DAG;
        # the series against Cramer's rule on the whole of I - T
        rng = random.Random(1963)
        cases = {"markers into each other": 0, "longer variable cycle": 0,
                 "several-letter loop": 0, "eliminated": 0}
        for _ in range(40):
            dfa = random_boundary_dfa(rng, 2)
            succ, xsucc, loops = {}, {}, {}
            for (q, a), r in dfa.trans.items():
                succ.setdefault(q, set()).add(r)
                if is_xi(a):
                    xsucc.setdefault(q, set()).add(r)
                    loops[q] = loops.get(q, 0) + (q == r)
            targets = {r for (q, a), r in dfa.trans.items() if not is_xi(a)}
            for comp in polyarith._sccs(dfa.start, succ):
                cases["markers into each other"] += (
                    len(targets & set(comp)) > 1)
            cyclic = {q for comp in polyarith._sccs(dfa.start, xsucc)
                      if len(comp) > 1 for q in comp}
            cases["longer variable cycle"] += bool(cyclic)
            several = {q for q, k in loops.items() if k > 1}
            cases["several-letter loop"] += bool(several)
            cases["eliminated"] += bool(
                closure({dfa.start}, dfa.trans.items()) - targets - cyclic
                - several - {dfa.start})
            assert equals_cross_mul(generating_function(dfa),
                                    sympy_generating_function(dfa)), (
                dfa.trans, dfa.accepts)
        assert all(v >= 5 for v in cases.values()), cases

    def test_negative_schur_exponent(self):
        # states 0 and 1 both reach V = {2}, whose diagonal is 1 - t, and
        # 2 leads back to both: in this one component m = 1 and J_0 =
        # J_1 = 1, so the determinant of the scaled rows of K is
        # (1-t)^(sum J - m) = (1-t) times det(I - T).  Every numerator of
        # the component vanishes at t = 1 too, and the extra 1 - t
        # cancels: what is left is Cramer's rule over the split of
        # det(I - T)
        trans = {(0, 0): 1, (0, 1): 2, (1, 1): 2, (1, 2): 2, (1, 0): 0,
                 (2, 1): 2, (2, 2): 0, (2, 0): 1}
        dfa = Dfa(alphabet(2, 0), 3, 0, {2}, trans)
        gf = generating_function(dfa)
        want = sympy_generating_function(dfa)
        (det, _), = want.factors
        assert gf.num == want.num
        assert gf.factors == FactoredRational(
            want.num, split_content(det)).factors

    def test_one_minus_t_cancels_past_the_determinant(self):
        # solve-heavy-020 of the benchmark corpus: x[2,3] e_1 at width 4
        # and x[2,1] x[2,2] e_1 at width 2, a 12-state minimal DFA.  Its
        # kept numerators vanish at t = 1 more often than the determinant
        # of their component carries 1 - t: 1 - t cancels up to its
        # exponent in the whole factor tuple, and (1-t)^2 is left
        gens = [Monomial(2, 4, ((0, 0), (0, 0), (0, 1), (0, 0)), (1,)),
                Monomial(2, 2, ((0, 1), (0, 1)), (1,))]
        dfa = module_dfa(2, 1, gens)
        assert dfa.n == 12
        gf = generating_function(dfa)
        assert dict(gf.factors)[BiPoly.one() - BiPoly.term(0, 1)] == 2
        assert equals_cross_mul(gf, sympy_generating_function(dfa))

    def test_successor_components_with_different_factors(self):
        # 0 <-x1-> 1 is a 2-cycle and 0 accepts; 0 -t0-> 2 reaches a
        # component with factors (1-t)^2, 1 -t0-> 3 one with (1-s)(1-t):
        # x2 = s/(1-t)^2 via 2 -t0-> 4, x3 = t/((1-s)(1-t)) via 3 -x1-> 4,
        # and x4 = 1/(1-t) loops on x1 and accepts
        trans = {(0, 1): 1, (1, 1): 0, (0, 0): 2, (1, 0): 3,
                 (2, 1): 2, (2, 0): 4, (3, 0): 3, (3, 1): 4, (4, 1): 4}
        dfa = Dfa(alphabet(1, 0), 5, 0, {0, 4}, trans)
        gf = generating_function(dfa)
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.term(0, 1)
        # the cycle's 1 - t^2 splits into 1 - t and 1 + t
        want = FactoredRational(
            one, [(one - t, 3), (one + t, 1), (one - s, 1)]).factors
        assert gf.factors == want
        assert expand_series(gf, 4, 4) == word_count_window(dfa, 4, 4)

    def test_cofactor_memo_matches_direct_product(self):
        # factor tuples are dicts {factor id: exponent} over one list of
        # bases; each lack names the factor powers a tuple misses against
        # the maximum, so equal lacks share one cofactor (generating_function
        # memoizes by them), and a factor power past another tuple's raises
        # the maximum and adds nothing to that tuple's cofactor
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.term(0, 1)
        bases = [one - t, one + t, one - s, one - s * t - t * t,
                 one - s - s * t * 2]
        rng = random.Random(505)
        lacks = set()
        for _ in range(300):
            tuples = [{i: rng.randint(1, 3) for i in rng.sample(
                range(len(bases)), rng.randint(0, len(bases)))}
                for _ in range(rng.randint(1, 3))]
            top, missing = common_denominator(tuples)
            assert top == {i: max(f.get(i, 0) for f in tuples)
                           for f in tuples for i in f}
            for factors, lack in zip(tuples, missing):
                want = one
                for i, e in top.items():
                    for _ in range(e - factors.get(i, 0)):
                        want = want * bases[i]
                assert power_product(
                    (bases[i], e) for i, e in lack) == want, (tuples, factors)
                lacks.add(lack)
            assert all(top is not f for f in tuples)
        assert len(lacks) < 300

    def test_dead_cycle_contributes_nothing(self):
        # 1 <-x1-> 2 reaches no accepting state: a component whose
        # right-hand sides are all zero
        trans = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (2, 1): 1}
        gf = generating_function(Dfa(alphabet(1, 0), 3, 0, {0}, trans))
        assert (gf.num, gf.factors) == (
            BiPoly.one(), ((BiPoly.one() - BiPoly.s(), 1),))

    def test_factors_split_at_birth(self):
        # every factor is 1 - t, or has constant term 1 and unit content
        # over Z[t] (its s-coefficients have gcd +-1)
        docs = [load_document(str(path)).effective_presentation()
                for path in sorted(INPUTS.glob("*.json"))]
        rng = random.Random(2718)
        docs += [random_presentation(rng) for _ in range(40)]
        one_minus_t = BiPoly.one() - BiPoly.term(0, 1)
        seen = 0
        for p in docs:
            for idx, (d, _) in enumerate(p.summands):
                gens = [g for g in p.generators if g.summand == idx]
                gf = generating_function(module_dfa(p.c, d, gens))
                for base, _ in gf.factors:
                    seen += 1
                    if base == one_minus_t:
                        continue
                    assert base.coeff(0, 0) == 1, base
                    coeffs = sympy.Poly(to_sympy(base), S).all_coeffs()
                    assert sympy.gcd_list(coeffs) in (1, -1), base
        assert seen > 50

    def test_variable_cycles_are_self_loops(self, monkeypatch):
        # the lemma behind split_content: in a minimal module DFA every
        # cycle of variable letters is a self-loop, one letter per state,
        # so every determinant is a power of 1 - t at s = 0
        docs = [load_document(str(path)).effective_presentation()
                for path in sorted(INPUTS.glob("*.json"))]
        rng = random.Random(2719)
        docs += [random_presentation(rng) for _ in range(40)]
        for _ in range(40):
            d = rng.randint(0, 2)
            gens = [random_monomial(rng, 2, rng.randint(max(d, 1), 4), d,
                                    0, 4)
                    for _ in range(rng.randint(2, 4))]
            docs.append(ModulePresentation(2, [(d, 0)], gens))
        dets = []
        monkeypatch.setattr(polyarith, "split_content",
                            lambda det: dets.append(det) or [(det, 1)])
        loops = edges = 0
        for p in docs:
            for idx, (d, _) in enumerate(p.summands):
                gens = [g for g in p.generators if g.summand == idx]
                dfa = module_dfa(p.c, d, gens)
                looped = set()
                succ = {}
                for (q, a), r in dfa.trans.items():
                    if not is_xi(a):
                        continue
                    if q == r:
                        assert q not in looped, (p, d, q)
                        looped.add(q)
                    else:
                        succ.setdefault(q, set()).add(r)
                        edges += 1
                loops += len(looped)
                # Kahn's algorithm: the other variable edges are acyclic
                indeg = {}
                for rs in succ.values():
                    for r in rs:
                        indeg[r] = indeg.get(r, 0) + 1
                ready = [q for q in succ if q not in indeg]
                while ready:
                    for r in succ.get(ready.pop(), ()):
                        indeg[r] -= 1
                        if not indeg[r]:
                            ready.append(r)
                assert not any(indeg.values()), (p, d)
                generating_function(dfa)
        assert loops > 100 and edges > 100
        assert len(dets) > 100
        for det in dets:
            row = list(det.rows[0])
            (rest,), _ = divide_out([row], len(row) - 1)
            assert rest == [1], det

    def test_path_count_oracle_against_enumeration(self):
        # word_count_window against running every word of up to six
        # letters on random partial DFAs over two colors and rank one
        rng = random.Random(4242)
        letters = alphabet(2, 1)
        for _ in range(30):
            dfa = random_partial_dfa(rng, letters)
            want = [[0] * 4 for _ in range(4)]
            for length in range(7):
                for word in itertools.product(letters, repeat=length):
                    j = sum(map(is_xi, word))
                    if j <= 3 and length - j <= 3 and run_dfa(dfa, word):
                        want[length - j][j] += 1
            assert word_count_window(dfa, 3, 3) == tuple(map(tuple, want))

    def test_random_dfas_against_path_counts(self):
        # random partial DFAs over c = 2 and c = 3 colors whose edges
        # bundle letters of both kinds into one target, and ones that aim
        # every letter anywhere (variable cycles of any length, self-loops
        # of several letters of both kinds), against counting the
        # accepted words path by path
        rng, anywhere = random.Random(2006), random.Random(1971)
        cases = {"2 variables and a marker": 0, "3 variables and a marker": 0,
                 "loop of both kinds": 0, "dead cycle": 0,
                 "several accepting": 0, "1 entry": 0, "2 entries": 0,
                 "3 entries": 0}
        entry_cases = {1: "1 entry", 2: "2 entries", 3: "3 entries"}
        for c in (2, 3):
            letters = alphabet(c, 1)
            dfas = [bundled_dfa(rng, letters) for _ in range(40)]
            dfas += [random_partial_dfa(anywhere, letters) for _ in range(30)]
            for dfa in dfas:
                counts = {}
                for (q, a), r in dfa.trans.items():
                    kinds = counts.setdefault((q, r), [0, 0])
                    kinds[not is_xi(a)] += 1
                for (q, r), (xs, markers) in counts.items():
                    if markers:
                        cases["loop of both kinds"] += q == r and xs > 0
                        if xs in (2, 3):
                            cases[f"{xs} variables and a marker"] += 1
                succ = {}
                for q, r in counts:
                    succ.setdefault(q, {})[r] = True
                comps = polyarith._sccs(dfa.start, succ)
                where = {q: i for i, comp in enumerate(comps) for q in comp}
                live = closure(dfa.accepts, [
                    ((r, None), q) for q, r in counts])
                cases["several accepting"] += len(dfa.accepts & set(where)) > 1
                for i, comp in enumerate(comps):
                    cyclic = len(comp) > 1 or (comp[0], comp[0]) in counts
                    cases["dead cycle"] += cyclic and comp[0] not in live
                    entries = {r for (q, r) in counts
                               if r in comp and where.get(q, i) != i}
                    entries |= {dfa.start} & set(comp)
                    if len(comp) > 1 and len(entries) <= 3:
                        cases[entry_cases[len(entries)]] += 1
                gf = generating_function(dfa)
                assert expand_series(gf, 6, 6) == word_count_window(
                    dfa, 6, 6), (c, dfa.trans, dfa.accepts)
        assert all(cases.values()), cases

    def test_empty_language_is_zero(self):
        assert generating_function(module_dfa(1, 0, [])).is_zero()

    def test_window_matches_widthwise(self):
        cases = [
            (1, [(0, 0)], [Monomial(1, 2, ((1,), (1,)))]),
            (2, [(0, 0)], [Monomial(2, 1, ((1, 1),))]),
            (1, [(1, 0)], [Monomial(1, 2, ((1,), (0,)), (2,)),
                           Monomial(1, 1, ((3,),), (1,))]),
        ]
        for c, summands, gens in cases:
            p = ModulePresentation(c, summands, gens)
            d = summands[0][0]
            gf = generating_function(module_dfa(c, d, gens))
            win = expand_series(gf, 5, 5)
            for n in range(6):
                dims = hilbert_width(p, n, quotient=False).dims(5)
                for j in range(6):
                    assert win[n][j] == dims[j], (n, j)


class TestPerformanceProbe:
    def test_degree_probe(self):
        # the quotient by x[1,1]^e x[1,2] and x[1,1] x[1,2]^e at e = 100:
        # a 204-state minimal DFA, checked width by width past t^e
        e = 100
        p = ModulePresentation(1, [(0, 0)], [
            Monomial(1, 2, ((e,), (1,))), Monomial(1, 2, ((1,), (e,)))])
        assert module_dfa(1, 0, p.generators).n == 204
        win = module_series(p, quotient=True, reduce=True).window(3, e + 2)
        for n in range(4):
            dims = hilbert_width(p, n, quotient=True).dims(e + 2)
            assert [win[n][j] for j in range(e + 3)] == dims, n

    def test_degree_probe_at_automaton_scale(self):
        # e = 1600: a 3,204-state minimal DFA whose 1,600-state component
        # is mostly eliminated along the variable DAG; the reduced series
        # is the column route's
        e = 1600
        p = ModulePresentation(1, [(0, 0)], [
            Monomial(1, 2, ((e,), (1,))), Monomial(1, 2, ((1,), (e,)))])
        dfa = module_dfa(1, 0, p.generators)
        assert dfa.n == 2 * e + 4
        t0 = time.monotonic()
        gf = generating_function(dfa)
        assert time.monotonic() - t0 < 2.0
        got = gf.reduce()
        want = module_series(p, quotient=False, reduce=True).rational
        assert (got.num, got.factors) == (want.num, want.factors)

    def test_moderate_module_is_fast(self):
        gens = [
            Monomial(2, 3, ((1, 0), (0, 1), (1, 0)), (1, 3)),
            Monomial(2, 3, ((0, 2), (1, 0), (0, 1)), (2, 3)),
            Monomial(2, 2, ((1, 1), (1, 0)), (1, 2)),
        ]
        t0 = time.monotonic()
        dfa = module_dfa(2, 2, gens)
        t1 = time.monotonic()
        gf = generating_function(dfa)
        t2 = time.monotonic()
        build, solve = t1 - t0, t2 - t1
        print(f"\n  dfa states={dfa.n} build={build:.3f}s solve={solve:.3f}s "
              f"num terms={len(terms_of(gf.num))}")
        assert solve < 30.0
        win = expand_series(gf, 6, 6)
        p = ModulePresentation(2, [(2, 0)], gens)
        for n in (4, 6):
            dims = hilbert_width(p, n, quotient=False).dims(6)
            for j in range(7):
                assert win[n][j] == dims[j]
