import itertools
import json
import random
import time
from pathlib import Path

import sympy
from hypothesis import given, settings, strategies as st

from oihilbert.automata import (
    Dfa,
    Nfa,
    _cofactor,
    _default_weight,
    _pack_size,
    _simulation,
    _solve_component,
    determinize,
    generating_function,
    generator_nfa,
    intersect_nfa_dfa,
    lstd_dfa,
    minimize,
    module_dfa,
    union_nfa,
)
from oihilbert.oicore import Monomial, ModulePresentation, hilbert_width, oi_divides
from oihilbert.polyarith import BiPoly, FactoredRational, expand_series
from oihilbert.schema import load_document, parse_document
from oihilbert.series import module_series
from oihilbert.words import alphabet, decode, is_in_lstd

from corpus import random_presentation
from enumerate_small import all_monomials, lstd_words
from oracles import (equals_cross_mul, moore_minimize, pairwise_simulation,
                     run_dfa, subset_dfa)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"


S, T = sympy.symbols("s t")


def one_minus_t_pow(c):
    return (BiPoly.one() - BiPoly.t()) ** c


def to_sympy(p):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in p.terms.items()))


def from_sympy(expr):
    if expr == 0:
        return BiPoly.zero()
    return BiPoly({k: int(c) for k, c in sympy.Poly(expr, S, T).terms()})


# entries of I - T: weights vanish at the origin, diagonals start at 1
vanishing = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
    st.integers(-4, 4), max_size=3).map(BiPoly)
rhs_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.integers(-4, 4), max_size=3).map(BiPoly)


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
        return BiPoly({rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]):
                       rng.choice([-3, -2, -1, 1, 2, 3])
                       for _ in range(rng.randint(1, 2))})

    rows = []
    for i in range(size):
        row = {j: -vanishing() for j in range(size)
               if j != i and rng.random() < density}
        row[i] = BiPoly.one() - vanishing()
        rows.append(row)
    rhs = [BiPoly.zero() if rng.random() < 1 / 3 else
           BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                   for _ in range(2)}) for _ in range(size)]
    return rows, rhs


def elimination_levels(rows):
    """The levels the lazy elimination moves each row through, by the fill
    pattern (cancellation ignored): per row, (step, level before) for each
    step that rescales it, its own pivot step included, and the final
    (size, level) of the right-hand side."""
    size = len(rows)
    pattern = [set(row) for row in rows]
    lvl = [0] * size
    moves = [[] for _ in rows]
    for k in range(size):
        moves[k].append((k, lvl[k]))
        lvl[k] = k + 1
        for i in range(size):
            if i != k and k in pattern[i]:
                moves[i].append((k, lvl[i]))
                pattern[i] = {j for j in pattern[i] | pattern[k] if j > k}
                lvl[i] = k + 1
    for i in range(size):
        moves[i].append((size, lvl[i]))
    return moves


def brute_window(dfa, weight, n_max, j_max):
    """Sum of weight(w) over accepted words, by enumeration; every weight
    has total degree >= 1, so words up to n_max + j_max letters suffice."""
    total = BiPoly.zero()
    for length in range(n_max + j_max + 1):
        for word in itertools.product(dfa.alphabet, repeat=length):
            if run_dfa(dfa, word):
                w = BiPoly.one()
                for a in word:
                    w = w * weight(a)
                total = total + w
    return [[total.coeff(n, j) for j in range(j_max + 1)]
            for n in range(n_max + 1)]


class TestLstdDfa:
    def test_exhaustive_small(self):
        for c, d, max_len in [(1, 0, 7), (1, 1, 7), (2, 1, 6), (1, 2, 6), (2, 2, 5)]:
            dfa = lstd_dfa(c, d)
            letters = alphabet(c, d)
            for length in range(max_len + 1):
                for word in itertools.product(letters, repeat=length):
                    assert run_dfa(dfa, word) == is_in_lstd(word, c, d), word

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
                u = union_nfa([generator_nfa(g, d) for g in gens])
                yield entry["id"], u, lstd_dfa(p.c, d)


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
        u = union_nfa([generator_nfa(g, 0) for g in gens])
        lstd = lstd_dfa(1, 0)
        pruned = determinize(u, lstd)
        full = subset_dfa(intersect_nfa_dfa(u, lstd))
        assert pruned.n < full.n
        assert minimize(pruned).n == 804


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
        u = union_nfa([generator_nfa(g, 1) for g in gens])
        big = determinize(u, lstd_dfa(2, 1))
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
        st = BiPoly.s() * BiPoly.t()
        d1 = BiPoly.one() - BiPoly.t() - BiPoly.s()
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
        assert gf.factors == ((BiPoly.one() - BiPoly.t(), 1),)

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
        one, t = BiPoly.one(), BiPoly.t()
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
        assert gf.num == BiPoly({(1, 0): 1, (301, 301): 1})
        # the cycle's 1 - t^2, split
        one, t = BiPoly.one(), BiPoly.t()
        assert set(gf.factors) == {(one - t, 1), (one + t, 1)}

    def test_weights_wider_than_eight_byte_digits(self):
        # a 3-cycle whose determinant carries (2^40 + 3)^3 * t^3
        big = 2 ** 40 + 3
        weights = {1: BiPoly.term(0, 1, big),
                   0: BiPoly.s() - BiPoly.term(1, 1, 5)}
        trans = {(0, 1): 1, (1, 1): 2, (2, 1): 0, (1, 0): 0, (2, 0): 2}
        dfa = Dfa(alphabet(1, 0), 3, 0, {0}, trans)
        gf = generating_function(dfa, weights.__getitem__)
        assert max(abs(c) for base, _ in gf.factors
                   for c in base.terms.values()) > 2 ** 64
        win = expand_series(gf, 4, 4)
        want = brute_window(dfa, weights.__getitem__, 4, 4)
        assert [[win[(n, j)] for j in range(5)] for n in range(5)] == want

    @given(augmented_systems())
    @settings(max_examples=40, deadline=None)
    def test_packed_solve_bounds_and_values(self, system):
        rows, rhs = system
        size = len(rows)
        width, bound = _pack_size(rows, rhs)
        mat = sympy.Matrix(size, size, lambda i, j: to_sympy(
            rows[i].get(j, BiPoly.zero())))
        col = sympy.Matrix([to_sympy(b) for b in rhs])
        det = from_sympy(sympy.expand(mat.det()))
        nums = []
        for i in range(size):
            m = mat.copy()
            m[:, i] = col
            nums.append(from_sympy(sympy.expand(m.det())))
        for p in [det] + nums:
            assert p.maxabs() <= bound
            assert p.deg_t() < width
        assert _solve_component(rows, rhs, 0) == (det, nums)

    def test_lazy_levels_against_sympy(self):
        rng = random.Random(20261018)
        splits = random.Random(1971)
        cases = {"skips several": 0, "first touched last": 0,
                 "rescaled at the end": 0, "zero rhs": 0,
                 "split inside": 0, "last row alone": 0}
        for _ in range(12):
            size = rng.randint(4, 7)
            rows, rhs = random_sparse_system(rng, size, 0.25)
            if not any(rhs):
                continue
            moves = elimination_levels(rows)
            for i, steps in enumerate(moves):
                touched = [k for k, _ in steps[:-1] if k != i]
                cases["skips several"] += any(k - l >= 2 for k, l in steps)
                # below the last pivot, its level differs from the
                # previous pivot's
                cases["first touched last"] += (
                    i < size - 2 and touched == [size - 1])
                cases["rescaled at the end"] += bool(
                    rhs[i] and steps[-1][1] < size)
                cases["zero rhs"] += not rhs[i]
            mat = sympy.Matrix(size, size, lambda i, j: to_sympy(
                rows[i].get(j, BiPoly.zero())))
            det = from_sympy(sympy.expand(mat.det(method="berkowitz")))
            got_det, nums = _solve_component(rows, rhs, 0)
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
            got_det, entry = _solve_component(rows, rhs, first)
            assert got_det == det
            assert len(entry) == size - first
            for i, num in zip(range(first, size), entry):
                m = mat.copy()
                m[:, i] = col
                assert num == from_sympy(sympy.expand(
                    m.det(method="berkowitz")))
        assert all(cases.values()), cases

    def test_column_stride_cases(self):
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.t()
        cases = [
            # columns of t-degree 0 and 3, right-hand side t^2: replacing
            # the degree-0 column lifts a Cramer numerator to t-degree 5,
            # past the column sum 3 and short of the row bound 2 + 6
            ([{0: one - s, 1: -t ** 3}, {0: -s, 1: one - t ** 3}],
             [t ** 2, BiPoly.zero()], 6),
            # columns of t-degree 3 and 1 above a constant right-hand
            # side: det(M) reaches the column sum 4, short of the row
            # bound 0 + 6
            ([{0: one - t ** 3, 1: -(s * t)}, {0: -(t ** 3), 1: one - s}],
             [one, BiPoly.zero()], 5),
        ]
        for rows, rhs, want in cases:
            size = len(rows)
            width, _ = _pack_size(rows, rhs)
            assert width == want
            mat = sympy.Matrix(size, size, lambda i, j: to_sympy(
                rows[i].get(j, BiPoly.zero())))
            det = from_sympy(sympy.expand(mat.det()))
            nums = []
            for i in range(size):
                m = mat.copy()
                m[:, i] = sympy.Matrix([to_sympy(b) for b in rhs])
                nums.append(from_sympy(sympy.expand(m.det())))
            assert max(p.deg_t() for p in [det] + nums) == want - 1
            assert _solve_component(rows, rhs, 0) == (det, nums)

    def test_successor_components_with_different_factors(self):
        # 0 <-x1-> 1 is a 2-cycle and 0 accepts; 0 -t0-> 2 reaches a
        # component with factors (1-t)^2, 1 -t0-> 3 one with (1-s)(1-t):
        # x2 = s/(1-t)^2 via 2 -t0-> 4, x3 = t/((1-s)(1-t)) via 3 -x1-> 4,
        # and x4 = 1/(1-t) loops on x1 and accepts
        trans = {(0, 1): 1, (1, 1): 0, (0, 0): 2, (1, 0): 3,
                 (2, 1): 2, (2, 0): 4, (3, 0): 3, (3, 1): 4, (4, 1): 4}
        dfa = Dfa(alphabet(1, 0), 5, 0, {0, 4}, trans)
        gf = generating_function(dfa)
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.t()
        # the cycle's 1 - t^2 splits into 1 - t and 1 + t
        want = FactoredRational(
            one, [(one - t, 3), (one + t, 1), (one - s, 1)]).factors
        assert gf.factors == want
        win = expand_series(gf, 4, 4)
        assert [[win[(n, j)] for j in range(5)] for n in range(5)] == \
            brute_window(dfa, _default_weight, 4, 4)

    def test_cofactor_memo_matches_direct_product(self):
        # one memo across many (top, factors) pairs, as one
        # generating_function call shares it across components
        one, s, t = BiPoly.one(), BiPoly.s(), BiPoly.t()
        pool = [one - t, one + t, one - s, one - s * t - t * t,
                one - s - s * t * 2]
        rng = random.Random(505)
        memo = {}
        for _ in range(300):
            top = {b.key(): (b, rng.randint(1, 3))
                   for b in rng.sample(pool, rng.randint(0, len(pool)))}
            factors = tuple((b, rng.randint(1, 3)) for b, _ in rng.sample(
                list(top.values()), rng.randint(0, len(top))))
            have = {b.key(): e for b, e in factors}
            want = one
            for key, (b, e) in top.items():
                for _ in range(e - have.get(key, 0)):
                    want = want * b
            assert _cofactor(top, factors, memo) == want
        assert len(memo) < 300

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
        one_minus_t = BiPoly.one() - BiPoly.t()
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
                    assert win[(n, j)] == dims[j], (n, j)


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
            assert [win[(n, j)] for j in range(e + 3)] == dims, n

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
              f"num terms={len(gf.num.terms)}")
        assert solve < 30.0
        win = expand_series(gf, 6, 6)
        p = ModulePresentation(2, [(2, 0)], gens)
        for n in (4, 6):
            dims = hilbert_width(p, n, quotient=False).dims(6)
            for j in range(7):
                assert win[(n, j)] == dims[j]
