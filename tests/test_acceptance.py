"""End-to-end acceptance suite: twelve numbered criteria, one test each.

Every test prints a single "criterion NN ...: PASS/FAIL" line (visible with
-s, or in the captured output of a failing run) and asserts that no case
failed.  All arithmetic is exact — integer window tables, cross-multiplied
polynomial identities, Fraction closed forms — and every randomized corpus
is seeded, so the suite is deterministic.
"""

import random
from itertools import combinations, permutations, product
from math import comb, inf

import pytest

from corpus import random_ideal, random_monomial, random_presentation, \
    random_single_summand
from oracles import (
    ZeroModule,
    dim_deg_width,
    equals_cross_mul,
    in_lstd,
    oi_divides,
    paper_artinian,
    repeated_division_sides,
    run_dfa,
    size_invariants,
    verify_decomposition,
)
from oihilbert.analysis import (
    artinian_test,
    asymptotic_dimension,
    asymptotic_multiplicity,
    fixed_degree_polynomial,
    validate_shape,
)
from oihilbert.automata import module_dfa
from oihilbert.decomposition import compute_decomposition
from oihilbert.oicore import (
    ModulePresentation,
    Monomial,
    hilbert_width,
    symmetrize_fi_ideal,
)
from oihilbert.polyarith import BiPoly, FactoredRational
from oihilbert.series import module_series
from oihilbert.words import alphabet, decode, encode, is_tau

S = BiPoly.term(1, 0)
T = BiPoly.term(0, 1)
ONE = BiPoly.one()

FREE_PAIRS = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)]
BIJECTION_PAIRS = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
MEMBERSHIP_PAIRS = [(1, 0), (1, 1), (2, 1), (1, 2)]


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} {name}: {status}")
    assert not failures, f"{len(failures)} case(s), first: {failures[0]!r}"


def free_presentation(c, d):
    return ModulePresentation(c, [(d, 0)], [])


def principal_power(a):
    return ModulePresentation(1, [(0, 0)], [Monomial(1, 1, ((a,),))])


def bounded_tuples(k, cap):
    """All k-tuples of non-negative ints with sum <= cap."""
    if k == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in bounded_tuples(k - 1, cap - head):
            yield (head,) + rest


def all_monomials(c, d, w_max, deg_max):
    out = []
    for width in range(d, w_max + 1):
        if width == 0:
            out.append(Monomial(c, 0, (), ()))
            continue
        for pi in combinations(range(1, width + 1), d):
            for flat in bounded_tuples(c * width, deg_max):
                cols = tuple(tuple(flat[c * j:c * (j + 1)])
                             for j in range(width))
                out.append(Monomial(c, width, cols, pi))
    return out


@pytest.fixture(scope="module")
def corpus():
    """The shared 200-presentation random corpus (criteria 3, 6, 8-11)."""
    rng = random.Random(20260816)
    out = []
    for _ in range(200):
        p = random_presentation(rng, max_summands=2, max_gens=3, max_width=3,
                                max_deg=3, shifts=(0, 1, 2))
        out.append((p, module_series(p, quotient=True)))
    return out


def test_criterion_01_free_module_series():
    failures = []
    for c, d in FREE_PAIRS:
        res = module_series(free_presentation(c, d))
        closed = FactoredRational(S ** d * (ONE - T) ** c,
                                  (((ONE - T) ** c - S, d + 1),))
        if res.t_prefactor != 0 or not equals_cross_mul(res.rational, closed):
            failures.append((c, d, "rational identity"))
        win = res.window(6, 6)
        for n in range(7):
            for j in range(7):
                if n == 0:
                    want = 1 if (d == 0 and j == 0) else 0
                else:
                    want = comb(n, d) * comb(c * n + j - 1, j)
                if win[n][j] != want:
                    failures.append((c, d, n, j))
    report(1, "free-module series", failures)


def test_criterion_02_principal_ideal_closed_form():
    cases = [((1,), (1,)), ((1,), (2,)), ((1, 2), (1, 1)),
             ((1, 3), (2, 1)), ((2,), (3,))]
    failures = []
    for positions, exponents in cases:
        w = positions[-1]
        cols = [[0] for _ in range(w)]
        for pos, a in zip(positions, exponents):
            cols[pos - 1][0] = a
        p = ModulePresentation(1, [(0, 0)], [Monomial(1, w, cols)])
        res = module_series(p, quotient=True, reduce=True)
        r = len(positions)
        den_claim = (ONE - T) ** (w - 1)
        rhs = (ONE - T) ** (w - r)
        for a in exponents:
            block = BiPoly.zero()
            for k in range(a):
                block = block + T ** k
            den_claim = den_claim * (ONE - S * block)
            rhs = rhs * (ONE - T - S + S * T ** a)
        rhs = rhs - S ** w * T ** sum(exponents)
        # H = g/den_claim with g(1-t-s) = rhs, checked by cross-multiplication
        lhs = res.rational.num * den_claim * (ONE - T - S)
        if res.t_prefactor != 0 or lhs != res.rational.den_expanded() * rhs:
            failures.append((positions, exponents))
    report(2, "principal-ideal closed form", failures)


def test_criterion_03_series_equals_width_oracle(corpus):
    failures = []
    for k, (p, res) in enumerate(corpus):
        win = res.window(6, 6)
        for n in range(7):
            dims = hilbert_width(p, n, quotient=True).dims(6)
            for j in range(7):
                if win[n][j] != dims[j]:
                    failures.append((k, n, j, win[n][j], dims[j]))
    report(3, "series window equals width-wise oracle", failures)


def test_criterion_04_bijection_suite():
    failures = []
    for c, d in BIJECTION_PAIRS:
        for m in all_monomials(c, d, 4, 4):
            w = encode(m)
            taus = sum(1 for a in w if is_tau(a))
            if decode(w, c, d) != m:
                failures.append(("decode-encode", c, d, m))
            if taus != m.width or len(w) - taus != m.degree:
                failures.append(("letter accounting", c, d, m))
        in_language = 0
        for length in range(9):
            for w in product(alphabet(c, d), repeat=length):
                taus = sum(1 for a in w if is_tau(a))
                if taus > 4 or length - taus > 4:
                    continue
                if not in_lstd(w, c, d):
                    continue
                in_language += 1
                m = decode(w, c, d)
                if encode(m) != w:
                    failures.append(("encode-decode", c, d, w))
                if any(m.pi[i] >= m.pi[i + 1] for i in range(d - 1)):
                    failures.append(("position tuple", c, d, w))
        if not in_language:
            failures.append(("empty language", c, d))
    report(4, "word-monomial bijection", failures)


def test_criterion_05_language_membership():
    rng = random.Random(51)
    failures = []
    for c, d in MEMBERSHIP_PAIRS:
        pool = [(m, encode(m)) for m in all_monomials(c, d, 5, 5)]
        for g_idx in range(20):
            g = random_monomial(rng, c, rng.randint(max(d, 1), 3), d)
            dfa = module_dfa(c, d, [g])
            for m, w in pool:
                if run_dfa(dfa, w) != oi_divides(g, m):
                    failures.append((c, d, g_idx, g, m))
    report(5, "automaton membership equals OI-divisibility", failures)


def test_criterion_06_denominator_shape(corpus):
    failures = []
    for k, (p, res) in enumerate(corpus):
        # the content in Z[t] is s-free, so a primitive part has the
        # s-degree of its base; the shape split relies on it being <= 1
        for base, _ in res.rational.reduce().factors:
            if base.deg_s() > 1:
                failures.append((k, "primitive part of s-degree > 1", base))
        rep = validate_shape(res, p.c)
        if not rep.conformant:
            failures.append((k, "not conformant", rep.leftover))
            continue
        if p.c == 1:
            for t_power, growth in rep.factors:
                narrow = (t_power in (0, 1)
                          and all(x == 1 for x in growth)
                          and (t_power == 0 or len(growth) == 1))
                if not narrow:
                    failures.append((k, t_power, growth))
    report(6, "reduced denominator shape", failures)


def test_criterion_07_decomposition_identity():
    rng = random.Random(71)
    failures = []
    for k in range(100):
        p = random_single_summand(rng, max_d=2, max_gens=3, max_width=3,
                                  max_deg=3)
        si_p = size_invariants(p).si
        si_at = {}
        for e in product(range(3), repeat=p.c):
            dec = compute_decomposition(p, e)
            # every width from 1 up to 4 past the widest generator (at
            # most 3 here, or d <= 2 without any)
            for n in range(1, 8):
                ok, lhs, rhs = verify_decomposition(p, e, n, 6)
                if not ok:
                    failures.append((k, e, n, lhs, rhs))
            si_at[e] = size_invariants(dec.unmarked).si
            if not si_p >= si_at[e]:
                failures.append((k, e, "size bound"))
        for e1, s1 in si_at.items():
            for e2, s2 in si_at.items():
                if all(a <= b for a, b in zip(e1, e2)) and not s1 >= s2:
                    failures.append((k, e1, e2, "size monotonicity"))
    report(7, "decomposition identity and size comparison", failures)


def test_criterion_08_repeated_division(corpus):
    failures = []
    for k, (p, _) in enumerate(corpus):
        wi = size_invariants(p).wi_plus
        top = wi if wi != -inf else 1
        for n in range(1, top + 4):
            lhs, rhs = repeated_division_sides(p, n)
            if not (lhs - rhs).is_zero():
                failures.append((k, n))
    report(8, "repeated-division width identity", failures)


def growth_of(p, res):
    """Exact eventual dimension and multiplicity of a quotient series."""
    rep = validate_shape(res, p.c)
    return asymptotic_dimension(rep), asymptotic_multiplicity(rep), rep


def widthwise_growth_failures(p, dim, mult, n_max=9):
    """Widths from the onset to n_max where the exact growth differs from
    the width-wise dimension and multiplicity (zero module: (0, 0))."""
    out = []
    for n in range(dim.onset, n_max + 1):
        try:
            want = dim_deg_width(p, n, quotient=True)
        except ZeroModule:
            want = (0, 0)
        if want != (dim.slope * n + dim.intercept, mult.evaluate(n)):
            out.append(n)
    return out


def test_criterion_09_asymptotic_invariants(corpus):
    failures = []
    cases = [(("principal", a), principal_power(a), (0, 0, a, 0))
             for a in (1, 2, 3)]
    cases += [(("free", c, d), free_presentation(c, d), (c, 0, 1, d))
              for c, d in FREE_PAIRS]
    for tag, p, want in cases:
        dim, mult, _ = growth_of(p, module_series(p, reduce=True))
        got = (dim.slope, dim.intercept, mult.base, mult.poly_exponent)
        if got != want:
            failures.append((tag, got, want))
        bad = widthwise_growth_failures(p, dim, mult)
        if bad:
            failures.append((tag, "widths", bad))
    for k, (p, res) in enumerate(corpus):
        dim, mult, _ = growth_of(p, res)
        bad = widthwise_growth_failures(p, dim, mult)
        if bad:
            failures.append((k, "widths", bad))
    report(9, "asymptotic growth invariants", failures)


def test_criterion_10_fixed_degree_polynomiality(corpus):
    failures = []
    for k, (p, res) in enumerate(corpus):
        win = res.window(10, 4)
        for j in range(5):
            fit = fixed_degree_polynomial(res, j)
            for n in range(fit.onset, 11):
                if fit.evaluate(n) != win[n][j]:
                    failures.append((k, j, n))
            if fit.onset and fit.evaluate(fit.onset - 1) == win[
                    fit.onset - 1][j]:
                failures.append((k, j, "onset not least"))
    report(10, "fixed-degree polynomiality", failures)


def test_criterion_11_artinian_criterion(corpus):
    failures = []

    def routes(p, rep):
        """The runtime verdict, the paper's criterion and width-wise Krull
        dimension zero past the generators' width."""
        wi = size_invariants(p).wi_plus
        base = wi if wi != -inf else 0
        widthwise = True
        for n in range(base + 1, base + 6):
            try:
                if dim_deg_width(p, n, quotient=True)[0] != 0:
                    widthwise = False
            except ZeroModule:
                pass
        return artinian_test(rep), paper_artinian(rep), widthwise

    squarefree = ModulePresentation(
        1, [(0, 0)], [Monomial(1, 2, ((1,), (1,)))])
    known = [(("principal", a), principal_power(a), True) for a in (1, 2, 3)]
    known += [(("free", c, d), free_presentation(c, d), False)
              for c, d in FREE_PAIRS]
    known += [(("squarefree pair",), squarefree, False)]
    for name, p, want in known:
        got = routes(p, validate_shape(module_series(p, reduce=True), p.c))
        if got != (want,) * 3:
            failures.append((name, got))
    for k, (p, res) in enumerate(corpus):
        got = routes(p, validate_shape(res, p.c))
        if len(set(got)) != 1:
            failures.append((k, got))
    report(11, "eventual finite length", failures)


def test_criterion_12_fi_symmetrization():
    rng = random.Random(121)
    failures = []
    for k in range(20):
        p = random_ideal(rng, max_gens=3, max_width=3, max_deg=3,
                         category="FI")
        sym = symmetrize_fi_ideal(p)
        for n in range(5):
            dims = hilbert_width(sym, n, quotient=True).dims(5)
            brute = fi_quotient_dims(p, n, 5)
            if dims != brute:
                failures.append((k, n, dims, brute))
    report(12, "FI symmetrization width agreement", failures)


def fi_quotient_dims(p, n, j_max):
    """Brute-force FI quotient dims at width n: every injection, not just
    the order-preserving ones."""
    c = p.c
    images = set()
    for g in p.generators:
        if g.width > n:
            continue
        for phi in permutations(range(n), g.width):
            img = [(0,) * c] * n
            for j, target in enumerate(phi):
                img[target] = g.cols[j]
            images.add(tuple(img))
    counts = [0] * (j_max + 1)
    for flat in bounded_tuples(c * n, j_max):
        cols = tuple(tuple(flat[c * j:c * (j + 1)]) for j in range(n))
        divisible = any(
            all(gc[r] <= mc[r] for gc, mc in zip(img, cols) for r in range(c))
            for img in images)
        if not divisible:
            counts[sum(flat)] += 1
    return counts
