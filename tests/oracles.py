"""Reference routes that the runtime does not need, kept for the tests:
the right-to-left decoder of words (eta, by shift operators), membership
in the standard-word language, running a DFA on one word, counting a
DFA's accepted words by path counts, the unpruned subset construction,
the greatest simulation as a pairwise fixpoint, Moore minimization,
equality of rational functions by cross-multiplication, repeated long
division by 1 - c y, t^k,
bivariate polynomials as term dicts (building and reading a BiPoly, and
the dict arithmetic: sums, the schoolbook product, powers, long division
and the rendered term order), reduction of a factored rational function by trial division alone,
the paper's pseudo-division criterion for eventual finite length,
written with sympy rather than the package's own polynomial
arithmetic, the eventual growth and fixed-degree readouts on UniPoly
and BiPoly with a Fraction solve, the series window cell by cell
against the product denominator, the width-wise series by a fresh
enumeration of the images at each width and a numerator recursion on
exponent tuples, the width-wise Krull dimension, multiplicity and size
invariants, OI-divisibility by a scan over column tuples, with the
minimal generating sets and colon generators it gives, and the
decomposition identities: the width-n slice identity and the
repeated-division identity, which minimalize by that scan alone, and
a module's whole series by the letter automaton.

The references' univariate arithmetic lives here, in `UniPoly`: the
package holds a univariate polynomial as a list or tuple of ints and
multiplies and divides it with `polyarith.mul_into` and
`polyarith._exact_quotient`, which no reference calls.  A reference
takes and returns coefficient tuples, so the tests compare them with the
package's values directly."""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, compress, count, islice, product
from math import comb
from math import inf
from operator import le

import sympy

from oihilbert.analysis import factor_base
from oihilbert.automata import Dfa, empty_dfa, generating_function, module_dfa
from oihilbert.decomposition import compute_decomposition
from oihilbert.errors import (
    NonDivisible,
    NotConformant,
    NotInLanguage,
    OihError,
    SingularAtOrigin,
)
from oihilbert.oicore import (
    Monomial,
    WidthSeries,
    expand_to_width,
    hilbert_width,
)
from oihilbert.polyarith import (
    BiPoly,
    FactoredRational,
    _render_monomial,
)
from oihilbert.series import assemble, summand_generators
from oihilbert.words import decode, is_xi, tau_index

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


def in_lstd(word, c, d):
    """Whether the word is standard for c and d: whether it decodes."""
    try:
        decode(word, c, d)
    except NotInLanguage:
        return False
    return True


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


def word_count_window(dfa, n_max, j_max):
    """The number of words dfa accepts with n markers and j variable
    letters, for n <= n_max and j <= j_max, as rows indexed by n, by
    counting paths: ways[q][n][j] paths from the start reach q reading n
    markers and j variable letters.  A marker raises n and a variable
    letter j, so filling the cells in order of (n, j) completes each cell
    before any edge reads it; the work is linear in the states times the
    window."""
    out = [[0] * (j_max + 1) for _ in range(n_max + 1)]
    if dfa.n == 0:
        return tuple(map(tuple, out))
    moves = {}
    for (q, a), r in dfa.trans.items():
        moves.setdefault(q, []).append((0 if is_xi(a) else 1, r))
    ways = [[[0] * (j_max + 1) for _ in range(n_max + 1)]
            for _ in range(dfa.n)]
    ways[dfa.start][0][0] = 1
    for n in range(n_max + 1):
        for j in range(j_max + 1):
            for q in range(dfa.n):
                w = ways[q][n][j]
                if not w:
                    continue
                if q in dfa.accepts:
                    out[n][j] += w
                for marker, r in moves.get(q, ()):
                    if marker and n < n_max:
                        ways[r][n + 1][j] += w
                    elif not marker and j < j_max:
                        ways[r][n][j + 1] += w
    return tuple(map(tuple, out))


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


class UniPoly:
    """Dense univariate integer polynomial, index = degree, trailing zeros
    stripped: the references' arithmetic, one operation at a time."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not self or not other:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = UniPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, other):
        """Exact quotient self / other; raises NonDivisible otherwise."""
        if not other:
            raise NonDivisible("division by zero polynomial")
        if not self:
            return UniPoly()
        rem = list(self.coeffs)
        dd = other.degree
        dl = other.coeffs[-1]
        q = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if c % dl:
                raise NonDivisible("leading coefficient does not divide")
            f = c // dl
            q[k - dd] = f
            for i, b in enumerate(other.coeffs):
                rem[k - dd + i] -= f * b
        if any(rem):
            raise NonDivisible("nonzero remainder")
        return UniPoly(q)


def one_minus_t_divide(u):
    """(q, k) with u = (1-t)^k * q and k as large as it goes, by repeated
    exact division by 1 - t while q(1) = 0; the zero polynomial gives
    (0, 0)."""
    k = 0
    while u and u(1) == 0:
        u = u.exact_div(UniPoly((1, -1)))
        k += 1
    return u, k


def divide_out_reference(rows, most, c=1):
    """(rows, k): every row, a coefficient sequence, divided by 1 - c y
    by long division as long as all of them allow, at most `most` times;
    the rows come back as lists without trailing zeros."""
    rows = [UniPoly(r) for r in rows]
    k = 0
    while k < most:
        try:
            rows = [r.exact_div(UniPoly((1, -c))) for r in rows]
        except NonDivisible:
            break
        k += 1
    return [list(r.coeffs) for r in rows], k


def t_power(k):
    """t^k as a UniPoly."""
    return UniPoly((0,) * k + (1,))


# ---------------------------------------------------------------------------
# bivariate polynomials as term dicts: the tests build and read BiPolys
# through bipoly and terms_of, and the term_* functions and schoolbook are
# the dict arithmetic BiPoly's rows are checked against


def bipoly(terms):
    """The BiPoly with these terms, a dict or pairs (s-degree, t-degree)
    -> coefficient; repeated keys add up and zeros drop."""
    rows = []
    for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
        rows.extend([] for _ in range(i + 1 - len(rows)))
        row = rows[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] += c
    return BiPoly(rows)


def terms_of(p):
    """The nonzero terms of a BiPoly as a dict (s-degree, t-degree) ->
    coefficient."""
    return {(i, j): c for i, row in enumerate(p.rows)
            for j, c in enumerate(row) if c}


def term_sum(a, b, sign=1):
    """a + sign * b for term dicts."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def schoolbook(a, b):
    """The product of two term dicts, term by term."""
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
    return {kl: c for kl, c in out.items() if c}


def term_power(a, n):
    """a^n for a term dict, one product at a time."""
    out = {(0, 0): 1}
    for _ in range(n):
        out = schoolbook(out, a)
    return out


def term_quotient(a, b):
    """a / b for term dicts, by long division on the largest term in
    (s-degree, t-degree) order, a monomial order, so an exact quotient
    never stops; raises NonDivisible unless b divides a over Z."""
    if not b:
        raise NonDivisible("division by zero polynomial")
    (bi, bj), bc = max(b.items())
    rem, out = dict(a), {}
    while rem:
        (i, j), c = max(rem.items())
        if i < bi or j < bj or c % bc:
            raise NonDivisible("leading term does not divide")
        step = {(i - bi, j - bj): c // bc}
        out = term_sum(out, step)
        rem = term_sum(rem, schoolbook(step, b), -1)
    return out


def term_key(a):
    """The terms of a term dict sorted by s-degree, then t-degree."""
    return tuple(sorted(a.items()))


def term_render(a):
    """polyarith.render_poly on a term dict: the terms in term_key order."""
    out = []
    for (i, j), c in term_key(a):
        mono = _render_monomial(i, j, c)
        if not out:
            out.append(mono if c > 0 else "-" + mono)
        else:
            out.append(("+ " if c > 0 else "- ") + mono)
    return " ".join(out) or "0"


def trial_reduce(r):
    """FactoredRational.reduce by trial exact division alone: every
    factor, 1 - t included, cancels one power at a time while the
    numerator stays divisible."""
    num = r.num
    if num.is_zero():
        return FactoredRational.zero()
    kept = []
    for base, e in r.factors:
        while e:
            q = num.try_div(base)
            if q is None:
                break
            num, e = q, e - 1
        kept.append((base, e))
    return FactoredRational(num, kept)


def _expr(b):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in terms_of(b).items()))


def paper_artinian(rep):
    """Nagel's criterion (arXiv 2006.13083) on the shape report of a reduced
    quotient series g / ((1-t)^a prod_j ((1-t)^k_j - s f_j)): the quotient
    has finite length in every large width exactly when every k_j is 0 and
    (1-t)^a divides the pseudo-remainder in s of g by prod_j (1 - s f_j)."""
    assert rep.conformant, rep.leftover
    if any(tp for tp, _ in rep.factors):
        return False
    den = sympy.Mul(*(1 - S * sympy.Add(*(c * T**k for k, c in enumerate(
        f))) for _, f in rep.factors))
    rem = sympy.prem(_expr(rep.numerator), den, S)
    a = rep.one_minus_t_power
    return sympy.rem(rem, (1 - T) ** a, T) == 0


def _ref_expand(num, den):
    """A_0, A_1, ... with num/den = sum_k A_k / den_0^(k+1) * x^k, for
    coefficient lists in x over Z or Z[y], each A_k from scratch."""
    out = []
    for k in count():
        acc = (num[k] if k < len(num) else 0) * den[0] ** k
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[i] * out[k - i] * den[0] ** (i - 1)
        out.append(acc)
        yield acc


def _ref_at_one_minus(u):
    """u(1 - x) as a UniPoly in x, one product per coefficient."""
    out = UniPoly()
    for c in reversed(u.coeffs):
        out = out * UniPoly((1, -1)) + UniPoly((c,))
    return out


def _ref_subst(p, b):
    """p(sigma x^b, 1 - x) as a BiPoly keyed (x-degree, sigma-degree)."""
    return bipoly({(b * i + k, i): c for i, u in enumerate(_s_rows(p))
                   for k, c in enumerate(_ref_at_one_minus(u).coeffs)})


def _s_rows(p):
    """p's s-rows as UniPolys in t, index = s-degree."""
    rows = [[0] * (p.deg_t() + 1) for _ in range(p.deg_s() + 1)]
    for (i, j), c in terms_of(p).items():
        rows[i][j] = c
    return [UniPoly(row) for row in rows]


def _ref_solve(rows, rhs):
    """Gauss-Jordan over Q, on Fractions throughout."""
    m = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for col in range(len(m)):
        piv = next(r for r in range(col, len(m)) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(len(m)):
            f = m[r][col]
            if r != col and f:
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[-1] for row in m]


def _ref_closed_form(a, bases):
    """(start, terms) of [y^n] a(y) / prod (1 - c*y)^m, a a UniPoly:
    cancel by trial exact division, then solve on Fractions."""
    lowest, den = [], UniPoly.one()
    for c, m in bases:
        while m and UniPoly(a.coeffs[::-1])(c) == 0:
            a, m = a.exact_div(UniPoly((1, -c))), m - 1
        lowest.append((c, m))
        den = den * UniPoly((1, -c)) ** m
    start = max(0, a.degree - den.degree + 1)
    values = list(islice(_ref_expand(a.coeffs, den.coeffs),
                         start + den.degree))
    cols = [(c, e) for c, m in lowest for e in range(m)]
    sol = _ref_solve([[c ** n * n ** e for c, e in cols]
                      for n in range(start, start + den.degree)],
                     values[start:])
    terms = {}
    for (c, _), v in zip(cols, sol):
        terms.setdefault(c, []).append(v)
    return start, tuple(
        (c, tuple(p)) for c, p in sorted(terms.items(), reverse=True))


def _ref_exp_poly_at(terms, n):
    return sum(c ** n * sum(v * n ** e for e, v in enumerate(p))
               for c, p in terms)


def _ref_last_zero(terms, start):
    """The last zero of sum_c c^n P_c(n) from start on, else start - 1,
    searched below the bound of analysis._last_zero on the Fractions."""
    (top, p), rest = terms[0], terms[1:]
    d, lead, low = len(p) - 1, abs(p[-1]), sum(abs(v) for v in p[:-1])
    big = sum(abs(v) for _, q in rest for v in q)
    c2 = max((c for c, _ in rest), default=1)
    f = max((len(q) - 1 for _, q in rest), default=0)
    n = 1
    while not (n * lead >= 2 * low
               and lead * top ** n * n ** d > 2 * big * c2 ** n * n ** f
               and top * n ** max(f - d, 0) >= c2 * (n + 1) ** max(f - d, 0)):
        n += 1
    return next((m for m in range(n - 1, start - 1, -1)
                 if _ref_exp_poly_at(terms, m) == 0), start - 1)


def growth_reference(rep):
    """(slope, intercept, terms, onset) as analysis._growth gives them,
    on UniPoly and BiPoly throughout: the denominator as a BiPoly product
    substituted with its first x-rows dropped, the curve term by term with
    one power of g each, divisibility by UniPoly.exact_div and the closed
    form solved on Fractions."""
    if not rep.conformant:
        raise NotConformant(f"unrecognized factor: {rep.leftover}")
    if not rep.factors:
        return 0, 0, (), rep.numerator.deg_s() + 1
    big_b = max(tp for tp, _ in rep.factors)
    t_powers = sum(tp for tp, _ in rep.factors)
    num = _ref_subst(rep.numerator, big_b)
    den = BiPoly.one()
    for tp, f in rep.factors:
        den = den * factor_base(tp, f)
    x_den = _s_rows(_ref_subst(den, big_b))[t_powers:]
    g = _ref_at_one_minus(UniPoly(next(f for tp, f in rep.factors
                                       if tp == big_b)))
    on_curve = UniPoly()
    for (k, i), c in terms_of(num).items():
        on_curve = on_curve + UniPoly(
            (0,) * k + (g ** (num.deg_t() - i) * c).coeffs)
    bound = next((k for k, c in enumerate(on_curve.coeffs) if c), -1)
    onset = 0
    for k0, a in zip(range(bound + 1), _ref_expand(_s_rows(num), x_den)):
        try:
            onset = max(onset, a.exact_div(x_den[0] ** (k0 + 1)).degree + 1)
        except NonDivisible:
            break
    else:
        raise NotConformant("series is not reduced")
    bases = Counter(UniPoly(f)(1) for tp, f in rep.factors if tp == big_b)
    start, terms = _ref_closed_form(
        a, [(c, m * (k0 + 1)) for c, m in sorted(bases.items())])
    onset = max(onset, start, _ref_last_zero(terms, start) + 1)
    return big_b, rep.one_minus_t_power + t_powers - k0, terms, onset


def fixed_degree_reference(result, j):
    """(onset, coefficients) of analysis.fixed_degree_polynomial, on
    UniPoly throughout."""
    rat = result.rational

    def t_coeffs(p):
        return _s_rows(bipoly({(b, a): v
                               for (a, b), v in terms_of(p).items()}))

    den = t_coeffs(rat.den_expanded())
    rest, power = one_minus_t_divide(den[0])
    if rest.coeffs != (1,):
        raise NotConformant(f"denominator at t = 0 is not a power of 1-s: "
                            f"{list(den[0].coeffs)}")
    k = j + result.t_prefactor
    c = next(islice(_ref_expand(t_coeffs(rat.num), den), k, None))
    start, terms = _ref_closed_form(c, [(1, power * (k + 1))])
    return start, terms[0][1] if terms else (0,)


def _truncate(p, n_max, j_max):
    """The terms of p with s-degree <= n_max and t-degree <= j_max."""
    return bipoly({(i, j): c for (i, j), c in terms_of(p).items()
                   if i <= n_max and j <= j_max})


def expand_cellwise(r, n_max, j_max, t_prefactor=0):
    """The series window cell by cell: the denominator multiplied out
    inside the window, and each cell (n, j) the numerator's coefficient
    minus every denominator term's product with an earlier cell."""
    jj = j_max + t_prefactor
    den = BiPoly.one()
    for base, e in r.factors:
        base = _truncate(base, n_max, jj)
        for _ in range(e):
            den = _truncate(den * base, n_max, jj)
    if den.coeff(0, 0) != 1:
        raise SingularAtOrigin("denominator is not 1 at s = t = 0")
    rest = [(kl, v) for kl, v in terms_of(den).items() if kl != (0, 0)]
    w = {}
    for n in range(n_max + 1):
        for j in range(jj + 1):
            acc = r.num.coeff(n, j)
            for (k, l), v in rest:
                if k <= n and l <= j:
                    acc -= v * w[(n - k, j - l)]
            w[(n, j)] = acc
    return tuple(tuple(w[(n, j + t_prefactor)] for j in range(j_max + 1))
                 for n in range(n_max + 1))


# ---------------------------------------------------------------------------
# width-wise series and invariants


# The reference numerator kernel: the recursion on exponent tuples that
# the package used before its masks, sharing no code with `oicore.kpoly`.
# A monomial ideal is a frozenset of flat exponent tuples; its support
# mask has bit i set when variable i occurs.

def _supports(gens):
    """Support mask of each tuple of the list, in order."""
    bits = [1 << i for i in range(len(gens[0]))] if gens else []
    return [sum(compress(bits, g)) for g in gens]


def _min_tuples(gens):
    """Minimal generating set of the ideal the exponent tuples generate,
    visiting tuples by degree so every divisor of a tuple comes first."""
    gens = sorted(gens, key=lambda t: (sum(t), t))
    kept = []
    for m, g in zip(_supports(gens), gens):
        for hm, h in kept:
            if not hm & ~m and all(map(le, h, g)):
                break
        else:
            kept.append((m, g))
    return frozenset(g for _, g in kept)


def _tuple_components(gens):
    """Partition generators into groups with disjoint variable support."""
    gens = list(gens)
    groups = []
    for m, g in zip(_supports(gens), gens):
        members = [g]
        rest = []
        for gm, gs in groups:
            if gm & m:
                m |= gm
                members += gs
            else:
                rest.append((gm, gs))
        rest.append((m, members))
        groups = rest
    return [gs for _, gs in groups]


def _canonical(gens):
    """The ideal with unused variables dropped and the other columns of
    the sorted generators sorted: equal forms, equal numerators."""
    cols = sorted(col for col in zip(*sorted(gens)) if any(col))
    return frozenset(zip(*cols))


def kpoly_reference(gens, memo=None):
    """Numerator of the quotient's Hilbert series over (1-t)^(#variables)
    for the monomial ideal the exponent tuples generate, by the tuple
    recursion H(I) = sum_(i<k) t^i H((I : x^i) + <x>) + t^k H(I : x^k)
    over the powers of a pivot x (k its top exponent), components of
    disjoint support multiplied, and a memo keyed by minimal generating
    sets and their canonical forms; a coefficient tuple."""
    return _tuple_kpoly(_min_tuples(gens),
                        {} if memo is None else memo).coeffs


def _tuple_kpoly(gens, memo):
    if not gens:
        return UniPoly.one()
    out = memo.get(gens)
    if out is not None:
        return out
    if (0,) * len(next(iter(gens))) in gens:
        out = UniPoly()
    else:
        key = _canonical(gens)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _tuple_split(key, memo)
    memo[gens] = out
    return out


def _tuple_split(gens, memo):
    comps = _tuple_components(gens)
    if len(comps) > 1:
        out = UniPoly.one()
        for comp in comps:
            out = out * _tuple_kpoly(frozenset(comp), memo)
        return out
    if len(gens) == 1:
        (g,) = gens
        return UniPoly.one() - t_power(sum(g))
    nvars = len(next(iter(gens)))
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    piv = max(range(nvars), key=counts.__getitem__)
    unit = (0,) * piv + (1,) + (0,) * (nvars - piv - 1)
    levels = sorted({g[piv] for g in gens} | {0})
    out = UniPoly()
    for lo, hi in zip(levels, levels[1:]):
        plus = _min_tuples(g[:piv] + (0,) + g[piv + 1:]
                           for g in gens if g[piv] <= lo) | {unit}
        run = UniPoly((0,) * lo + (1,) * (hi - lo))
        out = out + _tuple_kpoly(plus, memo) * run
    colon = _min_tuples(g[:piv] + (0,) + g[piv + 1:] for g in gens)
    return out + _tuple_kpoly(colon, memo) * t_power(levels[-1])


def images_at_width(p, n):
    """Every order-embedding image of each generator at width n, walked
    afresh for this width, as (summand, basis tuple, list of columns)."""
    zero = (0,) * p.c
    for g in p.generators:
        for values in combinations(range(n), g.width):
            cols = [zero] * n
            for v, col in zip(values, g.cols):
                cols[v] = col
            yield g.summand, tuple(values[k - 1] + 1 for k in g.pi), cols


def hilbert_width_reference(p, n, quotient=True):
    """The width-n series from the images at width n alone: one exponent
    tuple set per (summand, basis tuple), each minimalized by
    `kpoly_reference`, and the shifted numerators added one group at a
    time."""
    comps = {}
    for summand, pi, cols in images_at_width(p, n):
        comps.setdefault((summand, pi), set()).add(tuple(chain(*cols)))
    ideal = UniPoly()
    for (k, _), gens in comps.items():
        ideal = ideal + (UniPoly.one() - UniPoly(kpoly_reference(gens))) \
            * t_power(p.shift_of(k))
    if not quotient:
        return WidthSeries(ideal.coeffs, p.c * n)
    free = UniPoly()
    for d, shift in p.summands:
        free = free + UniPoly((comb(n, d),)) * t_power(shift)
    return WidthSeries((free - ideal).coeffs, p.c * n)


class ZeroModule(OihError):
    """The operation is undefined for the zero module."""


def dim_deg_width(p, n, quotient=True):
    """Krull dimension and multiplicity of the width-n component: the
    pole order at t = 1 of its width-wise series, and the numerator's
    value there once the root t = 1 is removed."""
    ws = hilbert_width(p, n, quotient)
    num, k = one_minus_t_divide(UniPoly(ws.num))
    if not num:
        raise ZeroModule(f"width-{n} component is zero")
    return ws.den_pow - k, num(1)


# ---------------------------------------------------------------------------
# OI-divisibility on column tuples


def find_embedding(g, m):
    """Images (eps(1), ..., eps(g.width)) of an order-embedding eps with
    eps(g.pi) = m.pi and exponents of g fitting under those of m column by
    column; None when no such embedding exists.  The scan runs segment by
    segment between the fixed basis targets, each column on the first
    column of m that holds it."""
    if g.summand != m.summand:
        raise ValueError(f"summand {g.summand} vs {m.summand}")
    if g.width > m.width or len(g.pi) != len(m.pi):
        return None
    values = [0] * g.width
    gp = (0,) + g.pi + (g.width + 1,)
    mp = (0,) + m.pi + (m.width + 1,)
    for a, b in zip(g.pi, m.pi):
        if not all(map(le, g.cols[a - 1], m.cols[b - 1])):
            return None
        values[a - 1] = b
    for seg in range(len(gp) - 1):
        target = mp[seg] + 1
        for gc in range(gp[seg] + 1, gp[seg + 1]):
            col = g.cols[gc - 1]
            while target < mp[seg + 1] and not all(
                    map(le, col, m.cols[target - 1])):
                target += 1
            if target >= mp[seg + 1]:
                return None
            values[gc - 1] = target
            target += 1
    return tuple(values)


def oi_divides(g, m):
    """True iff m lies in the submodule generated by g."""
    return find_embedding(g, m) is not None


def minimalize_reference(mons):
    """The minimal generating set by `oi_divides`, in the order of
    `oicore.minimalize`: by width, then degree, then key."""
    seen = []
    for mon in sorted(set(mons), key=lambda g: (g.width, g.degree, g.key())):
        if not any(k.summand == mon.summand and oi_divides(k, mon)
                   for k in seen):
            seen.append(mon)
    return seen


def colon_reference(p, e, n):
    """Width-n generators of (M_n : x^e), x^e the column-1 monomial of
    exponents e, minimalized by `minimalize_reference`."""
    out = []
    for m in expand_to_width(p, n):
        col1 = tuple(max(0, a - b) for a, b in zip(m.cols[0], e))
        out.append(Monomial(m.c, n, (col1,) + m.cols[1:], m.pi, m.summand))
    return minimalize_reference(out)


class SizeInvariants:
    __slots__ = ("wi_plus", "e_plus", "si")

    def __init__(self, wi_plus, e_plus, si):
        self.wi_plus = wi_plus
        self.e_plus = e_plus
        self.si = si

    def __repr__(self):
        return f"SizeInvariants(wi+={self.wi_plus}, e+={self.e_plus}, si={self.si})"


def size_invariants(p):
    """Maximal generator width, maximal degree of a minimal generator at
    that width, and the size count used by the decomposition comparisons."""
    gens = minimalize_reference(p.generators)
    if not gens:
        return SizeInvariants(-inf, -inf, inf)
    wi = max(g.width for g in gens)
    top = minimalize_reference(expand_to_width(p, wi))
    e_plus = max(g.degree + p.shift_of(g.summand) for g in top)
    dims = hilbert_width(p, wi, quotient=True).dims(e_plus)
    return SizeInvariants(wi, e_plus, sum(dims))


# ---------------------------------------------------------------------------
# decomposition identities


def _column1_generators(c, d, n, summand=0):
    """Width-n generators of the submodule spanned by column-1 variables."""
    out = []
    zero_col = (0,) * c
    for pi in combinations(range(1, n + 1), d):
        for i in range(c):
            col1 = tuple(1 if r == i else 0 for r in range(c))
            cols = (col1,) + (zero_col,) * (n - 1)
            out.append(Monomial(c, n, cols, pi, summand))
    return out


def _column1_all_summands(p, n):
    out = []
    for k, (d, _) in enumerate(p.summands):
        out.extend(_column1_generators(p.c, d, n, k))
    return out


def sliced_quotient_dims(p, e, n, j_max):
    """Degree dims of F_n / (M_n : x1^e + (column 1)F_n)."""
    gens = colon_reference(p, tuple(e), n) + _column1_all_summands(p, n)
    pn = p.with_generators(minimalize_reference(gens))
    return hilbert_width(pn, n).dims(j_max)


def verify_decomposition(p, e, n, j_max):
    """Check the width-n slice identity, n >= 1: the colon-plus-column-1
    quotient matches marked + unmarked parts one width down."""
    dec = compute_decomposition(p, e)
    lhs = sliced_quotient_dims(p, e, n, j_max)
    rhs = [0] * (j_max + 1)
    if dec.marked is not None:
        for j, v in enumerate(hilbert_width(dec.marked, n - 1).dims(j_max)):
            rhs[j] += v
    for j, v in enumerate(hilbert_width(dec.unmarked, n - 1).dims(j_max)):
        rhs[j] += v
    return lhs == rhs, lhs, rhs


def division_exponent_bound(p):
    """One more than the largest column-1 exponent among minimal
    generators; dividing by that power always clears column 1."""
    r = 0
    for g in minimalize_reference(p.generators):
        if g.width >= 1:
            r = max(r, max(g.cols[0]))
    return r + 1


def _as_rational(num, den_pow):
    """num / (1-t)^den_pow, num a coefficient tuple in t, as a
    FactoredRational."""
    return FactoredRational(bipoly({(0, j): c for j, c in enumerate(num)}),
                            ((BiPoly.one() - BiPoly.term(0, 1), den_pow),))


def repeated_division_sides(p, n):
    """Both sides of the width-n series identity obtained by dividing out
    all column-1 powers up to the clearing bound.

    Returns (lhs, rhs) as FactoredRationals in t, equal when
    (lhs - rhs).is_zero(); the right side sums t^|e| / (1-t)^(count of
    saturated entries) times the sliced quotient over all exponent
    vectors e in [0, r]^c.
    """
    r = division_exponent_bound(p)
    whole = hilbert_width(p, n)
    lhs = _as_rational(whole.num, whole.den_pow)
    rhs = FactoredRational.zero()
    col1 = _column1_all_summands(p, n)
    for e in product(range(r + 1), repeat=p.c):
        gens = colon_reference(p, e, n) + col1
        part = hilbert_width(p.with_generators(minimalize_reference(gens)), n)
        gamma = sum(1 for x in e if x == r)
        rhs = rhs + _as_rational((0,) * sum(e) + part.num,
                                 part.den_pow + gamma)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the letter automaton's whole series


def letter_series(p, quotient=True):
    """The series of p, unreduced, by the letter automaton: each summand's
    minimal DFA on standard words (`automata.module_dfa`) solved by its
    transfer matrix (`automata.generating_function`), assembled as
    `series.module_series` assembles the column route's parts.
    column_states is left empty."""
    parts = [(generating_function(module_dfa(p.c, d, gens)), None)
             for (d, _), gens in zip(p.summands, summand_generators(p))]
    return assemble(p, parts, quotient)._replace(column_states=())
