"""Structural analysis of a reduced series: denominator shape, the exact
eventual growth of dimension and multiplicity, polynomiality in fixed
degree, and the eventual-finite-length verdict."""

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import count, islice, zip_longest
from math import lcm

from .errors import NotConformant
from .polyarith import ONE_MINUS_T, BiPoly, bareiss, divide_out, mul_into, over


class ShapeReport(namedtuple("ShapeReport", "conformant one_minus_t_power "
                             "factors leftover numerator")):
    """Classified reduced denominator: (1-t)^power times a product of
    factors (1-t)^(t_power) - s*growth(t), one list entry per multiplicity.
    Anything unclassifiable is multiplied into `leftover`.

    conformant: bool; one_minus_t_power: int; factors: tuple of
    (t_power, growth), growth a coefficient tuple in t without trailing
    zeros, repeated by multiplicity; leftover: BiPoly, or None when
    everything classified; numerator: BiPoly."""

    __slots__ = ()


def factor_base(t_power, growth):
    """The denominator factor (1-t)^t_power - s*growth(t)."""
    return ONE_MINUS_T ** t_power - BiPoly(((), growth))


def _classify_factor(b, c):
    """(t_power, growth) for a conforming factor, else None."""
    if b.deg_s() != 1:
        return None
    b0, b1 = b.rows
    tp = len(b0) - 1
    if not (0 <= tp <= c) or list(b0) != _at_one_minus([0] * tp + [1]):
        return None
    f = tuple(-v for v in b1)
    if f[0] != 1 or sum(f) <= 0:
        return None
    if c == 1:
        # single-row refinement: only 1-t-s and 1-s(1+t+...+t^e) occur
        if any(fc != 1 for fc in f) or (tp == 1 and len(f) > 1):
            return None
    return tp, f


def validate_shape(result, c):
    """Classify the reduced denominator of a computed series.

    Conforming factors are 1-t and (1-t)^k - s*f(t) with f(0)=1, f(1)>0
    and 0 <= k <= c; for c=1 only 1-t-s and 1-s(1+t+...+t^e) may occur.
    Each factor is classified as it stands: the pipeline splits every
    determinant where it is made (polyarith.split_content), so a factor
    other than 1-t is the rest of a determinant, irreducible when linear
    in s; a rest that is not (a higher s-degree, or content left by a
    hand-built automaton) lands whole in leftover.  A series whose
    `reduced` flag is set is not reduced again.
    """
    reduced = result.rational if result.reduced else result.rational.reduce()
    power = 0
    linear = []
    leftover = None
    for b, mult in reduced.factors:
        if b == ONE_MINUS_T:
            power += mult
            continue
        cf = _classify_factor(b, c)
        if cf is None:
            piece = b ** mult
            leftover = piece if leftover is None else leftover * piece
        else:
            linear.extend([cf] * mult)
    return ShapeReport(leftover is None, power, tuple(sorted(linear)),
                       leftover, reduced.num)


def _expand(num, den):
    """Yield A_0, A_1, ... with num/den = sum_k A_k / den_0^(k+1) * x^k,
    for lists in x of coefficient lists in y: A_k = num_k den_0^k - sum_(i
    >= 1) (den_i den_0^(i-1), formed once) A_(k-i) stays in Z[y]."""
    power, scaled, out = [1], [], []
    for k in count():
        acc = mul_into([], num[k], power) if k < len(num) else []
        for i, e in enumerate(scaled, 1):
            mul_into(acc, e, out[k - i], -1)
        while acc and not acc[-1]:  # so that len(acc) - 1 is its degree
            acc.pop()
        out.append(acc)
        yield acc
        if k + 1 < len(den):
            scaled.append(mul_into([], den[k + 1], power))
        power = mul_into([], power, den[0])


def _at_one_minus(u):
    """u(1 - x) by Horner's rule: times 1 - x is a running difference."""
    out = []
    for c in reversed(u):
        out = [a - b for a, b in zip(out + [0], [0] + out)]
        out[0] += c
    return out


def _subst(p, b):
    """p(sigma x^b, 1 - x) as a list in x of coefficient tuples in sigma,
    and its sigma-rows x^(b i) p_i(1 - x) as lists in x."""
    rows = [[0] * (b * i) + _at_one_minus(u) if u else []
            for i, u in enumerate(p.rows)]
    return list(zip_longest(*rows, fillvalue=0)), rows


def _times_factor(den, off, g):
    """den (1 - sigma x^off g(x)), den a list in x of lists in sigma."""
    out = [list(r) for r in den] + [[] for _ in range(off + len(g) - 1)]
    for i, r in enumerate(den):
        for k, v in enumerate(g, i + off):
            mul_into(out[k], (0, v), r, -1)
    return out


def _cancel(p, bases):
    """(q, lowest), p = q prod (1 - c y)^(m - l) over the (c, m) in bases
    and (c, l) in lowest, each power as high as divides up to m."""
    lowest = []
    for c, m in bases:
        (p,), k = divide_out([p], m, c)
        lowest.append((c, m - k))
    return p, lowest


def _poly_at(coeffs, n):
    return sum(c * n ** e for e, c in enumerate(coeffs))


def _exp_poly_at(terms, n):
    return sum(c ** n * _poly_at(p, n) for c, p in terms)


def _closed_form(a, bases):
    """(start, terms) with [y^n] a(y) / prod (1 - c*y)^m over the (c, m)
    in bases equal to sum_c c^n P_c(n) over terms, (c, ascending
    coefficients of P_c) by falling c, exactly for n >= start = deg a -
    deg den + 1 (at least 0): below, the top coefficient of the
    polynomial part adds in.  The c^n n^e (e < m) span the solutions of
    the denominator's recurrence, and bareiss fixes one from deg den
    consecutive values with no pivot search: the columns come as whole
    bases, then e = 0 ... r-1 of the next, so the first k span the
    solutions of an order-k recurrence whose roots c are all nonzero, and
    no nonzero one vanishes at k consecutive n.  So every leading
    principal minor is nonzero; a column eventually 0 leaves no system."""
    from fractions import Fraction  # here: hilbert and oracle never solve

    a, lowest = _cancel(a, bases)  # lowest terms
    degree = sum(m for _, m in lowest)
    start = max(0, len(a) - degree)
    values = (a + [0] * (start + degree))[:start + degree]
    for c, m in lowest:
        for _ in range(m):
            values = over(values, c)
    cols = [(c, e) for c, m in lowest for e in range(m)]
    det, nums = bareiss([
        {i: v for i, v in enumerate([c ** n * n ** e for c, e in cols]
                                    + [values[n]]) if v}
        for n in range(start, start + degree)], 0)
    terms = {}
    for (c, _), v in zip(cols, nums):
        terms.setdefault(c, []).append(Fraction(v, det))
    return start, tuple(
        (c, tuple(p)) for c, p in sorted(terms.items(), reverse=True))


def _root_up(a, b, k):
    """The least integer r >= 0 with b r^k >= a, for ints a >= 0 and
    b, k >= 1, by bisection below 2^ceil(bits(a)/k)."""
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if b * mid ** k >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _last_zero(terms, start):
    """Largest n >= start where sum_c c^n P_c(n) vanishes, else start - 1.

    Scaled by their common denominator, which moves no sign or zero, the
    coefficients are ints.  Only n below a proven bound N is searched.
    With P = P_top of degree d, lead |l| and lower coefficients p_j of
    absolute sum h, |P(n)| >= |l| n^d/2 once n |l| >= 2h, and also once
    n >= 4 max_k ceil((|p_(d-k)| / |l|)^(1/k)), as each |p_(d-k)|
    n^(d-k) is then at most |l| n^d/4^k; the search starts at the smaller
    of the two.  The rest is at most H c2^n n^f for n >= 1 (c2 the next
    base, H and f the others' absolute coefficient sum and top degree).
    N is the first n with |l| top^n n^d > 2 H c2^n n^f and top n^g >= c2
    (n+1)^g, g = f - d, so the ratio of the sides no longer falls.  With
    one base (H = 0) it bounds the integer roots of P."""
    scale = lcm(*(v.denominator for _, p in terms for v in p))
    terms = [(c, [v.numerator * (scale // v.denominator) for v in p])
             for c, p in terms]
    (top, p), rest = terms[0], terms[1:]
    d, lead, low = len(p) - 1, abs(p[-1]), sum(abs(v) for v in p[:-1])
    big = sum(abs(v) for _, q in rest for v in q)
    c2 = max((c for c, _ in rest), default=1)
    f = max((len(q) - 1 for _, q in rest), default=0)
    n = max(1, min(-(-2 * low // lead), 4 * max(
        (_root_up(abs(p[d - k]), lead, k) for k in range(1, d + 1)),
        default=0)))
    while not (lead * top ** n * n ** d > 2 * big * c2 ** n * n ** f
               and top * n ** max(f - d, 0) >= c2 * (n + 1) ** max(f - d, 0)):
        n += 1
    return next((m for m in range(n - 1, start - 1, -1)
                 if _exp_poly_at(terms, m) == 0), start - 1)


class DimensionGrowth(namedtuple("DimensionGrowth",
                                 "slope intercept onset")):
    """dim M_n = slope*n + intercept for every n >= onset."""

    __slots__ = ()


class MultiplicityGrowth(namedtuple("MultiplicityGrowth",
                                    "base poly_exponent terms onset")):
    """The multiplicity of M_n is sum_c c^n P_c(n) for every n >= onset,
    over terms (c, ascending coefficients of P_c) by falling c; base is the
    top c, poly_exponent its degree (1 and 0 when M_n is eventually 0)."""

    __slots__ = ()

    def evaluate(self, n):
        return _exp_poly_at(self.terms, n)


@lru_cache(maxsize=1)  # analyze reads dimension, multiplicity and verdict
def _growth(rep):
    """(slope, intercept, terms, onset) of the eventual width-n growth.

    With x = 1-t, s = sigma x^B and B the largest factor t-power, the series
    is N(sigma, x) / (x^E U(sigma, x)), E the (1-t)-power plus all factor
    t-powers and U(sigma, 0) = prod (1 - f_j(1) sigma) over the factors of
    t-power B.  In x its coefficients are A_k / U(sigma, 0)^(k+1); the first
    k0 not a polynomial in sigma gives dim M_n = B n + E - k0 and, as its
    sigma^n coefficient, the multiplicity, once n passes every polynomial
    part and the multiplicity's last zero."""
    if not rep.conformant:
        raise NotConformant(f"unrecognized factor: {rep.leftover}")
    if not rep.factors:
        # a polynomial in s over (1-t)^power: M_n = 0 past its s-degree
        return 0, 0, (), rep.numerator.deg_s() + 1
    big_b = max(tp for tp, _ in rep.factors)
    t_powers = sum(tp for tp, _ in rep.factors)
    num, rows = _subst(rep.numerator, big_b)
    # a factor is x^tp (1 - sigma x^(B-tp) g(x)), g = f(1-x): x_den drops x^tp
    gs = {f: _at_one_minus(f) for _, f in rep.factors}
    x_den = [[1]]
    for tp, f in rep.factors:
        x_den = _times_factor(x_den, big_b - tp, gs[f])
    # k0 <= ord_x N(1/g(x), x) for g(x) = f(1-x) of a factor of t-power B,
    # finite because the series is reduced: g^D N(1/g, x) by Horner in g
    g = gs[next(f for tp, f in rep.factors if tp == big_b)]
    on_curve = []
    for row in rows:
        on_curve = mul_into(list(row), on_curve, g)
    bound = next((k for k, c in enumerate(on_curve) if c), -1)
    # x_den[0] = U(sigma, 0) is the product of these 1 - c sigma
    bases = sorted(Counter(sum(f) for tp, f in rep.factors
                           if tp == big_b).items())
    onset = 0
    for k0, a in zip(range(bound + 1), _expand(num, x_den)):
        q, left = _cancel(a, [(c, m * (k0 + 1)) for c, m in bases])
        if any(m for _, m in left):
            break
        onset = max(onset, len(q))
    else:
        raise NotConformant("series is not reduced")
    start, terms = _closed_form(a, [(c, m * (k0 + 1)) for c, m in bases])
    onset = max(onset, start, _last_zero(terms, start) + 1)
    return big_b, rep.one_minus_t_power + t_powers - k0, terms, onset


def asymptotic_dimension(rep):
    """Exact eventual Krull dimension of M_n, from the shape report."""
    slope, intercept, _, onset = _growth(rep)
    return DimensionGrowth(slope, intercept, onset)


def asymptotic_multiplicity(rep):
    """Exact eventual multiplicity of M_n, from the shape report."""
    _, _, terms, onset = _growth(rep)
    base, poly = terms[0] if terms else (1, (0,))
    return MultiplicityGrowth(base, len(poly) - 1, terms, onset)


def artinian_test(rep):
    """Whether the quotient has finite length in every large width: its
    eventual Krull dimension slope*n + intercept is 0, from the shape report
    of the reduced quotient series."""
    slope, intercept, _, _ = _growth(rep)
    return slope == 0 and intercept == 0


class DegreeFit(namedtuple("DegreeFit", "degree_j onset coefficients")):
    """dim [M_n]_j is the polynomial with ascending coefficients
    `coefficients` for every n >= onset, and for no smaller onset."""

    __slots__ = ()

    def evaluate(self, n):
        return _poly_at(self.coefficients, n)


def fixed_degree_polynomial(result, j):
    """The eventual polynomial n -> dim [M_n]_j of a series, least onset.

    In t, [t^(j+K)] of num/den is C(s) / (1-s)^R, as every factor is 1 at
    t = 0 but 1 - s f(t) with f(0) = 1.  Its s^n coefficient is a
    polynomial in n from deg C - R + 1 on, and not at deg C - R, where the
    polynomial part of C / (1-s)^R ends.  The degree can exceed j when
    basis tuples multiply the count by comb(n, d)."""
    rat = result.rational

    def t_coeffs(p):  # the rows of p with s and t swapped, as lists
        return [list(row)
                for row in BiPoly(zip_longest(*p.rows, fillvalue=0)).rows]

    den = t_coeffs(rat.den_expanded())
    (rest,), power = divide_out([den[0]], len(den[0]) - 1)
    if rest != [1]:
        raise NotConformant(f"denominator at t = 0 is not a power of 1-s: "
                            f"{den[0]}")
    k = j + result.t_prefactor
    c = next(islice(_expand(t_coeffs(rat.num), den), k, None))
    start, terms = _closed_form(c, [(1, power * (k + 1))])
    return DegreeFit(j, start, terms[0][1] if terms else (0,))
