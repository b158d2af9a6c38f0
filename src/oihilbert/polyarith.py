"""Exact polynomial arithmetic over Z: univariate and bivariate polynomials,
rational functions with factored denominators, and truncated series windows,
with the kernels every exact solve shares: fraction-free elimination over
the integers or `BiPoly` (`bareiss`), division by 1 - c y (`over`,
`divide_out`) and an automaton's equations solved sinks first.

Everything is arbitrary-precision integer arithmetic; the
pipeline contains no floating point. A univariate polynomial is a sequence
of ints, index = degree: the kernels here work on lists, and a value that
is kept (a shape report's growth, a width's numerator, a `kpoly` result)
is a tuple without trailing zeros, so its equality and hash are those of
the polynomial. A bivariate polynomial, `BiPoly`, is the tuple of its
s-rows, each a univariate polynomial in t, so the same kernels work on it
row by row. Terms render, and factors sort, by s-degree, then t-degree,
both ascending.
"""

from __future__ import annotations

from itertools import accumulate, islice, starmap, zip_longest
from math import inf
from operator import add, sub

from .errors import NonDivisible, SingularAtOrigin


def mul_into(acc, a, b, sign=1):
    """acc + sign * a * b for coefficient lists, extending the list acc in
    place."""
    if a and b:
        acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
        for i, u in enumerate(a):
            if u:
                u *= sign
                for j, v in enumerate(b, i):
                    acc[j] += u * v
    return acc


def _exact_quotient(num, den):
    """num / den for coefficient lists, den ending in a nonzero
    coefficient, as a list that ends in one too (empty for num = 0);
    raises NonDivisible unless den divides num over Z.  num may end in
    zeros and is left as it was."""
    rem = list(num)
    while rem and not rem[-1]:
        rem.pop()
    dd, dl = len(den) - 1, den[-1]
    q = [0] * max(len(rem) - dd, 0)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            if c % dl:
                raise NonDivisible("leading coefficient does not divide")
            f = q[k - dd] = c // dl
            for i, b in enumerate(den, k - dd):
                rem[i] -= f * b
    if any(rem):
        raise NonDivisible("nonzero remainder")
    return q


def exact(val, by):
    """val / by for ints or BiPolys; raises NonDivisible unless by
    divides val."""
    if by == 1:
        return val
    if isinstance(val, BiPoly):
        return val.exact_div(by)
    val, rem = divmod(val, by)
    if rem:
        raise NonDivisible("integer division leaves a remainder")
    return val


def bareiss(mat, first):
    """det(M) and det(M) * x_i, i >= first, for M x = b over the integers
    or over BiPolys: mat[i] maps column to entry of row i, zeros left out,
    column len(mat) to b_i.  A missing result is the int 0.

    Fraction-free forward elimination without pivot search; by Sylvester's
    identity each entry after step k is a minor of order k + 1, so the
    divisions are exact.  Pivot row i reads sum_(j >= i) a_ij x_j = b_i,
    a_ii the leading minor of order i + 1, so the last b is det * x_last
    and back-substitution gives det * x_i = (det * b_i - sum_(j > i) a_ij
    det x_j) / a_ii, exact by Cramer.  Rows are rescaled lazily, as the
    per-step factors telescope: a row's level counts the steps as of which
    it is exact, pivots[l] is step l - 1's pivot, and a touched row becomes
    (pivot * row - row[k] * top) / pivots[level].  The empty system has
    det 1 and no unknowns."""
    size = len(mat)
    pivots = [1]
    lvl = [0] * size
    for k in range(size):
        top = mat[k]
        if lvl[k] < k:
            top = mat[k] = {j: exact(v * pivots[k], pivots[lvl[k]])
                            for j, v in top.items()}
        pivot = top[k]
        pivots.append(pivot)
        for i in range(k + 1, size):
            row = mat[i]
            left = row.get(k)
            if left is None:
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
    det = pivots[size]
    got = {size - 1: mat[-1].get(size, 0)} if mat else {}
    for i in range(size - 2, first - 1, -1):
        val = det * mat[i].get(size, 0)
        for j, v in mat[i].items():
            if i < j < size:
                val -= v * got[j]
        got[i] = exact(val, mat[i][i])
    return det, [got[i] for i in range(first, size)]


class BiPoly:
    """Bivariate integer polynomial in s and t, held as its s-rows.

    rows[i] is the coefficient tuple in t of s^i, without trailing zeros;
    there is no trailing empty row, so the zero polynomial is (), and
    equality and hash are those of rows.  The constructor takes any
    sequence of coefficient sequences and trims it; `_of` takes rows
    already in this form as they are.  Rows are never mutated, so a
    result shares each row that its operation leaves as it was: a sum
    the rows where the other operand has none, a one-term product with
    coefficient 1 and no t-shift the other operand's rows.
    """

    __slots__ = ("rows", "_key")

    def __init__(self, rows=()):
        out = []
        for row in rows:
            n = len(row)
            while n and not row[n - 1]:
                n -= 1
            out.append(tuple(row[:n]))
        while out and not out[-1]:
            out.pop()
        self.rows = tuple(out)
        self._key = None

    @classmethod
    def _of(cls, rows):
        """The BiPoly of a tuple of trimmed row tuples, not checked."""
        out = cls.__new__(cls)
        out.rows = rows
        out._key = None
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(((1,),))

    @classmethod
    def s(cls):
        return cls(((), (1,)))

    @classmethod
    def term(cls, i, j, coeff=1):
        return cls([()] * i + [(0,) * j + (coeff,)])

    def key(self):
        """The ((s-degree, t-degree), coefficient) terms, ordered by
        s-degree, then t-degree: the order factors sort and render in.
        Computed once per polynomial."""
        if self._key is None:
            self._key = tuple(((i, j), c) for i, row in enumerate(self.rows)
                              for j, c in enumerate(row) if c)
        return self._key

    def is_zero(self):
        return not self.rows

    def is_one(self):
        return self.rows == ((1,),)

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self):
        return self * -1

    def __add__(self, other, op=add):
        rows = []
        for u, v in zip_longest(self.rows, other.rows, fillvalue=()):
            if not v:
                rows.append(u)
            elif not u:
                rows.append(v if op is add else tuple(-x for x in v))
            else:
                row = list(starmap(op, zip_longest(u, v, fillvalue=0)))
                while row and not row[-1]:
                    row.pop()
                rows.append(tuple(row))
        while rows and not rows[-1]:
            rows.pop()
        return BiPoly._of(tuple(rows))

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __mul__(self, other):
        """Product with a BiPoly or an int: one mul_into per pair of
        nonzero s-rows.  A one-term operand c s^i t^j moves the other's
        rows up by i and their entries by j, scaled by c."""
        if isinstance(other, int):
            if not other:
                return BiPoly()
            return BiPoly._of(tuple(tuple(v * other for v in row)
                                    for row in self.rows))
        a, b = self.rows, other.rows
        if not a or not b:
            return BiPoly()
        for one, rest in ((a, b), (b, a)):
            *low, top = one
            if not any(low) and top.count(0) == len(top) - 1:
                pad, c = top[:-1], top[-1]
                return BiPoly._of(tuple(low) + tuple(
                    pad + (row if c == 1 else tuple(v * c for v in row))
                    if row else () for row in rest))
        out = [[] for _ in range(len(a) + len(b) - 1)]
        for i, u in enumerate(a):
            if u:
                for k, v in enumerate(b, i):
                    mul_into(out[k], u, v)
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n: a two-term base, such as 1 - t, from one row of
        binomial coefficients, any other by repeated squaring."""
        terms = self.key()
        if len(terms) == 2:
            ((i, j), a), ((k, l), b) = terms
            out = [[] for _ in range(n * max(i, k) + 1)]
            row = accumulate(range(n), lambda c, r: c * (n - r) // (r + 1),
                             initial=1)
            for r, c in enumerate(row):
                got = out[i * (n - r) + k * r]
                at = j * (n - r) + l * r
                got.extend([0] * (at + 1 - len(got)))
                got[at] = c * a ** (n - r) * b ** r
            return BiPoly(out)
        out = BiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def deg_s(self):
        return len(self.rows) - 1

    def deg_t(self):
        return max(map(len, self.rows), default=0) - 1

    def coeff(self, i, j):
        row = self.rows[i] if i < len(self.rows) else ()
        return row[j] if j < len(row) else 0

    def exact_div(self, other):
        """Exact quotient in Z[s,t], dividing as polynomials in s over
        Z[t], row by row in place on lists of the s-rows."""
        if other.is_zero():
            raise NonDivisible("division by zero polynomial")
        num = [list(row) for row in self.rows]
        *low, top = other.rows
        dd = len(low)
        q = [[] for _ in range(max(len(num) - dd, 0))]
        while True:
            while num and not any(num[-1]):
                num.pop()
            if not num:
                break
            dn = len(num) - 1
            if dn < dd:
                raise NonDivisible("nonzero remainder")
            # an exact quotient leaves the top row zero: it is dropped
            qc = q[dn - dd] = _exact_quotient(num.pop(), top)
            for i, dc in enumerate(low, dn - dd):
                mul_into(num[i], qc, dc, -1)
        return BiPoly(q)

    def try_div(self, other):
        try:
            return self.exact_div(other)
        except NonDivisible:
            return None

    def __repr__(self):
        return f"BiPoly({render_poly(self)!r})"


ONE_MINUS_T = BiPoly(((1, -1),))


def over(p, c=1):
    """p / (1 - c y) as a series to len(p) terms, for a coefficient list
    p in y: the running q_j = p_j + c q_(j-1), plain running sums for
    c = 1."""
    if c == 1:
        return list(accumulate(p))
    q, acc = [], 0
    for v in p:
        acc = v + c * acc
        q.append(acc)
    return q


def divide_out(rows, most, c=1):
    """(rows, k): every row, a coefficient list in y, divided by (1 - c
    y)^k, k as large as all rows allow up to `most`.  A row p divides when
    the last term of over(p, c), c^deg(p) p(1/c), is 0 (a zero row always
    does), and the quotient is over(p, c) without it."""
    k = 0
    while k < most:
        out = []
        for row in rows:
            q = over(row, c)
            if q and q.pop():
                return rows, k
            out.append(q)
        rows, k = out, k + 1
    return rows, k


def times_one_minus_t(p, k):
    """p * (1-t)^k for a BiPoly p, by k running differences of each
    s-row: the inverse of divide_out."""
    if not k:
        return p
    rows = []
    for row in p.rows:
        for _ in range(k if row else 0):
            row = tuple(map(sub, row + (0,), (0,) + row))
        rows.append(row)
    return BiPoly._of(tuple(rows))


def split_content(p):
    """Split p, with p(0, 0) = 1, into (piece, exponent) pairs whose
    product is p: (1-t)^k, k as large as divides every s-row (found by
    running sums), and the rest unless it is 1; each has constant term 1.

    On a determinant of generating_function the pieces are p's content
    over Z[t] and its primitive part.  In a minimal module DFA every
    cycle of variable letters is a one-letter self-loop: for one, w, at a
    live state q with access word u and accepted continuation v, u w w v
    is standard, so w = a^k; then u a v is standard too, with u v's
    monomial times a variable, so L(q) <= L(qa) <= ... <= L(qa^k) = L(q)
    and q a = q.  Two loop letters at a state would make an unsorted run.
    So at s = 0 a component's rows are triangular after reordering, each
    diagonal a power of 1 - t, and the content, a divisor of the
    determinant there, is a power of 1 - t.  A rest linear in s
    is then irreducible over Z by Gauss's lemma.  A hand-built automaton
    may break the premise; its rest keeps the extra content.
    """
    rows, k = divide_out(p.rows, p.deg_t())
    if not k:
        return [] if p.is_one() else [(p, 1)]
    rest = BiPoly(rows)
    return [(ONE_MINUS_T, k)] + ([] if rest.is_one() else [(rest, 1)])


def _rows_at_two(p):
    """p's s-rows evaluated at t = 2, index = s-degree."""
    return [sum(c << j for j, c in enumerate(row)) for row in p.rows]


def _s_root_at_two(base):
    """(b0(2), b1(2)) for a base b0(t) - s*b1(t) with b1(2) != 0, whose
    root in s at t = 2 is b0(2)/b1(2); None for any other base."""
    rows = _rows_at_two(base)
    if len(rows) != 2 or not rows[1]:
        return None
    return rows[0], -rows[1]


def _misses_root(num, b0, b1):
    """True when num does not vanish at s = b0/b1, t = 2: the integer
    sum_i N_i(2) b0^i b1^(n-i) over num's s-rows N_i, n its s-degree,
    is not 0.  Horner's rule in b0, each step one more power of b1."""
    rows = _rows_at_two(num)
    acc, power = rows[-1], 1
    for row in reversed(rows[:-1]):
        power *= b1
        acc = acc * b0 + row * power
    return acc != 0


def common_denominator(factor_tuples):
    """The multiset maximum of a sequence of factor tuples, each a dict
    {id: exponent} with ids sortable, as a new dict, and what each tuple
    lacks against it: sorted (id, exponent) pairs, the factor powers whose
    product is the tuple's cofactor."""
    if len(factor_tuples) == 1:
        return dict(factor_tuples[0]), [()]
    top = {}
    for factors in factor_tuples:
        for i, e in factors.items():
            if top.get(i, 0) < e:
                top[i] = e
    return top, [tuple(sorted((i, e - factors.get(i, 0))
                              for i, e in top.items()
                              if e > factors.get(i, 0)))
                 for factors in factor_tuples]


def power_product(factors):
    """The product of base ** exponent over (base, exponent) pairs; a
    power of 1 - t by running differences."""
    out = BiPoly.one()
    for base, e in factors:
        out = (times_one_minus_t(out, e) if base == ONE_MINUS_T
               else out * base ** e)
    return out


def _sccs(start, succ):
    """Strongly connected components reachable from start, sinks first.

    Tarjan's algorithm with an explicit stack, so long chains do not hit
    the recursion limit.  A state whose component is out gets an infinite
    lowlink, so no edge into it lowers another's.
    """
    index = {start: 0}
    low = {start: 0}
    stack = [start]
    work = [(start, iter(succ.get(start, ())))]
    out = []
    while work:
        q, it = work[-1]
        for r in it:
            if r not in index:
                index[r] = low[r] = len(index)
                stack.append(r)
                work.append((r, iter(succ.get(r, ()))))
                break
            if low[r] < low[q]:
                low[q] = low[r]
        else:
            work.pop()
            if low[q] == index[q]:
                comp = []
                while not comp or comp[-1] != q:
                    comp.append(stack.pop())
                    low[comp[-1]] = inf
                out.append(comp)
            elif low[q] < low[work[-1][0]]:
                low[work[-1][0]] = low[q]
    return out


def solve_sinks_first(start, rows):
    """x_start as a FactoredRational for (1-t)^J_k x_k = sum_r e_kr x_r +
    e_k, rows[k] = (J_k, {r: e_kr, None: e_k}) over BiPolys, zeros left
    out, every e_kr vanishing at s = t = 0.

    The states reachable from start are solved one strongly connected
    component C at a time, sinks first; only the start and the states
    other components read keep a numerator, over C's factor tuple {id:
    exponent}.  C's denominator is the multiset maximum of the tuples it
    reaches (common_denominator): the exit terms into one successor
    component are summed and multiplied by the cofactor its tuple lacks,
    and e_k by the whole denominator.  A lone state's determinant is
    (1-t)^J_k - e_kk and its numerator the right-hand side; bareiss on
    BiPoly rows solves a larger component, kept states last (the weights
    vanish at the origin, so no pivot does).  The determinant joins the
    denominator split by split_content.  1 - t then cancels from the
    kept numerators as often as all of them allow, up to its exponent in
    C's tuple, once every s-row sums to 0: the scalings by (1-t)^J_k
    leave such powers.  A component whose right-hand sides all vanish
    adds nothing.  Cofactors, splits and the (1-t)^J are memoized.
    """
    sccs = _sccs(start, {k: [r for r in row if r is not None]
                         for k, (_, row) in rows.items()})
    wanted = {start}
    if len(sccs) < len(rows):  # unless every state is a lone component
        where = {q: i for i, comp in enumerate(sccs) for q in comp}
        for q, i in where.items():
            wanted.update(r for r in rows[q][1]
                          if r is not None and where[r] != i)
    one, zero = BiPoly._of(((1,),)), BiPoly._of(())
    x = {}  # wanted state -> numerator over its component's factor tuple
    home = {}
    tuples = {None: {}}  # component -> {factor id: exponent}; None: e_k's
    bases = {0: ONE_MINUS_T}  # factor id -> base
    ids = {ONE_MINUS_T: 0}  # base -> factor id
    splits = {}  # determinant -> its (factor id, exponent) pairs
    products = {}  # lacking (factor id, exponent) pairs -> their product
    diags = {}  # J -> (1-t)^J

    for here, comp in enumerate(sccs):
        keep = comp  # a lone state is the start or read by another
        if len(comp) > 1:
            keep = [q for q in comp if q in wanted]
            comp = [q for q in comp if q not in wanted] + keep
        pos = {q: i for i, q in enumerate(comp)}
        mat = []
        parts = {}  # successor component -> {position: exit terms' sum}
        for i, q in enumerate(comp):
            lift, row = rows[q]
            diag = diags.get(lift) or diags.setdefault(
                lift, times_one_minus_t(one, lift))
            entries = {i: diag}
            for r, p in row.items():
                if r is None:
                    parts.setdefault(None, {})[i] = p
                elif r in pos:
                    entries[pos[r]] = diag - p if r == q else -p
                elif x[r]:
                    got = parts.setdefault(home[r], {})
                    p = p * x[r]
                    got[i] = got[i] + p if i in got else p
            mat.append(entries)
        top, lacks = common_denominator([tuples[c] for c in parts])
        rhs = [zero] * len(comp)
        for lack, got in zip(lacks, parts.values()):
            if lack and lack not in products:
                products[lack] = power_product((bases[j], e) for j, e in lack)
            for i, part in got.items():
                part = part * products[lack] if lack else part
                rhs[i] = rhs[i] + part if rhs[i] else part
        det, nums = one, [zero] * len(keep)
        if len(comp) == 1 and rhs[0]:
            det, nums = mat[0][0], rhs
        elif any(rhs):
            for entries, b in zip(mat, rhs):
                if b:
                    entries[len(comp)] = b
            det, nums = bareiss(mat, len(comp) - len(keep))
            nums = [v or zero for v in nums]
        pieces = splits.get(det)
        if pieces is None:
            pieces = splits[det] = []
            for base, e in split_content(det):
                i = ids.setdefault(base, len(ids))
                bases[i] = base
                pieces.append((i, e))
        for i, e in pieces:
            top[i] = top.get(i, 0) + e
        flat = [r for v in nums for r in v.rows]
        if top.get(0) and not any(map(sum, flat)):
            flat, k = divide_out(flat, top[0])
            flat = iter(map(tuple, flat))
            nums = [BiPoly._of(tuple(islice(flat, len(v.rows))))
                    for v in nums]
            top[0] -= k
        tuples[here] = top
        for q, num in zip(keep, nums):
            x[q], home[q] = num, here
    return FactoredRational(x[start], [
        (bases[i], e) for i, e in tuples[home[start]].items()])


class FactoredRational:
    """Rational function numerator / product of factor powers, all in Z[s,t].

    The factor list is a multiset of (base, exponent) pairs and is preserved
    through arithmetic so that shape analysis can see the pipeline's factors.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num, factors=()):
        self.num = num
        fs = {}
        for base, e in factors:
            if e and not base.is_one():
                fs[base] = fs.get(base, 0) + e
        if num.is_zero():
            fs = {}
        self.factors = tuple(sorted(fs.items(), key=lambda be: be[0].key()))

    @classmethod
    def zero(cls):
        return cls(BiPoly.zero(), ())

    def is_zero(self):
        return self.num.is_zero()

    def den_expanded(self):
        return power_product(self.factors)

    def __add__(self, other):
        """Sum over the multiset maximum of both factor lists, each
        numerator times its cofactor.  A zero operand gives the other
        operand itself: that is the sum's numerator over its own
        factors, and no FactoredRational is ever mutated."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        bases = {b.rows: b for b, _ in self.factors + other.factors}
        top, (cs, co) = common_denominator(
            [{b.rows: e for b, e in r.factors} for r in (self, other)])
        return FactoredRational(
            self.num * power_product((bases[k], e) for k, e in cs)
            + other.num * power_product((bases[k], e) for k, e in co),
                                [(bases[k], e) for k, e in top.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FactoredRational(-self.num, self.factors)

    def mul_t_power(self, k):
        """t^k times self; self itself for k = 0."""
        if not k:
            return self
        return FactoredRational(self.num * BiPoly.term(0, k), self.factors)

    def reduce(self):
        """Cancel numerator against denominator factors.  1 - t cancels by
        running sums over each s-row of the numerator, up to its
        exponent; every other factor by trial exact division, one factor
        power at a time.

        A factor linear in s, b0(t) - s*b1(t) with b1(2) != 0, is first
        screened at t = 2: if it divides the numerator N, then N
        vanishes at s = b0(2)/b1(2), so h = sum_i N_i(2) b0(2)^i
        b1(2)^(n-i), over N's s-rows N_i up to its s-degree n, is 0.
        h != 0 rules the factor out with no division; h = 0 proves
        nothing, and the division decides.  Every pipeline factor
        (1-t)^k - s*f(t) has f(0) = 1, so f(2) is odd and never 0.

        The result is reduced over Q[s,t] when every factor is irreducible
        and no two are associates, as 1-t and a primitive rest of
        split_content linear in s are; any other factor cancels whole.
        """
        num = self.num
        if num.is_zero():
            return FactoredRational.zero()
        kept = []
        for base, e in self.factors:
            if base == ONE_MINUS_T:
                rows, k = divide_out(num.rows, e)
                if k:
                    num = BiPoly(rows)
                    e -= k
            else:
                root = _s_root_at_two(base)
                while e:
                    if root and _misses_root(num, *root):
                        break
                    q = num.try_div(base)
                    if q is None:
                        break
                    num, e = q, e - 1
            kept.append((base, e))
        return FactoredRational(num, kept)

    def __repr__(self):
        return f"FactoredRational({render_rational(self)!r})"


def _render_monomial(i, j, coeff):
    parts = []
    a = abs(coeff)
    if a != 1 or (i == 0 and j == 0):
        parts.append(str(a))
    if i == 1:
        parts.append("s")
    elif i > 1:
        parts.append(f"s^{i}")
    if j == 1:
        parts.append("t")
    elif j > 1:
        parts.append(f"t^{j}")
    return "*".join(parts)


def render_poly(p):
    """Canonical text form; terms ordered by s-degree then t-degree."""
    if p.is_zero():
        return "0"
    out = []
    for (i, j), c in p.key():
        mono = _render_monomial(i, j, c)
        if not out:
            out.append(mono if c > 0 else "-" + mono)
        else:
            out.append(("+ " if c > 0 else "- ") + mono)
    return " ".join(out)


def render_rational(r, t_prefactor=0):
    """Canonical text form `t^-K*num/(f1)^e1*(f2)^e2`, factors in key order.
    The prefactor shows only for K > 0, and a unit numerator after it is
    left out: `t^-K/(f1)`, or `t^-K` alone.  A zero numerator renders as
    `0` whatever the prefactor."""
    num = render_poly(r.num)
    if r.num.is_zero():
        return num
    if len(r.num.key()) > 1 and (r.factors or t_prefactor):
        num = f"({num})"
    if t_prefactor > 0:
        num = f"t^-{t_prefactor}" + ("" if num == "1" else f"*{num}")
    if not r.factors:
        return num
    fs = []
    for base, e in r.factors:
        b = f"({render_poly(base)})"
        fs.append(b if e == 1 else f"{b}^{e}")
    return f"{num}/" + "*".join(fs)


def expand_series(r, n_max, j_max, t_prefactor=0):
    """Expand a FactoredRational into its exact coefficients: a tuple of
    rows indexed by s-degree n, each a tuple indexed by t-degree j.

    t_prefactor k means the function is t^-k times `r`; the window reports
    coefficients of nonnegative t-degrees only.  The denominator must be 1
    at s = t = 0, as every factor the pipeline makes is, so the division
    stays in the integers.

    The window holds the numerator's rows as lists and is divided by one
    factor at a time, once per power, reading only terms inside the
    window.  Dividing by F, row by row: row n minus, for each term
    v s^k t^l of F with 1 <= k <= n, v times the quotient's row n - k
    shifted by l, then divided by F's s^0 part, whose 1 - t powers are
    running sums.
    """
    unit = 1
    for base, e in r.factors:
        unit *= base.coeff(0, 0) ** e
    if unit != 1:
        raise SingularAtOrigin("denominator is not 1 at s = t = 0")
    jj = j_max + t_prefactor
    rows = [[0] * (jj + 1) for _ in range(n_max + 1)]
    for row, got in zip(rows, r.num.rows):
        row[:len(got)] = got[:jj + 1]
    for base, e in r.factors:
        across = [(k, l, v)
                  for k, got in enumerate(base.rows[1:n_max + 1], 1)
                  for l, v in enumerate(got[:jj + 1]) if v]
        col = base.rows[0]
        (rest,), ones = divide_out([col], len(col) - 1)
        # the product of the constant terms is 1, so each one is 1 or -1
        lead = rest[0]
        along = [(l, v) for l, v in enumerate(rest[1:jj + 1], 1)
                 if v]
        for _ in range(e):
            for n, row in enumerate(rows):
                for k, l, v in across:
                    if k > n:
                        break
                    row[l:] = [a - v * b
                               for a, b in zip(row[l:], rows[n - k])]
                for _ in range(ones):
                    row[:] = accumulate(row)
                if lead == 1 and not along:
                    continue
                for j in range(jj + 1):
                    acc = row[j]
                    for l, v in along:
                        if l > j:
                            break
                        acc -= v * row[j - l]
                    row[j] = acc * lead
    return tuple(tuple(row[t_prefactor:]) for row in rows)
