"""Exact polynomial arithmetic over Z: univariate and bivariate polynomials,
rational functions with factored denominators, and truncated series windows.

Everything is arbitrary-precision integer arithmetic; the
pipeline contains no floating point. Bivariate terms are keyed by (s-degree,
t-degree). The canonical term order used for rendering sorts by s-degree, then
t-degree, both ascending.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import NonDivisible, SingularAtOrigin


class UniPoly:
    """Dense univariate integer polynomial; coefficient index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        if self.is_zero() or other.is_zero():
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

    def shift(self, k):
        """Multiply by t^k (k >= 0)."""
        if self.is_zero():
            return self
        return UniPoly((0,) * k + self.coeffs)

    def exact_div(self, other):
        """Exact quotient self / other; raises NonDivisible otherwise."""
        if other.is_zero():
            raise NonDivisible("division by zero polynomial")
        if self.is_zero():
            return UniPoly()
        rem = list(self.coeffs)
        dd = other.degree
        dl = other.lc()
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

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


class BiPoly:
    """Sparse bivariate integer polynomial in s and t.

    Terms are a dict keyed by (s_degree, t_degree); the dict is treated as
    immutable after construction.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, v in (terms.items() if isinstance(terms, dict) else terms):
                if v:
                    d[k] = d.get(k, 0) + v
                    if not d[k]:
                        del d[k]
        self.terms = d
        self._key = None

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        p._key = None
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def s(cls):
        return cls({(1, 0): 1})

    @classmethod
    def t(cls):
        return cls({(0, 1): 1})

    @classmethod
    def term(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    @classmethod
    def from_uni_t(cls, u):
        return cls({(0, j): c for j, c in enumerate(u.coeffs)})

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __neg__(self):
        return BiPoly._raw({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return BiPoly._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with a BiPoly or an int, term by term.  A one-term
        operand shifts the other's exponents and scales its
        coefficients."""
        if isinstance(other, int):
            if other == 0:
                return BiPoly()
            return BiPoly._raw({k: v * other for k, v in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return BiPoly()
        if len(a) == 1 or len(b) == 1:
            if len(a) != 1:
                a, b = b, a
            ((i, j), c), = a.items()
            return BiPoly._raw({(i + k, j + l): c * v
                                for (k, l), v in b.items()})
        out = {}
        for (i, j), av in a.items():
            for (k, l), bv in b.items():
                kk = (i + k, j + l)
                w = out.get(kk, 0) + av * bv
                if w:
                    out[kk] = w
                elif kk in out:
                    del out[kk]
        return BiPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n: a two-term base, such as 1 - t, from one row of
        binomial coefficients, any other by repeated squaring."""
        if len(self.terms) == 2:
            ((i, j), a), ((k, l), b) = self.terms.items()
            row = accumulate(range(n), lambda c, r: c * (n - r) // (r + 1),
                             initial=1)
            return BiPoly._raw({
                (i * (n - r) + k * r, j * (n - r) + l * r):
                c * a ** (n - r) * b ** r for r, c in enumerate(row)})
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
        return max((i for i, _ in self.terms), default=-1)

    def deg_t(self):
        return max((j for _, j in self.terms), default=-1)

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def as_s_coeffs(self):
        """Coefficients of s^k as UniPoly in t, index k."""
        d = self.deg_s()
        rows = [{} for _ in range(d + 1)]
        for (i, j), c in self.terms.items():
            rows[i][j] = c
        out = []
        for row in rows:
            jm = max(row, default=-1)
            out.append(UniPoly(tuple(row.get(j, 0) for j in range(jm + 1))))
        return out

    @classmethod
    def from_s_coeffs(cls, coeffs):
        terms = {}
        for i, u in enumerate(coeffs):
            for j, c in enumerate(u.coeffs):
                if c:
                    terms[(i, j)] = c
        return cls(terms)

    def exact_div(self, other):
        """Exact quotient in Z[s,t], dividing as polynomials in s over Z[t]."""
        if other.is_zero():
            raise NonDivisible("division by zero polynomial")
        if self.is_zero():
            return BiPoly()
        num = self.as_s_coeffs()
        den = other.as_s_coeffs()
        dd = len(den) - 1
        dl = den[-1]
        q = [UniPoly() for _ in range(max(len(num) - dd, 0))]
        while True:
            while num and num[-1].is_zero():
                num.pop()
            if not num:
                break
            dn = len(num) - 1
            if dn < dd:
                raise NonDivisible("nonzero remainder")
            qc = num[-1].exact_div(dl)
            q[dn - dd] = qc
            for i, dc in enumerate(den):
                num[dn - dd + i] = num[dn - dd + i] - qc * dc
        return BiPoly.from_s_coeffs(q)

    def try_div(self, other):
        try:
            return self.exact_div(other)
        except NonDivisible:
            return None

    def __repr__(self):
        return f"BiPoly({render_poly(self)!r})"


ONE_MINUS_T = BiPoly({(0, 0): 1, (0, 1): -1})


def _divide_one_minus_t(rows, most):
    """Divide every row, a dense coefficient list in t, by 1 - t as long
    as all of them allow, at most `most` times: (rows, times divided).

    A row is divisible by 1 - t iff its coefficients sum to 0, and the
    quotient is then its running sums with the last one, that 0,
    dropped."""
    k = 0
    while k < most and not any(map(sum, rows)):
        rows = [list(accumulate(r))[:-1] for r in rows]
        k += 1
    return rows, k


def one_minus_t_order(u):
    """(q, k) with u = (1-t)^k * q and k as large as it goes, cancelled by
    running sums; the zero polynomial gives (u, 0)."""
    if not u:
        return u, 0
    (q,), k = _divide_one_minus_t([u.coeffs], u.degree)
    return UniPoly(q), k


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
    So at s = 0, I - T_CC is triangular after reordering, det = (1-t)^m,
    and the content, a divisor, is a power of 1 - t.  A rest linear in s
    is then irreducible over Z by Gauss's lemma.  A hand-built automaton
    may break the premise; its rest keeps the extra content.
    """
    rows, k = _divide_one_minus_t([u.coeffs for u in p.as_s_coeffs()],
                                  p.deg_t())
    if not k:
        return [] if p.is_one() else [(p, 1)]
    rest = BiPoly.from_s_coeffs(map(UniPoly, rows))
    return [(ONE_MINUS_T, k)] + ([] if rest.is_one() else [(rest, 1)])


def _rows_at_two(p):
    """p's s-rows evaluated at t = 2, index = s-degree."""
    rows = [0] * (p.deg_s() + 1)
    for (i, j), c in p.terms.items():
        rows[i] += c << j
    return rows


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


def common_denominator(factor_tuples, memo=None):
    """The multiset maximum of a sequence of factor tuples, and each
    tuple's cofactor: the product of the factor powers it lacks against
    that maximum.  memo maps a tuple of lacking (key, exponent) pairs, in
    the maximum's order, to their product; pass one dict to calls whose
    cofactors repeat."""
    top = {}
    for factors in factor_tuples:
        for base, e in factors:
            got = top.get(base.key())
            if got is None or got[1] < e:
                top[base.key()] = (base, e)
    if memo is None:
        memo = {}
    cofactors = []
    for factors in factor_tuples:
        have = {b.key(): e for b, e in factors}
        lack = tuple((key, e - have.get(key, 0))
                     for key, (_, e) in top.items() if e > have.get(key, 0))
        out = memo.get(lack)
        if out is None:
            out = BiPoly.one()
            for key, e in lack:
                out = out * top[key][0] ** e
            memo[lack] = out
        cofactors.append(out)
    return tuple(top.values()), cofactors


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
            if e == 0 or base.is_one():
                continue
            k = base.key()
            if k in fs:
                fs[k] = (base, fs[k][1] + e)
            else:
                fs[k] = (base, e)
        if num.is_zero():
            fs = {}
        self.factors = tuple(sorted(fs.values(), key=lambda be: be[0].key()))

    @classmethod
    def zero(cls):
        return cls(BiPoly.zero(), ())

    def is_zero(self):
        return self.num.is_zero()

    def den_expanded(self):
        out = BiPoly.one()
        for base, e in self.factors:
            out = out * base ** e
        return out

    def __add__(self, other):
        """Sum over the multiset maximum of both factor lists, each
        numerator times its cofactor.  A zero operand gives the other
        operand itself: that is the sum's numerator over its own
        factors, and no FactoredRational is ever mutated."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        merged, (cs, co) = common_denominator((self.factors, other.factors))
        return FactoredRational(self.num * cs + other.num * co, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FactoredRational(-self.num, self.factors)

    def mul_t_power(self, k):
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
                rows, k = _divide_one_minus_t(
                    [u.coeffs for u in num.as_s_coeffs()], e)
                if k:
                    num = BiPoly.from_s_coeffs(map(UniPoly, rows))
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


def _canonical_terms(p):
    return sorted(p.terms.items())


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
    for (i, j), c in _canonical_terms(p):
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
    if len(r.num.terms) > 1 and (r.factors or t_prefactor):
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
    for (n, j), v in r.num.terms.items():
        if n <= n_max and j <= jj:
            rows[n][j] = v
    for base, e in r.factors:
        across = sorted((k, l, v) for (k, l), v in base.terms.items()
                        if 0 < k <= n_max and l <= jj)
        col = [0] * (1 + max(l for k, l in base.terms if not k))
        for (k, l), v in base.terms.items():
            if not k:
                col[l] = v
        rest, ones = one_minus_t_order(UniPoly(col))
        # the product of the constant terms is 1, so each one is 1 or -1
        lead = rest.coeffs[0]
        along = [(l, v) for l, v in enumerate(rest.coeffs[1:jj + 1], 1)
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
