"""Structural analysis of computed series: denominator shape, asymptotic
growth of dimension and multiplicity, polynomiality in fixed degree, and
the eventual-finite-length certificate."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NoStableFit, NotConformant, ZeroModule
from .oicore import dim_deg_width
from .polyarith import BiPoly, UniPoly, prem_bipoly_s
from .series import module_series

_ONE_MINUS_T = BiPoly({(0, 0): 1, (0, 1): -1})


@dataclass(frozen=True)
class ShapeReport:
    """Classified reduced denominator: (1-t)^power times a product of
    factors (1-t)^(t_power) - s*growth(t), one list entry per multiplicity.
    Anything unclassifiable is multiplied into `leftover`."""

    conformant: bool
    one_minus_t_power: int
    factors: tuple  # of (t_power, growth: UniPoly), repeated by multiplicity
    leftover: object  # BiPoly, or None when everything classified
    numerator: BiPoly


def _classify_factor(b, c):
    """(t_power, growth) for a conforming factor, else None."""
    if b.deg_s() != 1:
        return None
    coeffs = b.as_s_coeffs()
    b0, b1 = coeffs[0], -coeffs[1]
    tp = b0.degree
    if not (0 <= tp <= c) or b0 != UniPoly((1, -1)) ** tp:
        return None
    if not b1.coeffs or b1.coeffs[0] != 1 or b1(1) <= 0:
        return None
    if c == 1:
        # single-row refinement: only 1-t-s and 1-s(1+t+...+t^e) occur
        if any(fc != 1 for fc in b1.coeffs) or (tp == 1 and b1.degree > 0):
            return None
    return tp, b1


def validate_shape(result, c):
    """Classify the reduced denominator of a computed series.

    Conforming factors are 1-t and (1-t)^k - s*f(t) with f(0)=1, f(1)>0
    and 0 <= k <= c; for c=1 only 1-t-s and 1-s(1+t+...+t^e) may occur.
    Each factor is classified as it stands: the pipeline splits every
    determinant where it is made (polyarith.split_content), so a factor
    other than 1-t is a primitive part, irreducible when linear in s, or
    the rest of a content, which lands whole in leftover.  A series whose
    `reduced` flag is set is not reduced again.
    """
    reduced = result.rational if result.reduced else result.rational.reduce()
    power = 0
    linear = []
    leftover = None
    for b, mult in reduced.factors:
        if b == _ONE_MINUS_T:
            power += mult
            continue
        cf = _classify_factor(b, c)
        if cf is None:
            piece = b ** mult
            leftover = piece if leftover is None else leftover * piece
        else:
            linear.extend([cf] * mult)
    return ShapeReport(leftover is None, power, tuple(sorted(
        linear, key=lambda p: (p[0], p[1].coeffs))), leftover, reduced.num)


def _one_minus_t_order(p):
    """Largest k with (1-t)^k dividing p, taken over the s-coefficients."""
    omt = UniPoly((1, -1))
    best = None
    for u in p.as_s_coeffs():
        if u.is_zero():
            continue
        k = 0
        while u(1) == 0:
            u = u.exact_div(omt)
            k += 1
        best = k if best is None else min(best, k)
        if best == 0:
            break
    return best


@dataclass(frozen=True)
class ArtinianCertificate:
    """Division data behind the eventual-finite-length verdict.

    With numerator g and denominator (1-t)^power * prod_j (1 - s*f_j):
    r^e * g = quotient * prod_j (1 - s*f_j) + remainder, where r is the
    product of the f_j.  The verdict is true exactly when every factor
    has t_power zero and (1-t)^power divides the remainder."""

    verdict: bool
    one_minus_t_power: int
    factor_t_powers: tuple
    f_list: tuple  # the f_j, one per factor with multiplicity
    e: int
    quotient: object  # BiPoly, or None when the verdict short-circuits
    remainder: object
    remainder_order: int  # (1-t)-adic order; equals power when rem = 0


def artinian_test(p):
    """Decide whether the quotient has finite length in every large width.

    Works from the reduced series: all factor t-powers must vanish and the
    pseudo-remainder of the numerator by the s-factors must absorb the
    whole (1-t)^power pole.
    """
    res = module_series(p, quotient=True, reduce=True)
    if res.rational.is_zero():
        return ArtinianCertificate(True, 0, (), (), 0, None, BiPoly.zero(), 0)
    rep = validate_shape(res, p.c)
    if not rep.conformant:
        raise NotConformant(f"unrecognized factor: {rep.leftover}")
    t_powers = tuple(tp for tp, _ in rep.factors)
    f_list = tuple(f for _, f in rep.factors)
    a = rep.one_minus_t_power
    if any(t_powers):
        return ArtinianCertificate(
            False, a, t_powers, f_list, 0, None, None, 0)
    if not f_list:
        # polynomial series over (1-t)^power: widths are eventually zero
        return ArtinianCertificate(
            True, a, (), (), 0, rep.numerator, BiPoly.zero(), a)
    den = BiPoly.one()
    r = UniPoly.one()
    for f in f_list:
        den = den * (BiPoly.one() - BiPoly.s() * BiPoly.from_uni_t(f))
        r = r * f
    rem = prem_bipoly_s(rep.numerator, den)
    e = max(0, rep.numerator.deg_s() - len(f_list) + 1)
    if len(f_list) % 2 and e % 2:
        rem = -rem  # lc_s(den) = (-1)^b * r: renormalize to r^e * g
    quot = (BiPoly.from_uni_t(r ** e) * rep.numerator - rem).exact_div(den)
    if rem.is_zero():
        return ArtinianCertificate(True, a, t_powers, f_list, e, quot, rem, a)
    order = _one_minus_t_order(rem)
    return ArtinianCertificate(
        order >= a, a, t_powers, f_list, e, quot, rem, order)


def _window_data(p, window, quotient, index):
    lo, hi = window
    out = []
    for n in range(lo, hi + 1):
        try:
            out.append(dim_deg_width(p, n, quotient)[index])
        except ZeroModule:
            out.append(0)
    return out


def _tail(values):
    """Upper half of the window, at least two points."""
    return values[-max(2, (len(values) + 1) // 2):]


@dataclass(frozen=True)
class DimensionGrowth:
    slope: int
    intercept: int
    window: tuple
    dims: tuple


def asymptotic_dimension(p, window=(3, 8), quotient=True):
    """Eventual linear growth of the width-n Krull dimension.

    Requires an exact linear fit on the upper half of the window."""
    lo, hi = window
    if hi - lo + 1 < 4:
        raise NoStableFit("dimension window shorter than 4")
    dims = _window_data(p, window, quotient, 0)
    tail = _tail(dims)
    slope = tail[1] - tail[0]
    intercept = dims[-1] - slope * hi
    for k, v in enumerate(tail):
        if v != slope * (hi - len(tail) + 1 + k) + intercept:
            raise NoStableFit(f"dimension not linear on tail: {dims}")
    return DimensionGrowth(slope, intercept, window, tuple(dims))


@dataclass(frozen=True)
class MultiplicityGrowth:
    base: int  # degrees grow like base^n * n^poly_exponent
    poly_exponent: int
    limit_estimate: Fraction  # last tail value of deg / (base^n n^exp)
    exact: bool  # every tail ratio equals the base exactly
    window: tuple
    degrees: tuple


def _nearest_int(r):
    q, rem2 = divmod(2 * r.numerator + r.denominator, 2 * r.denominator)
    if rem2 == 0 and r.denominator != 1:
        raise NoStableFit(f"degree ratio {r} sits between integers")
    return q


def asymptotic_multiplicity(p, window=(3, 8), quotient=True):
    """Exponential growth base of the width-n multiplicity, with the
    polynomial correction exponent fitted by successive ratio tests."""
    lo, hi = window
    if hi - lo + 1 < 6:
        raise NoStableFit("multiplicity window shorter than 6")
    degs = _window_data(p, window, quotient, 1)
    tail = _tail(degs)
    if all(v == 0 for v in tail):
        return MultiplicityGrowth(
            1, 0, Fraction(0), True, window, tuple(degs))
    if any(v <= 0 for v in tail):
        raise NoStableFit(f"multiplicity tail mixes zeros: {degs}")
    ns = list(range(hi - len(tail) + 1, hi + 1))
    ratios = [Fraction(tail[i + 1], tail[i]) for i in range(len(tail) - 1)]
    base = _nearest_int(ratios[-1])
    if base < 1:
        raise NoStableFit(f"degree ratios fall below 1/2: {degs}")
    gaps = [abs(r - base) for r in ratios]
    if any(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])):
        raise NoStableFit(f"degree ratios not settling near {base}: {degs}")
    exact = not gaps[-1]
    u = [Fraction(v, base ** n) for n, v in zip(ns, tail)]
    n = ns[-2]
    step = Fraction(u[-1], u[-2])
    for exp in range(0, 9):
        w = (step * Fraction(n, n + 1) ** exp) ** 2
        if Fraction(n, n + 1) <= w <= Fraction(n + 1, n):
            return MultiplicityGrowth(
                base, exp, u[-1] / hi ** exp, exact, window, tuple(degs))
    raise NoStableFit(f"no polynomial correction fits degrees: {degs}")


@dataclass(frozen=True)
class DegreeFit:
    """Eventually-polynomial fit of n -> dim in one fixed degree."""

    degree_j: int
    onset: int
    newton: tuple  # forward differences at the onset
    values: tuple

    def evaluate(self, n):
        if n < self.onset:
            raise NoStableFit(f"fit starts at width {self.onset}")
        return sum(d * comb(n - self.onset, i)
                   for i, d in enumerate(self.newton))

    def coefficients(self):
        """Power-basis coefficients in n, exact fractions, ascending."""
        acc = [Fraction(0)]
        for i, d in enumerate(self.newton):
            poly = [Fraction(1)]  # prod_{k<i} (n - onset - k)
            for k in range(i):
                a = self.onset + k
                poly = [(poly[m - 1] if m else Fraction(0))
                        - a * (poly[m] if m < len(poly) else Fraction(0))
                        for m in range(len(poly) + 1)]
            fact = 1
            for k in range(2, i + 1):
                fact *= k
            scale = Fraction(d, fact)
            if len(poly) > len(acc):
                acc.extend([Fraction(0)] * (len(poly) - len(acc)))
            for m, cv in enumerate(poly):
                acc[m] += scale * cv
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        return tuple(acc)


def fixed_degree_polynomial(result, j, n_max=10):
    """Fit n -> dim in fixed degree j as an eventually-polynomial function.

    Takes the least onset whose forward-difference table reaches an all-zero
    row inside the window.  A nonempty zero row always leaves at least one
    data point beyond the interpolation degree, so the fit is never vacuous;
    basis growth can push the degree past j, so no degree cap is imposed."""
    if n_max < j + 3:
        raise NoStableFit(f"window too short for degree {j}")
    win = result.window(n_max, max(j, 0))
    col = [win[(n, j)] for n in range(n_max + 1)]
    for onset in range(0, n_max - 1):
        row = col[onset:]
        newton = []
        while row:
            if all(v == 0 for v in row):
                return DegreeFit(j, onset, tuple(newton), tuple(col))
            newton.append(row[0])
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    raise NoStableFit(
        f"no polynomial onset for degree {j} within width {n_max}")
