import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oihilbert.analysis import (
    DegreeFit,
    DimensionGrowth,
    MultiplicityGrowth,
    ShapeReport,
    _exp_poly_at,
    _growth,
    _last_zero,
    artinian_test,
    asymptotic_dimension,
    asymptotic_multiplicity,
    fixed_degree_polynomial,
    validate_shape,
)
from oihilbert.decomposition import Decomposition
from oihilbert.errors import NotConformant
from oihilbert.oicore import Monomial, ModulePresentation
from oihilbert.polyarith import BiPoly, FactoredRational, split_content
from oihilbert.schema import InputDocument, load_document, parse_document
from oihilbert.series import (
    SeriesResult,
    free_series,
    module_series,
)

from corpus import random_presentation
from oracles import (UniPoly, ZeroModule, bipoly, dim_deg_width,
                     equals_cross_mul, fixed_degree_reference,
                     growth_reference, letter_series, paper_artinian,
                     terms_of)

ROOT = Path(__file__).resolve().parent.parent


def ideal(c, *gens):
    return ModulePresentation(
        c, [(0, 0)], [Monomial(c, len(cols), cols) for cols in gens])


def principal_power(a):
    return ideal(1, ((a,),))


def shape_of(p, quotient=True):
    res = module_series(p, quotient=quotient, reduce=True)
    return res, validate_shape(res, p.c)


def report_of(p, quotient=True):
    return shape_of(p, quotient)[1]


ONE_MINUS_T = BiPoly.one() - BiPoly.term(0, 1)
S, T = sympy.symbols("s t")


def sympy_pieces(b):
    """sympy's irreducible factors of b, each with positive constant term."""
    expr = sympy.Add(*(c * S**i * T**j for (i, j), c in terms_of(b).items()))
    _, pieces = sympy.factor_list(expr, S, T)
    out = []
    for piece, mult in pieces:
        poly = sympy.Poly(piece, S, T)
        q = bipoly({(int(i), int(j)): int(c)
                    for (i, j), c in zip(poly.monoms(), poly.coeffs())})
        out.append((-q if q.coeff(0, 0) < 0 else q, int(mult)))
    return out


def product_of(pieces):
    prod = BiPoly.one()
    for piece, mult in pieces:
        assert piece.coeff(0, 0) == 1
        prod = prod * piece ** mult
    return prod


def hand_series(num_terms, den_terms):
    return SeriesResult(
        FactoredRational(bipoly(num_terms), ((bipoly(den_terms), 1),)),
        0, "quotient")


class TestShape:
    def test_principal_square(self):
        _, rep = shape_of(principal_power(2))
        assert rep.conformant
        assert rep.one_minus_t_power == 0
        assert rep.factors == ((0, (1, 1)),)
        assert rep.leftover is None

    def test_free_modules(self):
        for c in (1, 2, 3):
            _, rep = shape_of(ModulePresentation(c, [(0, 0)], []))
            assert rep.conformant
            assert rep.factors == ((c, (1,)),)

    def test_squarefree_pair_splits_pole(self):
        _, rep = shape_of(ideal(1, ((1,), (1,))))
        assert rep.conformant
        assert rep.one_minus_t_power == 1
        assert rep.factors == ((0, (1,)),) * 2

    def test_hand_built_nonconformant(self):
        bad = hand_series({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (2, 1): -1})
        rep = validate_shape(bad, 1)
        assert not rep.conformant
        assert rep.leftover == bipoly({(0, 0): 1, (2, 1): -1})

    @given(st.integers(0, 3),
           st.lists(st.integers(-3, 3), max_size=4),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_split_of_s_linear_base(self, j, growth, k):
        # b = (1-t)^k * ((1-t)^j + s*u1(t)): at s = 0 a power of 1 - t,
        # as every determinant of a minimal module DFA is
        b = BiPoly([(UniPoly((1, -1)) ** j).coeffs, growth]) \
            * ONE_MINUS_T ** k
        pieces = split_content(b)
        assert product_of(pieces) == b
        theirs = sympy_pieces(b)

        def power(ps):
            return sum(m for q, m in ps if q == ONE_MINUS_T)

        def s_linear(ps):
            return sorted((q.key(), m) for q, m in ps if q.deg_s() > 0)

        assert power(pieces) == power(theirs)
        assert s_linear(pieces) == s_linear(theirs)
        assert all(q.deg_s() <= 1 for q, _ in pieces)

    def test_split_keeps_other_content_in_the_rest(self):
        # (1+t)(1-t)^2(1-t-s): content (1+t)(1-t)^2 over Z[t], which no
        # minimal module DFA makes; the rest keeps the 1 + t
        one_plus_t = BiPoly.one() + BiPoly.term(0, 1)
        linear = ONE_MINUS_T - BiPoly.s()
        b = one_plus_t * ONE_MINUS_T ** 2 * linear
        pieces = split_content(b)
        assert pieces == [(ONE_MINUS_T, 2), (one_plus_t * linear, 1)]
        assert product_of(pieces) == b
        assert split_content(one_plus_t * linear) == [(one_plus_t * linear, 1)]

    def test_single_row_refinement(self):
        # (1-t) - s(1+t) conforms for two rows but not for one
        factor = {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): -1}
        res = hand_series({(0, 0): 1, (0, 1): -1}, factor)
        assert validate_shape(res, 2).conformant
        rep = validate_shape(res, 1)
        assert not rep.conformant
        assert rep.leftover == bipoly(factor)

    def test_report_reconstructs_series(self):
        for p in [principal_power(3),
                  ideal(2, ((1, 1),)),
                  ideal(1, ((1,), (1,))),
                  ModulePresentation(2, [(1, 1)], []),
                  ModulePresentation(
                      1, [(1, 0)],
                      [Monomial(1, 2, ((1,), (1,)), (2,))])]:
            res, rep = shape_of(p)
            den = (BiPoly.one() - BiPoly.term(0, 1)) ** rep.one_minus_t_power
            for tp, f in rep.factors:
                den = den * ((BiPoly.one() - BiPoly.term(0, 1)) ** tp
                             - bipoly({(1, j): c for j, c in enumerate(f)}))
            assert equals_cross_mul(
                res.rational, FactoredRational(rep.numerator, ((den, 1),)))

    def test_random_presentations_conform(self):
        rng = random.Random(61409)
        for _ in range(25):
            p = random_presentation(rng)
            _, rep = shape_of(p)
            assert rep.conformant, p
            if p.c == 1:
                for tp, f in rep.factors:
                    assert set(f) == {1}
                    assert tp == 0 or f == (1,)


def widthwise_artinian(p, window):
    """Krull dimension zero (or emptiness) on every width in the window."""
    for n in range(window[0], window[1] + 1):
        try:
            if dim_deg_width(p, n, quotient=True)[0] != 0:
                return False
        except ZeroModule:
            pass
    return True


class TestArtinian:
    def test_known_verdicts(self):
        cases = [(principal_power(1), True), (principal_power(2), True),
                 (ideal(1, ((1,), (1,))), False), (ideal(2, ((1, 1),)), False)]
        cases += [(ModulePresentation(c, [(0, 0)], []), False) for c in (1, 2)]
        for p, want in cases:
            rep = report_of(p)
            assert artinian_test(rep) is want, p
            assert paper_artinian(rep) is want, p

    def test_eventually_zero_widths(self):
        # unit generator at width 2: K, then K[x], then zero
        rep = report_of(ideal(1, ((0,), (0,))))
        assert rep.one_minus_t_power == 1
        assert artinian_test(rep) and paper_artinian(rep)
        assert artinian_test(report_of(ideal(1, ((0,),))))

    def test_matches_widthwise_krull(self):
        rng = random.Random(90210)
        cases = [principal_power(a) for a in (1, 2, 3)]
        cases += [ModulePresentation(c, [(0, 0)], []) for c in (1, 2)]
        cases += [random_presentation(rng, max_summands=1, shifts=(0,))
                  for _ in range(15)]
        for p in cases:
            wi = max([g.width for g in p.generators], default=1)
            rep = report_of(p)
            assert artinian_test(rep) == paper_artinian(rep) == (
                widthwise_artinian(p, (wi + 1, wi + 5))), p

    def test_artinian_tail_numerator_nonzero_at_one(self):
        for a in (1, 2, 3):
            p = principal_power(a)
            for n in range(3, 8):
                assert dim_deg_width(p, n, quotient=True) == (0, a ** n)


def widthwise(p, n, quotient=True):
    """(Krull dimension, multiplicity) of M_n, (0, 0) for the zero module."""
    try:
        return dim_deg_width(p, n, quotient)
    except ZeroModule:
        return (0, 0)


class TestDimensionGrowth:
    def test_free_modules(self):
        for c in (1, 2):
            g = asymptotic_dimension(
                report_of(ModulePresentation(c, [(0, 0)], [])))
            assert (g.slope, g.intercept, g.onset) == (c, 0, 0)

    def test_known_quotients(self):
        g = asymptotic_dimension(report_of(principal_power(1)))
        assert (g.slope, g.intercept) == (0, 0)
        g = asymptotic_dimension(report_of(ideal(1, ((1,), (1,)))))
        assert (g.slope, g.intercept) == (0, 1)

    def test_zero_submodule_side(self):
        g = asymptotic_dimension(report_of(
            ModulePresentation(1, [(0, 0)], []), quotient=False))
        assert (g.slope, g.intercept, g.onset) == (0, 0, 0)

    def test_slope_bounded_by_rows(self):
        rng = random.Random(4096)
        for _ in range(15):
            p = random_presentation(rng)
            g = asymptotic_dimension(report_of(p))
            assert 0 <= g.slope <= p.c
            n = g.onset + 3
            assert widthwise(p, n)[0] == g.slope * n + g.intercept


# oracle-analyze corpus documents (perfbench/corpus, seed 2006) with their
# exact growth: (slope, intercept, onset, multiplicity terms)
GROWTH_DOCS = {
    # 1 - s - s*t divides the denominator, yet the multiplicity is 1
    "036": ({"c": 1, "summands": [{"d": 0, "shift": 1}, {"d": 0, "shift": 0}],
             "generators": [
                 {"summand": 1, "width": 2, "exponents": [[1], [0]]},
                 {"summand": 0, "width": 2, "exponents": [[1], [2]]},
                 {"summand": 0, "width": 1, "exponents": [[3]]}]},
            (0, 1, 1, ((1, (1,)),))),
    "082": ({"c": 2, "summands": [{"d": 0, "shift": 1}],
             "generators": [
                 {"width": 2, "exponents": [[0, 0], [0, 2]]},
                 {"width": 3, "exponents": [[0, 2], [0, 1], [0, 0]]}]},
            (1, 1, 2, ((1, (2,)),))),
    "107": ({"c": 1, "summands": [{"d": 0, "shift": 2}, {"d": 0, "shift": 2}],
             "generators": [
                 {"summand": 0, "width": 3, "exponents": [[0], [0], [1]]},
                 {"summand": 1, "width": 1, "exponents": [[2]]}]},
            (0, 2, 2, ((1, (1,)),))),
    # multiplicity 2^n - 1
    "056": ({"c": 1, "summands": [{"d": 0, "shift": 2}, {"d": 0, "shift": 0}],
             "generators": [
                 {"summand": 0, "width": 1, "exponents": [[0]]},
                 {"summand": 1, "width": 2, "exponents": [[2], [1]]}]},
            (0, 1, 1, ((2, (1,)), (1, (-1,))))),
    # multiplicity n - 1 vanishes at width 1, so the onset is 2
    "131": ({"c": 2, "summands": [{"d": 2, "shift": 0}, {"d": 0, "shift": 1}],
             "generators": [
                 {"summand": 0, "width": 3,
                  "exponents": [[0, 0], [1, 0], [0, 1]], "pi": [2, 3]},
                 {"summand": 1, "width": 1, "exponents": [[0, 3]]}]},
            (2, 0, 2, ((1, (-1, 1)),))),
    "135": ({"c": 2, "summands": [{"d": 0, "shift": 1}],
             "generators": [
                 {"width": 3, "exponents": [[0, 0], [2, 0], [1, 0]]}]},
            (1, 2, 2, ((2, (Fraction(1, 2),)), (1, (-1,))))),
}


class TestExactGrowth:
    @pytest.mark.parametrize("name", sorted(GROWTH_DOCS))
    def test_corpus_documents(self, name):
        body, (slope, intercept, onset, terms) = GROWTH_DOCS[name]
        doc = parse_document(dict(body, schema_version=1))
        p = doc.effective_presentation()
        rep = report_of(p)
        dim = asymptotic_dimension(rep)
        mult = asymptotic_multiplicity(rep)
        assert (dim.slope, dim.intercept, dim.onset) == (slope, intercept,
                                                         onset)
        assert (mult.terms, mult.onset) == (terms, onset)
        assert (mult.base, mult.poly_exponent) == (
            terms[0][0], len(terms[0][1]) - 1)
        for n in range(onset, 10):
            assert widthwise(p, n) == (slope * n + intercept,
                                       mult.evaluate(n)), n

    def test_last_zero_is_proven(self):
        one = Fraction(1)
        assert _last_zero(((1, (-6 * one, one)),), 0) == 6
        assert _last_zero(((1, (-6 * one, one)),), 8) == 7  # none from 8
        assert _last_zero(((2, (one,)), (1, (-8 * one,))), 0) == 3
        # a zero well past the point where 2^n first exceeds the rest
        assert _last_zero(((2, (one,)), (1, (-1024 * one,))), 0) == 10
        assert _last_zero(((3, (one,)), (2, (0 * one, -one))), 0) == -1
        assert _last_zero(((2, (one, -one)), (1, (4 * one,))), 0) == 2

    @pytest.mark.parametrize("terms,start,last", [
        # (2 n^2 - 15 n + 18) / 6 = (n - 6)(2 n - 3) / 6
        (((1, (Fraction(3), Fraction(-5, 2), Fraction(1, 3))),), 2, 6),
        (((1, (Fraction(3), Fraction(-5, 2), Fraction(1, 3))),), 7, 6),
        # 2^n / 3 - n / 2 - 55 / 3, zero at n = 6
        (((2, (Fraction(1, 3),)), (1, (Fraction(-55, 3), Fraction(-1, 2)))),
         1, 6),
    ])
    def test_last_zero_with_mixed_denominators(self, terms, start, last):
        # scaling by the common denominator moves no zero: direct
        # evaluation on Fractions, well past the proven bound, agrees
        assert _exp_poly_at(terms, 6) == 0
        direct = max((n for n in range(start, 200)
                      if _exp_poly_at(terms, n) == 0), default=start - 1)
        assert _last_zero(terms, start) == direct == last


class TestMultiplicityGrowth:
    def test_principal_powers(self):
        for a in (1, 2, 3):
            g = asymptotic_multiplicity(report_of(principal_power(a)))
            assert (g.base, g.poly_exponent) == (a, 0)
            assert (g.terms, g.onset) == (((a, (1,)),), 0)

    def test_free_modules(self):
        for c in (1, 2):
            g = asymptotic_multiplicity(
                report_of(ModulePresentation(c, [(0, 0)], [])))
            assert (g.base, g.poly_exponent, g.terms) == (1, 0, ((1, (1,)),))

    def test_max_exponent_wins(self):
        g = asymptotic_multiplicity(report_of(ideal(1, ((2,), (3,)))))
        assert g.base == 3

    def test_polynomial_correction(self):
        g = asymptotic_multiplicity(report_of(ideal(1, ((1,), (1,)))))
        assert (g.base, g.poly_exponent) == (1, 1)
        assert g.terms == ((1, (0, 1)),)  # multiplicity n

    def test_eventually_zero(self):
        g = asymptotic_multiplicity(report_of(ideal(1, ((0,), (0,)))))
        assert (g.base, g.terms, g.onset) == (1, (), 2)


def check_fit(res, fit, n_max=10):
    """The fit equals the window from its onset on, and not one below."""
    win = res.window(n_max, fit.degree_j)
    for n in range(fit.onset, n_max + 1):
        assert fit.evaluate(n) == win[n][fit.degree_j], n
    if fit.onset:
        assert fit.evaluate(fit.onset - 1) != win[fit.onset - 1][fit.degree_j]


class TestFixedDegree:
    def test_free_single_row(self):
        res = module_series(ModulePresentation(1, [(0, 0)], []))
        fit = fixed_degree_polynomial(res, 1)
        assert fit.coefficients == (Fraction(0), Fraction(1))
        fit = fixed_degree_polynomial(res, 2)
        assert fit.coefficients == (
            Fraction(0), Fraction(1, 2), Fraction(1, 2))
        check_fit(res, fit)

    def test_principal_quotient(self):
        res = module_series(principal_power(1), quotient=True)
        assert fixed_degree_polynomial(res, 0).coefficients == (Fraction(1),)
        assert fixed_degree_polynomial(res, 1).coefficients == (Fraction(0),)

    def test_late_onset(self):
        # a unit generator at width w zeroes the tail from there on
        for w, j, onset in [(4, 1, 4), (10, 0, 10)]:
            gens = [Monomial(1, w, ((0,),) * w)]
            res = module_series(
                ModulePresentation(1, [(0, 0)], gens), quotient=True)
            fit = fixed_degree_polynomial(res, j)
            assert (fit.onset, fit.coefficients) == (onset, (Fraction(0),))
            check_fit(res, fit, 12)

    def test_reproduces_window_tail(self):
        rng = random.Random(777)
        for _ in range(10):
            p = random_presentation(rng)
            res = module_series(p, quotient=True)
            for j in range(4):
                check_fit(res, fixed_degree_polynomial(res, j))

    def test_power_coefficients_eventually_polynomial(self):
        # coefficient of t^j in f(t)^n, for f with constant term 1
        for f in (UniPoly((1, 1)), UniPoly((1, 1, 1))):
            for j in range(5):
                vals = []
                for n in range(15):
                    fn = f ** n
                    vals.append(fn.coeffs[j] if j <= fn.degree else 0)
                row = vals[j:]  # below onset j the binomials still grow
                depth = 0
                while row and any(v != 0 for v in row):
                    row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
                    depth += 1
                assert row and len(row) >= 2, (f.coeffs, j)
                assert depth <= j + 1


def _outcome(fn, *args):
    """repr of fn(*args), or the NotConformant it raises."""
    try:
        return repr(fn(*args))
    except NotConformant as err:
        return f"NotConformant: {err}"


def _readout_documents():
    """(presentation, quotient) of every oracle-analyze corpus document,
    each shipped input and 100 seeded random presentations."""
    corpus = json.loads((ROOT / "perfbench" / "corpus" /
                         "oracle-analyze.json").read_text())
    docs = [parse_document(e["doc"]) for e in corpus["docs"]]
    docs += [load_document(str(path))
             for path in sorted((ROOT / "inputs").glob("*.json"))]
    out = [(d.effective_presentation(), d.quotient) for d in docs]
    rng = random.Random(3030)
    return out + [(random_presentation(rng), True) for _ in range(100)]


class TestReadoutReference:
    def test_growth_matches_reference(self):
        # the integer-list kernels against the UniPoly readout of
        # oracles.growth_reference, on the reduced shape reports; repr
        # also pins the Fraction coefficients of the terms.  The shape
        # of each unreduced series of the letter automaton, taken as it
        # stands, reaches "series is not reduced" too
        docs = _readout_documents()
        assert len(docs) == 480 + 7 + 100
        raised = 0
        for n, (p, quotient) in enumerate(docs):
            res = module_series(p, quotient=quotient, reduce=True)
            raw = letter_series(p, quotient=quotient)._replace(reduced=True)
            for rep in (validate_shape(res, p.c), validate_shape(raw, p.c)):
                got = _outcome(_growth, rep)
                assert got == _outcome(growth_reference, rep), n
                raised += got == "NotConformant: series is not reduced"
            if n < 100:  # the first 100 corpus documents
                for j in range(5):
                    got = _outcome(lambda: tuple(
                        fixed_degree_polynomial(res, j))[1:])
                    assert got == _outcome(
                        fixed_degree_reference, res, j), (n, j)
        assert raised > 100


_FREE = free_series(1, 0)
_EMPTY = ModulePresentation(1, [(0, 0)], [])
_RECORDS = [
    (DimensionGrowth(2, -1, 3),
     "DimensionGrowth(slope=2, intercept=-1, onset=3)"),
    (MultiplicityGrowth(3, 0, ((3, (1,)),), 0),
     "MultiplicityGrowth(base=3, poly_exponent=0, terms=((3, (1,)),), "
     "onset=0)"),
    (DegreeFit(1, 2, (0, 1)),
     "DegreeFit(degree_j=1, onset=2, coefficients=(0, 1))"),
    (ShapeReport(True, 1, ((1, (1,)),), None, BiPoly.one()),
     "ShapeReport(conformant=True, one_minus_t_power=1, "
     "factors=((1, (1,)),), leftover=None, "
     "numerator=BiPoly('1'))"),
    (SeriesResult(_FREE, 0, "quotient"),
     "SeriesResult(rational=FactoredRational('(1 - t)/(1 - t - s)'), "
     "t_prefactor=0, mode='quotient', column_states=(), "
     "reduced=False)"),
    (InputDocument(_EMPTY, True, ()),
     "InputDocument(presentation=ModulePresentation(c=1, "
     "summands=((0, 0),), 0 generators, OI), quotient=True, "
     "groebner_leads=())"),
    (Decomposition((1,), None, _EMPTY),
     "Decomposition(e=(1,), marked=None, "
     "unmarked=ModulePresentation(c=1, summands=((0, 0),), "
     "0 generators, OI))"),
]


class TestRecords:
    # the result records are immutable, hashable values (analyze's
    # _growth cache keys on ShapeReport) with a keyword repr
    @pytest.mark.parametrize("record,text", _RECORDS,
                             ids=[type(r).__name__ for r, _ in _RECORDS])
    def test_value_semantics(self, record, text):
        assert repr(record) == text
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert type(record)(*record[:-1], "other") != record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_series_result_defaults(self):
        res = SeriesResult(_FREE, 2, "submodule")
        assert (res.column_states, res.reduced) == ((), False)
        assert res == SeriesResult(_FREE, 2, "submodule", (), False)
        assert res != SeriesResult(_FREE, 2, "submodule", (1,), False)
