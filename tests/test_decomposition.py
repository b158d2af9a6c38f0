import random
from itertools import product
from pathlib import Path

import pytest

from oihilbert import decomposition, oicore
from oihilbert.columns import tail
from oihilbert.decomposition import compute_decomposition
from oihilbert.errors import WidthMismatch
from oihilbert.oicore import Monomial, ModulePresentation
from oihilbert.schema import load_document

from corpus import decompose_cases, random_single_summand
from oracles import (
    division_exponent_bound,
    minimalize_reference,
    repeated_division_sides,
    size_invariants,
    sliced_quotient_dims,
    verify_decomposition,
)


def ideal(c, gens_cols, d=0, pis=None):
    gens = []
    for k, cols in enumerate(gens_cols):
        pi = pis[k] if pis else ()
        gens.append(Monomial(c, len(cols), cols, pi))
    return ModulePresentation(c, [(d, 0)], gens)


INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def shipped_cases():
    """The shipped inputs that `decompose` accepts: one unshifted summand."""
    cases = [load_document(path).effective_presentation()
             for path in sorted(INPUTS.glob("*.json"))]
    return [p for p in cases if p.summands[0][1] == 0 and len(p.summands) == 1]


class TestRes:
    def test_unmarked(self):
        m = Monomial(1, 2, ((0,), (3,)), (2,))
        out = tail(m)
        assert (out.width, out.cols, out.pi) == (1, ((3,),), (1,))

    def test_marked_column_drops_rank(self):
        m = Monomial(1, 2, ((0,), (1,)), (1, 2))
        out = tail(m)
        assert (out.width, out.cols, out.pi) == (1, ((1,),), (1,))

    def test_occupied_column_dropped(self):
        # the tail of a generator whose first column fits under e: its
        # first-column variables are divided out with the column
        out = tail(Monomial(1, 2, ((2,), (1,))))
        assert (out.width, out.cols, out.pi) == (1, ((1,),), ())
        assert tail(Monomial(1, 1, ((1,),))) == Monomial(1, 0, ())
        with pytest.raises(WidthMismatch):
            tail(Monomial(1, 0, (), ()))


class TestComputeDecomposition:
    def test_principal_variable_worked_example(self):
        p = ideal(1, [((1,),)])
        dec = compute_decomposition(p, (0,))
        assert dec.marked is None
        assert [g.cols for g in dec.unmarked.generators] == [((1,),)]
        # x[1,1] fits under e = 1: its tail is the width-0 unit
        dec = compute_decomposition(p, (1,))
        assert [(g.width, g.degree) for g in dec.unmarked.generators] == [(0, 0)]

    def test_rank_one_marked_part(self):
        p = ModulePresentation(1, [(1, 0)], [Monomial(1, 1, ((1,),), (1,))])
        dec = compute_decomposition(p, (0,))
        assert dec.marked is not None
        assert dec.marked.summands == ((0, 0),)
        assert dec.marked.generators == ()
        assert [g.pi for g in dec.unmarked.generators] == [(1,)]

    def test_reads_no_widthwise_series(self, monkeypatch):
        # the parts come from the minimal generators alone
        def refuse(*args, **kwargs):
            raise AssertionError("width-wise routine called")

        # patch both the oicore names and any copy bound into decomposition
        for module in (oicore, decomposition):
            for name in ("hilbert_width", "hilbert_widths", "expand_to_width"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        # x[1,1] divides the width-2 generator, so only its tail is read
        p = ideal(1, [((1,),), ((2,), (1,))])
        dec = compute_decomposition(p, (1,))
        assert dec.unmarked.generators == (Monomial(1, 0, ()),)
        assert compute_decomposition(ideal(1, []), (0,)).unmarked.generators == ()
        free = ModulePresentation(1, [(2, 0)], [])
        dec = compute_decomposition(free, (0,))
        assert (dec.marked.summands, dec.marked.generators) == (((1, 0),), ())
        assert (dec.unmarked.summands, dec.unmarked.generators) == (((2, 0),), ())

    def test_width_zero_generator_stays(self):
        # the unit has no first column: it never fits and is its own
        # unmarked part; the marked part is the zero ideal
        unit = Monomial(1, 0, ())
        dec = compute_decomposition(ideal(1, [()]), (3,))
        assert (dec.marked, dec.unmarked.generators) == (None, (unit,))

    def test_generators_come_out_minimal_and_sorted(self):
        # both generator lists are their own minimal set, element for
        # element, by the column-tuple reference
        cases = shipped_cases()
        assert cases
        rng = random.Random(7)
        cases += [random_single_summand(rng) for _ in range(60)]
        for p in cases:
            for e in product(range(3), repeat=p.c):
                dec = compute_decomposition(p, e)
                for part in (dec.marked, dec.unmarked):
                    if part is not None:
                        gens = list(part.generators)
                        assert minimalize_reference(gens) == gens, (p, e)

    def test_validation(self):
        p = ModulePresentation(1, [(0, 0), (0, 0)], [])
        with pytest.raises(WidthMismatch):
            compute_decomposition(p, (0,))
        q = ideal(2, [((1, 1),)])
        with pytest.raises(WidthMismatch):
            compute_decomposition(q, (1,))


class TestVerify:
    def test_worked_identity(self):
        p = ModulePresentation(1, [(1, 0)], [Monomial(1, 1, ((1,),), (1,))])
        ok, lhs, rhs = verify_decomposition(p, (0,), 2, 4)
        assert ok and lhs == [2, 1, 1, 1, 1]

    def test_batch(self):
        cases = [
            (ideal(1, [((2,),)]), (0,)),
            (ideal(1, [((2,),)]), (1,)),
            (ideal(1, [((2,),)]), (5,)),
            (ideal(1, [((1,), (1,))]), (1,)),
            (ideal(2, [((1, 1),)]), (1, 0)),
            (ideal(2, [((2, 0), (0, 1))]), (1, 2)),
            (ModulePresentation(1, [(1, 0)],
                                [Monomial(1, 2, ((1,), (0,)), (2,))]), (1,)),
            (ModulePresentation(2, [(1, 0)],
                                [Monomial(2, 1, ((1, 0),), (1,)),
                                 Monomial(2, 2, ((0, 1), (0, 0)), (2,))]),
             (0, 1)),
            (ModulePresentation(1, [(2, 0)],
                                [Monomial(1, 2, ((1,), (1,)), (1, 2))]), (2,)),
        ]
        for p, e in cases:
            for n in range(1, 6):
                ok, lhs, rhs = verify_decomposition(p, e, n, 5)
                assert ok, (p, e, n, lhs, rhs)

    def test_identity_below_generator_width(self):
        # widths 1 and 2, at or below the generator's width 2
        p = ideal(1, [((1,), (1,))])
        for n in (1, 2):
            ok, lhs, rhs = verify_decomposition(p, (0,), n, 3)
            assert ok, (n, lhs, rhs)

    def test_every_width_on_pinned_and_shipped_documents(self):
        # the 90 (document, e) pairs that test_golden.py pins for
        # decompose, and the shipped inputs decompose accepts at every e
        # in {0,1,2}^c, at widths 1..5 in degrees <= 5
        cases = [(p, e) for p, es in decompose_cases(random.Random(20261020))
                 for e in es]
        assert len(cases) == 90
        cases += [(p, e) for p in shipped_cases()
                  for e in product(range(3), repeat=p.c)]
        for p, e in cases:
            for n in range(1, 6):
                ok, lhs, rhs = verify_decomposition(p, e, n, 5)
                assert ok, (p, e, n, lhs, rhs)

    def test_unit_tail_regression(self):
        # x[1,1]^2 at e = 2: the derived ideal is the width-0 unit, so
        # every slice is zero; a width-1 unit would leave the width-0
        # quotient 1, yet no width-1 standard monomial has first column x^2
        p = ideal(1, [((2,),)])
        dec = compute_decomposition(p, (2,))
        assert dec.unmarked.generators == (Monomial(1, 0, ()),)
        for n in range(1, 5):
            ok, lhs, rhs = verify_decomposition(p, (2,), n, 4)
            assert ok and lhs == [0] * 5, (n, lhs, rhs)

    def test_size_monotone_in_exponent(self):
        p = ideal(1, [((2,), (1,))])
        si = size_invariants(p).si
        prev = None
        for e in [(0,), (1,), (2,), (3,)]:
            dec = compute_decomposition(p, e)
            s = size_invariants(dec.unmarked).si
            assert si >= s
            if prev is not None:
                assert prev >= s
            prev = s


class TestRepeatedDivision:
    def test_exponent_bound(self):
        assert division_exponent_bound(ideal(1, [((2,),)])) == 3
        assert division_exponent_bound(ideal(2, [((1, 3),)])) == 4
        # only column 1 matters
        p = ModulePresentation(1, [(0, 0)],
                               [Monomial(1, 2, ((1,), (4,)))])
        assert division_exponent_bound(p) == 2

    def test_identity_small_widths(self):
        cases = [
            ideal(1, [((2,),)]),
            ideal(1, [((1,), (1,))]),
            ideal(2, [((1, 1),)]),
            ModulePresentation(1, [(1, 0)], [Monomial(1, 1, ((2,),), (1,))]),
            ModulePresentation(1, [(1, 0)],
                               [Monomial(1, 2, ((1,), (1,)), (2,))]),
        ]
        for p in cases:
            for n in range(1, 5):
                lhs, rhs = repeated_division_sides(p, n)
                assert (lhs - rhs).is_zero(), (p, n)

    def test_sliced_dims_sane(self):
        free = ModulePresentation(1, [(0, 0)], [])
        # adjoining column 1 to the zero module leaves a width n-1 ring
        assert sliced_quotient_dims(free, (1,), 3, 3) == [1, 2, 3, 4]
        # once the colon hits the unit the slice collapses
        p = ideal(1, [((1,),)])
        assert sliced_quotient_dims(p, (1,), 3, 3) == [0, 0, 0, 0]
