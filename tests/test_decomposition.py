import random
from itertools import product
from pathlib import Path

import pytest

from oihilbert import oicore
from oihilbert.decomposition import compute_decomposition, res_monomial
from oihilbert.errors import Column1NotEmpty, WidthMismatch
from oihilbert.oicore import Monomial, ModulePresentation
from oihilbert.schema import load_document

from corpus import random_single_summand
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


class TestRes:
    def test_unmarked(self):
        m = Monomial(1, 2, ((0,), (3,)), (2,))
        out = res_monomial(m)
        assert (out.width, out.cols, out.pi) == (1, ((3,),), (1,))

    def test_marked_column_drops_rank(self):
        m = Monomial(1, 2, ((0,), (1,)), (1, 2))
        out = res_monomial(m)
        assert (out.width, out.cols, out.pi) == (1, ((1,),), (1,))

    def test_occupied_column_rejected(self):
        with pytest.raises(Column1NotEmpty):
            res_monomial(Monomial(1, 1, ((1,),)))
        with pytest.raises(WidthMismatch):
            res_monomial(Monomial(1, 0, (), ()))


class TestComputeDecomposition:
    def test_principal_variable_worked_example(self):
        p = ideal(1, [((1,),)])
        dec = compute_decomposition(p, (0,))
        assert dec.m == 1 and dec.marked is None
        assert [g.cols for g in dec.unmarked.generators] == [((1,),)]
        dec = compute_decomposition(p, (1,))
        assert [(g.width, g.degree) for g in dec.unmarked.generators] == [(1, 0)]

    def test_rank_one_marked_part(self):
        p = ModulePresentation(1, [(1, 0)], [Monomial(1, 1, ((1,),), (1,))])
        dec = compute_decomposition(p, (0,))
        assert dec.marked is not None
        assert dec.marked.summands == ((0, 0),)
        assert dec.marked.generators == ()
        assert [g.pi for g in dec.unmarked.generators] == [(1,)]

    def test_reads_no_widthwise_series(self, monkeypatch):
        # m is the largest width among the minimal generators, or d (at
        # least 1) without any; no series is needed
        def refuse(*args, **kwargs):
            raise AssertionError("hilbert_width called")

        monkeypatch.setattr(oicore, "hilbert_width", refuse)
        monkeypatch.setattr(oicore, "hilbert_widths", refuse)
        # x[1,1] divides the width-2 generator, which leaves no mark on m
        p = ideal(1, [((1,),), ((2,), (1,))])
        assert compute_decomposition(p, (1,)).m == 1
        assert compute_decomposition(ideal(1, []), (0,)).m == 1
        free = ModulePresentation(1, [(2, 0)], [])
        assert compute_decomposition(free, (0,)).m == 2

    def test_generators_come_out_minimal_and_sorted(self):
        # both generator lists are their own minimal set, element for
        # element, by the column-tuple reference: colon_width's set at one width stays minimal and sorted
        # through the filter and res_monomial
        inputs = Path(__file__).resolve().parent.parent / "inputs"
        cases = [load_document(path).effective_presentation()
                 for path in sorted(inputs.glob("*.json"))]
        cases = [p for p in cases if p.summands[0][1] == 0
                 and len(p.summands) == 1]
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
            m = compute_decomposition(p, e).m
            for n in range(m + 1, m + 4):
                ok, lhs, rhs = verify_decomposition(p, e, n, 5)
                assert ok, (p, e, n, lhs, rhs)

    def test_too_small_width_rejected(self):
        p = ideal(1, [((1,), (1,))])
        with pytest.raises(WidthMismatch):
            verify_decomposition(p, (0,), 1, 3)

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
