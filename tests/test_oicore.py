import itertools
import json
import random
import time
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oihilbert import oicore
from oihilbert.errors import WidthMismatch, NotAnIdeal
from oihilbert.oicore import (
    MaskLayout,
    Monomial,
    ModulePresentation,
    WidthSeries,
    expand_to_width,
    hilbert_width,
    hilbert_widths,
    kpoly,
    minimalize,
    order_key,
    symmetrize_fi_ideal,
)
from oihilbert.schema import parse_document
from oihilbert.series import module_series

from corpus import random_monomial
from enumerate_small import OIMorphism, all_monomials, apply_morphism, brute_divides
from oracles import (
    UniPoly,
    ZeroModule,
    colon_reference,
    dim_deg_width,
    find_embedding,
    hilbert_width_reference,
    kpoly_reference,
    minimalize_reference,
    oi_divides,
    size_invariants,
)

ROOT = Path(__file__).resolve().parent.parent


def ideal(c, gens, shift=0):
    """Rank-zero presentation from (width, cols) generator data."""
    ms = [Monomial(c, w, cols, ()) for w, cols in gens]
    return ModulePresentation(c, [(0, shift)], ms)


def principal(c, width, cols, d=0, pi=(), shift=0):
    return ModulePresentation(c, [(d, shift)], [Monomial(c, width, cols, pi)])


def mask_divides(g, m):
    """The package's divisibility test on one pair: both monomials'
    columns read as masks of one layout, as `minimalize` reads them."""
    if g.summand != m.summand or len(g.pi) != len(m.pi):
        return False
    layout = oicore._layout(g.c, [g, m], 0)
    return oicore._embeds([layout.column(col) for col in g.cols], g.pi,
                          [~layout.column(col) for col in m.cols], m.pi)


def degree_j_count(p, n, j, quotient=True):
    """Direct count of degree-j monomials at width n, each tested against
    every generator by brute-force OI-divisibility."""
    total = 0
    for k, (d, shift) in enumerate(p.summands):
        if j < shift:
            continue
        for m in all_monomials(p.c, d, n, j - shift, summand=k):
            if m.degree != j - shift:
                continue
            inside = any(brute_divides(g, m) for g in p.generators)
            if inside == (not quotient):
                total += 1
    return total


def outside_count(gens, nvars, j):
    """Degree-j monomials in nvars variables that no tuple in gens divides."""
    count = 0
    for vs in itertools.combinations_with_replacement(range(nvars), j):
        flat = [0] * nvars
        for v in vs:
            flat[v] += 1
        if not any(all(a <= b for a, b in zip(g, flat)) for g in gens):
            count += 1
    return count


def random_ideal(rng, nvars, case):
    """0-6 exponent tuples; by case, with disjoint supports, a duplicate,
    a unit tuple or the zero tuple mixed in."""
    gens = []
    for _ in range(rng.randint(0, 6)):
        if case % 5 == 1:  # disjoint supports: one block of variables each
            lo = rng.randrange(nvars)
            hi = rng.randint(lo + 1, nvars)
            g = [rng.randint(1, 3) if lo <= i < hi else 0 for i in range(nvars)]
        else:
            g = [rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)]
        gens.append(tuple(g))
    if case % 5 == 2 and gens:
        gens.append(rng.choice(gens))
    if case % 5 == 3:
        v = rng.randrange(nvars)
        gens.append(tuple(int(i == v) for i in range(nvars)))
    if case % 5 == 4:
        gens.append((0,) * nvars)
    rng.shuffle(gens)
    return gens


def tuple_masks(gens, ncols=1):
    """The minimal mask set and the `MaskLayout` of the ideal that the
    exponent tuples generate, each tuple read column by column as ncols
    columns of equal height, the fields sized to the tuples."""
    gens = list(gens)
    c = len(gens[0]) // ncols if gens else 0
    layout = MaskLayout(
        [max((g[j * c + i] for g in gens for j in range(ncols)), default=0)
         for i in range(c)], ncols)
    masks = {sum(layout.column(g[j * c:(j + 1) * c]) << j * layout.stride
                 for j in range(ncols)) for g in gens}
    minimal = [m for m in masks
               if not any(h != m and not h & ~m for h in masks)]
    return minimal, layout


def kpoly_of(gens, memo=None, ncols=1):
    """`kpoly` of the ideal the exponent tuples generate."""
    return kpoly(*tuple_masks(gens, ncols), memo)


def assert_keys_minimal(memo):
    # no key holds a mask that divides another of its masks
    for key in memo:
        for a, b in itertools.permutations(key, 2):
            assert a & ~b, key


class TestMorphisms:
    def test_validation(self):
        OIMorphism(2, 4, (2, 4))
        with pytest.raises(WidthMismatch):
            OIMorphism(2, 4, (4, 2))
        with pytest.raises(WidthMismatch):
            OIMorphism(2, 4, (0, 1))
        with pytest.raises(WidthMismatch):
            OIMorphism(2, 4, (1, 2, 3))

    def test_compose(self):
        f = OIMorphism(2, 3, (1, 3))
        g = OIMorphism(3, 5, (2, 3, 5))
        assert g.compose(f).values == (2, 5)

    def test_apply(self):
        m = Monomial(2, 2, ((1, 0), (0, 2)), (2,))
        eps = OIMorphism(2, 4, (2, 3))
        out = apply_morphism(eps, m)
        assert out.width == 4
        assert out.pi == (3,)
        assert out.cols == ((0, 0), (1, 0), (0, 2), (0, 0))
        with pytest.raises(WidthMismatch):
            apply_morphism(OIMorphism(1, 4, (1,)), m)


class TestDivisibility:
    def test_basic(self):
        g = Monomial(1, 1, ((1,),))
        m = Monomial(1, 3, ((0,), (2,), (0,)))
        assert oi_divides(g, m)
        assert not oi_divides(m, g)

    def test_pi_constrains_embedding(self):
        g = Monomial(1, 1, ((1,),), (1,))
        same_col = Monomial(1, 2, ((2,), (0,)), (1,))
        other_col = Monomial(1, 2, ((2,), (0,)), (2,))
        assert oi_divides(g, same_col)
        assert not oi_divides(g, other_col)

    def test_summand_mismatch_raises(self):
        a = Monomial(1, 1, ((1,),), (), summand=0)
        b = Monomial(1, 1, ((1,),), (), summand=1)
        with pytest.raises(ValueError):
            oi_divides(a, b)
        assert not mask_divides(a, b)

    def test_exhaustive_against_brute_force(self):
        for c, d in [(1, 0), (1, 1), (2, 0)]:
            small = all_monomials(c, d, d if d else 1, 2) + all_monomials(c, d, d + 1, 2)
            big = all_monomials(c, d, d + 2, 2)
            for g in small:
                for m in big:
                    want = brute_divides(g, m)
                    assert oi_divides(g, m) == want, (g, m)
                    assert mask_divides(g, m) == want, (g, m)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_against_brute_force(self, data):
        c = data.draw(st.integers(1, 2))
        d = data.draw(st.integers(0, 2))
        wg = data.draw(st.integers(d, 3))
        wm = data.draw(st.integers(d, 4))

        def mk(width):
            pi = tuple(sorted(data.draw(
                st.sets(st.integers(1, width), min_size=d, max_size=d)))) if width else ()
            cols = tuple(tuple(data.draw(st.integers(0, 2)) for _ in range(c))
                         for _ in range(width))
            return Monomial(c, width, cols, pi)

        g, m = mk(wg), mk(wm)
        emb = find_embedding(g, m)
        assert (emb is not None) == brute_divides(g, m) == mask_divides(g, m)
        if emb is not None:
            assert apply_morphism(OIMorphism(g.width, m.width, emb),
                                  g).pi == m.pi


class TestMaskDivisibility:
    """`minimalize`'s leftmost-embedding test on column masks, against the
    column-tuple reference and the brute force over every embedding."""

    @staticmethod
    def _pair(rng):
        c = rng.randint(1, 2)
        d = rng.randint(0, 2)

        def mk(width, summand):
            pi = tuple(sorted(rng.sample(range(1, width + 1), d)))
            cols = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(c))
                    for _ in range(width)]
            return Monomial(c, width, cols, pi, summand)

        g = mk(rng.randint(d, 4), 0)
        return g, mk(rng.randint(max(d, g.width - 1), 6), rng.choice((0, 0, 0, 1)))

    def test_seeded_against_references(self):
        rng = random.Random(33)
        hits = 0
        for _ in range(3000):
            g, m = self._pair(rng)
            want = brute_divides(g, m)
            got = mask_divides(g, m)
            if g.summand == m.summand:
                assert oi_divides(g, m) == want, (g, m)
            assert got == want, (g, m)
            hits += want
        assert hits > 300

    def test_minimalize_matches_reference(self):
        # mixed widths and summands, images of the generators among them
        rng = random.Random(34)
        dropped = 0
        for _ in range(300):
            c = rng.randint(1, 2)
            summands = [(rng.randint(0, 2), 0) for _ in range(rng.randint(1, 2))]
            mons = []
            for _ in range(rng.randint(1, 6)):
                k = rng.randrange(len(summands))
                d = summands[k][0]
                mons.append(random_monomial(rng, c, rng.randint(max(d, 1), 4),
                                            d, k))
            p = ModulePresentation(c, summands, mons)
            images = expand_to_width(p, 5)
            mons += rng.sample(images, min(4, len(images)))
            got = minimalize(mons)
            assert got == minimalize_reference(mons), mons
            dropped += len(set(mons)) > len(got)
        assert dropped > 150

    def test_width_zero_generator(self):
        unit = Monomial(2, 0, ())
        assert mask_divides(unit, unit)
        assert mask_divides(unit, Monomial(2, 3, ((0, 0), (1, 0), (0, 0))))
        assert not mask_divides(unit, Monomial(2, 1, ((0, 0),), (), 1))
        assert minimalize([Monomial(2, 2, ((1, 0), (0, 0))), unit]) == [unit]

    def test_free_columns_between_fixed_targets(self):
        # the middle column is free; it must land strictly between the
        # images of columns 1 and 3, which are fixed by the basis tuples
        g = Monomial(1, 3, ((0,), (1,), (0,)), (1, 3))
        inside = Monomial(1, 5, ((0,), (0,), (0,), (1,), (0,)), (1, 5))
        past = Monomial(1, 5, ((0,), (0,), (0,), (1,), (0,)), (1, 3))
        before = Monomial(1, 5, ((1,), (0,), (0,), (0,), (0,)), (2, 5))
        for m, want in ((inside, True), (past, False), (before, False)):
            assert mask_divides(g, m) == want == brute_divides(g, m), m

    def test_trailing_zero_columns(self):
        # the zero columns still need columns of their own past the image
        g = Monomial(1, 3, ((1,), (0,), (0,)))
        assert not mask_divides(g, Monomial(1, 3, ((0,), (1,), (0,))))
        assert mask_divides(g, Monomial(1, 4, ((0,), (1,), (0,), (0,))))

    def test_equal_exponents_in_different_summands(self):
        a = Monomial(2, 2, ((1, 0), (0, 1)), (), 0)
        b = Monomial(2, 2, ((1, 0), (0, 1)), (), 1)
        assert not mask_divides(a, b) and not mask_divides(b, a)
        assert minimalize([b, a]) == [a, b]

    def test_only_a_non_identity_embedding(self):
        # x[1,1] x[2,2] divides x[1,1] x[2,3] only through 1 -> 1, 2 -> 3,
        # and the greedy pass must skip column 2 for it
        g = Monomial(2, 2, ((1, 0), (0, 1)))
        m = Monomial(2, 3, ((1, 1), (1, 0), (0, 1)))
        assert find_embedding(g, m) == (1, 3)
        assert mask_divides(g, m)
        assert minimalize([m, g]) == [g]


class TestExpansion:
    def test_principal_expansion(self):
        p = principal(1, 1, ((1,),))
        got = expand_to_width(p, 3)
        assert sorted(m.cols for m in got) == [
            ((0,), (0,), (1,)),
            ((0,), (1,), (0,)),
            ((1,), (0,), (0,)),
        ]

    def test_non_minimal_images_kept(self):
        # x[1,1] (given twice) and x[1,1]^2: every distinct image at width 2
        p = ideal(1, [(1, ((1,),)), (1, ((1,),)), (1, ((2,),))])
        got = expand_to_width(p, 2)
        assert sorted(m.cols for m in got) == [
            ((0,), (1,)), ((0,), (2,)), ((1,), (0,)), ((2,), (0,))]
        assert sorted(m.cols for m in minimalize(got)) == [
            ((0,), (1,)), ((1,), (0,))]

    def test_matches_morphism_images(self):
        # every image apply_morphism gives, deduplicated in generator order
        p = ModulePresentation(2, [(0, 1), (1, 0), (2, 0)], [
            Monomial(2, 1, ((1, 0),), (), 0),
            Monomial(2, 2, ((0, 1), (2, 0)), (2,), 1),
            Monomial(2, 1, ((1, 1),), (1,), 1),
            Monomial(2, 2, ((0, 0), (1, 0)), (1, 2), 2),
            Monomial(2, 1, ((1, 0),), (), 0),
        ])
        for n in range(5):
            want = []
            for g in p.generators:
                for values in itertools.combinations(range(1, n + 1), g.width):
                    m = apply_morphism(OIMorphism(g.width, n, values), g)
                    if m not in want:
                        want.append(m)
            assert expand_to_width(p, n) == want

    def test_minimalize_drops_images(self):
        g = Monomial(1, 1, ((1,),))
        image = Monomial(1, 2, ((0,), (1,)))
        extra = Monomial(1, 2, ((0,), (3,)))
        assert minimalize([g, image, extra, g]) == [g]

    def test_minimalize_keeps_summands_apart(self):
        a = Monomial(1, 1, ((1,),), (), summand=0)
        b = Monomial(1, 2, ((0,), (1,)), (), summand=1)
        p = ModulePresentation(1, [(0, 0), (0, 0)], [a, b])
        assert set(minimalize(p.generators)) == {a, b}


class TestKpoly:
    def test_base_cases(self):
        assert kpoly_of([]) == (1,)
        assert kpoly_of([(0, 0)]) == ()
        assert kpoly_of([(2, 0)]) == (1, 0, -1)

    def test_coprime_product(self):
        # x^2, y^3 disjoint: (1 - t^2)(1 - t^3)
        got = kpoly_of([(2, 0), (0, 3)])
        assert got == (1, 0, -1, -1, 0, 1)

    def test_overlapping(self):
        # <x^2, xy>: numerator 1 - t^2 - t^2 + t^3
        got = kpoly_of([(2, 0), (1, 1)])
        assert got == (1, 0, -2, 1)

    def test_dims_against_enumeration(self):
        ideals = [
            [(2, 0, 0), (1, 1, 0), (0, 0, 3)],
            [(1, 2, 0), (0, 1, 1)],
            [(3, 0, 0)],
        ]
        for gens in ideals:
            dims = WidthSeries(kpoly_of(gens), 3).dims(6)
            assert dims == [outside_count(gens, 3, j) for j in range(7)]

    def test_random_ideals_against_enumeration(self):
        rng = random.Random(2024)
        shared = {}
        for case in range(250):
            nvars = rng.randint(2, 5)
            gens = random_ideal(rng, nvars, case)
            want = [outside_count(gens, nvars, j) for j in range(7)]
            assert WidthSeries(kpoly_of(gens), nvars).dims(6) == want, gens
            # a memo shared across ideals gives the same numerators
            assert WidthSeries(kpoly_of(gens, shared),
                               nvars).dims(6) == want, gens
        # every ideal the recursion visits is held minimal
        assert_keys_minimal(shared)

    def test_padded_and_permuted_ideals(self):
        # an unused variable or a permutation of the variables leaves the
        # numerator unchanged, with or without a shared memo
        rng = random.Random(1212)
        shared = {}
        for case in range(200):
            nvars = rng.randint(1, 4)
            gens = random_ideal(rng, nvars, case)
            total = nvars + rng.randint(1, 2)
            where = rng.sample(range(total), nvars)
            padded = [tuple(g[where.index(i)] if i in where else 0
                            for i in range(total)) for g in gens]
            perm = rng.sample(range(nvars), nvars)
            permuted = [tuple(g[i] for i in perm) for g in gens]
            want = kpoly_of(gens)
            for ideal_, size in ((gens, nvars), (padded, total),
                                 (permuted, nvars)):
                assert kpoly_of(ideal_) == want, (gens, ideal_)
                assert kpoly_of(ideal_, shared) == want, (gens, ideal_)
                assert WidthSeries(want, size).dims(5) == [
                    outside_count(ideal_, size, j) for j in range(6)], ideal_

    def test_masks_against_reference_kernel(self):
        # 1-6 variables, exponents 0-6, read as one or several columns, so
        # the memo is shared across layouts and column translations
        rng = random.Random(4711)
        shared = {}
        for _ in range(150):
            nvars = rng.randint(1, 6)
            ncols = rng.choice([k for k in range(1, nvars + 1)
                                if nvars % k == 0])
            gens = [tuple(rng.choice((0, 0, 1, 2, 3, 4, 5, 6))
                          for _ in range(nvars))
                    for _ in range(rng.randint(0, 6))]
            want = kpoly_reference(gens)
            assert kpoly_of(gens, ncols=ncols) == want, (gens, ncols)
            assert kpoly_of(gens, shared, ncols) == want, (gens, ncols)
            j_max = 7 if nvars <= 4 else 5
            assert WidthSeries(want, nvars).dims(j_max) == [
                outside_count(gens, nvars, j)
                for j in range(j_max + 1)], gens
        assert_keys_minimal(shared)

    def test_exponent_800_within_recursion_limit(self):
        # <x^800 y, x y^800>: the recursion nests once per variable, not
        # once per unit of an exponent
        e = 800
        gens = [(e, 1), (1, e)]
        # 1 - 2 t^(e+1) + t^(2e), the lcm having degree 2e
        want = (1,) + (0,) * e + (-2,) + (0,) * (e - 2) + (1,)
        assert kpoly_reference(gens) == want
        for ncols in (1, 2):
            assert kpoly_of(gens, ncols=ncols) == want

    def test_translated_pattern_shares_one_entry(self):
        # a group holding one pattern at columns 1-2 and again at columns
        # 3-4: both components reach the memo under the same key
        layout = MaskLayout([2], 4)
        x = [layout.column((e,)) for e in range(3)]
        pattern = [x[2], x[1] | x[1] << layout.stride, x[2] << layout.stride]
        moved = [m << 2 * layout.stride for m in pattern]
        alone = {}
        want = kpoly(pattern, layout, alone)
        memo = {}
        assert kpoly(pattern + moved, layout, memo) == (
            UniPoly(want) * UniPoly(want)).coeffs
        assert kpoly(moved, layout, {}) == want
        assert set(memo) == set(alone) | {frozenset(pattern + moved)}


class TestHilbertWidth:
    def test_free_module(self):
        p = ModulePresentation(2, [(1, 0)], [])
        ws = hilbert_width(p, 3, quotient=True)
        assert ws.dims(4) == [comb(2 * 3 + j - 1, j) * comb(3, 1) for j in range(5)]
        assert hilbert_width(p, 3, quotient=False).dims(4) == [0] * 5

    def test_quotient_plus_module_is_free(self):
        p = principal(2, 2, ((1, 0), (0, 1)))
        q = hilbert_width(p, 3, quotient=True)
        m = hilbert_width(p, 3, quotient=False)
        s = [a + b for a, b in zip(q.dims(5), m.dims(5))]
        assert s == [comb(2 * 3 + j - 1, j) for j in range(6)]

    def test_matches_direct_enumeration(self):
        cases = [
            principal(1, 1, ((2,),)),
            principal(1, 2, ((1,), (1,))),
            principal(2, 1, ((1, 1),)),
            ModulePresentation(
                1,
                [(1, 0)],
                [Monomial(1, 2, ((1,), (0,)), (2,)), Monomial(1, 1, ((3,),), (1,))],
            ),
            ModulePresentation(
                1,
                [(0, 1), (1, 0)],
                [Monomial(1, 1, ((2,),), (), 0), Monomial(1, 1, ((1,),), (1,), 1)],
            ),
        ]
        for p in cases:
            for n in range(0, 4):
                dims = hilbert_width(p, n, quotient=True).dims(4)
                mdims = hilbert_width(p, n, quotient=False).dims(4)
                for j in range(5):
                    assert dims[j] == degree_j_count(p, n, j, quotient=True), (p, n, j)
                    assert mdims[j] == degree_j_count(p, n, j, quotient=False), (p, n, j)

    def test_shift_moves_degrees(self):
        p = principal(1, 1, ((1,),), shift=2)
        dims = hilbert_width(p, 2, quotient=False).dims(4)
        # generator x in width 2 has two images; dims of the ideal shifted by 2
        unshifted = principal(1, 1, ((1,),))
        base = hilbert_width(unshifted, 2, quotient=False).dims(2)
        assert dims == [0, 0] + base

    def test_never_minimalizes(self, monkeypatch):
        # each group's own mask minimalization is the only one on this route
        def forbidden(mons):
            raise AssertionError("hilbert_width called minimalize")

        monkeypatch.setattr(oicore, "minimalize", forbidden)
        p = ideal(1, [(1, ((1,),)), (1, ((2,),))])
        assert hilbert_width(p, 2).dims(3) == [1, 0, 0, 0]
        q = principal(2, 2, ((1, 0), (0, 1)), d=1, pi=(2,))
        assert hilbert_width(q, 3).dims(4) == [
            degree_j_count(q, 3, j) for j in range(5)]

    def test_tables_match_the_benchmark_corpus(self):
        # the corpus records each document's width-wise table at the
        # commit that drew it: the oracle route must reproduce every cell
        corpus = json.loads(
            (ROOT / "perfbench" / "corpus" / "oracle-analyze.json").read_text())
        size = corpus["check_window"]
        for entry in corpus["docs"]:
            doc = parse_document(entry["doc"])
            p = doc.effective_presentation()
            for n in range(size + 1):
                got = hilbert_width(p, n, doc.quotient).dims(size)
                assert got == entry["ref"][n], (entry["id"], n)
            # every width from one enumeration, as `oih oracle` asks
            got = [ws.dims(size)
                   for ws in hilbert_widths(p, size, doc.quotient)]
            assert got == entry["ref"], (entry["id"], "all widths")

    def test_high_pivot_power_within_recursion_limit(self):
        # the quotient by x[1,1]^e x[1,2] and x[1,1] x[1,2]^e: one split
        # per unit of the pivot's exponent went past the recursion limit
        # from e = 500 on
        e = 520
        p = ModulePresentation(1, [(0, 0)], [
            Monomial(1, 2, ((e,), (1,))), Monomial(1, 2, ((1,), (e,)))])
        win = module_series(p).window(3, e + 2)
        assert hilbert_width(p, 3).dims(e + 2) == [
            win[3][j] for j in range(e + 3)]

    def test_negative_shift_rejected(self):
        p = principal(1, 1, ((1,),), shift=-1)
        with pytest.raises(WidthMismatch):
            hilbert_width(p, 2)


def random_widths_presentation(rng):
    """Up to 3 summands of d = 0..2 and shift 0..2, and up to 4
    generators, some of them with zero columns only or of width 0."""
    c = rng.randint(1, 2)
    summands = [(rng.randint(0, 2), rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))]
    gens = []
    for _ in range(rng.randint(0, 4)):
        k = rng.randrange(len(summands))
        d = summands[k][0]
        width = rng.randint(d, 4)
        pi = sorted(rng.sample(range(1, width + 1), d))
        cols = [[0] * c for _ in range(width)]
        for _ in range(rng.choice((0, 1, 2, 3, 4))):
            if width:
                cols[rng.randrange(width)][rng.randrange(c)] += 1
        gens.append(Monomial(c, width, cols, pi, k))
    return ModulePresentation(c, summands, gens)


class TestHilbertWidths:
    """The all-widths engine against a fresh enumeration at each width."""

    def assert_matches(self, p, n_max, quotient):
        got = hilbert_widths(p, n_max, quotient)
        assert len(got) == n_max + 1
        for n, ws in enumerate(got):
            want = hilbert_width_reference(p, n, quotient)
            assert (ws.num, ws.den_pow) == (want.num, want.den_pow), (p, n)
            assert ws.dims(6) == want.dims(6), (p, n)
            one = hilbert_width(p, n, quotient)
            assert (one.num, one.den_pow) == (want.num, want.den_pow), (p, n)

    def test_random_presentations(self):
        rng = random.Random(1919)
        for _ in range(120):
            p = random_widths_presentation(rng)
            self.assert_matches(p, rng.randint(0, 6), rng.random() < 0.5)

    def test_edge_presentations(self):
        cases = [
            # a zero-column generator: the whole summand from width 2 on
            ModulePresentation(1, [(0, 1)], [Monomial(1, 2, ((0,), (0,)))]),
            # a width-0 generator kills its summand at every width
            ModulePresentation(2, [(0, 2), (1, 0)], [
                Monomial(2, 0, (), (), 0),
                Monomial(2, 2, ((1, 0), (0, 0)), (2,), 1)]),
            # d = 2 with an unused trailing column, and a shifted d = 0
            ModulePresentation(1, [(2, 1), (0, 2)], [
                Monomial(1, 3, ((0,), (2,), (0,)), (1, 2), 0),
                Monomial(1, 2, ((1,), (1,)), (1, 2), 0),
                Monomial(1, 1, ((3,),), (), 1)]),
            # one image reached from two generators at different widths
            ModulePresentation(1, [(0, 0)], [
                Monomial(1, 2, ((1,), (0,))), Monomial(1, 1, ((1,),))]),
            # no generators: the free module
            ModulePresentation(2, [(1, 0), (2, 1)], []),
        ]
        for p in cases:
            for quotient in (True, False):
                for n_max in range(6):
                    self.assert_matches(p, n_max, quotient)

    def test_width_below_every_generator(self):
        p = ModulePresentation(1, [(1, 0)], [
            Monomial(1, 4, ((1,), (0,), (2,), (0,)), (3,))])
        for n_max in (0, 1, 3):
            for quotient in (True, False):
                self.assert_matches(p, n_max, quotient)
        assert [ws.dims(2) for ws in hilbert_widths(p, 0, False)] == [
            [0, 0, 0]]

    def test_shared_memo(self, monkeypatch):
        # one call shares one kpoly memo across its widths: it gives what
        # per-width calls give
        memos = {}
        inner = oicore._kpoly

        def recorded(gens, layout, memo):
            memos[id(memo)] = memo
            return inner(gens, layout, memo)

        monkeypatch.setattr(oicore, "_kpoly", recorded)
        rng = random.Random(77)
        for _ in range(30):
            p = random_widths_presentation(rng)
            memos.clear()
            got = [ws.dims(5) for ws in hilbert_widths(p, 4, True)]
            assert len(memos) <= 1
            assert got == [hilbert_width(p, n).dims(5) for n in range(5)]
            assert got == [
                hilbert_width_reference(p, n).dims(5) for n in range(5)]
            # every group and every ideal of the recursion is held minimal
            for memo in memos.values():
                assert_keys_minimal(memo)

    def test_negative_shift_rejected(self):
        p = principal(1, 1, ((1,),), shift=-1)
        with pytest.raises(WidthMismatch):
            hilbert_widths(p, 2)


class TestDimDeg:
    def test_polynomial_ring(self):
        p = ModulePresentation(2, [(0, 0)], [])
        assert dim_deg_width(p, 3) == (6, 1)

    def test_hypersurface(self):
        p = principal(1, 1, ((2,),))
        # width n: K[x1..xn]/(x1^2,...,xn^2) has dim 0, degree 2^n
        assert dim_deg_width(p, 3) == (0, 8)

    def test_zero_module(self):
        p = ModulePresentation(1, [(0, 0)], [Monomial(1, 0, (), ())])
        with pytest.raises(ZeroModule):
            dim_deg_width(p, 2, quotient=True)

    def test_module_side(self):
        p = principal(1, 1, ((1,),))
        # the ideal (x1..xn) has dim n, degree 1
        assert dim_deg_width(p, 4, quotient=False) == (4, 1)


class TestColon:
    # the width-wise colon of the decomposition identities in tests/oracles.py
    def test_worked_example(self):
        p = principal(1, 1, ((3,),))
        got = colon_reference(p, (2,), 3)
        assert sorted(m.cols for m in got) == [
            ((0,), (0,), (3,)),
            ((0,), (3,), (0,)),
            ((1,), (0,), (0,)),
        ]

    def test_colon_to_unit(self):
        p = principal(1, 1, ((1,),))
        got = colon_reference(p, (1,), 2)
        assert [m.degree for m in got] == [0]


class TestSizeInvariants:
    def test_zero_module(self):
        p = ModulePresentation(1, [(0, 0)], [])
        inv = size_invariants(p)
        assert inv.wi_plus == -inf and inv.e_plus == -inf and inv.si == inf

    def test_principal(self):
        p = principal(1, 2, ((1,), (1,)))
        inv = size_invariants(p)
        assert inv.wi_plus == 2
        assert inv.e_plus == 2
        # degrees 0..2 of K[x1,x2]/(x1x2): 1, 2, 2
        assert inv.si == 5

    def test_redundant_generator_at_top_width(self):
        # x[1,1] divides x[1,1]*x[1,2], both at width 2
        p = ideal(1, [(2, ((1,), (0,))), (2, ((1,), (1,)))])
        assert size_invariants(p).e_plus == 1

    def test_redundant_generator_ignored(self):
        g = Monomial(1, 1, ((1,),))
        image = Monomial(1, 3, ((0,), (0,), (1,)))
        p = ModulePresentation(1, [(0, 0)], [g, image])
        assert size_invariants(p).wi_plus == 1


class TestOrder:
    def test_examples(self):
        # wider basis element is larger
        a = Monomial(1, 1, ((1,),), (1,))
        b = Monomial(1, 2, ((0,), (0,)), (2,))
        assert order_key(b) > order_key(a)
        # smaller summand index wins
        s0 = Monomial(1, 1, ((0,),), (1,), summand=0)
        s1 = Monomial(1, 3, ((0,), (0,), (0,)), (3,), summand=1)
        assert order_key(s0) > order_key(s1)
        # same basis data: lex on exponents, higher column dominates
        u = Monomial(2, 2, ((0, 0), (1, 0)), ())
        v = Monomial(2, 2, ((9, 9), (0, 1)), ())
        assert order_key(v) > order_key(u)
        assert order_key(u) == order_key(Monomial(2, 2, ((0, 0), (1, 0)), ()))

    def test_order_refines_divisibility(self):
        pool = all_monomials(1, 1, 1, 2) + all_monomials(1, 1, 2, 2)
        for g in pool:
            for m in pool:
                if g != m and oi_divides(g, m):
                    assert order_key(m) > order_key(g)


class TestSymmetrize:
    def test_worked_example(self):
        p = ModulePresentation(
            1, [(0, 0)], [Monomial(1, 2, ((2,), (1,)))], category="FI"
        )
        out = symmetrize_fi_ideal(p)
        assert out.category == "OI"
        assert sorted(m.cols for m in out.generators) == [
            ((1,), (2,)),
            ((2,), (1,)),
        ]

    def test_matches_all_injections(self):
        import itertools as it

        gens = [Monomial(2, 2, ((1, 0), (0, 2)))]
        p = ModulePresentation(2, [(0, 0)], gens, category="FI")
        sym = symmetrize_fi_ideal(p)
        for n in range(2, 5):
            oi_side = set(minimalize(expand_to_width(sym, n)))
            fi_side = set()
            for g in gens:
                for values in it.permutations(range(1, n + 1), g.width):
                    cols = [(0, 0)] * n
                    for j, col in enumerate(g.cols):
                        cols[values[j] - 1] = col
                    fi_side.add(Monomial(2, n, cols, (), 0))
            assert oi_side == set(minimalize(fi_side))

    def test_wide_exponent_free_generator(self):
        # twelve equal columns have one ordering, not 12! permutations
        g = Monomial(1, 12, ((0,),) * 12)
        p = ModulePresentation(1, [(0, 0)], [g], category="FI")
        start = time.process_time()
        assert symmetrize_fi_ideal(p).generators == (g,)
        assert time.process_time() - start < 0.5

    def test_orbits_hold_each_distinct_ordering(self):
        # no generator divides another: the orbits come back whole
        gens = [Monomial(2, 4, ((1, 0), (1, 0), (0, 2), (0, 0))),
                Monomial(2, 3, ((0, 1), (0, 1), (3, 0)))]
        p = ModulePresentation(2, [(0, 0)], gens, category="FI")
        got = {m.cols for m in symmetrize_fi_ideal(p).generators}
        assert got == {cols for g in gens
                       for cols in itertools.permutations(g.cols)}
        assert len(got) == 12 + 3

    def test_rejects_wrong_category_or_rank(self):
        p = ModulePresentation(1, [(0, 0)], [], category="OI")
        with pytest.raises(NotAnIdeal):
            symmetrize_fi_ideal(p)
        q = ModulePresentation(1, [(1, 0)], [], category="FI")
        with pytest.raises(NotAnIdeal):
            symmetrize_fi_ideal(q)
