import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oihilbert.errors import NotInLanguage
from oihilbert.oicore import Monomial
from oihilbert.words import (
    decode,
    encode,
    tau,
    word_from_str,
    word_to_str,
    xi,
)

from enumerate_small import all_monomials, lstd_words
from oracles import apply_shift, eta, in_lstd


class TestShiftOperator:
    def test_shift_one_moves_everything(self):
        exps, pos = apply_shift(1, {(4, 2): 6}, (5, 5, 5))
        assert exps == {(4, 3): 6}
        assert pos == (6, 6, 6)

    def test_shift_three_moves_tail_entries(self):
        exps, pos = apply_shift(3, {(4, 2): 6}, (5, 5, 5))
        assert exps == {(4, 3): 6}
        assert pos == (5, 5, 6)

    def test_shift_two_on_unit(self):
        exps, pos = apply_shift(2, {}, (5, 5, 5))
        assert exps == {}
        assert pos == (5, 6, 6)

    def test_shift_zero_keeps_positions(self):
        exps, pos = apply_shift(0, {(1, 1): 2}, (3,))
        assert exps == {(1, 2): 2}
        assert pos == (3,)


class TestEta:
    def test_empty_word(self):
        assert eta((), 1, 2) == ({}, (0, 0))

    def test_worked_example(self):
        word = (tau(1), xi(1), tau(1))
        exps, pos = eta(word, 1, 1)
        assert exps == {(1, 2): 1}
        assert pos == (2,)

    def test_marker_zero_tail(self):
        word = (tau(1), tau(0))
        exps, pos = eta(word, 1, 1)
        assert exps == {}
        assert pos == (1,)

    def test_rejects_oversized_letters(self):
        with pytest.raises(NotInLanguage):
            eta((xi(3),), 2, 0)
        with pytest.raises(NotInLanguage):
            eta((tau(2),), 1, 1)


class TestStandardness:
    def test_sorted_runs_are_standard(self):
        assert in_lstd((xi(1), xi(1), xi(2), tau(1), xi(1), tau(0)), 2, 1)
        assert not in_lstd((xi(2), xi(1), tau(0)), 2, 0)
        assert in_lstd((), 1, 0)

    def test_marker_resets_run(self):
        assert in_lstd((xi(2), tau(0), xi(1), tau(0)), 2, 0)

    def test_lstd_membership(self):
        assert in_lstd((tau(1), xi(1), tau(1)), 1, 1)
        assert in_lstd((), 1, 0)
        assert not in_lstd((), 1, 1)
        # markers must weakly increase, cover 1..d, then zeros
        assert not in_lstd((tau(0), tau(1)), 1, 1)
        assert not in_lstd((tau(2), tau(1)), 1, 2)
        assert in_lstd((tau(1), tau(2), tau(0)), 1, 2)
        assert not in_lstd((tau(1), tau(1)), 1, 2)
        # words must end with a marker
        assert not in_lstd((tau(1), xi(1)), 1, 1)
        # and be standard
        assert not in_lstd((xi(2), xi(1), tau(1)), 2, 1)

    def test_lstd_enumerator_agrees_with_predicate(self):
        # every word the brute-force enumerator builds passes the predicate,
        # and filtering all letter strings reproduces the enumerator's set
        for c, d in [(1, 0), (1, 1), (2, 1)]:
            words = set(lstd_words(c, d, 2, 2))
            assert all(in_lstd(w, c, d) for w in words)
            letters = list(range(1, c + 1)) + [-j for j in range(d + 1)]
            brute = set()
            for length in range(0, 5):
                for w in itertools.product(letters, repeat=length):
                    if sum(1 for a in w if a <= 0) <= 2 and sum(1 for a in w if a > 0) <= 2:
                        if in_lstd(w, c, d):
                            brute.add(w)
            assert brute == words


class TestCodec:
    def test_decode_worked_example(self):
        m = decode((tau(1), xi(1), tau(1)), 1, 1)
        assert m.width == 2
        assert m.pi == (2,)
        assert m.cols == ((0,), (1,))

    def test_decode_unit_width_one(self):
        m = decode((tau(0),), 1, 0)
        assert m.width == 1 and m.pi == () and m.cols == ((0,),)

    def test_decode_rejects_nonmembers(self):
        with pytest.raises(NotInLanguage):
            decode((xi(1),), 1, 0)

    def test_encode_worked_example(self):
        m = Monomial(1, 2, ((0,), (1,)), (2,))
        assert encode(m) == (tau(1), xi(1), tau(1))

    def test_encode_empty(self):
        assert encode(Monomial(1, 0, (), ())) == ()

    def test_word_count_matches_free_dimensions(self):
        # standard words with n markers and j variables count the monomials
        # of the width-n free component
        from math import comb

        for c, d in [(1, 1), (2, 1), (1, 2)]:
            words = lstd_words(c, d, 3, 3)
            for n in range(4):
                for j in range(4):
                    got = sum(
                        1
                        for w in words
                        if sum(1 for a in w if a <= 0) == n
                        and sum(1 for a in w if a > 0) == j
                    )
                    expect = comb(n, d) * (comb(c * n + j - 1, j) if n else (1 if j == 0 else 0))
                    assert got == expect, (c, d, n, j)

    def test_round_trip_exhaustive_small(self):
        for c, d in [(1, 0), (1, 1), (2, 1)]:
            for width in range(d, 3):
                for m in all_monomials(c, d, width, 2):
                    w = encode(m)
                    assert in_lstd(w, c, d)
                    assert decode(w, c, d) == m

    def test_decode_then_encode_exhaustive_small(self):
        for c, d in [(1, 0), (1, 1), (2, 1)]:
            seen = {}
            for w in lstd_words(c, d, 3, 2):
                m = decode(w, c, d)
                assert encode(m) == w
                assert m not in seen, "two words decoded to one monomial"
                seen[m] = w

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random(self, data):
        c = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(0, 3))
        width = data.draw(st.integers(d, 5))
        pi = tuple(sorted(data.draw(
            st.sets(st.integers(1, width), min_size=d, max_size=d)
        ))) if width else ()
        cols = tuple(
            tuple(data.draw(st.integers(0, 3)) for _ in range(c)) for _ in range(width)
        )
        m = Monomial(c, width, cols, pi)
        assert decode(encode(m), c, d) == m


class TestTextForm:
    def test_round_trip(self):
        w = (tau(1), xi(2), xi(1), tau(0))
        assert word_from_str(word_to_str(w)) == w
        assert word_to_str(w) == "t1 x2 x1 t0"

    def test_bad_tokens(self):
        with pytest.raises(NotInLanguage):
            word_from_str("x0")
        with pytest.raises(NotInLanguage):
            word_from_str("y1")
