"""Words over the mixed alphabet that encode monomials of free summands.

The alphabet has c variable letters x1..xc and d+1 marker letters t0..td.
Letters are packed into ints: xi -> i (positive), tj -> -j (so t0 is 0).
Reading a word right to left builds a monomial: a variable letter multiplies
the first column, a marker letter shifts every column up by one and bumps the
basis-tuple entries at or above its index. A word with n markers and j
variable letters therefore weighs s^n t^j.

The words that correspond bijectively to width-m monomials are the standard
members of the marker-structured language: variable runs sorted ascending,
marker indices weakly increasing over 1..d then 0 from there on, every index
in 1..d present, and the word ending in a marker (empty allowed when d = 0).
`decode` accepts exactly the words that `encode` gives back.
"""

from __future__ import annotations

from .errors import NotInLanguage, WidthMismatch
from .oicore import Monomial


def xi(i):
    """Variable letter for row i >= 1."""
    if i < 1:
        raise ValueError("variable letters are indexed from 1")
    return i


def tau(j):
    """Marker letter for index j >= 0."""
    if j < 0:
        raise ValueError("marker letters are indexed from 0")
    return -j


def is_xi(letter):
    return letter > 0


def is_tau(letter):
    return letter <= 0


def tau_index(letter):
    return -letter


def alphabet(c, d):
    """All letters: x1..xc then t0..td."""
    return tuple(range(1, c + 1)) + tuple(-j for j in range(d + 1))


def letter_str(letter):
    return f"x{letter}" if letter > 0 else f"t{-letter}"


def word_to_str(word):
    return " ".join(letter_str(a) for a in word)


def word_from_str(text):
    out = []
    for tok in text.split():
        kind, num = tok[:1], tok[1:]
        if kind not in ("x", "t") or not (num.isascii() and num.isdigit()):
            raise NotInLanguage(f"bad letter token {tok!r}")
        try:
            n = int(num)
        except ValueError:
            raise NotInLanguage(
                f"letter index of {len(num)} digits is too long") from None
        if kind == "x" and n < 1:
            raise NotInLanguage(f"bad variable letter {tok!r}")
        out.append(n if kind == "x" else -n)
    return tuple(out)


def decode(word, c, d, summand=0):
    """The monomial a standard word stands for; its width is the marker
    count.  A word is standard exactly when it is the encoding of the
    monomial it reads, so that round trip is the membership test."""
    word = tuple(word)
    mon = _read(word, c, d, summand)
    if mon is None or encode(mon) != word:
        raise NotInLanguage(
            f"word {word_to_str(word)!r} is not standard for c={c}, d={d}")
    return mon


def _read(word, c, d, summand):
    """The monomial a word reads, or None when a letter is out of range,
    a variable letter follows the last marker, or the markers give no
    valid basis tuple."""
    if not all(-d <= a <= c for a in word) or word and is_xi(word[-1]):
        return None
    width = sum(1 for a in word if is_tau(a))
    cols = [[0] * c for _ in range(width)]
    pi = [0] * d
    seen = 0
    for a in word:
        if is_xi(a):
            cols[seen][a - 1] += 1
        else:
            j = tau_index(a)
            if j >= 1:
                for k in range(j, d + 1):
                    pi[k - 1] += 1
            seen += 1
    try:
        return Monomial(c, width, cols, pi, summand)
    except WidthMismatch:
        return None


def encode(mon):
    """The standard word of a monomial: before the k-th marker comes the
    sorted variable block of column k; the marker index is the basis-tuple
    slot whose half-open interval contains k, or 0 past the last entry."""
    d = len(mon.pi)
    word = []
    bounds = (0,) + mon.pi
    for k in range(1, mon.width + 1):
        for i, e in enumerate(mon.cols[k - 1]):
            word.extend([xi(i + 1)] * e)
        idx = 0
        for j in range(1, d + 1):
            if bounds[j - 1] < k <= bounds[j]:
                idx = j
                break
        word.append(tau(idx))
    return tuple(word)
