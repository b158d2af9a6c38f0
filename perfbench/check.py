"""Output checks that do not go through the series engine.

A rendered series (`num/(f1)^e1*(f2)^e2`, optionally prefixed by `t^-K*`)
is parsed back with a small parser of its own and expanded as a power
series with exact fractions.  The coefficients must equal a width-wise
table from `oicore.hilbert_width`, the oracle route, which the corpus
stores per document.
"""

import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|(.))")


def _add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + sign * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _mul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            w = out.get(key, 0) + x * y
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


_ONE = {(0, 0): 1}


def _power(r, e):
    num, den = r if e >= 0 else (r[1], r[0])
    pn, pd = _ONE, _ONE
    for _ in range(abs(e)):
        pn, pd = _mul(pn, num), _mul(pd, den)
    return pn, pd


class _Parser:
    """Rationals in s, t as (numerator, denominator) term dicts.  After a
    `/`, further `*` factors join the denominator, as the renderer means."""

    def __init__(self, text):
        self.toks = []
        for num, ch in _TOKEN.findall(text):
            if num:
                self.toks.append(int(num))
            elif not ch.isspace():
                self.toks.append(ch)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        r = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r}")
        return r

    def expr(self):
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.take()
        n, d = self.term()
        acc = ({k: sign * v for k, v in n.items()}, d)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            n, d = self.term()
            acc = (_add(_mul(acc[0], d), _mul(n, acc[1]), sign),
                   _mul(acc[1], d))
        return acc

    def term(self):
        num, den = self.power()
        divide = False
        while self.peek() in ("*", "/"):
            if self.take() == "/":
                if divide:
                    raise ValueError("two divisions in one term")
                divide = True
            n, d = self.power()
            if divide:
                n, d = d, n
            num, den = _mul(num, n), _mul(den, d)
        return num, den

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.take()
        exp = self.take()
        if not isinstance(exp, int):
            raise ValueError(f"bad exponent {exp!r}")
        return _power(base, sign * exp)

    def atom(self):
        tok = self.take()
        if isinstance(tok, int):
            return {(0, 0): tok}, _ONE
        if tok == "s":
            return {(1, 0): 1}, _ONE
        if tok == "t":
            return {(0, 1): 1}, _ONE
        if tok == "(":
            r = self.expr()
            self.take(")")
            return r
        raise ValueError(f"unexpected token {tok!r}")


def expand_text(text, size):
    """Coefficients [n][j], 0 <= n, j <= size, of a rendered series."""
    num, den = _Parser(text).parse()
    if not den:
        raise ValueError("zero denominator")
    shift = min(j for _, j in den)  # t^shift divides den exactly
    den = {(i, j - shift): v for (i, j), v in den.items()}
    d00 = den.get((0, 0))
    if not d00:
        raise ValueError("denominator vanishes at the origin")
    jmax = size + shift
    coef = {}
    for n in range(size + 1):
        for j in range(jmax + 1):
            acc = Fraction(num.get((n, j), 0))
            for (a, b), v in den.items():
                if (a or b) and a <= n and b <= j:
                    acc -= v * coef.get((n - a, j - b), 0)
            coef[(n, j)] = acc / d00
    return [[coef[(n, j + shift)] for j in range(size + 1)]
            for n in range(size + 1)]


def reference_table(doc, size):
    """Width-wise table [n][j] from the oracle route, for a document."""
    from oihilbert.oicore import hilbert_width
    from oihilbert.schema import parse_document

    parsed = parse_document(doc)
    p = parsed.effective_presentation()
    return [hilbert_width(p, n, parsed.quotient).dims(size)
            for n in range(size + 1)]


def rendered_series(argv, stdout):
    """The series a `hilbert` or `analyze` command printed, else None."""
    if argv[0] not in ("hilbert", "analyze"):
        return None
    if "--json" in argv:
        return json.loads(stdout)["series"]
    first = stdout.splitlines()[0]
    return first[len("series: "):] if argv[0] == "analyze" else first


def check_output(argv, stdout, ref):
    """(ok, reason) for one successful command's standard output."""
    if argv[0] == "oracle":
        if stdout.strip() == "OK":
            return True, ""
        return False, "oracle did not print OK"
    try:
        got = expand_text(rendered_series(argv, stdout), len(ref) - 1)
    except (ValueError, KeyError, IndexError) as exc:
        return False, f"unreadable output: {exc}"
    for n, (row, want) in enumerate(zip(got, ref)):
        for j, (a, b) in enumerate(zip(row, want)):
            if a != b:
                return False, f"coefficient (n={n}, j={j}) is {a}, width-wise {b}"
    return True, ""
