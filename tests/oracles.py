"""Reference routes that the runtime does not need, kept for the tests:
running a DFA on one word, and the paper's pseudo-division criterion for
eventual finite length, written with sympy rather than the package's own
polynomial arithmetic."""

import sympy

S, T = sympy.symbols("s t")


def run_dfa(dfa, word):
    """Whether the DFA accepts the word."""
    if dfa.n == 0:
        return False
    q = dfa.start
    for a in word:
        q = dfa.step(q, a)
        if q is None:
            return False
    return q in dfa.accepts


def _expr(b):
    return sympy.Add(*(c * S**i * T**j for (i, j), c in b.terms.items()))


def paper_artinian(rep):
    """Nagel's criterion (arXiv 2006.13083) on the shape report of a reduced
    quotient series g / ((1-t)^a prod_j ((1-t)^k_j - s f_j)): the quotient
    has finite length in every large width exactly when every k_j is 0 and
    (1-t)^a divides the pseudo-remainder in s of g by prod_j (1 - s f_j)."""
    assert rep.conformant, rep.leftover
    if any(tp for tp, _ in rep.factors):
        return False
    den = sympy.Mul(*(1 - S * sympy.Add(*(c * T**k for k, c in enumerate(
        f.coeffs))) for _, f in rep.factors))
    rem = sympy.prem(_expr(rep.numerator), den, S)
    a = rep.one_minus_t_power
    return sympy.rem(rem, (1 - T) ** a, T) == 0
