"""The column automaton of derived ideals (`oihilbert.columns`) against the
letter automaton (`oracles.letter_series`): equal reduced forms on seeded
presentations of every shape the schema allows, a sympy cross-check on a
subset, and the limits of the iterative solve."""

import contextlib
import io
import json
import random
import time

import sympy

from oihilbert import cli
from oihilbert.columns import summand_series
from oihilbert.oicore import Monomial, ModulePresentation, symmetrize_fi_ideal
from oihilbert.schema import MAX_WIDTH
from oihilbert.series import module_series

from corpus import random_monomial, random_ideal
from oracles import letter_series, terms_of

S, T = sympy.symbols("s t")


def _sympy(r, t_prefactor):
    def expr(p):
        return sympy.Add(*(c * S**i * T**j
                           for (i, j), c in terms_of(p).items()))
    den = sympy.Mul(*(expr(b) ** e for b, e in r.factors))
    return expr(r.num) / den / T**t_prefactor


def _documents(rng, count):
    """Seeded presentations: c = 1-3, ranks 0-3, up to two summands with
    shifts -1 to 2, widths up to 4; some with the width-0 unit or
    exponent-free generators, and FI ideals after symmetrization."""
    for k in range(count):
        c = rng.randint(1, 3)
        summands = [(rng.randint(0, 3), rng.randint(-1, 2))
                    for _ in range(rng.randint(1, 2))]
        gens = []
        for idx, (d, _) in enumerate(summands):
            for _ in range(rng.randint(0, 3)):
                width = rng.randint(max(d, 1), 4)
                deg = rng.choice((0, 1, 3, 5))
                gens.append(random_monomial(rng, c, width, d, idx, deg))
            if d == 0 and k % 7 == 0:
                gens.append(Monomial(c, 0, (), (), idx))
        yield ModulePresentation(c, summands, gens)
        if k % 5 == 0:
            yield symmetrize_fi_ideal(random_ideal(
                rng, c=rng.randint(1, 2), max_gens=3, max_width=3,
                category="FI"))


def test_agrees_with_letter_route():
    rng = random.Random(3701)
    seen = set()
    for p in _documents(rng, 140):
        for quotient in (True, False):
            got = module_series(p, quotient=quotient, reduce=True)
            want = letter_series(p, quotient=quotient)
            red = want.rational.reduce()
            assert (got.rational.num, got.rational.factors) == (
                red.num, red.factors), (p, quotient)
            assert got.t_prefactor == want.t_prefactor
        seen.update((d for d, _ in p.summands))
        seen.add(p.c)
    assert {0, 1, 2, 3} <= seen


def test_sympy_cross_check():
    rng = random.Random(3702)
    for p in list(_documents(rng, 25)):
        for quotient in (True, False):
            a = module_series(p, quotient=quotient)
            b = letter_series(p, quotient=quotient)
            diff = _sympy(a.rational, a.t_prefactor) - _sympy(
                b.rational, b.t_prefactor)
            assert sympy.cancel(diff) == 0, (p, quotient)


def test_states_are_derived_ideals():
    # x[1,1]^2: the ideal, the width-0 unit (e >= 2) and nothing else; a
    # free summand has the series 0 and no state
    _, states = summand_series(1, 0, [Monomial(1, 1, ((2,),))])
    assert states == 2
    free, states = summand_series(2, 1, [])
    assert free.is_zero() and states == 0
    # the unit ideal is one state with a self-loop: the free series
    unit, states = summand_series(1, 0, [Monomial(1, 0, ())])
    assert states == 1
    assert unit.reduce().num == module_series(
        ModulePresentation(1, [(0, 0)], []), quotient=True).rational.num


def test_widest_exponent_free_generator(tmp_path):
    # MAX_WIDTH derived ideals in a chain: the traversal and the solve are
    # iterative, so no RecursionError, and every state is counted
    doc = {"schema_version": 1, "c": 1, "summands": [{"d": 0, "shift": 0}],
           "generators": [{"width": MAX_WIDTH}], "mode": "quotient"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["hilbert", str(path), "--json"])
    assert code == 0, err.getvalue()
    got = json.loads(out.getvalue())
    assert got["column_states"] == [MAX_WIDTH + 1]
    assert got["shape"]["conformant"] is True


def test_many_rows_fold_into_few_cells(tmp_path):
    # x[1,1]...x[24,1]: 2^24 products of first-column intervals, but only
    # two fit masks, so the rows fold into two cells
    c = 24
    doc = {"schema_version": 1, "c": c, "summands": [{"d": 0, "shift": 0}],
           "generators": [{"width": 1, "exponents": [[1] * c]}],
           "mode": "quotient"}
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["hilbert", str(path), "--json"])
    assert time.monotonic() - t0 < 2.0
    assert code == 0, err.getvalue()
    got = json.loads(out.getvalue())
    assert got["column_states"] == [2]
    assert got["shape"]["conformant"] is True
