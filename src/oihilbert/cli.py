"""Command-line front end: `oih <command> <file> [flags]`.

Exit codes: 0 success, 2 schema or usage error, 3 internal error
(engine exceptions, oracle mismatches).
"""

import argparse
import functools
import json
import os
import sys

from .analysis import (
    artinian_test,
    asymptotic_dimension,
    asymptotic_multiplicity,
    factor_base,
    validate_shape,
)
from .errors import NotInLanguage, OihError, SchemaError
from .oicore import Monomial, hilbert_widths
from .polyarith import render_poly
from .schema import (
    MAX_WIDTH,
    _parse_exponents,
    _parse_pi,
    load_document,
    monomial_to_obj,
)
from .series import (
    assemble,
    column_parts,
    module_series,
    summand_generators,
)
from .words import decode, encode, word_from_str, word_to_str


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def mono_text(m):
    out = m.var_text()
    if m.pi:
        out += " e(" + ",".join(str(v) for v in m.pi) + ")"
    out += f" [width {m.width}]"
    if m.summand:
        out += f" [summand {m.summand}]"
    return out


def _shape_obj(rep):
    return {
        "conformant": rep.conformant,
        "one_minus_t_power": rep.one_minus_t_power,
        "factors": [
            {"t_power": tp, "growth": list(f)}
            for tp, f in rep.factors
        ],
        "leftover": None if rep.leftover is None else render_poly(rep.leftover),
    }


def _print_shape(rep):
    print("shape:", "conformant" if rep.conformant else "NOT conformant")
    print(f"  (1-t)-power: {rep.one_minus_t_power}")
    for tp, f in rep.factors:
        print(f"  factor: {render_poly(factor_base(tp, f))}")
    if rep.leftover is not None:
        print(f"  leftover: {render_poly(rep.leftover)}")


def cmd_hilbert(args):
    doc = load_document(args.file)
    p = doc.effective_presentation()
    res = module_series(p, quotient=doc.quotient, reduce=args.reduce)
    rep = validate_shape(res, p.c)
    if args.json:
        _emit({
            "series": res.render(),
            "t_prefactor": res.t_prefactor,
            "mode": res.mode,
            "reduced": res.reduced,
            "column_states": list(res.column_states),
            "shape": _shape_obj(rep),
        })
    else:
        print(res.render())
        _print_shape(rep)
    return 0


def cmd_expand(args):
    doc = load_document(args.file)
    p = doc.effective_presentation()
    res = module_series(p, quotient=doc.quotient)
    table = res.window(args.N, args.J)
    if args.json:
        _emit({"n_max": args.N, "j_max": args.J, "dims": table})
    else:
        head = "n\\j " + " ".join(f"{j:>6}" for j in range(args.J + 1))
        print(head)
        for n, row in enumerate(table):
            print(f"{n:>3} " + " ".join(f"{v:>6}" for v in row))
    return 0


def cmd_oracle(args):
    """Two checks of the series: its N x J window cell by cell against the
    width-wise route, and each summand's whole submodule series against
    its letter automaton's (`automata.generating_function` of
    `automata.module_dfa`; no other command loads `automata`).  Each
    differing cell prints a line, and any differing summand one more."""
    from .automata import generating_function, module_dfa

    doc = load_document(args.file)
    p = doc.effective_presentation()
    if any(shift < 0 for _, shift in p.summands):
        raise SchemaError("oracle: the width-wise route needs nonnegative "
                          "shifts")
    parts = column_parts(p)
    rows = assemble(p, parts, doc.quotient).window(args.N, args.J)
    tables = [ws.dims(args.J)
              for ws in hilbert_widths(p, args.N, doc.quotient)]
    mismatches = [(n, j, series, widthwise)
                  for n, (row, dims) in enumerate(zip(rows, tables))
                  for j, (series, widthwise) in enumerate(zip(row, dims))
                  if series != widthwise]
    for n, j, series, widthwise in mismatches:
        print(f"mismatch at n={n} j={j}: "
              f"series gives {series}, width-wise gives {widthwise}")
    routes_agree = all(
        _same_rational(part, generating_function(module_dfa(p.c, d, gens)))
        for (part, _), (d, _), gens in zip(parts, p.summands,
                                           summand_generators(p)))
    if not routes_agree:
        print("mismatch: column route and letter automaton give different "
              "series")
    if mismatches or not routes_agree:
        return 3
    print("OK")
    return 0


def _same_rational(a, b):
    """Whether two FactoredRationals are one rational function: equal
    reduced forms, else equal cross-products of the reduced forms."""
    a, b = a.reduce(), b.reduce()
    if a.num == b.num and a.factors == b.factors:
        return True
    return a.num * b.den_expanded() == b.num * a.den_expanded()


def _int_arg(text, low, high=None):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least {low}, got {text!r}")
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    if high is not None and n > high:
        raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
    return n


def _count_arg(text):
    return _int_arg(text, 0)


def _rows_arg(text):
    """A row count c, bounded as a document's is."""
    return _int_arg(text, 1, MAX_WIDTH)


def _width_arg(text):
    """A width, a rank d or a table's largest width -N, bounded as a
    document's generator widths are."""
    return _int_arg(text, 0, MAX_WIDTH)


def _growth_text(terms):
    """sum_c c^n P_c(n) as text, largest base and degree first."""
    monos = []
    for c, poly in terms:
        for k in range(len(poly) - 1, -1, -1):
            a = poly[k]
            parts = [str(abs(a))] if abs(a) != 1 or (k, c) == (0, 1) else []
            parts += [f"n^{k}" if k > 1 else "n"] if k else []
            parts += [f"{c}^n"] if c != 1 else []
            if a:
                monos.append(("-" if a < 0 else "") + "*".join(parts))
    return (" + ".join(monos) or "0").replace("+ -", "- ")


def cmd_analyze(args):
    doc = load_document(args.file)
    p = doc.effective_presentation()
    res = module_series(p, quotient=doc.quotient, reduce=True)
    rep = validate_shape(res, p.c)
    dim = asymptotic_dimension(rep)
    mult = asymptotic_multiplicity(rep)
    artinian = artinian_test(rep) if doc.quotient else None
    if args.json:
        out = {
            "series": res.render(),
            "dimension": {"slope": dim.slope, "intercept": dim.intercept,
                          "onset": dim.onset},
            "multiplicity": {"base": mult.base,
                             "poly_exponent": mult.poly_exponent,
                             "terms": [{"base": c,
                                        "poly": [str(v) for v in poly]}
                                       for c, poly in mult.terms],
                             "onset": mult.onset},
            "shape": _shape_obj(rep),
        }
        if artinian is not None:
            out["artinian"] = artinian
        _emit(out)
    else:
        print(f"series: {res.render()}")
        sign = "-" if dim.intercept < 0 else "+"
        print(f"dimension: {dim.slope}*n {sign} {abs(dim.intercept)} "
              f"for n >= {dim.onset}")
        print(f"multiplicity: {_growth_text(mult.terms)} "
              f"for n >= {mult.onset}")
        if artinian is not None:
            print(f"artinian: {'true' if artinian else 'false'}")
        _print_shape(rep)
    return 0


def cmd_decompose(args):
    from .decomposition import compute_decomposition  # no other command uses it

    doc = load_document(args.file)
    p = doc.effective_presentation()
    try:
        e = tuple(int(v) for v in args.e.split(","))
    except ValueError:
        raise SchemaError(f"--e must be comma-separated integers, got {args.e!r}")
    if len(p.summands) != 1 or p.summands[0][1] != 0:
        raise SchemaError("decompose needs a document with one summand "
                          "of shift 0")
    if len(e) != p.c or min(e) < 0:
        raise SchemaError(f"--e needs {p.c} non-negative integers, "
                          f"got {args.e!r}")
    dec = compute_decomposition(p, e)
    d = p.summands[0][0]
    if args.json:
        _emit({
            "e": list(dec.e),
            "marked": None if dec.marked is None else [
                monomial_to_obj(g) for g in dec.marked.generators],
            "unmarked": [monomial_to_obj(g) for g in dec.unmarked.generators],
        })
    else:
        print(f"e = ({','.join(map(str, dec.e))})")
        if dec.marked is None:
            print("marked part: absent (rank parameter is 0)")
        else:
            print(f"marked part (rank {d - 1}):")
            for g in dec.marked.generators:
                print(f"  {mono_text(g)}")
            if not dec.marked.generators:
                print("  (zero)")
        print(f"unmarked part (rank {d}):")
        for g in dec.unmarked.generators:
            print(f"  {mono_text(g)}")
        if not dec.unmarked.generators:
            print("  (zero)")
    return 0


def _parse_exponents_arg(text, c, width):
    try:
        cols = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"--exponents: invalid JSON: {exc}")
    return _parse_exponents({"exponents": cols}, "words encode", c, width)


def cmd_words(args):
    if args.action == "encode":
        try:
            pi = [int(v) for v in args.pi.split(",")] if args.pi else []
        except ValueError:
            raise SchemaError(f"--pi must be comma-separated integers, got {args.pi!r}")
        pi = _parse_pi({"pi": pi}, "words encode", len(pi), args.width)
        cols = (_parse_exponents_arg(args.exponents, args.c, args.width)
                if args.exponents else ((0,) * args.c,) * args.width)
        mon = Monomial(args.c, args.width, cols, pi)
        print(word_to_str(encode(mon)))
    else:
        # the word is typed by the user: one outside the language is a
        # usage error
        try:
            mon = decode(word_from_str(args.word), args.c, args.d)
        except NotInLanguage as exc:
            raise SchemaError(f"words decode: {exc}")
        print(mono_text(mon))
    return 0


@functools.cache
def build_parser():
    """The parser, built once per process; main dispatches by command name."""
    ap = argparse.ArgumentParser(
        prog="oih",
        description="Equivariant Hilbert series of monomial OI-modules.")
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hilbert", help="compute the two-variable series")
    h.add_argument("file")
    h.add_argument("--reduce", action="store_true",
                   help="cancel the fraction before printing")
    h.add_argument("--json", action="store_true")

    ex = sub.add_parser("expand", help="print the dimension table")
    ex.add_argument("file")
    ex.add_argument("-N", type=_width_arg, required=True, help="max width")
    ex.add_argument("-J", type=_count_arg, required=True, help="max degree")
    ex.add_argument("--json", action="store_true")

    orc = sub.add_parser(
        "oracle", help="compare the series against width-wise recursion")
    orc.add_argument("file")
    orc.add_argument("-N", type=_width_arg, required=True)
    orc.add_argument("-J", type=_count_arg, required=True)

    an = sub.add_parser("analyze", help="growth invariants and shape")
    an.add_argument("file")
    an.add_argument("--json", action="store_true")

    de = sub.add_parser("decompose", help="width-descent decomposition")
    de.add_argument("file")
    de.add_argument("--e", required=True,
                    help="column-1 exponent vector, e.g. 0,2")
    de.add_argument("--json", action="store_true")

    w = sub.add_parser("words", help="monomial/word round-trips")
    wsub = w.add_subparsers(dest="action", required=True)
    we = wsub.add_parser("encode")
    we.add_argument("--c", type=_rows_arg, required=True)
    we.add_argument("--width", type=_width_arg, required=True)
    we.add_argument("--pi", default="",
                    help="comma-separated basis tuple, e.g. 1,3")
    we.add_argument("--exponents", default="",
                    help='column-major JSON, e.g. "[[1],[0]]"')
    wd = wsub.add_parser("decode")
    wd.add_argument("--c", type=_rows_arg, required=True)
    wd.add_argument("--d", type=_width_arg, required=True)
    wd.add_argument("word", help='space-separated letters, e.g. "x1 t1"')

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function takes effect
    func = {"hilbert": cmd_hilbert, "expand": cmd_expand,
            "oracle": cmd_oracle, "analyze": cmd_analyze,
            "decompose": cmd_decompose, "words": cmd_words}[args.command]
    try:
        return func(args)
    except BrokenPipeError:
        # the reader closed standard output: nothing failed, and the flush
        # at shutdown must not write to the closed pipe again
        sys.stdout = open(os.devnull, "w")
        return 0
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OihError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # anything else is a fault of the program: one line, no traceback
        print(f"error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
