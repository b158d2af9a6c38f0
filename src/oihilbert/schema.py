"""Versioned JSON input documents and the presentation they describe.

A document pins schema_version 1 and carries the row count, the free
summands, monomial generators, and optionally polynomial elements whose
leading monomials stand in for asserted reduction data.  Errors point at
the offending field by JSON path.
"""

import json
from collections import namedtuple

from .errors import SchemaError
from .oicore import (
    Monomial,
    ModulePresentation,
    order_key,
    symmetrize_fi_ideal,
)

SCHEMA_VERSION = 1

# The widest generator or asserted element a document may hold, and the
# largest row count c and summand rank d.  The engines allocate in
# proportion to each, so a larger one is refused (exit 2) before any of
# them runs; the command line bounds its width-like arguments by it too.
MAX_WIDTH = 1000

_TOP_KEYS = {"schema_version", "c", "summands", "generators", "category",
             "mode", "asserted_groebner"}


def _fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


def _as_object(val, path, allowed):
    if not isinstance(val, dict):
        _fail(path, f"expected an object, got {type(val).__name__}")
    unknown = set(val) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    return val


def _as_list(val, path):
    if not isinstance(val, list):
        _fail(path, f"expected a list, got {type(val).__name__}")
    return val


def _as_int(val, path, lo=None, hi=None):
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(path, f"expected an integer, got {type(val).__name__}")
    if lo is not None and val < lo:
        _fail(path, f"must be at least {lo}")
    if hi is not None and val > hi:
        _fail(path, f"must be at most {hi}")
    return val


def _require(obj, key, path):
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key]


def _parse_pi(obj, path, d, width):
    pi = _as_list(obj.get("pi", []), f"{path}.pi")
    for k, v in enumerate(pi):
        _as_int(v, f"{path}.pi[{k}]", 1, width)
    if len(pi) != d:
        _fail(f"{path}.pi", f"needs {d} entries for this summand, got {len(pi)}")
    if any(a >= b for a, b in zip(pi, pi[1:])):
        _fail(f"{path}.pi", "entries must be strictly increasing")
    return tuple(pi)


def _parse_exponents(obj, path, c, width):
    if "exponents" not in obj:
        return ((0,) * c,) * width
    cols = _as_list(obj["exponents"], f"{path}.exponents")
    if len(cols) != width:
        _fail(f"{path}.exponents", f"needs {width} columns, got {len(cols)}")
    out = []
    for j, col in enumerate(cols):
        col = _as_list(col, f"{path}.exponents[{j}]")
        if len(col) != c:
            _fail(f"{path}.exponents[{j}]",
                  f"needs {c} row entries, got {len(col)}")
        out.append(tuple(
            _as_int(v, f"{path}.exponents[{j}][{i}]", 0)
            for i, v in enumerate(col)))
    return tuple(out)


def _parse_monomial(obj, path, c, summands):
    obj = _as_object(obj, path, {"summand", "width", "pi", "exponents"})
    summand = _as_int(obj.get("summand", 0), f"{path}.summand", 0,
                      len(summands) - 1)
    width = _as_int(_require(obj, "width", path), f"{path}.width", 0,
                    MAX_WIDTH)
    d = summands[summand][0]
    pi = _parse_pi(obj, path, d, width)
    cols = _parse_exponents(obj, path, c, width)
    return Monomial(c, width, cols, pi, summand)


def _parse_element(obj, path, c, summands):
    obj = _as_object(obj, path, {"summand", "width", "terms"})
    summand = _as_int(obj.get("summand", 0), f"{path}.summand", 0,
                      len(summands) - 1)
    width = _as_int(_require(obj, "width", path), f"{path}.width", 0,
                    MAX_WIDTH)
    d = summands[summand][0]
    terms = _as_list(_require(obj, "terms", path), f"{path}.terms")
    parsed = []
    for k, term in enumerate(terms):
        tp = f"{path}.terms[{k}]"
        term = _as_object(term, tp, {"coeff", "pi", "exponents"})
        coeff = _as_int(_require(term, "coeff", tp), f"{tp}.coeff")
        pi = _parse_pi(term, tp, d, width)
        cols = _parse_exponents(term, tp, c, width)
        parsed.append((coeff, Monomial(c, width, cols, pi, summand)))
    live = [m for coeff, m in parsed if coeff]
    # the series is defined for graded modules only
    degrees = sorted({m.degree for m in live})
    if len(degrees) > 1:
        _fail(f"{path}.terms",
              f"terms must share one total degree, got degrees {degrees}")
    if not live:
        _fail(path, "element has no nonzero term")
    return max(live, key=order_key)


class InputDocument(namedtuple("InputDocument",
                               "presentation quotient groebner_leads")):
    """Parsed document: the presentation as written, before symmetrizing
    or replacing asserted elements by their leading monomials."""

    __slots__ = ()

    def effective_presentation(self):
        """The monomial OI presentation the engines run on."""
        p = self.presentation
        if self.groebner_leads:
            p = ModulePresentation(
                p.c, p.summands, p.generators + self.groebner_leads,
                p.category)
        if p.category == "FI":
            p = symmetrize_fi_ideal(p)
        return p


def parse_document(obj):
    obj = _as_object(obj, "$", _TOP_KEYS)
    version = _as_int(_require(obj, "schema_version", "$"),
                      "$.schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version",
              f"unsupported version {version}, expected {SCHEMA_VERSION}")
    c = _as_int(_require(obj, "c", "$"), "$.c", 1, MAX_WIDTH)

    raw_summands = _as_list(_require(obj, "summands", "$"), "$.summands")
    if not raw_summands:
        _fail("$.summands", "at least one summand is required")
    summands = []
    for k, sm in enumerate(raw_summands):
        path = f"$.summands[{k}]"
        sm = _as_object(sm, path, {"d", "shift"})
        summands.append((_as_int(_require(sm, "d", path), f"{path}.d", 0,
                                 MAX_WIDTH),
                         _as_int(sm.get("shift", 0), f"{path}.shift")))

    category = obj.get("category", "OI")
    if category not in ("OI", "FI"):
        _fail("$.category", f"expected 'OI' or 'FI', got {category!r}")
    if category == "FI" and any(d != 0 for d, _ in summands):
        _fail("$.category", "FI documents require every summand to have d = 0")

    mode = obj.get("mode", "quotient")
    if mode not in ("quotient", "submodule"):
        _fail("$.mode", f"expected 'quotient' or 'submodule', got {mode!r}")

    gens = [
        _parse_monomial(g, f"$.generators[{k}]", c, summands)
        for k, g in enumerate(_as_list(obj.get("generators", []),
                                       "$.generators"))
    ]
    leads = tuple(
        _parse_element(el, f"$.asserted_groebner[{k}]", c, summands)
        for k, el in enumerate(_as_list(obj.get("asserted_groebner", []),
                                        "$.asserted_groebner"))
    )
    return InputDocument(
        ModulePresentation(c, summands, gens, category),
        mode == "quotient", leads)


def load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return parse_document(obj)


def monomial_to_obj(m):
    """Schema-shaped dict for a monomial, reusable as document input."""
    out = {"summand": m.summand, "width": m.width,
           "exponents": [list(col) for col in m.cols]}
    if m.pi:
        out["pi"] = list(m.pi)
    return out
