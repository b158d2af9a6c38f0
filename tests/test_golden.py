"""Pinned command outputs: the sha256 of exit code plus stdout of every
shipped input under five command forms, of 40 seeded random
presentations under two, of `decompose --json` on 30 seeded random
single-summand documents at three column-1 exponent vectors each (zeros,
ones and a random one), and of `hilbert --json` on 20 seeded random FI
ideals.  A change that claims byte-identical outputs
must pass this test with `golden_outputs.json` as it is; a change that
alters rendered output on purpose rewrites the table in the same diff:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from oihilbert import cli
from oihilbert.schema import monomial_to_obj

from corpus import decompose_cases, random_ideal, random_presentation

HERE = Path(__file__).resolve().parent
INPUTS = HERE.parent / "inputs"
TABLE = HERE / "golden_outputs.json"

SHIPPED_COMMANDS = (
    ("hilbert",), ("hilbert", "--reduce", "--json"), ("analyze", "--json"),
    ("expand", "-N", "6", "-J", "6", "--json"),
    ("oracle", "-N", "11", "-J", "11"))
RANDOM_COMMANDS = (("hilbert", "--json"), ("analyze", "--json"))


def _document(p):
    return {"schema_version": 1, "c": p.c,
            "summands": [{"d": d, "shift": sh} for d, sh in p.summands],
            "generators": [monomial_to_obj(g) for g in p.generators],
            "category": p.category, "mode": "quotient"}


def _random_documents(count=40, seed=20261019):
    """(name, document, commands) triples over every seeded family."""
    rng = random.Random(seed)
    for k in range(count):
        yield f"random-{k:02d}", _document(random_presentation(rng)), \
            RANDOM_COMMANDS
    for k, (p, es) in enumerate(decompose_cases(random.Random(seed + 1))):
        yield f"decompose-{k:02d}", _document(p), tuple(
            ("decompose", "--e", ",".join(map(str, e)), "--json")
            for e in es)
    rng = random.Random(seed + 2)
    for k in range(20):
        p = random_ideal(rng, max_gens=4, max_width=4, category="FI")
        yield f"fi-{k:02d}", _document(p), (("hilbert", "--json"),)


def _digest(path, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command[0], str(path), *command[1:]])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def outputs(workdir):
    """{"<document> <command>": digest} over every pinned pair."""
    table = {}
    for path in sorted(INPUTS.glob("*.json")):
        for command in SHIPPED_COMMANDS:
            table[f"{path.name} {' '.join(command)}"] = _digest(path, command)
    for name, doc, commands in _random_documents():
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            table[f"{name} {' '.join(command)}"] = _digest(path, command)
    return table


def test_outputs_match_pinned_digests(tmp_path):
    want = json.loads(TABLE.read_text())
    got = outputs(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(outputs(tmp), indent=1, sort_keys=True)
                         + "\n")
    sys.exit(0)
