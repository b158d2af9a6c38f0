"""Pinned command outputs: the sha256 of exit code plus stdout of every
shipped input under five command forms and of 40 seeded random
presentations under two.  A change that claims byte-identical outputs
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

from corpus import random_presentation

HERE = Path(__file__).resolve().parent
INPUTS = HERE.parent / "inputs"
TABLE = HERE / "golden_outputs.json"

SHIPPED_COMMANDS = (
    ("hilbert",), ("hilbert", "--reduce", "--json"), ("analyze", "--json"),
    ("expand", "-N", "6", "-J", "6", "--json"),
    ("oracle", "-N", "11", "-J", "11"))
RANDOM_COMMANDS = (("hilbert", "--json"), ("analyze", "--json"))


def _random_documents(count=40, seed=20261019):
    rng = random.Random(seed)
    for k in range(count):
        p = random_presentation(rng)
        yield f"random-{k:02d}", {
            "schema_version": 1, "c": p.c,
            "summands": [{"d": d, "shift": sh} for d, sh in p.summands],
            "generators": [monomial_to_obj(g) for g in p.generators],
            "mode": "quotient"}


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
    for name, doc in _random_documents():
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in RANDOM_COMMANDS:
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
