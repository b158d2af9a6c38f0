"""Workload definitions and their seeded input documents.

Each in-process workload runs a fixed corpus, `corpus/<workload>.json`,
drawn once by `make_corpus.py` from CORPUS_SEED and timed at the commit
that drew it.  A run takes the shortest prefix of the corpus, in draw
order, whose recorded time reaches `--seconds`, so every commit measures
the same documents and a faster commit simply finishes sooner.

The `--seed` of a run shuffles the order of the prefix, which decides
what the package's caches hold when each document arrives.  Documents
are not relabelled per seed: renumbering rows or generators leaves the
series unchanged but renumbers the automata, and that alone moves one
document's solve time by up to 2x, which would swamp the differences the
benchmark has to resolve.

Documents are written as schema-version-1 JSON, the form a user hands to
`oih`; their shapes follow the seeded corpora in `tests/corpus.py`.
"""

import json
import os
import random

CORPUS_SEED = 2006

# side of the (n, j) window every output series is checked on
CHECK_WINDOW = 6

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """How one workload turns a document into commands.

    argv(path) gives the `oih` argument lists run on one document, in
    order; deadline_s bounds each command; in_process says whether the
    commands run through `cli.main` inside the worker or each in a fresh
    `python -m oihilbert.cli` process.
    """

    def __init__(self, name, commands, deadline_s, in_process):
        self.name = name
        self.commands = commands
        self.deadline_s = deadline_s
        self.in_process = in_process

    def argv(self, path):
        return [list(cmd) + [path] for cmd in self.commands]


WORKLOADS = {
    w.name: w for w in (
        Workload("cli-shipped",
                 (("hilbert",), ("analyze",), ("oracle", "-N", "5", "-J", "5")),
                 deadline_s=30.0, in_process=False),
        Workload("solve-heavy", (("hilbert", "--json"),),
                 deadline_s=1.0, in_process=True),
        Workload("oracle-analyze",
                 (("oracle", "-N", "11", "-J", "11"), ("analyze", "--json")),
                 deadline_s=30.0, in_process=True),
    )
}


def _monomial(rng, c, width, d, summand, max_deg):
    pi = sorted(rng.sample(range(1, width + 1), d))
    cols = [[0] * c for _ in range(width)]
    for _ in range(rng.randint(0, max_deg)):
        cols[rng.randrange(width)][rng.randrange(c)] += 1
    out = {"summand": summand, "width": width, "exponents": cols}
    if pi:
        out["pi"] = pi
    return out


def _document(c, summands, gens):
    return {
        "schema_version": 1,
        "c": c,
        "summands": [{"d": d, "shift": sh} for d, sh in summands],
        "generators": gens,
        "mode": "quotient",
    }


def solve_heavy_doc(rng):
    """Single unshifted summand, c=2, d in {1,2}, 2-4 generators of
    width <= 4 and degree <= 4."""
    c, d = 2, rng.randint(1, 2)
    gens = [_monomial(rng, c, rng.randint(d, 4), d, 0, 4)
            for _ in range(rng.randint(2, 4))]
    return _document(c, [(d, 0)], gens)


def oracle_analyze_doc(rng):
    """Shaped like tests/corpus.random_presentation: c 1-2, up to two
    summands with shifts 0-2, <= 3 generators of width <= 3, degree <= 3."""
    c = rng.randint(1, 2)
    summands = [(rng.randint(0, 2), rng.choice((0, 1, 2)))
                for _ in range(rng.randint(1, 2))]
    gens = []
    for _ in range(rng.randint(0, 3)):
        idx = rng.randrange(len(summands))
        d = summands[idx][0]
        gens.append(_monomial(rng, c, rng.randint(max(d, 1), 3), d, idx, 3))
    return _document(c, summands, gens)


DRAWS = {"solve-heavy": solve_heavy_doc, "oracle-analyze": oracle_analyze_doc}


def doc_stream(seed, make):
    """Endless seeded stream of documents drawn by make(rng)."""
    rng = random.Random(seed)
    while True:
        yield make(rng)


def corpus_path(name):
    return os.path.join(HERE, "corpus", name + ".json")


def load_corpus(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def schedule(corpus, seed, seconds):
    """(document id, document) pairs for one run, in seeded order, and
    whether the corpus ran out before its recorded time reached
    `seconds`."""
    prefix = []
    recorded = 0.0
    for entry in corpus["docs"]:
        if recorded >= seconds:
            break
        prefix.append(entry)
        recorded += sum(entry["baseline_s"])
    random.Random(seed).shuffle(prefix)
    return [(e["id"], e["doc"]) for e in prefix], recorded < seconds
