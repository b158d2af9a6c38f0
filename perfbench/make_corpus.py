"""Draw the fixed corpus of an in-process workload and store it with its
notes: per document the minimal-DFA sizes, the time (at nominal machine
speed, see measure.py) and status of its commands at the commit that
drew it, and the width-wise reference table the benchmark checks outputs
against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_corpus.py solve-heavy 200

draws 200 documents and keeps every one, in draw order.
"""

import json
import os
import subprocess
import sys
import time

import check
import measure
import workloads
import worker


def _min_states(doc):
    from oihilbert.automata import module_dfa
    from oihilbert.schema import parse_document

    p = parse_document(doc).effective_presentation()
    return [module_dfa(p.c, d, [g for g in p.generators if g.summand == k]).n
            for k, (d, _) in enumerate(p.summands)]


def main(argv):
    name, count = argv[0], int(argv[1])
    wl = workloads.WORKLOADS[name]
    draw = workloads.doc_stream(workloads.CORPUS_SEED, workloads.DRAWS[name])
    workdir = os.path.join(".bench_build", "make_corpus")
    os.makedirs(workdir, exist_ok=True)
    runner = worker.InProcess(wl.deadline_s)
    runner.warm_up(workdir)
    entries = []
    probes = []
    for k in range(count):
        doc = next(draw)
        path = os.path.join(workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        runs = []
        for argv in wl.argv(path):
            runs.append(runner.run(argv))
            probes.append(measure.probe())
        entry = {
            "id": f"{name}-{k:03d}",
            "doc": doc,
            "min_states": _min_states(doc),
            "baseline_s": [r.seconds for r in runs],
            "baseline_status": [r.status for r in runs],
            "ref": check.reference_table(doc, workloads.CHECK_WINDOW),
        }
        entries.append(entry)
        print(entry["id"], entry["min_states"], entry["baseline_s"],
              entry["baseline_status"], flush=True)
    speed = measure.scale(probes)
    for e in entries:
        e["baseline_s"] = [round(measure.nominal(t, r, speed), 4) for t, r
                           in zip(e["baseline_s"], e["baseline_status"])]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    corpus = {
        "workload": name,
        "corpus_seed": workloads.CORPUS_SEED,
        "drawn_at_commit": commit,
        "drawn_on": time.strftime("%Y-%m-%d"),
        "check_window": workloads.CHECK_WINDOW,
        "docs": entries,
    }
    with open(workloads.corpus_path(name), "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")
    print("recorded seconds:", round(sum(sum(e["baseline_s"]) for e in entries), 2))


if __name__ == "__main__":
    main(sys.argv[1:])
