"""Run one `oih` command with layer spans and write them out as JSON.

    python perfbench/traced_cli.py SPANS_JSON DOC_ID oih-arguments...

The traced form of `python -m oihilbert.cli`, used by the cli-shipped
workload's traced run.
"""

import json
import sys

import spans
from oihilbert import cli


def main(argv):
    out_path, doc_id, args = argv[0], argv[1], argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.doc = doc_id
    rec.begin(spans.ROOT)
    try:
        return cli.main(args)
    finally:
        rec.end_all()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
