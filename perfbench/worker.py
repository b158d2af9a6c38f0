"""One benchmark worker: sets a workload up, then runs its timed phase.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

The worker writes its documents under WORKDIR, makes one warm-up call,
prints READY and waits for one line on standard input.  On EXIT it ends;
on GO it runs its timed phase and prints one JSON line with every
command's status, time and output.  In-process workloads run the corpus
prefix chosen for SECONDS (see workloads.py); cli-shipped runs whole
passes over the shipped inputs until SECONDS have passed.
In-process workloads call `cli.main` here, so the package's caches start
empty in each worker and fill only across its own documents; cli-shipped
starts a fresh `python -m oihilbert.cli` process per command.
"""

import contextlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback

import measure
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# no command starts after this many seconds of the timed phase, so a
# much slower commit still finishes well inside a run's time limit
TIMED_CAP_S = 60.0

# small quotient whose shape report imports sympy, outside every corpus
WARM_UP_DOC = {
    "schema_version": 1, "c": 1, "summands": [{"d": 0, "shift": 0}],
    "generators": [{"summand": 0, "width": 1, "exponents": [[3]]}],
}


class DeadlineExceeded(BaseException):
    """Raised by the alarm into a command that ran past its deadline.
    A BaseException, so no handler of the package swallows it."""


class Result:
    __slots__ = ("status", "seconds", "stdout", "stderr")

    def __init__(self, status, seconds, stdout, stderr):
        self.status = status
        self.seconds = seconds
        self.stdout = stdout
        self.stderr = stderr


def _write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _warm_up_argv(workdir):
    path = os.path.join(workdir, "warm_up.json")
    _write_doc(path, WARM_UP_DOC)
    return ["hilbert", path]


class InProcess:
    """Runs commands through `cli.main` with a per-command alarm."""

    def __init__(self, deadline_s):
        from oihilbert import cli

        self.main = cli.main
        self.deadline_s = deadline_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.armed:
            raise DeadlineExceeded

    def warm_up(self, workdir):
        return self.run(_warm_up_argv(workdir))

    def run(self, argv, doc_id=None):
        out, err = io.StringIO(), io.StringIO()
        status = "ok"
        start = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
            self.armed = False
            if code != 0:
                status = f"exit {code}"
        except DeadlineExceeded:
            self.armed = False
            status = "deadline"
        except SystemExit as exc:
            self.armed = False
            status = f"exit {exc.code}"
        except Exception:
            self.armed = False
            status = "traceback"
            err.write(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        return Result(status, seconds, out.getvalue(), err.getvalue())


class FreshProcess:
    """Runs each command as `python -m oihilbert.cli` in its own process,
    or through traced_cli.py when spans are wanted."""

    def __init__(self, deadline_s, workdir, traced):
        self.deadline_s = deadline_s
        self.workdir = workdir
        self.traced = traced
        self.dumps = []

    def warm_up(self, workdir):
        return self.run(_warm_up_argv(workdir), None)

    def run(self, argv, doc_id):
        if self.traced and doc_id is not None:
            span_file = os.path.join(self.workdir, "spans.json")
            prefix = [os.path.join(HERE, "traced_cli.py"), span_file, doc_id]
        else:
            span_file = None
            prefix = ["-m", "oihilbert.cli"]
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable] + prefix + argv,
                                  capture_output=True, text=True,
                                  timeout=self.deadline_s)
        except subprocess.TimeoutExpired as exc:
            return Result("deadline", time.perf_counter() - start,
                          "", str(exc.stderr or ""))
        seconds = time.perf_counter() - start
        status = "ok"
        if "Traceback (most recent call last)" in proc.stderr:
            status = "traceback"
        elif proc.returncode != 0:
            status = f"exit {proc.returncode}"
        if span_file is not None:
            with open(span_file, encoding="utf-8") as fh:
                self.dumps.append(json.load(fh))
            os.remove(span_file)
        return Result(status, seconds, proc.stdout, proc.stderr)


def _in_process_plan(wl, seed, seconds, workdir):
    """One block of (document id, path, command index) covering the run's
    corpus prefix, every document written; and whether the corpus ran
    out."""
    docdir = os.path.join(workdir, "docs")
    os.makedirs(docdir, exist_ok=True)
    docs, short = workloads.schedule(
        workloads.load_corpus(wl.name), seed, seconds)
    block = []
    for doc_id, doc in docs:
        path = os.path.join(docdir, doc_id + ".json")
        _write_doc(path, doc)
        block.extend((doc_id, path, k) for k in range(len(wl.commands)))
    return [block], short


def _shipped_passes(wl, seed):
    """Endless passes over the shipped inputs, command order shuffled."""
    rng = random.Random(seed)
    inputs = sorted(f for f in os.listdir("inputs") if f.endswith(".json"))
    while True:
        cmds = [(f, os.path.join("inputs", f), k)
                for f in inputs for k in range(len(wl.commands))]
        rng.shuffle(cmds)
        yield cmds


def _timed_phase(wl, runner, blocks, seconds, rec):
    """Whole blocks until `seconds` have passed, and no command started
    after TIMED_CAP_S; one record and one speed probe per command."""
    records = []
    probes = []
    capped = False
    start = time.perf_counter()
    for block in blocks:
        for doc_id, path, cmd in block:
            if time.perf_counter() - start >= TIMED_CAP_S:
                capped = True
                break
            argv = wl.argv(path)[cmd]
            if rec is None:
                res = runner.run(argv, doc_id)
            else:
                rec.doc = doc_id
                rec.begin(spans.ROOT)
                try:
                    res = runner.run(argv, doc_id)
                finally:
                    rec.end_all()
            probes.append(measure.probe())
            records.append([doc_id, cmd, res.status, res.seconds,
                            res.stdout if res.status == "ok"
                            else res.stderr[-2000:]])
        if capped or time.perf_counter() - start >= seconds:
            break
    return records, probes, time.perf_counter() - start, capped


def main(argv):
    name, seed, seconds, traced, workdir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
    wl = workloads.WORKLOADS[name]
    rec = None
    if wl.in_process:
        runner = InProcess(wl.deadline_s)
        if traced:
            rec = spans.Recorder()
            spans.install(rec)
        blocks, short = _in_process_plan(wl, seed, seconds, workdir)
    else:
        runner = FreshProcess(wl.deadline_s, workdir, traced)
        blocks, short = _shipped_passes(wl, seed), False
    warm = runner.warm_up(workdir)
    if warm.status != "ok":
        print(f"warm-up call failed: {warm.status}\n{warm.stderr}",
              file=sys.stderr)
        return 3
    if rec is not None:
        rec.reset()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    records, probes, elapsed, capped = _timed_phase(
        wl, runner, blocks, seconds, rec)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result = {
        "records": records,
        "probes": probes,
        "elapsed": elapsed,
        "corpus_short": short,
        "capped": capped,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if traced:
        result["trace"] = (rec.dump() if rec is not None
                           else spans.merge(runner.dumps))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
