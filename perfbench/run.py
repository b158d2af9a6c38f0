"""Benchmark of the `oih` pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package from `src/` and
needs nothing installed.  Workloads are defined in workloads.py and
described in README.md.  Each run starts fresh worker processes with a
pinned environment: PYTHONPATH=src, PYTHONHASHSEED=0 and no OIH_THREADS.

With --trace 0 the worker is set up three times (the median is setup_s)
and the last one runs the timed phase.  Times are scaled to nominal
machine speed by a probe run after every command (see measure.py).  With --trace 1 one untraced and
one traced worker each run half of the time on the same commands; the
traced one reports per-layer metrics and the ratio of the two is the
tracing overhead.  Every output is checked after the timed phase against
width-wise tables; a wrong output counts as a failed command.

Notes go to standard output and to `.bench_build/oih/notes/`; the last
line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import measure
import spans
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 3
TAIL_SAMPLES = 10
SPEED_PROBES = 40


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env.pop("OIH_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def _speed():
    return measure.scale([measure.probe() for _ in range(SPEED_PROBES)])


class Worker:
    """A worker process, timed from its start until it reports READY;
    setup_s is that time at nominal machine speed."""

    def __init__(self, workload, seed, seconds, traced, workdir):
        os.makedirs(workdir, exist_ok=True)
        speed = _speed()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), repr(seconds), "1" if traced else "0", workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_env(), cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = (time.perf_counter() - start) * speed
        if line.strip() != "READY":
            self.stop()
            raise BenchError(f"worker failed during set-up ({line.strip()!r})")

    def finish(self, command):
        """Send GO or EXIT; for GO return the worker's result."""
        out, _ = self.proc.communicate(command + "\n")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        if command == "GO":
            return json.loads(out.strip().splitlines()[-1])
        return None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _run_worker(workers, workload, seed, seconds, traced, workdir, go=True):
    w = Worker(workload, seed, seconds, traced, workdir)
    workers.append(w)
    return w.setup_s, w.finish("GO" if go else "EXIT")



def _import_seconds(workdir):
    """Cumulative import time, lazy imports included, of one cold
    `oih hilbert` (python -X importtime), at nominal machine speed."""
    path = os.path.join(workdir, "import_probe.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(worker.WARM_UP_DOC, fh)
    speed = _speed()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oihilbert.cli",
         "hilbert", path], capture_output=True, text=True, env=_env(),
        cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise BenchError("import probe failed")
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not name.startswith("  "):  # top level: one space after '|'
            total_us += int(cumulative)
    return total_us / 1e6 * speed


def _references(workload):
    """document id -> width-wise reference table."""
    if workload == "cli-shipped":
        refs = {}
        for name in sorted(os.listdir("inputs")):
            if name.endswith(".json"):
                with open(os.path.join("inputs", name), encoding="utf-8") as fh:
                    refs[name] = check.reference_table(
                        json.load(fh), workloads.CHECK_WINDOW)
        return refs
    corpus = workloads.load_corpus(workload)
    return {e["id"]: e["ref"] for e in corpus["docs"]}


def _judge(wl, records, refs):
    """Per record: (kind, series digest); kind is ok, wrong or a status."""
    seen = {}
    out = []
    for doc_id, cmd, status, seconds, text in records:
        argv = list(wl.commands[cmd])
        if status != "ok":
            out.append((status.split()[0], None))
            continue
        key = (doc_id, cmd, text)
        if key not in seen:
            ok, why = check.check_output(argv, text, refs[doc_id])
            series = None
            if ok and argv[0] != "oracle":
                series = hashlib.sha256(
                    check.rendered_series(argv, text).encode()).hexdigest()[:16]
            seen[key] = ("ok" if ok else "wrong", series, why)
        kind, series, why = seen[key]
        if kind == "wrong":
            print(f"# wrong output: {doc_id} {' '.join(argv)}: {why}")
        out.append((kind, series))
    return out


def _write_notes(args, records, probes, verdicts, corpus_notes):
    notes_dir = os.path.join(ROOT, ".bench_build", "oih", "notes")
    os.makedirs(notes_dir, exist_ok=True)
    path = os.path.join(
        notes_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    rows = []
    for (doc_id, cmd, status, seconds, _), probe, (kind, series) in zip(
            records, probes, verdicts):
        row = {"doc": doc_id, "command": cmd, "status": kind,
               "seconds": round(seconds, 6), "probe_s": round(probe, 6),
               "series_sha": series}
        row.update(corpus_notes.get(doc_id, {}))
        rows.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    return os.path.relpath(path, ROOT)


def _summarize(args, wl, result, refs):
    """Check outputs and print notes; return (correct, failed, outcome
    of each command)."""
    records = result["records"]
    verdicts = _judge(wl, records, refs)
    kinds = [k for k, _ in verdicts]
    counts = {k: kinds.count(k) for k in sorted(set(kinds))}
    corpus_notes = {}
    if wl.in_process:
        for e in workloads.load_corpus(args.workload)["docs"]:
            corpus_notes[e["id"]] = {"min_states": e["min_states"],
                                     "baseline_s": e["baseline_s"]}
    digest = hashlib.sha256(repr(sorted(
        {(r[0], r[1], v[1]) for r, v in zip(records, verdicts) if v[1]}
    )).encode()).hexdigest()[:16]
    print(f"# {args.workload} seed {args.seed}: {len(records)} commands in "
          f"{result['elapsed']:.3f} s; outcomes {counts}; "
          f"series digest {digest}")
    if result["corpus_short"]:
        print("# the corpus holds less recorded time than --seconds asks for")
    if result["capped"]:
        print("# the timed phase hit its cap; later commands were not run")
    notes = _write_notes(args, records, result["probes"], verdicts, corpus_notes)
    print(f"# per-command notes: {notes}")
    correct = not any(k in ("wrong", "traceback", "exit") for k in kinds)
    failed = sum(1 for k in kinds if k != "ok")
    return correct, failed, kinds


def _scaled_times(wl, result):
    """Command times at nominal machine speed, and the run's median scale."""
    times = measure.nominal_times(result["records"], result["probes"],
                                  local=wl.in_process)
    return times, measure.scale(result["probes"])


def _end_to_end(args, wl, result, setups, refs):
    correct, failed, kinds = _summarize(args, wl, result, refs)
    times, speed = _scaled_times(wl, result)
    n = len(times)
    p_tail = max(0.5, (n - TAIL_SAMPLES) / n)
    print(f"# times scaled to nominal machine speed, by {speed:.4f} on "
          f"the run's median (median probe "
          f"{statistics.median(result['probes']) * 1e3:.3f} ms)")
    print(f"# latency_tail_s is p{100 * p_tail:.1f} of {n} samples "
          f"({n - round(p_tail * n)} beyond it)")
    print(f"# setup runs (s, scaled): {[round(s, 4) for s in setups]}")
    metrics = {
        "latency_p50_s": (measure.quantile(times, 0.5), "s"),
        "latency_tail_s": (measure.quantile(times, p_tail), "s"),
        "cmds_per_s": (kinds.count("ok") / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return correct, n, failed, metrics


def _per_layer(args, wl, plain, traced, import_s, refs):
    correct, failed, _ = _summarize(args, wl, traced, refs)
    recs = traced["records"]
    k = min(len(plain["records"]), len(recs))
    same = all(a[:2] == b[:2] for a, b in zip(plain["records"][:k], recs[:k]))
    if not same:
        raise BenchError("traced and untraced runs ran different commands")
    plain_times, _ = _scaled_times(wl, plain)
    traced_times, speed = _scaled_times(wl, traced)
    base, with_spans = sum(plain_times[:k]), sum(traced_times[:k])
    print(f"# tracing overhead over the first {k} commands: "
          f"{with_spans:.3f} s traced, {base:.3f} s untraced (scaled)")
    layers = spans.layer_metrics(traced["trace"], len(recs),
                                 sum(r[3] for r in recs), speed)
    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update(layers)
    metrics["trace.overhead_frac"] = (with_spans / base - 1.0, "ratio")
    return correct, len(recs), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    needed = [os.path.join(SRC, "oihilbert", "cli.py")]
    if not wl.in_process:
        needed.append(os.path.join(ROOT, "inputs"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)  # for the width-wise reference tables
    workdir = os.path.join(ROOT, ".bench_build", "oih", f"run-{os.getpid()}")
    workers = []
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                setups.append(_run_worker(workers, args.workload, args.seed,
                                          args.seconds, False, workdir,
                                          go=False)[0])
            setup, result = _run_worker(workers, args.workload, args.seed,
                                        args.seconds, False, workdir)
            setups.append(setup)
            refs = _references(args.workload)
            correct, attempted, failed, metrics = _end_to_end(
                args, wl, result, setups, refs)
        else:
            half = args.seconds / 2
            _, plain = _run_worker(workers, args.workload, args.seed, half,
                                   False, workdir)
            _, traced = _run_worker(workers, args.workload, args.seed, half,
                                    True, workdir)
            import_s = statistics.median(
                _import_seconds(workdir) for _ in range(3))
            refs = _references(args.workload)
            correct, attempted, failed, metrics = _per_layer(
                args, wl, plain, traced, import_s, refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
