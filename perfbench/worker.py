"""One measured run in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 [--setup-only] [--limit K]

Imports ``knwznw`` from ``DIR/src``, builds the seeded job list, runs it
once (traced or not) and prints one JSON object on its last stdout line.
``PERFBENCH_T0`` (epoch seconds, set by the parent right before it
started this process) is the origin of ``setup_s``.

While the worker runs, a daemon thread times a short fixed loop
(``probe``: stdlib only, nothing from knwznw) every PROBE_PERIOD_S, on the
same CPU as the jobs.  A shared host can switch between a fast and a
slow state every few seconds (on a 2-core x86-64 VM one job took 0.6 s or
1.0 s); the probe's time follows that state, so the mean probe time
during a job (``job_probe_s``) and during set-up (``setup_probe_s``) lets
run.py express times at one reference speed.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time

PROBE_PERIOD_S = 0.02
PROBE_PAD_S = 0.25
PROBE_MIN = 5


def _digest_path(root, backend):
    # verify's stdout names the kernel backend, so one source tree has one
    # reference per backend
    from run import source_hash
    return os.path.join(root, ".bench_out", "verify-all-%s-%s.sha256" % (
        source_hash(root)[:16], backend))


def reference_digest(root, backend):
    """stdout hash of the first verify-all run of this source tree and
    kernel backend."""
    try:
        with open(_digest_path(root, backend)) as fh:
            return fh.read().strip() or None
    except FileNotFoundError:
        return None


def store_digest(root, backend, digest):
    path = _digest_path(root, backend)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(digest + "\n")


def probe():
    """One pass of a fixed pure-Python loop (big-integer arithmetic and
    dict stores), about 0.1 ms."""
    acc = 0
    table = {}
    for i in range(1, 400):
        acc += (i * 1234567891011) % 10007
        table[i % 37] = acc
    return acc


class HostSpeed:
    """Times ``probe`` every PROBE_PERIOD_S on a daemon thread."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def _run(self):
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            t = clock()
            probe()
            self.samples.append((t, clock() - t))

    def stop(self):
        self._stop.set()
        self._thread.join()

    def probe_s(self, start, end, pad=PROBE_PAD_S):
        return window_probe_s(list(self.samples), start, end, pad)


def window_probe_s(samples, start, end, pad):
    """Harmonic mean of the probe times taken in [start - pad, end + pad],
    or of the PROBE_MIN samples nearest the middle of the interval when
    the window holds fewer.  Work done is wall time times speed, and speed
    is 1 / probe time, so the mean of 1 / probe time is the right average
    when the host changes state within the window; a stalled probe (a
    large time) adds almost nothing to it."""
    inside = [d for t, d in samples if start - pad <= t <= end + pad]
    if len(inside) < PROBE_MIN:
        mid = (start + end) / 2.0
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:PROBE_MIN]
        inside = [d for _, d in near]
    if not inside:
        raise ValueError("no probe samples")
    return statistics.harmonic_mean(inside)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fail(msg):
    sys.stderr.write("perfbench worker: %s\n" % msg)
    sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first K jobs (tests)")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    t0 = float(os.environ.get("PERFBENCH_T0", time.time()))
    # the probe thread must share the jobs' CPU to see its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed().start()
    src = os.path.realpath(os.path.join(args.root, "src"))
    try:
        import knwznw
    except ImportError as exc:
        _fail("cannot import knwznw from %s: %s" % (src, exc))
    here = os.path.realpath(os.path.dirname(knwznw.__file__))
    if os.path.commonpath([here, src]) != src:
        _fail("knwznw imported from %s, not from %s" % (here, src))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail("unknown workload %r" % args.workload)
    jobs = workloads.job_list(args.workload, args.seed, args.seconds)
    if args.limit is not None:
        jobs = jobs[:args.limit]
    import knwznw.cli  # noqa: F401  (every workload's modules, up front)
    setup_s = time.time() - t0
    setup_end = time.perf_counter()
    setup_probe_s = speed.probe_s(setup_end - setup_s, setup_end, pad=0.0)
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": setup_s,
                          "setup_probe_s": setup_probe_s}))
        return 0

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer(extra_namespaces=(workloads,)).install()

    times, spans, rss, failures = [], [], [], []
    reference = None
    if args.workload == "verify-all":
        reference = reference_digest(args.root, knwznw.BACKEND)
    for j, (kind, jargs) in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(j)
        t = time.perf_counter()
        detail = None
        try:
            digest = workloads.RUNNERS[kind](**jargs)
        except Exception as exc:  # a failing job is counted, not fatal
            digest, detail = None, "%s: %s" % (type(exc).__name__, exc)
        spans.append((t, time.perf_counter()))
        times.append(spans[-1][1] - t)
        rss.append(_rss_mb())
        if digest is not None:
            if reference is None:
                reference = digest
                store_digest(args.root, knwznw.BACKEND, digest)
            elif digest != reference:
                detail = "verify stdout differs from the first run's"
        if detail is not None:
            failures.append({"job": j, "kind": kind, "detail": detail})
        if tracer is not None:
            tracer.read_caches()
    speed.stop()

    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "job_s": times,
        "job_probe_s": [speed.probe_s(a, b) for a, b in spans],
        "probes": len(speed.samples),
        "failures": failures,
        "peak_rss_mb": _rss_mb(),
        "rss_mb_after_job": rss,
        "backend": knwznw.BACKEND,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["counts"] = tracer.counts()
        out["missing"] = tracer.missing
        out["spans"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"fields": ["id", "parent", "job", "name",
                                      "start", "end", "light"],
                           "spans": tracer.spans}, fh,
                          separators=(",", ":"))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
