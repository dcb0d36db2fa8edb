#!/usr/bin/env python3
"""Benchmark of the knwznw toolkit: three cold-start workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).

Workloads (see workloads.py for the jobs and their exact checks):

  kn-tables    duality grid plus A/L/gamma/chi grading reports at three
               seeded rational points; basis, ratfield and kernel layers.
  wznw-blocks  coinvariant dimension, KZ matrices and flatness for every
               admissible sl2 weight triple, plus Sugawara audits; module,
               affine, Sugawara and KZ layers.
  verify-all   ``knwznw verify --suite all`` through ``cli.main``.

Every run happens in fresh interpreters (this script imports nothing from
knwznw) with PYTHONHASHSEED=0 and KNWZNW_THREADS=1.  The job list is a
fixed function of workload, seed and --seconds: --seconds sets how much
work a run does (about that long on the reference machine), never when it
stops, so run_s is time to solution for a fixed amount of work.

Times are reported in reference seconds: a wall time is multiplied by
PROBE_NOMINAL_S over the harmonic mean time of the probe loop that a
thread of the worker ran every 20 ms meanwhile (worker.HostSpeed).  On a
shared host that switches between a fast and a slow state every few
seconds this cancels the speed-up or slow-down that job and probe see
alike; the wall times are kept in the metadata (``wall``).

--trace 0 prints the end-to-end metrics: run_s (sum of the job times),
job_s.p50, job_s.tail (nearest-rank 90th percentile of the job times; the
rank and job count are in the metadata), setup_s (median over several
fresh interpreters, each scaled by the probes taken during it) and
peak_rss_mb.  --trace 1 runs the same jobs untraced and then traced,
back to back in two fresh interpreters, prints the per-layer metrics of
the traced run (layertrace.py) and states the tracing overhead, traced
run_s minus untraced run_s.  The last stdout line is the JSON result; the line
before it holds the run metadata.  Full results and span traces go to
.bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("kn-tables", "wznw-blocks", "verify-all")
SETUP_PROBES = 5
DEADLINE_S = 175.0
TAIL_PERCENTILE = 90
# the probe's time in the slow state of a 2-core x86-64 VM under CPython
# 3.11, so that reference seconds read as wall seconds there
PROBE_NOMINAL_S = 1e-4


class BenchError(Exception):
    pass


def source_hash(root):
    """sha256 over the files under src/ (bytecode and build output aside),
    so that stored results never outlive the code that made them."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so", ".c")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["KNWZNW_THREADS"] = "1"
    return env


def _worker(root, env, args, deadline, extra=()):
    """Start worker.py in a fresh interpreter; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + list(extra)
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    env = dict(env, PERFBENCH_T0=repr(time.time()))
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting %s" % " ".join(extra))
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              timeout=left, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %.0f s" % DEADLINE_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def tail(times):
    """(seconds, rank, percentile) of the nearest-rank TAIL_PERCENTILE-th
    percentile of the job times.  A run holds 1 to 13 jobs, too few for
    a percentile with ten jobs beyond it, so one high-end rule serves every
    workload: the slowest job up to 9 jobs, the second slowest from 10 to
    19."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(1, math.ceil(n * TAIL_PERCENTILE / 100.0))
    return ordered[rank - 1], rank, 100.0 * rank / n


def scaled(wall_s, probe_s):
    """Wall seconds at the reference speed, given the mean probe time
    measured meanwhile."""
    return wall_s * PROBE_NOMINAL_S / probe_s


def _write(root, name, payload):
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def _summary(res):
    """(scaled job times, scaled run_s)."""
    times = [scaled(t, p) for t, p in zip(res["job_s"], res["job_probe_s"])]
    return times, sum(times)


def run(args, root):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(root, "src", "knwznw", "__init__.py")):
        raise BenchError("no knwznw sources under %s/src; run from the root "
                         "of a source checkout" % root)
    env = _env(root)
    src_hash = source_hash(root)

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(root, env, args, deadline,
                                  ["--setup-only"]))
        res = _worker(root, env, args, deadline)
        setups.append(res)
    else:
        base = _worker(root, env, args, deadline)
        trace_file = os.path.join(root, ".bench_out", "trace-%s-%d.json" % (
            args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        res = _worker(root, env, args, deadline,
                      ["--trace", "1", "--trace-file", trace_file])

    times, run_s = _summary(res)
    attempted = len(times)
    failed = len(res["failures"])
    tail_s, tail_rank, tail_pct = tail(times)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": res["backend"],
        "KNWZNW_PURE": os.environ.get("KNWZNW_PURE"),
        "KNWZNW_THREADS": env["KNWZNW_THREADS"],
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(root),
        "source_sha256": src_hash,
        "jobs": attempted,
        "job_s.tail": {"rank": tail_rank, "of": attempted,
                       "percentile": tail_pct,
                       "beyond": attempted - tail_rank},
        "failures": res["failures"][:5],
        "probe_nominal_s": PROBE_NOMINAL_S,
        "job_probe_s": res["job_probe_s"],
        "probes": res["probes"],
        "wall": {"run_s": sum(res["job_s"]),
                 "job_s.p50": statistics.median(res["job_s"]),
                 "job_s.tail": tail(res["job_s"])[0]},
    }
    if args.trace == 0:
        metrics = {
            "run_s": (run_s, "s"),
            "job_s.p50": (statistics.median(times), "s"),
            "job_s.tail": (tail_s, "s"),
            "setup_s": (statistics.median(
                scaled(p["setup_s"], p["setup_probe_s"]) for p in setups),
                "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        meta["fail_ratio"] = failed / attempted
        wall_setups = [p["setup_s"] for p in setups]
        meta["wall"]["setup_s"] = statistics.median(wall_setups)
        meta["wall"]["setup_s.samples"] = wall_setups
    else:
        base_run_s = _summary(base)[1]
        # a job that failed in either run counts
        failed = max(failed, len(base["failures"]))
        metrics = {k: (v, _unit(k)) for k, v in res["layers"].items()}
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        meta["tracing_overhead_s"] = run_s - base_run_s
        meta["tracing_overhead_ratio"] = (run_s - base_run_s) / base_run_s
        meta["untraced_run_s"] = base_run_s
        meta["traced_run_s"] = run_s
        meta["untraced_failures"] = base["failures"][:5]
        meta["missing_targets"] = res["missing"]
        meta["spans"] = res["spans"]
        meta["spans_dropped"] = res["spans_dropped"]
        meta["trace_file"] = os.path.relpath(trace_file, root)
    _write(root, "result-%s-%d-trace%d.json" % (args.workload, args.seed,
                                                args.trace),
           {"meta": meta, "metrics": metrics, "worker": res})
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first K jobs (for tests)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    try:
        result = run(args, root)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
