"""Tests of the benchmark itself (not collected by the package's tier-1 run).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(workload, seed, limit, trace=1):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", "20",
           "--trace", str(trace), "--limit", str(limit)]
    proc = subprocess.run(cmd, env=run._env(ROOT), stdout=subprocess.PIPE,
                          timeout=300, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("weights,want", [
    ((1, 1), 1), ((1, 1, 1), 0), ((1, 1, 1, 1), 2), ((2, 1, 1, 2), 2),
    ((2, 2, 2), 1), ((0, 1, 1), 1), ((1, 1, 2), 1), ((0, 2), 0)])
def test_invariant_multiplicity(weights, want):
    assert workloads.invariant_multiplicity(weights) == want


def test_job_lists_are_seeded_and_fixed_by_seconds():
    for name in workloads.WORKLOADS:
        a = workloads.job_list(name, 7, 20)
        assert a == workloads.job_list(name, 7, 20)
        assert len(a) >= 1
    assert workloads.job_list("kn-tables", 7, 20) != \
        workloads.job_list("kn-tables", 8, 20)


def test_wznw_cycle_holds_every_triple_once():
    jobs = workloads.job_list("wznw-blocks", 3, 20)
    blocks = [a for kind, a in jobs if kind == "block"]
    assert sorted(a["weights"] for a in blocks) == \
        sorted(workloads.admissible_weights())
    levels = [a["level"] for a in blocks]
    assert levels.count(1) == levels.count(2)
    assert [k for k, _ in jobs][3::4] == ["audit"] * (len(jobs) // 4)
    for w in workloads.admissible_weights():
        assert workloads.invariant_multiplicity(w) > 0


def test_tail_is_the_high_end_at_every_job_count():
    assert run.tail([1.0]) == (1.0, 1, 100.0)
    # kn-tables: 7 jobs, the slowest
    assert run.tail([float(i) for i in range(7, 0, -1)]) == (7.0, 7, 100.0)
    # wznw-blocks: 13 jobs, the second slowest
    times = [float(i) for i in range(1, 14)]
    assert run.tail(times) == (12.0, 12, 100.0 * 12 / 13)


def test_probe_window_mean():
    # a host at full speed (probe 1.0) for half the window and at half
    # speed (probe 2.0) for the other half did 3/4 of full-speed work
    samples = [(0.1 * k, 1.0 if k < 30 else 2.0) for k in range(100)]
    # samples 20..40 lie in [2.5 - 0.5, 3.5 + 0.5]: 10 fast, 11 slow
    assert worker.window_probe_s(samples, 2.5, 3.5, 0.5) == pytest.approx(
        21 / (10 / 1.0 + 11 / 2.0))
    # a window with too few samples falls back to the nearest ones
    assert worker.window_probe_s(samples[:3], 50.0, 51.0, 0.1) == 1.0
    with pytest.raises(ValueError):
        worker.window_probe_s([], 0.0, 1.0, 0.1)
    assert run.scaled(2.0, 2 * run.PROBE_NOMINAL_S) == 1.0


@pytest.mark.parametrize("workload,seed", [("kn-tables", 5),
                                           ("wznw-blocks", 5)])
def test_traced_counts_repeat_and_match_caches(workload, seed):
    a = _worker(workload, seed, 1)
    b = _worker(workload, seed, 1)
    assert a["failures"] == [] and b["failures"] == []
    assert a["counts"] == b["counts"]
    assert a["missing"] == []
    c = a["counts"]
    assert c["basis.record.misses"] > 0
    assert c["basis.record.misses"] == c["cache.basis_entries"]


@pytest.fixture
def tracer():
    tr = layertrace.Tracer(extra_namespaces=(workloads,)).install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_binding_is_rebound_and_restored():
    import knwznw.basis
    import knwznw.verify
    orig = knwznw.basis.kn_basis_record
    suite = knwznw.verify.SUITES["basis"]
    tr = layertrace.Tracer().install()
    try:
        assert knwznw.verify.kn_basis_record is not orig
        assert knwznw.verify.kn_basis_record is knwznw.basis.kn_basis_record
        assert knwznw.verify.SUITES["basis"] is not suite
    finally:
        tr.uninstall()
    assert knwznw.verify.kn_basis_record is orig
    assert knwznw.basis.kn_basis_record is orig
    assert knwznw.verify.SUITES["basis"] is suite


def test_misses_equal_cache_entries_through_imported_names(tracer):
    # verify.py binds kn_basis_record by `from .basis import ...`; a
    # binding the tracer missed would leave cache entries uncounted
    import knwznw.verify
    tracer.begin_job(0)
    results = knwznw.verify.suite_basis(nrange=(1, 2), degree=2)
    assert all(r.passed for r in results)
    tracer.read_caches()
    c = tracer.counts()
    assert c["basis.record.misses"] > 0
    assert c["basis.record.misses"] == c["cache.basis_entries"]
    assert c["verify.checks"] == len(results)


def test_vanished_names_report_zero(monkeypatch):
    import knwznw.exactlinalg
    monkeypatch.delattr(knwznw.exactlinalg, "nullspace")
    extra = [layertrace._target("ratfield", "ratfield.gone",
                                "knwznw.ratfield:Poly.no_such_method", True),
             layertrace._target("kz", "kz.gone", "knwznw.no_such_module:f")]
    tr = layertrace.Tracer(targets=layertrace.default_targets() + extra)
    tr.install()
    try:
        tr.begin_job(0)
        kind, args = workloads.job_list("wznw-blocks", 1, 20)[3]
        workloads.RUNNERS[kind](**args)
        tr.read_caches()
    finally:
        tr.uninstall()
    assert "knwznw.exactlinalg:nullspace" in tr.missing
    assert "knwznw.ratfield:Poly.no_such_method" in tr.missing
    assert "knwznw.no_such_module:f" in tr.missing
    m = tr.metrics()
    assert m["exactlinalg.nullspace.calls"] == 0
    assert m["sugawara.apply_L.calls"] > 0


def test_metric_names_match_benchmark_json():
    bench = _benchmark()
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = set(layertrace.Tracer(targets=[]).metrics()) | {"fail_ratio"}
    assert names == set(per_layer)
    assert all(run._unit(n) == u for n, u in per_layer.items())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOAD_NAMES)


def test_untraced_run_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "kn-tables", "--seed", "3", "--seconds", "20", "--trace", "0",
         "--limit", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300, check=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    names = {m["name"] for m in _benchmark()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kn-tables",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
