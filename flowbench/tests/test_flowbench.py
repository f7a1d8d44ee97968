"""Tests of the flow benchmark itself.

Run from the repository root::

    python3 -m pytest flowbench/tests -q

Each end-to-end test drives ``run.py --smoke`` (tiny designs, a
two-second window) in a subprocess, exactly as the benchmark is run
for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "2", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_matches_spec(metrics: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name
        assert set(m) == {"value", "unit"}


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert WORKLOADS == ["flow_synth", "service_mix"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = result(bench(workload))
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert_matches_spec(out["metrics"], "end_to_end")
    assert out["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    out = result(bench(workload, "--trace", "1"))
    assert out["correct"] is True and out["failed"] == 0
    assert_matches_spec(out["metrics"], "per_layer")
    values = {k: m["value"] for k, m in out["metrics"].items()}
    assert values["trace.ops"] >= 1
    assert values["trace.self_sum_s"] > 0
    if workload == "service_mix":
        assert values["service.jobs"] > 0
        assert values["service.job_cache_hit_rate"] == \
            values["service.planned_hit_rate"]
        assert values["orchestrate.journal_bytes"] > 0
    else:
        assert values["service.jobs"] == 0


@pytest.mark.parametrize("workload", ["flow_physical", "service_mix"])
def test_wrong_qor_is_counted_failed(workload):
    out = result(bench(workload, "--inject", "wrong-qor"))
    assert out["correct"] is False
    assert out["failed"] >= 1


@pytest.mark.parametrize("workload", ["flow_synth", "service_mix"])
def test_failed_job_is_counted_failed(workload):
    out = result(bench(workload, "--inject", "failed-job"))
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_fails_without_the_program():
    """With only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero and prints no result."""
    bare = ROOT / ".flowbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "flowbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("flow_synth", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_service_plan_shares_and_references():
    block = len(measure.SERVICE_BLOCK)
    jobs = measure.plan_client(3, 0, 5, (10, 20, 30, 40, 50))
    assert len(jobs) == 5 * block
    assert jobs[0].kind == jobs[1].kind == "fresh"
    for b in range(5):
        kinds = Counter(j.kind for j in jobs[b * block:(b + 1) * block])
        assert kinds == Counter(measure.SERVICE_BLOCK)
        # Every size gets two variants with 8 routing iterations in all.
        work = Counter()
        for j in jobs[b * block:(b + 1) * block]:
            if j.kind == "variant":
                work[j.gates] += j.iterations
        assert work == {g: 8 for g in (10, 20, 30, 40, 50)}
    executed = set()
    for job in jobs:
        key = (job.design, job.iterations)
        if job.kind == "repeat":
            assert key in executed     # only completed jobs are repeated
        else:
            assert key not in executed  # every executed job is a miss
            executed.add(key)
    sizes = Counter(j.gates for j in jobs if j.kind == "fresh")
    assert set(sizes.values()) == {5}
    assert measure.plan_client(3, 0, 5, (10, 20, 30, 40, 50)) == jobs
    assert measure.plan_client(4, 0, 5, (10, 20, 30, 40, 50)) != jobs


def test_self_times_add_up_to_the_root():
    t = tracing.Tracer()
    t.set_op("op")
    with t.span("run"):
        with t.span("stage.a"):
            with t.span("kernel"):
                pass
        with t.span("stage.b"):
            pass
    assert tracing.tree_errors(t.spans) == []
    root = next(s for s in t.spans if s["name"] == "run")
    total = sum(tracing.self_times(t.spans).values())
    assert total == pytest.approx(tracing.duration(root), abs=1e-9)


def test_tree_errors_flag_orphans():
    t = tracing.Tracer()
    with t.span("run"):
        pass
    orphan = dict(t.spans[0], id="x", parent="missing", name="stage.a")
    assert tracing.tree_errors(t.spans + [orphan])


def test_wrap_and_uninstall_restore_attributes():
    class Box:
        def f(self, x):
            return x + 1

        @classmethod
        def g(cls, x):
            return x * 2

    f, g = Box.__dict__["f"], Box.__dict__["g"]
    t = tracing.Tracer()
    t.wrap(Box, "f", "box.f", lambda a, k, r: {"out": r})
    t.wrap(Box, "g", "box.g")
    assert Box().f(1) == 2 and Box.g(3) == 6
    assert [s["name"] for s in t.spans] == ["box.f", "box.g"]
    assert t.spans[0]["attrs"] == {"out": 2}
    t.uninstall()
    assert Box.__dict__["f"] is f and Box.__dict__["g"] is g
