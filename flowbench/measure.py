"""One benchmark process: set up a workload, measure it, check it.

``run.py`` starts this script in a fresh interpreter.  The process
builds its inputs from ``--seed``, warms up, prints ``FLOWBENCH-READY``
(the parent times fresh-interpreter-to-ready as ``setup_s``), runs the
workload for ``--seconds``, checks every operation's output, and prints
``FLOWBENCH-RESULT <json>`` as its last line.  With ``--setup-only`` it
stops after the ready line.

Workloads (see README.md for why each exists):

* ``flow_physical`` -- whole passes of :func:`repro.orchestrate.run`
  over two 10k-gate registered clouds and a 32-bit multiplier.
* ``flow_synth`` -- whole passes over two 1,000-AND random AIGs, where
  synthesis is nearly all of each flow.
* ``service_mix`` -- one closed-loop client driving
  :class:`repro.service.FlowService` with a seeded mix of exact repeats,
  routing-knob variants and fresh designs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

WORKLOADS = ("flow_physical", "flow_synth", "service_mix")
QOR_FIELDS = ("hpwl_um", "overflow", "wirelength", "delay_ps", "power_uw",
              "area_um2")
STAGES = ("synthesis", "placement", "dft", "cts", "routing", "signoff")
ROUTE_PHASES = ("decompose", "expand", "commit", "negotiate", "emit")

#: Service job mix, as one block of 20 jobs that the client repeats in
#: a seeded order: exact repeats (job-cache reads), routing-knob
#: variants (stage-cache replays, routing re-executes) and fresh designs
#: (full flows).  Fixed counts per block keep the realised shares equal
#: across seeds.  With repeats fastest and fresh designs slowest, the
#: overall p50 falls in the middle of the variants and the p90 in the
#: middle of the fresh designs, not on a boundary between kinds.
SERVICE_BLOCK = ("repeat",) * 5 + ("variant",) * 10 + ("fresh",) * 5
#: Passes every flow run makes, whatever the window: the QoR of each
#: design is compared across passes.
MIN_PASSES = 2
#: The two routing iteration counts of one design's variants (the
#: default flow uses 4).  Both pairs add up to 8, so every design size
#: gets the same routing work per block whichever pair the seed picks.
VARIANT_PAIRS = ((2, 6), (3, 5))


@dataclass
class Sizes:
    """Design sizes; ``smoke`` shrinks every workload to seconds."""

    cloud: tuple = (64, 64, 10000)
    mult_width: int = 32
    warm_cloud: tuple = (64, 64, 10000)
    aig: tuple = (32, 1000, 32)
    aig_seeds: tuple = (1, 2)
    warm_aig: tuple = (32, 200, 32)
    # One block's fresh designs take these gate counts in seeded order.
    # Three of five share the middle size, so the service p50 (mid
    # variants) and p90 (mid fresh designs) fall inside one size class
    # rather than on the step between two.
    svc_gates: tuple = (1000, 1500, 1500, 1500, 2000)
    svc_io: int = 32
    svc_qor_designs: int = 20    # first fresh designs per client

    @staticmethod
    def smoke() -> "Sizes":
        return Sizes(cloud=(16, 16, 400), mult_width=6,
                     warm_cloud=(16, 16, 300), aig=(12, 120, 12),
                     warm_aig=(8, 40, 8),
                     svc_gates=(150, 200, 250, 300, 350),
                     svc_io=12, svc_qor_designs=1)


def subseeds(seed: int, n: int, salt: int = 0) -> list[int]:
    import numpy as np
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def qor_of(result) -> tuple:
    return (result.hpwl_um, result.overflow, result.routed_wirelength,
            result.delay_ps, result.power_uw, result.area_um2)


def qor_failures(result) -> list[str]:
    """Cheap per-result checks: status, finite QoR, every net routed."""
    bad = []
    if str(result.status) != "ok":
        bad.append(f"status {result.status}")
    if not all(math.isfinite(v) for v in qor_of(result)):
        bad.append("non-finite QoR")
    if result.routing is None or result.routing.failed:
        bad.append("unrouted nets")
    return bad


def deep_failures(result) -> list[str]:
    """Placement legality and a lint-clean post-flow netlist."""
    from repro.lint import lint_netlist
    bad = []
    try:
        result.placement.validate()
    except ValueError as err:
        bad.append(f"placement: {err}")
    errors = lint_netlist(result.netlist).errors
    if errors:
        bad.append(f"lint: {errors[0]}")
    return bad


def equivalence_failures(aig, netlist, seed: int) -> list[str]:
    """Mapped netlist vs its source AIG on seeded random vectors."""
    import numpy as np
    rng = np.random.default_rng(seed)
    vec = rng.integers(0, 2, size=(256, aig.num_inputs)).astype(bool)
    order = [aig.input_names.index(n) for n in netlist.primary_inputs]
    got = netlist.simulate(vec[:, order])
    want = aig.simulate(vec)
    if got.shape != want.shape or not np.array_equal(got, want):
        return ["mapped netlist differs from its AIG"]
    return []


# ----------------------------------------------------------------------
# Layer probes for the traced run.


def install_probes(tracer) -> None:
    """Wrap each layer's public functions where its caller resolves them."""
    import repro.dft.scan as scan
    import repro.lint as lint
    import repro.orchestrate.flows as flows
    import repro.place.analytic as analytic
    import repro.power.analysis as power
    import repro.route.global_route as global_route
    import repro.synthesis.flow as synth_flow
    import repro.synthesis.mapping as mapping
    import repro.synthesis.sizing as sizing
    import repro.timing.cts as cts
    from repro.netlist.aig import Aig
    from repro.netlist.packed import PackedNetlist
    from repro.orchestrate.cache import ResultCache
    from repro.orchestrate.resilience import RunJournal
    from repro.synthesis.network import LogicNetwork
    from repro.timing.incremental import IncrementalTimingAnalyzer

    def synth_attrs(args, kwargs, result):
        subject = args[0]["subject"]
        if not isinstance(subject, Aig):
            return {}
        return {"ands_in": subject.num_ands,
                "cells_out": result.num_instances()}

    def place_attrs(args, kwargs, result):
        return {"cells": len(result.positions),
                "hpwl_um": result.total_hpwl()}

    def route_attrs(args, kwargs, result):
        return {"nets": len(result.net_names),
                "failed_nets": len(result.failed),
                "phase_ms": dict(result.phase_ms)}

    for stage in STAGES:
        tracer.wrap(flows, f"stage_{stage}", f"stage.{stage}",
                    synth_attrs if stage == "synthesis" else None)
    tracer.wrap(LogicNetwork, "optimize", "synthesis.optimize")
    tracer.wrap(synth_flow, "optimize_aig", "synthesis.rewrite")
    tracer.wrap(mapping, "map_aig", "synthesis.map")
    tracer.wrap(sizing, "size_gates", "synthesis.sizing")
    tracer.wrap(analytic, "analytic_place", "place", place_attrs)
    tracer.wrap(scan, "reorder_chain", "dft.reorder")
    tracer.wrap(scan, "insert_scan", "dft.insert",
                lambda a, k, r: {"scan_flops":
                                 len(a[0].sequential_gates())})
    tracer.wrap(cts, "synthesize_clock_tree", "timing.cts",
                lambda a, k, r: {"sinks": len(r.sink_delays)})
    tracer.wrap(IncrementalTimingAnalyzer, "analyze", "timing.sta")
    tracer.wrap(power, "power_report", "power.report")
    tracer.wrap(global_route, "route_placement", "route", route_attrs)
    tracer.wrap(lint, "lint_flow", "lint.flow")
    tracer.wrap(lint, "lint_netlist", "lint.netlist")
    tracer.wrap(RunJournal, "record", "orchestrate.journal")
    tracer.wrap(ResultCache, "get", "orchestrate.cache_get",
                lambda a, k, r: {"hit": bool(r[0])})
    tracer.wrap(PackedNetlist, "to_bytes", "netlist.to_bytes",
                lambda a, k, r: {"bytes": len(r)})
    tracer.wrap(PackedNetlist, "from_buffer", "netlist.from_buffer")
    tracer.wrap(PackedNetlist, "content_digest", "netlist.digest")


def install_worker_probes(tracer, span_dir: Path) -> None:
    """Service-side probes: forked workers inherit all of these."""
    import repro.orchestrate as orchestrate
    import repro.service.scheduler as scheduler
    import repro.service.workers as workers

    original_execute = workers.execute_job
    original_run = orchestrate.run

    def execute_job(desc, state):
        tracer.set_op(desc["job_id"])
        with tracer.span("job"):
            return original_execute(desc, state)

    def run(*args, **kwargs):
        with tracer.span("run"):
            return original_run(*args, **kwargs)

    tracer.replace(workers, "execute_job", execute_job)
    tracer.replace(orchestrate, "run", run)
    tracer.replace(scheduler, "worker_main",
                   tracer.worker_entry(scheduler.worker_main, span_dir))


# ----------------------------------------------------------------------
# Per-layer metrics from spans.


def layer_metrics(spans: list[dict], n_ops: int) -> dict:
    """Per-operation means of each layer's span time and counters."""
    from tracing import duration
    by_id = {s["id"]: s for s in spans}
    total: dict = {}
    attrs: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    def under(rec, name):
        parent = by_id.get(rec["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    for rec in spans:
        name = rec["name"]
        add(name, duration(rec))
        for key, value in rec["attrs"].items():
            if key == "phase_ms":
                for phase, ms in value.items():
                    add(f"phase.{phase}", ms)
            elif key == "hit":
                add("cache.hits", float(value))
                add("cache.lookups", 1.0)
            else:
                attrs[(name, key)] = attrs.get((name, key), 0.0) + value
        if name == "timing.sta" and under(rec, "stage.signoff"):
            add("timing.sta_signoff", duration(rec))
    n = max(n_ops, 1)

    def mean(key):
        return total.get(key, 0.0) / n

    def mean_attr(name, key):
        return attrs.get((name, key), 0.0) / n

    lookups = total.get("cache.lookups", 0.0)
    out = {
        "synthesis.s": mean("stage.synthesis"),
        "synthesis.optimize_s": mean("synthesis.optimize"),
        "synthesis.rewrite_s": mean("synthesis.rewrite"),
        "synthesis.map_s": mean("synthesis.map"),
        "synthesis.sizing_s": mean("synthesis.sizing"),
        "synthesis.ands_in": mean_attr("stage.synthesis", "ands_in"),
        "synthesis.cells_out": mean_attr("stage.synthesis", "cells_out"),
        "place.s": mean("place"),
        "place.cells": mean_attr("place", "cells"),
        "place.hpwl_um": mean_attr("place", "hpwl_um"),
        "dft.s": mean("dft.reorder") + mean("dft.insert"),
        "dft.scan_flops": mean_attr("dft.insert", "scan_flops"),
        "timing.cts_s": mean("timing.cts"),
        "timing.cts_sinks": mean_attr("timing.cts", "sinks"),
        "timing.sta_s": mean("timing.sta_signoff"),
        "power.report_s": mean("power.report"),
        "signoff.s": mean("stage.signoff"),
        "route.s": mean("route"),
        "route.nets": mean_attr("route", "nets"),
        "route.failed_nets": attrs.get(("route", "failed_nets"), 0.0),
        "lint.s": mean("lint.flow") + mean("lint.netlist"),
        "orchestrate.cache_hit_rate":
            total.get("cache.hits", 0.0) / lookups if lookups else 0.0,
        "orchestrate.cache_lookups": lookups,
        "orchestrate.journal_s": mean("orchestrate.journal"),
        "netlist.pack_s": (mean("netlist.to_bytes")
                           + mean("netlist.from_buffer")
                           + mean("netlist.digest")),
        "netlist.pnl_bytes": mean_attr("netlist.to_bytes", "bytes"),
    }
    for phase in ROUTE_PHASES:
        out[f"route.{phase}_ms"] = mean(f"phase.route_{phase}")
    return out


def op_trees(spans: list[dict], root_name: str) -> dict:
    """Op id -> the span tree under that op's ``root_name`` span."""
    ops: dict = {}
    for rec in spans:
        if rec["op"] is not None:
            ops.setdefault(rec["op"], []).append(rec)
    trees = {}
    for op, recs in ops.items():
        roots = [r for r in recs if r["name"] == root_name]
        if len(roots) != 1:
            continue
        by_id = {r["id"]: r for r in recs}
        trees[op] = [r for r in recs if _descends(r, roots[0], by_id)]
    return trees


def _descends(rec, root, by_id) -> bool:
    while rec is not None:
        if rec is root:
            return True
        rec = by_id.get(rec["parent"])
    return False


def trace_checks(trees: dict, stage_runtimes: dict,
                 slack_s: float) -> tuple[dict, list]:
    """Cross-checks of the traced run.

    A wrapper-timed stage span must lie inside the flow's own
    ``FlowResult.stage_runtimes`` entry, which also times the executor's
    bookkeeping around the stage: span bookkeeping on every flow, plus
    cache-key hashing and the cache put when a stage cache is on
    (``slack_s``).  Each op's self times must add up to its ``run``
    span, whose self time is the orchestration overhead.
    """
    from tracing import duration, self_times, tree_errors
    failures = []
    worst = 0.0
    self_sum = overhead = 0.0
    for op, tree in trees.items():
        failures += [f"{op}: {e}" for e in tree_errors(tree)]
        run_span = next(r for r in tree if r["name"] == "run")
        selfs = self_times(tree)
        self_sum += sum(selfs.values())
        overhead += selfs[run_span["id"]]
        runtimes = stage_runtimes.get(op, {})
        for rec in tree:
            stage = rec["name"].removeprefix("stage.")
            if stage == rec["name"] or stage not in runtimes:
                continue
            gap = runtimes[stage] - duration(rec)
            worst = max(worst, abs(gap))
            if not -0.002 <= gap <= slack_s + 0.02 * runtimes[stage]:
                failures.append(f"{op}: {stage} span {duration(rec):.4f}s"
                                f" vs stage_runtimes {runtimes[stage]:.4f}s")
    n = max(len(trees), 1)
    return ({"orchestrate.overhead_s": overhead / n,
             "trace.self_sum_s": self_sum / n,
             "trace.stage_span_max_gap_s": worst,
             "trace.ops": float(len(trees))}, failures)


# ----------------------------------------------------------------------
# Flow workloads.


@dataclass
class FlowSample:
    design: str
    wall_s: float
    cpu_s: float
    qor: tuple = ()
    failures: list = field(default_factory=list)
    op: str = ""
    stage_runtimes: dict = field(default_factory=dict)


class FlowWorkload:
    """Whole passes of ``run()`` over a fixed, seed-generated design set."""

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        from repro.core import FlowOptions
        from repro.netlist import build_library
        from repro.netlist.generators import (multiplier, random_aig,
                                              registered_cloud)
        from repro.tech import get_node
        self.name = name
        self.seed = seed
        self.library = build_library(get_node("28nm"),
                                     vt_flavors=("lvt", "rvt", "hvt"))
        lib = self.library
        seeds = subseeds(seed, 3, salt=1)
        # Warm-up designs are the same for every seed, so setup_s times
        # the same work in every run.
        if name == "flow_physical":
            # The seed draws the two clouds; the multiplier is fixed.
            subjects = [
                (f"regcloud_{seeds[0]}",
                 registered_cloud(*sizes.cloud, lib, seed=seeds[0])),
                (f"regcloud_{seeds[1]}",
                 registered_cloud(*sizes.cloud, lib, seed=seeds[1])),
                (f"mult{sizes.mult_width}",
                 multiplier(sizes.mult_width, lib)),
            ]
            warm = registered_cloud(*sizes.warm_cloud, lib, seed=0)
        else:
            # Fixed AIG structures: synthesis time moves by ~20% between
            # random AIGs of one size, more than any run can average.
            # The seed drives the flow's own seed (placement, routing,
            # power patterns) instead.
            subjects = [(f"aig_{s}", random_aig(*sizes.aig, seed=s))
                        for s in sizes.aig_seeds]
            warm = random_aig(*sizes.warm_aig, seed=0)
        self.options = FlowOptions(scan=True, cts=True,
                                   seed=seeds[2] % 1000)
        self.designs = [(n, pickle.dumps(s)) for n, s in subjects]
        self.inject = None
        self._warm(warm)

    def _warm(self, subject) -> None:
        """One uncached flow of the same size class: first-placement
        BLAS and allocator warm-up happen here, not in the window."""
        from repro.orchestrate import run
        result = run(subject, self.library, self.options)
        if str(result.status) != "ok":
            raise RuntimeError(f"warm-up flow ended {result.status}")

    def one_flow(self, name: str, blob: bytes, tracer, op: str):
        from repro.orchestrate import run
        subject = pickle.loads(blob)
        source = pickle.loads(blob) if self.name == "flow_synth" else None
        sample = FlowSample(name, 0.0, 0.0, op=op)
        if tracer is not None:
            tracer.set_op(op)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("run"):
                    result = run(subject, self.library, self.options)
            else:
                result = run(subject, self.library, self.options)
        except Exception as err:  # noqa: BLE001 - counted as failed
            sample.wall_s = time.perf_counter() - t0
            sample.failures.append(f"run raised {err!r}")
            return sample
        finally:
            if tracer is not None:
                tracer.set_op(None)
        sample.wall_s = time.perf_counter() - t0
        sample.cpu_s = time.process_time() - cpu0
        sample.qor = qor_of(result)
        sample.stage_runtimes = dict(result.stage_runtimes)
        if self.inject == "wrong-qor":
            sample.qor = (sample.qor[0] * 1.01,) + sample.qor[1:]
            self.inject = None
        sample.failures += qor_failures(result) + deep_failures(result)
        if source is not None:
            sample.failures += equivalence_failures(
                source, result.netlist, self.seed)
        return sample

    def measure(self, seconds: float, tracer=None) -> dict:
        """Run whole passes until ``seconds`` have elapsed.

        With a tracer, passes alternate untraced / traced so the gap
        between the two is the tracing overhead.
        """
        passes: list[list[FlowSample]] = []
        traced_flags: list[bool] = []
        t_end = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                install_probes(tracer)
            try:
                passes.append([
                    self.one_flow(name, blob, tracer if traced else None,
                                  f"p{len(passes)}-{name}")
                    for name, blob in self.designs])
            finally:
                if traced:
                    tracer.uninstall()
            traced_flags.append(traced)
        return self._summarize(passes, traced_flags, tracer)

    def _summarize(self, passes, traced_flags, tracer) -> dict:
        # Each design's QoR must repeat exactly on every pass.
        for i, (name, _) in enumerate(self.designs):
            first = passes[0][i].qor
            for p in passes[1:]:
                if p[i].qor != first and not p[i].failures:
                    p[i].failures.append(f"{name}: QoR differs by pass")
        plain = [p for p, t in zip(passes, traced_flags) if not t]
        pass_means = [statistics.fmean(s.wall_s for s in p) for p in plain]
        walls = [s.wall_s for p in plain for s in p]
        qor = [sum(s.qor[k] for s in passes[0]) if all(
            s.qor for s in passes[0]) else math.nan
            for k in range(len(QOR_FIELDS))]
        out = {
            "end_to_end": {
                "flow_s": statistics.median(pass_means),
                "jobs_per_s": len(walls) / sum(walls),
                "job_p50_s": statistics.median(walls),
                "job_p90_s": _p90(walls),
                "cpu_per_flow_s": statistics.fmean(
                    s.cpu_s for p in plain for s in p),
                "peak_rss_mb": _own_rss_mb(),
                **{f"qor.{f}": v for f, v in zip(QOR_FIELDS, qor)},
            },
            "samples": {"passes": len(plain), "flows": len(walls),
                        "beyond_p90": _beyond_p90(walls)},
        }
        if tracer is not None:
            out["per_layer"] = self._layers(passes, traced_flags, tracer,
                                            pass_means)
        flows = [s for p in passes for s in p]
        out["attempted"] = len(flows)
        out["failed"] = sum(1 for s in flows if s.failures)
        out["failures"] = [f for s in flows for f in s.failures][:20]
        return out

    def _layers(self, passes, traced_flags, tracer, pass_means) -> dict:
        traced = [p for p, t in zip(passes, traced_flags) if t]
        samples = [s for p in traced for s in p]
        trees = op_trees(tracer.spans, "run")
        spans = [r for tree in trees.values() for r in tree]
        layers = layer_metrics(spans, len(samples))
        checks, failures = trace_checks(
            trees, {s.op: s.stage_runtimes for s in samples}, slack_s=0.01)
        if len(trees) != len(samples):
            failures.append(f"{len(trees)} span trees for "
                            f"{len(samples)} traced flows")
        for msg in failures:        # pin each on its pass's first flow
            samples[0].failures.append(f"trace: {msg}")
        traced_flow_s = statistics.median(
            statistics.fmean(s.wall_s for s in p) for p in traced)
        untraced_flow_s = statistics.median(pass_means)
        return {**layers, **checks, **_service_zeros(),
                "trace.flow_s": traced_flow_s,
                "trace.untraced_flow_s": untraced_flow_s,
                "trace.overhead_ratio": traced_flow_s / untraced_flow_s,
                "trace.spans": float(len(tracer.spans))}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _beyond_p90(values: list[float]) -> int:
    if len(values) < 2:
        return 0
    p90 = _p90(values)
    return sum(1 for v in values if v > p90)


def _own_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _service_zeros() -> dict:
    return {"service.queue_wait_s": 0.0, "service.exec_s": 0.0,
            "service.dispatch_s": 0.0, "service.job_cache_hit_rate": 0.0,
            "service.planned_hit_rate": 0.0, "service.jobs": 0.0,
            "service.submitted": 0.0, "service.coalesced": 0.0,
            "service.steals": 0.0, "service.respawns": 0.0,
            "orchestrate.journal_bytes": 0.0}


# ----------------------------------------------------------------------
# Service workload.


@dataclass
class PlannedJob:
    kind: str                  # repeat | variant | fresh
    design: int                # index into the client's fresh designs
    gates: int                 # that design's gate count
    iterations: int            # routing_iterations of this job


def plan_client(seed: int, client: int, blocks: int,
                gate_counts: tuple) -> list[PlannedJob]:
    """A client's job sequence, fixed by the seed.

    Every block of :data:`SERVICE_BLOCK` jobs makes one fresh design of
    each of ``gate_counts`` and two variants (one of
    :data:`VARIANT_PAIRS`) of each design of the block before it.  The
    first block's variants use its own designs, which open that block;
    those designs get the other pair in the second block.
    So each block executes the same sizes with the same routing work,
    and the seed picks only the designs, the pairs and the order.
    Repeats and variants only refer to the client's own earlier jobs,
    which a closed-loop client has always completed, so whether a job
    hits the job cache never depends on timing.
    """
    import numpy as np
    per_block = SERVICE_BLOCK.count("fresh")
    if len(gate_counts) != per_block or \
            SERVICE_BLOCK.count("variant") != 2 * per_block:
        raise ValueError("a block needs one fresh design per gate count "
                         "and two variants per design")
    rng = np.random.default_rng([seed, 7, client])
    jobs: list[PlannedJob] = []
    previous: list[PlannedJob] = []
    pairs_left: dict[int, list] = {}    # design -> pairs not used yet
    for block in range(blocks):
        sizes = [gate_counts[i] for i in rng.permutation(per_block)]
        fresh = [PlannedJob("fresh", block * per_block + i, g, 4)
                 for i, g in enumerate(sizes)]
        pairs_left.update((job.design, list(VARIANT_PAIRS)) for job in fresh)
        variants = []
        for job in previous or fresh:
            left = pairs_left[job.design]
            pair = left.pop(int(rng.integers(len(left))))
            variants += [PlannedJob("variant", job.design, job.gates, it)
                         for it in pair]
        repeats = [None] * SERVICE_BLOCK.count("repeat")
        if block == 0:
            jobs += fresh
            rest = variants + repeats
        else:
            rest = fresh + variants + repeats
        for i in rng.permutation(len(rest)):
            job = rest[i]
            if job is None:             # repeat an earlier job
                prev = jobs[int(rng.integers(0, len(jobs)))]
                job = PlannedJob("repeat", prev.design, prev.gates,
                                 prev.iterations)
            jobs.append(job)
        previous = fresh
    return jobs


@dataclass
class JobSample:
    client: int
    index: int
    kind: str
    design: int
    gates: int
    iterations: int
    job_id: str = ""
    latency_s: float = 0.0
    qor: tuple = ()
    failures: list = field(default_factory=list)
    stage_runtimes: dict = field(default_factory=dict)
    result: object = None        # kept for sampled deep checks only


class ServiceWorkload:
    """``FlowService(workers=2)`` with caches and a journal, one client.

    One closed-loop client keeps one job in flight, so one worker and the
    client's submit/unpack work share the two cores.  Two clients kept
    both workers busy beside the client, three busy processes on two
    cores, and their figures spread about twice as far from run to run.
    """

    CLIENTS = 1
    WORKERS = 2

    def __init__(self, seed: int, sizes: Sizes, work: Path,
                 tracer=None) -> None:
        import numpy as np
        from repro.core import FlowOptions
        from repro.netlist import build_library
        from repro.tech import get_node
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.tracer = tracer
        self.inject = None
        self.library = build_library(get_node("28nm"),
                                     vt_flavors=("lvt", "rvt", "hvt"))
        self.base = FlowOptions(scan=True, cts=True,
                                seed=subseeds(seed, 1, salt=3)[0] % 1000)
        self.plans = [plan_client(seed, c, 200, sizes.svc_gates)
                      for c in range(self.CLIENTS)]
        self.warm_ids: set = set()
        self._designs: dict = {}
        # One fresh and one variant job per client from its first block:
        # their results are kept, deep-checked and compared with a direct
        # run() afterwards.
        rng = np.random.default_rng([seed, 13])
        self.deep_checks = set()
        # Plan position each client must reach, past the deadline if need
        # be: its deep-checked job and its QoR design set.
        self.required = []
        for c, plan in enumerate(self.plans):
            deep = []
            for kind in ("fresh", "variant"):
                picks = [i for i, job in enumerate(plan[:len(SERVICE_BLOCK)])
                         if job.kind == kind]
                deep.append(picks[rng.integers(len(picks))])
                self.deep_checks.add((c, deep[-1]))
            fresh = [i for i, job in enumerate(plan) if job.kind == "fresh"]
            self.required.append(max(*deep,
                                     fresh[sizes.svc_qor_designs - 1]))
        self._start()

    def design(self, client: int, index: int, gates: int):
        """Fresh design ``index`` of ``client``, generated once.

        Repeats and variants reuse the object (``submit`` only packs
        it), so the client adds little CPU beside the workers.
        """
        key = (client, index)
        if key not in self._designs:
            self._designs[key] = self.generate(client, index, gates)
        return self._designs[key]

    def generate(self, client: int, index: int, gates: int):
        """A new copy of fresh design ``index`` of ``client``."""
        import numpy as np
        from repro.netlist.generators import registered_cloud
        rng = np.random.default_rng([self.seed, 11, client, index])
        io = self.sizes.svc_io
        return registered_cloud(
            io, io, gates, self.library, seed=int(rng.integers(1, 2**31)),
            name=f"svc_c{client}_d{index}")

    def options(self, iterations: int):
        import dataclasses
        return dataclasses.replace(self.base, routing_iterations=iterations)

    def _start(self) -> None:
        from repro.service import FlowService
        if self.tracer is not None:
            install_probes(self.tracer)
            install_worker_probes(self.tracer, self.work / "spans")
        self.service = FlowService(
            workers=self.WORKERS, cache_root=self.work / "cache",
            journal_root=self.work / "journal")
        try:
            self._warm()
        except BaseException:
            self.close()
            raise

    def _warm(self) -> None:
        """Run uncached jobs until every worker has executed one.

        The warm-up designs are the same for every seed, so setup_s
        times the same work in every run.
        """
        from repro.netlist.generators import registered_cloud
        io, gates = self.sizes.svc_io, self.sizes.svc_gates[2]
        ran: set = set()
        for attempt in range(4):
            ids = [self.service.submit(
                registered_cloud(io, io, gates, self.library,
                                 seed=attempt * self.WORKERS + w,
                                 name=f"warm{attempt}_{w}"),
                self.library, self.base) for w in range(self.WORKERS)]
            self.warm_ids.update(ids)
            for job_id in ids:
                self.service.result(job_id, timeout=120)
            ran = {r["worker"] for r in self.service.job_records()
                   if r["job_id"] in self.warm_ids and r["cache"] == "miss"}
            if ran == set(range(self.WORKERS)):
                return
        raise RuntimeError(f"warm-up reached workers {sorted(ran)} only")

    def close(self) -> None:
        if self.service is None:
            return
        self.service.close(drain=False, timeout=60)
        self.service = None
        if self.tracer is not None:
            self.tracer.uninstall()

    # -- the window ------------------------------------------------------

    def _client(self, client: int, t_end: float, out: list) -> None:
        tracer = self.tracer
        qor_by_job: dict[tuple, tuple] = {}
        for index, job in enumerate(self.plans[client]):
            if time.perf_counter() >= t_end and \
                    index > self.required[client]:
                return
            sample = JobSample(client, index, job.kind, job.design,
                               job.gates, job.iterations)
            subject = self.design(client, job.design, job.gates)
            options = self.options(job.iterations)
            op = f"c{client}-j{index}"
            if tracer is not None:
                tracer.set_op(op)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("client"):
                        result = self._submit_and_wait(subject, options,
                                                       sample)
                else:
                    result = self._submit_and_wait(subject, options, sample)
            except Exception as err:  # noqa: BLE001 - counted as failed
                sample.latency_s = time.perf_counter() - t0
                sample.failures.append(f"job raised {err!r}")
                out.append(sample)
                continue
            finally:
                if tracer is not None:
                    tracer.set_op(None)
            sample.latency_s = time.perf_counter() - t0
            sample.qor = qor_of(result)
            if self.inject == "wrong-qor" and client == 0 \
                    and job.kind == "repeat":
                sample.qor = (sample.qor[0] * 1.01,) + sample.qor[1:]
                self.inject = None
            sample.failures += qor_failures(result)
            key = (job.design, job.iterations)
            if job.kind == "repeat" and sample.qor != qor_by_job.get(key):
                sample.failures.append("repeat QoR differs from original")
            qor_by_job.setdefault(key, sample.qor)
            sample.stage_runtimes = dict(result.stage_runtimes)
            if (client, index) in self.deep_checks:
                sample.result = result
            out.append(sample)

    def _submit_and_wait(self, subject, options, sample):
        sample.job_id = self.service.submit(subject, self.library, options,
                                            tenant=f"client{sample.client}")
        return self.service.result(sample.job_id, timeout=120)

    def measure(self, seconds: float) -> dict:
        results: list[list[JobSample]] = [[] for _ in range(self.CLIENTS)]
        cpu0 = self._cpu_seconds()
        t0 = time.perf_counter()
        t_end = t0 + seconds
        threads = [threading.Thread(target=self._client,
                                    args=(c, t_end, results[c]))
                   for c in range(self.CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        window = time.perf_counter() - t0
        cpu = self._cpu_seconds() - cpu0
        rss_mb = self._rss_mb()
        records = {r["job_id"]: r for r in self.service.job_records()}
        stats = self.service.stats()
        samples = [s for per in results for s in per]
        self._check(records, samples)
        return self._summarize(results, samples, records, stats, window,
                               cpu, rss_mb)

    # -- checks ----------------------------------------------------------

    def _check(self, records, samples) -> None:
        from repro.orchestrate import run
        for s in samples:
            rec = records.get(s.job_id)
            hit = rec is not None and rec["cache"] in ("parent-hit",
                                                       "job-hit")
            if s.job_id and (s.kind == "repeat") != hit:
                s.failures.append(f"{s.kind} job was "
                                  f"{'a' if hit else 'no'} cache hit")
        picks = [s for s in samples if s.result is not None]
        if len(picks) != len(self.deep_checks):
            samples[0].failures.append("a deep-checked job did not run")
        for s in picks:
            s.failures += deep_failures(s.result)
            direct = run(self.generate(s.client, s.design, s.gates),
                         self.library,
                         self.options(s.iterations))
            if qor_of(direct) != s.qor:
                s.failures.append("service QoR differs from direct run()")
        for s in samples:
            s.result = None

    def _qor_set(self, results) -> list[JobSample]:
        """The first ``svc_qor_designs`` fresh jobs of every client."""
        chosen = []
        for per in results:
            fresh = [s for s in per if s.kind == "fresh"]
            chosen += fresh[:self.sizes.svc_qor_designs]
        return chosen

    def _summarize(self, results, samples, records, stats, window, cpu,
                   rss_mb) -> dict:
        qor_set = self._qor_set(results)
        complete = len(qor_set) == self.CLIENTS * self.sizes.svc_qor_designs \
            and all(s.qor for s in qor_set)
        qor = [sum(s.qor[k] for s in qor_set) if complete else math.nan
               for k in range(len(QOR_FIELDS))]
        done = [s for s in samples if not s.failures]
        lat = [s.latency_s for s in samples]
        executed = [records[s.job_id]["exec_s"] for s in samples
                    if s.job_id in records
                    and records[s.job_id]["cache"] == "miss"]
        out = {
            "end_to_end": {
                "flow_s": statistics.median(executed) if executed
                else math.nan,
                "jobs_per_s": len(done) / window,
                "job_p50_s": statistics.median(lat),
                "job_p90_s": _p90(lat),
                "cpu_per_flow_s": cpu / max(len(samples), 1),
                "peak_rss_mb": rss_mb,
                **{f"qor.{f}": v for f, v in zip(QOR_FIELDS, qor)},
            },
            "samples": {"jobs": len(lat), "executed": len(executed),
                        "beyond_p90": _beyond_p90(lat),
                        "kinds": {k: sum(1 for s in samples if s.kind == k)
                                  for k in set(SERVICE_BLOCK)}},
        }
        if self.tracer is not None:
            out["per_layer"] = self._layers(samples, records, stats)
        failures = [f for s in samples for f in s.failures]
        if not complete:
            failures.append("QoR design set did not complete")
        out["attempted"] = len(samples)
        out["failed"] = sum(1 for s in samples if s.failures) \
            + (0 if complete else 1)
        out["failures"] = failures[:20]
        return out

    def _layers(self, samples, records, stats) -> dict:
        from tracing import load_jsonl
        self.close()                 # workers write their spans on stop
        spans = self.tracer.spans + load_jsonl(
            sorted((self.work / "spans").glob("worker-*.jsonl")))
        ops = [s for s in samples if s.job_id in records]
        jobs = [records[s.job_id] for s in ops]
        # Client-side spans carry the plan position, worker-side spans
        # the job id; warm-up jobs carry neither.
        window = {s.job_id for s in ops} | {f"c{s.client}-j{s.index}"
                                            for s in ops}
        spans = [r for r in spans if r["op"] in window]
        layers = layer_metrics(spans, len(ops))
        trees = op_trees(spans, "run")
        checks, failures = trace_checks(
            trees, {s.job_id: s.stage_runtimes for s in ops
                    if records[s.job_id]["cache"] == "miss"}, slack_s=0.1)
        for msg in failures:
            samples[0].failures.append(f"trace: {msg}")
        journal = self.work / "journal"
        journal_bytes = sum(p.stat().st_size for p in journal.rglob("*")
                            if p.is_file())
        n_exec = sum(1 for r in records.values() if r["cache"] == "miss")
        hits = sum(1 for r in jobs if r["cache"] in ("parent-hit", "job-hit"))
        repeats = sum(1 for s in ops if s.kind == "repeat")
        lat = {s.job_id: s.latency_s for s in ops}
        return {
            **layers, **checks,
            "orchestrate.journal_bytes": journal_bytes / max(n_exec, 1),
            "service.queue_wait_s": statistics.fmean(
                r["queued_s"] for r in jobs),
            "service.exec_s": statistics.fmean(r["exec_s"] for r in jobs),
            "service.dispatch_s": statistics.fmean(
                lat[r["job_id"]] - r["queued_s"] - r["exec_s"]
                for r in jobs),
            "service.job_cache_hit_rate": hits / len(ops),
            "service.planned_hit_rate": repeats / len(ops),
            "service.jobs": float(len(ops)),
            "service.submitted": float(stats["submitted"]),
            "service.coalesced": float(stats["coalesced"]),
            "service.steals": float(stats["steals"]),
            "service.respawns": float(stats["respawns"]),
            "trace.spans": float(len(spans)),
        }

    # -- resource accounting ---------------------------------------------

    @staticmethod
    def _children() -> list[int]:
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += [int(p) for p in
                         (task / "children").read_text().split()]
            except OSError:
                continue
        return pids

    def _cpu_seconds(self) -> float:
        """CPU of this process plus every live child (the workers)."""
        tick = os.sysconf("SC_CLK_TCK")
        total = time.process_time()
        for pid in self._children():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text() \
                    .rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += (int(fields[11]) + int(fields[12])) / tick
        return total

    def _rss_mb(self) -> float:
        """Peak RSS of this process plus each live worker's peak."""
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for pid in self._children():
            try:
                for line in Path(f"/proc/{pid}/status").read_text() \
                        .splitlines():
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
            except OSError:
                continue
        return kb / 1024.0


# ----------------------------------------------------------------------
# Entry point.


def inject_failure(hit) -> None:
    """Make routing raise wherever ``hit(netlist)`` is true (tests only)."""
    import repro.orchestrate.flows as flows
    original = flows.stage_routing

    def stage_routing(ctx):
        if hit(ctx["dft"].netlist):
            raise RuntimeError("injected routing failure")
        return original(ctx)

    flows.stage_routing = stage_routing


def build(args, work: Path, tracer=None):
    sizes = Sizes.smoke() if args.smoke else Sizes()
    if args.workload == "service_mix":
        if args.inject == "failed-job":
            inject_failure(lambda netlist: netlist.name == "svc_c0_d1")
        bench = ServiceWorkload(args.seed, sizes, work, tracer)
    else:
        bench = FlowWorkload(args.workload, args.seed, sizes)
        if args.inject == "failed-job":
            calls = itertools.count()          # the window's first flow
            inject_failure(lambda netlist: next(calls) == 0)
    bench.inject = args.inject
    return bench


def measure_service_traced(args, work: Path) -> dict:
    """Untraced then traced half-windows, each on its own service."""
    from tracing import Tracer
    plain = build(args, work / "untraced")
    try:
        untraced = plain.measure(args.seconds / 2)
    finally:
        plain.close()
    tracer = Tracer()
    traced = build(args, work / "traced", tracer)
    try:
        out = traced.measure(args.seconds / 2)
    finally:
        traced.close()
    tracer.export_jsonl(work / "spans" / "parent.jsonl")
    flow_s = out["end_to_end"]["flow_s"]
    base = untraced["end_to_end"]["flow_s"]
    out["per_layer"].update({"trace.flow_s": flow_s,
                             "trace.untraced_flow_s": base,
                             "trace.overhead_ratio": flow_s / base})
    out["attempted"] += untraced["attempted"]
    out["failed"] += untraced["failed"]
    out["failures"] = untraced["failures"] + out["failures"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject", choices=("wrong-qor", "failed-job"))
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    traced_service = args.trace and args.workload == "service_mix"
    tracer = None
    bench = None
    try:
        if not traced_service:
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
            bench = build(args, work)
        print("FLOWBENCH-READY", flush=True)
        if args.setup_only:
            return 0
        if traced_service:
            out = measure_service_traced(args, work)
        elif args.workload == "service_mix":
            out = bench.measure(args.seconds)
        else:
            out = bench.measure(args.seconds, tracer)
            if tracer is not None:
                tracer.export_jsonl(work / "spans" / "parent.jsonl")
        if args.spans is not None and (work / "spans").is_dir():
            from tracing import load_jsonl
            spans = load_jsonl(sorted((work / "spans").glob("*.jsonl")))
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")
    finally:
        if isinstance(bench, ServiceWorkload):
            bench.close()
    print("FLOWBENCH-RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
