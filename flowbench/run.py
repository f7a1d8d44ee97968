"""The repository's flow benchmark: one workload, one seed, one result.

Usage (from the repository root)::

    python3 flowbench/run.py --workload flow_physical --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are an environment
header and the sample counts behind each figure.

Every measurement runs in a child interpreter (``measure.py``), so
``setup_s`` is timed from a fresh interpreter to the child's ready
line.  Untraced runs set up :data:`SETUPS` times (the extra set-ups
stop at ready) and report the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".flowbench_work"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget for all children of one run.
DEADLINE_S = 170.0

QOR_UNITS = {"qor.hpwl_um": "um", "qor.overflow": "count",
             "qor.wirelength": "gcell", "qor.delay_ps": "ps",
             "qor.power_uw": "uW", "qor.area_um2": "um2"}
END_TO_END_UNITS = {"setup_s": "s", "flow_s": "s", "jobs_per_s": "1/s",
                    "job_p50_s": "s", "job_p90_s": "s",
                    "cpu_per_flow_s": "s", "peak_rss_mb": "MB",
                    **QOR_UNITS}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_um"):
        return "um"
    if name.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Environment header.


def environment(args) -> list[str]:
    lines = [f"python {platform.python_version()} "
             f"({platform.python_implementation()})"]
    try:
        import numpy
        import scipy
        lines.append(f"numpy {numpy.__version__}, scipy {scipy.__version__}")
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        for lib in ("blas", "lapack"):
            info = deps.get(lib, {})
            lines.append(f"{lib}: {info.get('name')} {info.get('version')}; "
                         f"openblas configuration: "
                         f"{info.get('openblas configuration')}")
    except ImportError as err:
        lines.append(f"numpy/scipy unavailable: {err}")
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS")}
    lines.append(f"thread variables: {threads or 'none set'}")
    affinity = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else "n/a"
    lines.append(f"nproc {os.cpu_count()}, affinity {affinity}")
    lines.append(f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")
    lines.append(f"commit {git_commit()}")
    lines.append(f"workload {args.workload}, seed {args.seed}, "
                 f"seconds {args.seconds}, trace {args.trace}"
                 + (", smoke" if args.smoke else ""))
    return lines


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------------
# Children.


class ChildFailed(RuntimeError):
    pass


def run_child(args, work: Path, deadline: float, *, setup_only: bool,
              spans: Path | None = None) -> tuple[float, dict | None]:
    """Start one ``measure.py``; return (setup seconds, result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["REPRO_SHM_REGISTRY"] = str(work / "shm-registry")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0),
                               proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("FLOWBENCH-READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("FLOWBENCH-RESULT "):
                result = json.loads(line.split(" ", 1)[1])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (not setup_only and result is None):
        raise ChildFailed(f"measure.py exited {code} "
                          f"({'setup' if setup_s is None else 'run'})")
    return setup_s, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny designs, for the benchmark's own tests")
    ap.add_argument("--inject", choices=("wrong-qor", "failed-job"),
                    help="plant one wrong result (tests of the checks)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = WORK_ROOT / run_id
    spans = WORK_ROOT / "spans" / f"{run_id}.jsonl" if args.trace else None
    header = environment(args)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                probe_s, _ = run_child(args, work / f"setup{k}", deadline,
                                       setup_only=True)
                setups.append(probe_s)
        setup_s, out = run_child(args, work / "run", deadline,
                                 setup_only=False, spans=spans)
        setups.append(setup_s)
    except ChildFailed as err:
        print(f"flowbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in header:
        print(f"# env {line}")
    samples = dict(out["samples"], setups=len(setups))
    print(f"# samples {json.dumps(samples, sort_keys=True)}")
    if not args.trace and samples["beyond_p90"] < 10:
        print(f"# note job_p90_s has {samples.get('beyond_p90', 0)} samples "
              f"beyond it (fewer than 10): read it as the slow tail, not a "
              f"resolved percentile")
    for msg in out["failures"]:
        print(f"# failed {msg}")
    if spans is not None:
        print(f"# spans {spans.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(out["per_layer"].items())}
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
