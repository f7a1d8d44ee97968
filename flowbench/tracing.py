"""In-memory span tracing around the public functions of each layer.

The traced run wraps module and class attributes at the place each
caller resolves them (``repro.route.global_route.route_placement``,
``IncrementalTimingAnalyzer.analyze``, ...), so nothing under ``src/``
changes.  Every wrapper records one span: a name, start and end on the
``perf_counter`` clock, the id of the enclosing span, the id of the
operation (one flow run or one service job) it belongs to, and a few
attributes measured from the call's arguments or result.  Spans stay in
memory and are written as JSONL once the run is over.

Service workers are forked from the benchmark process, so they inherit
the wrappers; :meth:`Tracer.worker_entry` resets the inherited span list
in the child and writes the child's spans to its own file when the
worker stops.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id: str | None) -> None:
        """Tag every span this thread opens from now on with ``op_id``."""
        self._local.op = op_id

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its record."""
        stack = self._stack()
        rec = {"id": f"{os.getpid()}-{next(self._ids)}",
               "parent": stack[-1]["id"] if stack else None,
               "op": getattr(self._local, "op", None),
               "name": name, "pid": os.getpid(),
               "start": time.perf_counter(), "end": None,
               "attrs": {}}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    # -- patches --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``measure(args, kwargs, result)`` returns span attributes; it
        runs after the span's end time is taken.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                rec["attrs"].update(measure(args, kwargs, result))
            return result

        self.replace(owner, attr,
                     classmethod(wrapper) if is_classmethod else wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the old one back."""
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- service workers ------------------------------------------------

    def worker_entry(self, original, out_dir: Path):
        """A ``worker_main`` replacement for forked service workers."""
        def worker_main(cfg, conn):
            self.spans = []
            self._local = threading.local()
            try:
                original(cfg, conn)
            finally:
                self.export_jsonl(out_dir / f"worker-{os.getpid()}.jsonl")
        return worker_main

    # -- output ---------------------------------------------------------

    def export_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=_jsonable) + "\n")


def _jsonable(value):
    if hasattr(value, "item"):           # numpy scalar
        return value.item()
    return str(value)


def load_jsonl(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    out = {rec["id"]: duration(rec) for rec in spans}
    for rec in spans:
        if rec["parent"] in out:
            out[rec["parent"]] -= duration(rec)
    return out


def tree_errors(spans: list[dict]) -> list[str]:
    """Structural problems in one operation's span tree.

    Every span but the root must name a parent inside the same
    operation and lie within its parent's interval; then the self
    times of all spans add up to the root's duration exactly.
    """
    by_id = {rec["id"]: rec for rec in spans}
    roots = [rec for rec in spans if rec["parent"] not in by_id]
    errors = []
    if len(roots) != 1:
        errors.append(f"{len(roots)} roots")
    for rec in spans:
        parent = by_id.get(rec["parent"])
        if parent is not None and not (
                parent["start"] <= rec["start"] <= rec["end"]
                <= parent["end"]):
            errors.append(f"span {rec['name']} escapes {parent['name']}")
    if len(roots) == 1:
        total = sum(self_times(spans).values())
        root = duration(roots[0])
        if abs(total - root) > 1e-6 + 1e-9 * len(spans):
            errors.append(f"self times sum {total:.6f}s != root {root:.6f}s")
    return errors
