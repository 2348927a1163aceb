"""Span recording around the program's public functions, from outside it.

``Tracer.wrap(module, name)`` swaps a module attribute for a timing wrapper;
callers that look the function up through the module (every call inside
``dbmf``) then record a span per call.  Spans carry name, start, end, the
enclosing span and a run id, and stay in memory until ``write``.

Pool workers forked while the wrappers are installed inherit them.  A worker
notices the new pid on its first span, drops the spans copied from its
parent, keeps the parent's open spans as ancestors and writes its own spans
to ``spans-<pid>.jsonl`` when the worker process exits.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import util as mp_util


class Tracer:
    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._next = 0
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _adopt_fork(self) -> None:
        """First span in a forked worker: start an empty buffer that is
        flushed when the worker exits."""
        self.pid = os.getpid()
        self.spans = []
        self._next = 0
        mp_util.Finalize(None, self.write, exitpriority=10)

    def begin(self, name: str) -> dict:
        if os.getpid() != self.pid:
            self._adopt_fork()
        self._next += 1
        span = {"id": f"{self.pid}:{self._next}", "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id, "pid": self.pid,
                "start": time.perf_counter(), "end": None}
        self.stack.append(span["id"])
        return span

    def end(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        self.stack.pop()
        self.spans.append(span)

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``name``.

        ``attrs(args, kwargs, result)`` may return a dict of counts stored
        on the span.  A function the module no longer has is listed in
        ``missing`` and its metrics read 0, so the program may be
        restructured without the traced run failing.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(span, attrs(args, kwargs, result) if attrs else None)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write(self) -> str:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return path


def read_spans(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span id: duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(lo, s["start"]), min(hi, s["end"]))
                for lo, hi in children.get(s["id"], [])]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out[s["id"]] = (s["end"] - s["start"]) - covered(kids)
    return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return table


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems found: a parent that is unknown, or a child that starts
    before its parent or ends after it."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"{s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"{s['id']} {s['name']} has unknown parent {s['parent']}")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"{s['id']} {s['name']} not inside {parent['name']}")
    return problems
