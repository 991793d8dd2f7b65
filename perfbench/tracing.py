"""In-memory span recorder and the statistics the benchmark reports.

A span is one call from the benchmark into a public hexapn function. Spans
live in flat arrays while a traced run is in progress and are written out
once, when it ends. The layer of a span is the first dotted component of
its name (``theory.analyze`` belongs to ``theory``). A name containing
``[`` marks a span that groups calls (one hit's re-verification, say); it
counts towards its layer's time but not as a call. Per-item times sliced
out of a single call (each tuple that theory.reconcile handles) are kept
as samples rather than spans.

This module imports neither numpy nor hexapn at import time, so the
benchmark's entry point can use its statistics before it has checked that the
program is present.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter_ns

LAYERS = (
    "field", "hexanomial", "diffanalysis", "walsh", "invariants",
    "theory", "sympoly", "search", "rng", "cli",
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int):
    """The highest listed percentile with at least MIN_BEYOND of n samples
    beyond it, or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def tail(values):
    """(percentile, value) at tail_percentile(len(values)), or None."""
    n = len(values)
    p = tail_percentile(n)
    if p is None:
        return None
    return p, sorted(values)[min(n - 1, int(n * p / 100.0))]


class Tracer:
    """Spans as parallel arrays: name id, parent index, start and end in ns."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # per-item durations (ns) sliced out of a single call, by name
        self.samples: dict[str, array] = {}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {i} closed while span {top} is open")

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(i)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One JSON header line, then one tab-separated line per span:
        run id, span index, parent index, name, start ns, end ns."""
        names = self.names
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self)}) + "\n")
            rid = self.run_id
            for i in range(len(self.start)):
                fh.write(f"{rid}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")


def durations_by_name(tr: Tracer) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {n: [] for n in tr.names}
    names = tr.names
    for nid, s, e in zip(tr.name, tr.start, tr.end):
        out[names[nid]].append(e - s)
    for name, vals in tr.samples.items():
        out.setdefault(name, []).extend(vals)
    return out


def layer_totals(tr: Tracer, lo: int, hi: int) -> tuple[dict, dict]:
    """Self seconds and call counts per layer over spans [lo, hi).

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since calls are nested.
    """
    child = [0] * (hi - lo)
    for i in range(lo, hi):
        p = tr.parent[i]
        if p >= lo:
            child[p - lo] += tr.end[i] - tr.start[i]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    names = tr.names
    for i in range(lo, hi):
        name = names[tr.name[i]]
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + (tr.end[i] - tr.start[i]) - child[i - lo]
        if "[" not in name:
            calls[layer] = calls.get(layer, 0) + 1
    return ({k: v / 1e9 for k, v in self_ns.items()}, calls)
