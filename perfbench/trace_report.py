"""Per-layer metrics of a traced run, computed from its spans."""

from __future__ import annotations

import numpy as np

from metrics import COUNT_NAMES, ITEM_TIMINGS
from tracing import LAYERS, durations_by_name, layer_totals, tail


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr, root: int, job_end: int, probe: dict, counters: dict,
                      census=None) -> dict:
    """root: index of the job's root span; spans [root, job_end) are the job,
    later spans are probes. `counters` are the workload's search counters;
    `census` the appendix census report, if any."""
    d = durations_by_name(tr)
    m = dict(probe)

    m["search.sweep_s"] = sum(d.get("search.run_exhaustive", ())) / 1e9
    tested = counters.get("tested", 0)
    skipped = counters.get("skipped_by_filter", 0)
    m["search.filter_keep_ratio"] = _ratio(tested, tested + skipped)
    m["search.hit_ratio"] = _ratio(counters.get("apn", 0), tested)
    m["search.accept_ratio"] = _ratio(tested, len(d.get("rng.draw", ())))
    m["invariants.partition_s"] = sum(d.get("invariants.partition_by_fingerprint", ())) / 1e9
    m["sympoly.gcd_nontrivial_ratio"] = (
        _ratio(census.gcd_nontrivial, census.regime_size) if census else 0.0
    )

    for metric, (name, factor, _unit) in ITEM_TIMINGS.items():
        vals = d.get(name, [])
        m[metric] = float(np.median(vals)) * factor if vals else 0.0
        tl = tail(vals)
        m[metric + ".tail"] = tl[1] * factor if tl else 0.0
        m[COUNT_NAMES.get(metric, metric + ".n")] = len(vals)

    self_s, calls = layer_totals(tr, root, job_end)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["trace.glue_s"] = self_s.get("bench", 0.0)
    m["trace.traced_job_s"] = (tr.end[root] - tr.start[root]) / 1e9
    return m
