"""Names and units of the metrics the benchmark reports.

END_TO_END is printed by an untraced run, PER_LAYER by a traced run; both
must list exactly the metrics named in BENCHMARK.json. A metric of a layer
the workload never calls reads 0 (and its sample count 0).
"""

from tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "tuples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-item timings: metric -> (span or sample name, factor from ns, unit).
# Each is reported as its median, "<metric>.tail" (the highest percentile
# with at least ten samples beyond it) and "<metric>.n" (sample count).
ITEM_TIMINGS = {
    "field.mul_ns": ("field.mul[1000]", 1e-3, "ns"),
    "rng.draw_us": ("rng.draw", 1e-3, "us"),
    "search.passes_filters_us": ("search.passes_filters", 1e-3, "us"),
    "theory.predict_verdict_us": ("theory.predict_verdict", 1e-3, "us"),
    "theory.reconcile_us_per_tuple": ("theory.reconcile[tuple]", 1e-3, "us"),
    "theory.analyze_ms": ("theory.analyze", 1e-6, "ms"),
    "diffanalysis.is_apn_ddt_us": ("diffanalysis.is_apn_ddt", 1e-3, "us"),
    "diffanalysis.verify_ms_per_hit": ("diffanalysis.verify[hit]", 1e-6, "ms"),
    "diffanalysis.is_permutation_ms": ("diffanalysis.is_permutation", 1e-6, "ms"),
    "diffanalysis.differential_profile_ms": ("diffanalysis.differential_profile", 1e-6, "ms"),
    "walsh.spectrum_ms": ("walsh.extended_walsh_spectrum_table", 1e-6, "ms"),
    "invariants.fingerprint_ms": ("invariants.fingerprint", 1e-6, "ms"),
    "cli.hit_record_ms_per_hit": ("cli.hit_record", 1e-6, "ms"),
    "sympoly.gcd_bivariate_ms": ("sympoly.gcd_bivariate", 1e-6, "ms"),
    "sympoly.build_variety_system_ms": ("sympoly.build_variety_system", 1e-6, "ms"),
    "sympoly.rational_point_scan_ms": ("sympoly.rational_point_scan", 1e-6, "ms"),
}
# Sample counts that carry the name the layer's users know them by.
COUNT_NAMES = {
    "sympoly.gcd_bivariate_ms": "sympoly.gcd_calls",
    "sympoly.rational_point_scan_ms": "sympoly.scans",
}

PER_LAYER = {
    "field.make_field_s": "s",
    "diffanalysis.batch_tables_s": "s",
    "search.sweep_s": "s",
    "search.filter_keep_ratio": "ratio",
    "search.hit_ratio": "ratio",
    "search.accept_ratio": "ratio",
    "diffanalysis.apn_mask_batch.random_tuples_per_s": "1/s",
    "diffanalysis.apn_mask_batch.apn_tuples_per_s": "1/s",
    "invariants.partition_s": "s",
    "sympoly.gcd_nontrivial_ratio": "ratio",
}
for _m, (_span, _f, _unit) in ITEM_TIMINGS.items():
    PER_LAYER[_m] = _unit
    PER_LAYER[_m + ".tail"] = _unit
    PER_LAYER[COUNT_NAMES.get(_m, _m + ".n")] = "count"
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER["trace.glue_s"] = "s"
PER_LAYER["trace.traced_job_s"] = "s"
PER_LAYER["trace.overhead_ratio"] = "ratio"
