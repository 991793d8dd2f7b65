"""The benchmark's jobs expressed as calls into hexapn's public functions.

`reconcile_job` is the reconcile-f16 job itself, timed untraced and traced.
The three CLI workloads are timed untraced through `hexapn.cli.main`; for
the traced run, `traced_*` repeat the same job step by step through the
public functions the CLI command is built from, with a span around each
call, and write the same artifacts so run.py can compare them byte for
byte with the CLI's. `probes` then times single layers on seeded inputs of
the workload's field.
"""

from __future__ import annotations

import json
import random
import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from hexapn.cli import TABLE_REPRESENTATIVES
from hexapn.diffanalysis import (
    BatchTables,
    apn_mask_batch,
    differential_profile,
    is_apn_ddt,
    is_apn_equation,
    is_permutation,
)
from hexapn.field import NAMED_SPECS, make_field, parse_field_spec
from hexapn.hexanomial import Coeffs, function_table, to_univariate
from hexapn.invariants import fingerprint, partition_by_fingerprint, partition_csv
from hexapn.rng import Stream64
from hexapn.search import (
    NO_FILTERS,
    CensusReport,
    SearchJob,
    index_tuple,
    parse_filters,
    passes_filters,
    regime_tuples,
    run_exhaustive,
    tuple_index,
)
from hexapn import sympoly
from hexapn.theory import analyze, predict_verdict, reconcile
from hexapn.walsh import extended_walsh_spectrum_table

from checks import REPRESENTATIVES_HEADER
from tracing import Tracer


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# -- reconcile-f16 ---------------------------------------------------------


def reconcile_job(field: str, tr: Tracer | None = None):
    """Unfiltered exhaustive sweep without re-verification, then
    theory.reconcile over every tuple. Returns (report, sorted hit indices,
    search counters)."""
    call = tr.call if tr else _untraced
    spec = NAMED_SPECS[field]
    ctx = call("field.make_field", make_field, spec)
    res = call("search.run_exhaustive", run_exhaustive,
               SearchJob(spec, "exhaustive", filters=NO_FILTERS), verify=False)
    n = ctx.size
    hit_idx = sorted(tuple_index(c, n) for c in res.apn_hits)
    hitset = set(hit_idx)
    universe = n ** 5
    if tr is None:
        batch = ((index_tuple(i, n), i in hitset) for i in range(universe))
        return reconcile(ctx, batch), hit_idx, res.counters

    # Traced: time reconcile's own work on each tuple, i.e. from the moment
    # it receives a tuple until it asks for the next one.
    slices = tr.samples.setdefault("theory.reconcile[tuple]", array("q"))

    def batch_traced():
        for i in range(universe):
            item = (index_tuple(i, n), i in hitset)
            t0 = perf_counter_ns()
            yield item
            slices.append(perf_counter_ns() - t0)

    rep = tr.call("theory.reconcile", reconcile, ctx, batch_traced())
    return rep, hit_idx, res.counters


def write_reconcile(out: Path, rep, hit_idx):
    (out / "reconcile.json").write_text(json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n")
    (out / "hits.json").write_text(json.dumps(hit_idx) + "\n")


# -- pieces shared by the traced CLI jobs -------------------------------------


def _swept_context(spec):
    """A field context in the state run_exhaustive re-verifies its hits in.

    run_exhaustive re-verifies on the context its sweep used, whose numpy
    views are built by then; once they are, the context's scalar methods run
    markedly slower (FieldCtx.mul about 1.9x on F16 under CPython 3.11), so
    the traced re-verification must use such a context too.
    """
    ctx = make_field(spec)
    BatchTables(ctx)
    return ctx


def _verify(tr: Tracer, ctx, hits):
    """run_exhaustive's re-verification of each hit."""
    for c in hits:
        i = tr.begin("diffanalysis.verify[hit]")
        ok = (tr.call("diffanalysis.is_apn_ddt_noabort", is_apn_ddt, ctx, c, early_abort=False)
              and tr.call("diffanalysis.is_apn_equation", is_apn_equation, ctx, c))
        tr.finish(i)
        if not ok:
            raise AssertionError(f"hit {c} failed independent re-verification")


def _write_hit_records(tr: Tracer, ctx, hits, path: Path):
    """The CLI's hit records, built from the public calls they consist of."""
    fmt = ctx.format_elem
    with open(path, "w") as fh:
        for c in hits:
            i = tr.begin("cli.hit_record")
            fp = tr.call("invariants.fingerprint", fingerprint, ctx, c)
            rep = tr.call("theory.analyze", analyze, ctx, c)
            prof = tr.call("diffanalysis.differential_profile", differential_profile, ctx, c)
            uni = tr.call("hexanomial.to_univariate", to_univariate, ctx, c).format(ctx)
            rec = {
                "field": str(ctx.spec),
                "A": fmt(c.A), "B": fmt(c.B), "C": fmt(c.C), "D": fmt(c.D), "E": fmt(c.E),
                "univariate": uni,
                "is_permutation": prof.is_permutation,
                "matched_cases": list(rep.matched_cases),
                "fingerprint_hash": fp.hash,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            tr.finish(i)


def _write_manifest(path: Path, manifest: dict, counters: dict):
    path.write_text(json.dumps({**manifest, "counters": counters}, indent=2, sort_keys=True) + "\n")


# -- search-f16 ------------------------------------------------------------


def traced_search_exhaustive(tr: Tracer, out: Path, field: str, filters: str):
    ctx = tr.call("field.make_field", make_field, parse_field_spec(field))
    job = SearchJob(ctx.spec, "exhaustive", filters=parse_filters(filters))
    res = tr.call("search.run_exhaustive", run_exhaustive, job, verify=False)
    _verify(tr, _swept_context(ctx.spec), res.apn_hits)
    stem = f"search_{field.lower()}_exhaustive"
    _write_hit_records(tr, ctx, res.apn_hits, out / f"{stem}_hits.jsonl")
    _write_manifest(out / f"{stem}_manifest.json", res.manifest, res.counters)
    return res.apn_hits, res.counters


# -- random-f64 --------------------------------------------------------------

_MAX_DRAWS_PER_SAMPLE = 1_000_000


def traced_search_random(tr: Tracer, out: Path, field: str, filters: str,
                         samples: int, seed: int):
    ctx = tr.call("field.make_field", make_field, parse_field_spec(field))
    filt = parse_filters(filters)
    n = ctx.size
    n5 = n ** 5
    begin, finish = tr.begin, tr.finish
    hit_idx = []
    rejected = 0
    for j in range(samples):
        stream = tr.call("rng.Stream64", Stream64, seed, j)
        for _ in range(_MAX_DRAWS_PER_SAMPLE):
            i = begin("rng.draw")
            c = index_tuple(stream.below(n5), n)
            finish(i)
            i = begin("search.passes_filters")
            ok = passes_filters(ctx, c, filt)
            finish(i)
            if ok:
                break
            rejected += 1
        else:
            raise AssertionError(f"sample {j}: filter region too sparse")
        if tr.call("diffanalysis.is_apn_ddt", is_apn_ddt, ctx, c):
            hit_idx.append(tuple_index(c, n))
    hits = [index_tuple(i, n) for i in sorted(set(hit_idx))]
    _verify(tr, ctx, hits)
    perms = sum(tr.call("diffanalysis.is_permutation", is_permutation, ctx, c) for c in hits)
    counters = {
        "universe": n5,
        "tested": samples,
        "skipped_by_filter": rejected,
        "apn": len(hits),
        "permutations": perms,
    }
    _write_hit_records(tr, ctx, hits, out / f"search_{field.lower()}_random_hits.jsonl")
    return hits, counters


# -- appendix-f4 -------------------------------------------------------------


def _traced_census(tr: Tracer, spec) -> CensusReport:
    """search.gcd_regime_census(spec, full_scan=True), call by call."""
    ctx = tr.call("field.make_field", make_field, spec)
    rep = CensusReport(field=str(spec))
    tuples = tr.call("search.regime_tuples", regime_tuples, ctx)
    rep.regime_size = len(tuples)
    if not tuples:
        return rep
    bt = tr.call("diffanalysis.BatchTables", BatchTables, ctx)
    arr = np.array(tuples, dtype=np.uint16)
    apn = np.zeros(len(tuples), dtype=bool)
    for lo in range(0, len(tuples), 8192):
        hi = min(lo + 8192, len(tuples))
        apn[lo:hi] = tr.call("diffanalysis.apn_mask_batch", apn_mask_batch, bt,
                             arr[lo:hi, 0], arr[lo:hi, 1], arr[lo:hi, 2],
                             arr[lo:hi, 3], arr[lo:hi, 4])
    rep.apn_total = int(apn.sum())
    rep.exceptional_nonapn = 0
    rep.generic_nonapn = 0
    gcd = sympoly.gcd_bivariate
    for k, c in enumerate(tuples):
        g1, g2 = tr.call("sympoly.g1_g2_displays", sympoly.g1_g2_displays, ctx, c)
        g3 = tr.call("sympoly.g_display_brackets", sympoly._g_display_brackets, ctx, c)[0]
        trivial = (
            tr.call("sympoly.gcd_bivariate", gcd, g3, g1).total_degree() <= 0
            and tr.call("sympoly.gcd_bivariate", gcd, g3, g2).total_degree() <= 0
        )
        is_apn = bool(apn[k])
        if trivial:
            rep.gcd_trivial += 1
            rep.gcd_trivial_apn += is_apn
            continue
        rep.gcd_nontrivial += 1
        rep.gcd_nontrivial_apn += is_apn
        vs = tr.call("sympoly.build_variety_system", sympoly.build_variety_system, ctx, c)
        ell = tr.call("sympoly.gcd_bivariate", gcd, vs.a2, vs.a0)
        count, _ = tr.call("sympoly.rational_point_scan", sympoly.rational_point_scan,
                           ctx, [vs.G, ell], force=True)
        if count == 0:
            if is_apn:
                rep.exceptional_apn += 1
                rep.exceptional_tuples.append(c)
                if c.C != 0:
                    rep.exceptional_apn_all_c_zero = False
            else:
                rep.exceptional_nonapn += 1
        elif is_apn:
            rep.generic_apn += 1
        else:
            rep.generic_nonapn += 1
    return rep


def traced_appendix(tr: Tracer, out: Path):
    """`hexapn repro-appendix` without --full, call by call."""
    rows = [REPRESENTATIVES_HEADER]
    for fname, texts in TABLE_REPRESENTATIVES:
        ctx = tr.call("field.make_field", make_field, NAMED_SPECS[fname])
        c = Coeffs(*(ctx.parse_elem(t) for t in texts))
        prof = tr.call("diffanalysis.differential_profile", differential_profile, ctx, c)
        rep = tr.call("theory.analyze", analyze, ctx, c)
        fp = tr.call("invariants.fingerprint", fingerprint, ctx, c)
        uni = tr.call("hexanomial.to_univariate", to_univariate, ctx, c).format(ctx)
        rows.append(",".join([
            fname, *texts, uni.replace(",", ";"), str(prof.is_apn),
            str(prof.is_permutation), str(prof.uniformity), fp.hash,
            ";".join(map(str, rep.matched_cases)),
        ]))
    (out / "representatives.csv").write_text("\n".join(rows) + "\n")

    spec = NAMED_SPECS["F4"]
    census = _traced_census(tr, spec)
    cj = census.to_json()
    cj["exceptional_tuples"] = [
        [tr.call("field.make_field", make_field, spec).format_elem(z) for z in t]
        for t in census.exceptional_tuples
    ]
    (out / "census_f4.json").write_text(json.dumps(cj, indent=2, sort_keys=True) + "\n")
    res = tr.call("search.run_exhaustive", run_exhaustive, SearchJob(spec, "exhaustive"),
                  verify=False)
    _verify(tr, _swept_context(spec), res.apn_hits)
    ctx = tr.call("field.make_field", make_field, spec)
    _write_manifest(out / "search_f4_manifest.json", res.manifest, res.counters)
    _write_hit_records(tr, ctx, res.apn_hits, out / "search_f4_hits.jsonl")
    groups = tr.call("invariants.partition_by_fingerprint", partition_by_fingerprint,
                     ctx, res.apn_hits)
    (out / "partition_f4.csv").write_text(partition_csv(groups, ctx))
    return res.apn_hits, res.counters, census


# -- single-layer probes -------------------------------------------------------

PROBE_REPS = 5
MUL_BATCH = 1000
MUL_BATCHES = 200
PROBE_TUPLES = 8192
PROBE_ITEMS = 300
VERDICT_TUPLES = 5000


def probes(tr: Tracer, field: str, hits: list, seed: int) -> dict:
    """Time single layers on seeded inputs of the workload's field and on a
    seeded sample of the workload's hits. Returns the non-span metrics."""
    rng = random.Random(seed)
    spec = NAMED_SPECS[field]
    out = {}
    out["field.make_field_s"], ctx = _timed(
        tr, "field.make_field[probe]", PROBE_REPS, lambda: make_field(spec))
    # Each BatchTables gets a fresh context, as in set-up: the first one
    # built on a context also builds and caches its numpy views. `ctx`
    # stays without them for the scalar probes (see _swept_context).
    fresh = [make_field(spec) for _ in range(PROBE_REPS)]
    out["diffanalysis.batch_tables_s"], bt = _timed(
        tr, "diffanalysis.BatchTables[probe]", PROBE_REPS, lambda: BatchTables(fresh.pop()))

    n = ctx.size
    mul = ctx.mul
    for _ in range(MUL_BATCHES):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(MUL_BATCH)]
        i = tr.begin("field.mul[1000]")
        for a, b in pairs:
            mul(a, b)
        tr.finish(i)

    cols = np.random.default_rng(seed).integers(0, n, size=(5, PROBE_TUPLES), dtype=np.uint16)
    secs, _ = _timed(tr, "diffanalysis.apn_mask_batch[random]", PROBE_REPS,
                     lambda: apn_mask_batch(bt, *cols))
    out["diffanalysis.apn_mask_batch.random_tuples_per_s"] = PROBE_TUPLES / secs
    sample = hits if len(hits) <= PROBE_TUPLES else rng.sample(hits, PROBE_TUPLES)
    out["diffanalysis.apn_mask_batch.apn_tuples_per_s"] = 0.0
    if sample:
        hit_cols = np.array(sample, dtype=np.uint16).T
        secs, _ = _timed(tr, "diffanalysis.apn_mask_batch[apn]", PROBE_REPS,
                         lambda: apn_mask_batch(bt, *hit_cols))
        out["diffanalysis.apn_mask_batch.apn_tuples_per_s"] = len(sample) / secs

    for _ in range(VERDICT_TUPLES):
        c = Coeffs(*(rng.randrange(n) for _ in range(5)))
        tr.call("theory.predict_verdict", predict_verdict, ctx, c)
    sample = hits if len(hits) <= PROBE_ITEMS else rng.sample(hits, PROBE_ITEMS)
    for c in sample:
        tr.call("diffanalysis.is_permutation", is_permutation, ctx, c)
        table = tr.call("hexanomial.function_table", function_table, ctx, c)
        tr.call("walsh.extended_walsh_spectrum_table", extended_walsh_spectrum_table, ctx, table)
    return out


def _timed(tr: Tracer, name: str, reps: int, fn):
    """Call fn reps times, each in a span; (median seconds, last result)."""
    secs = []
    for _ in range(reps):
        i = tr.begin(name)
        result = fn()
        tr.finish(i)
        secs.append((tr.end[i] - tr.start[i]) / 1e9)
    return statistics.median(secs), result
