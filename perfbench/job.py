"""Run one benchmark job in a fresh process and print its result as JSON.

    python3 perfbench/job.py '<json spec>'

Spec kinds:
  setup      import the hexapn entry point, then make_field and BatchTables
             for "field"; reports setup_s.
  cli        hexapn.cli.main(argv) with the program's own output discarded;
             reports job_s and the exit code.
  reconcile  the reconcile-f16 library job for "field"; writes reconcile.json
             and hits.json under "out"; reports job_s.
  trace      the traced run of "workload"; writes its artifacts and spans.tsv
             under "out"; reports the per-layer metrics.
Peak memory is read by the parent from the process's resource usage.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def setup(spec):
    t0 = time.perf_counter()
    import hexapn.cli  # noqa: F401  the entry point; it imports every module
    from hexapn.diffanalysis import BatchTables
    from hexapn.field import NAMED_SPECS, make_field

    BatchTables(make_field(NAMED_SPECS[spec["field"]]))
    return {"setup_s": time.perf_counter() - t0}


def cli(spec):
    from hexapn import cli as hexapn_cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hexapn_cli.main(spec["argv"])
    job_s = time.perf_counter() - t0
    return {"job_s": job_s, "exit": code, "stderr": err.getvalue()[-2000:]}


def reconcile(spec):
    from pipelines import reconcile_job, write_reconcile

    t0 = time.perf_counter()
    rep, hit_idx, _ = reconcile_job(spec["field"])
    job_s = time.perf_counter() - t0
    write_reconcile(Path(spec["out"]), rep, hit_idx)
    return {"job_s": job_s, "exit": 0}


def trace(spec):
    import pipelines
    from trace_report import per_layer_metrics
    from tracing import Tracer

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    workload, seed = spec["workload"], spec["seed"]
    tr = Tracer(f"{workload}-seed{seed}")
    root = tr.begin("bench.job")
    census = None
    if workload == "search-f16":
        hits, counters = pipelines.traced_search_exhaustive(tr, out, "F16", "theory")
    elif workload == "random-f64":
        hits, counters = pipelines.traced_search_random(
            tr, out, "F64", "prioritized", spec["samples"], spec["cli_seed"])
    elif workload == "reconcile-f16":
        rep, hit_idx, counters = pipelines.reconcile_job("F16", tr)
        pipelines.write_reconcile(out, rep, hit_idx)
        hits = [pipelines.index_tuple(i, 16) for i in hit_idx]
    elif workload == "appendix-f4":
        hits, counters, census = pipelines.traced_appendix(tr, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tr.finish(root)
    job_end = len(tr)
    probe = pipelines.probes(tr, spec["field"], hits, seed)
    metrics = per_layer_metrics(tr, root, job_end, probe, counters, census)
    tr.write(out / "spans.tsv")
    return {"exit": 0, "metrics": metrics, "counters": counters, "spans": len(tr)}


KINDS = {"setup": setup, "cli": cli, "reconcile": reconcile, "trace": trace}


def main():
    spec = json.loads(sys.argv[1])
    sys.stdout.write(json.dumps(KINDS[spec["kind"]](spec)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
