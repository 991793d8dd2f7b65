#!/usr/bin/env python3
"""hexapn benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hexapn is imported from ./src, so
nothing is installed. Workloads (closed loop, one client, one job at a
time, every job in a fresh process with one shard):

  search-f16     hexapn search --field F16 --mode exhaustive --filters theory
  random-f64     hexapn search --field F64 --mode random --filters prioritized
                 --samples 1000 --seed <derived from --seed>
  reconcile-f16  run_exhaustive(F16, filters=none, verify=False), then
                 theory.reconcile over all 2^20 tuples
  appendix-f4    hexapn repro-appendix (q = 2 only)

With --trace 0 it runs whole jobs for about --seconds (at least one
job; a job longer than that runs once), measures set-up at least five times
in between, checks every job's output, and reports the end-to-end metrics:
median set-up time, median job time, tuples per second and median peak
memory. With --trace 1
it runs one untraced job and then the same job through hexapn's public
functions with a span around each call, checks that both wrote the same
artifacts, keeps the spans in .bench_build/spans/<workload>.tsv, and
reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count output checks (their quotient is the error rate). The exit code is 0
whenever a result is printed, and 2 when the hexapn sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from metrics import COUNT_NAMES, END_TO_END, ITEM_TIMINGS, PER_LAYER  # noqa: E402
from tracing import median, tail, tail_percentile  # noqa: E402

SETUP_REPS = 5  # at least this many set-ups per timed run
RUN_LIMIT_S = 165.0  # every run must end within 180 s
SPANS_DIR = ROOT / ".bench_build" / "spans"  # the last traced run's spans, per workload
RANDOM_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    field: str
    tuples: int  # tuples one job completes, the numerator of tuples_per_s
    job: Callable[[int, Path], dict]  # (seed, out dir) -> job spec
    check: Callable  # (checks, out dir) -> None
    counters: Callable[[Path], dict | None]  # untraced job's counters, if it writes them


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv)}


def _random_cli_seed(seed: int) -> int:
    return random.Random(f"random-f64:{seed}").randrange(1, 2 ** 31)


def _manifest_counters(name):
    def read(out: Path):
        try:
            return json.loads((out / name).read_text())["counters"]
        except (OSError, ValueError, KeyError):
            return None
    return read


WORKLOADS = {
    "search-f16": Workload(
        field="F16",
        tuples=2 ** 20,
        job=lambda seed, out: _cli(
            "search", "--field", "F16", "--mode", "exhaustive", "--filters", "theory",
            "--shards", "1", "--out", str(out)),
        check=lambda ck, out: checks.exhaustive_search(
            ck, out, "F16", "search_f16_exhaustive", 28170),
        counters=_manifest_counters("search_f16_exhaustive_manifest.json"),
    ),
    "random-f64": Workload(
        field="F64",
        tuples=RANDOM_SAMPLES,
        job=lambda seed, out: _cli(
            "search", "--field", "F64", "--mode", "random", "--filters", "prioritized",
            "--samples", str(RANDOM_SAMPLES), "--seed", str(_random_cli_seed(seed)),
            "--shards", "1", "--out", str(out)),
        check=lambda ck, out: checks.random_search(ck, out, "F64", RANDOM_SAMPLES),
        counters=_manifest_counters("search_f64_random_manifest.json"),
    ),
    "reconcile-f16": Workload(
        field="F16",
        tuples=2 ** 20,
        job=lambda seed, out: {"kind": "reconcile", "field": "F16", "out": str(out)},
        check=lambda ck, out: checks.reconcile(ck, out, "F16", 28170),
        counters=lambda out: None,
    ),
    "appendix-f4": Workload(
        field="F4",
        # the q = 2 search universe plus the census regime
        tuples=4 ** 5 + 288,
        job=lambda seed, out: _cli("repro-appendix", "--out", str(out)),
        check=lambda ck, out: checks.appendix(ck, out),
        counters=_manifest_counters("search_f4_manifest.json"),
    ),
}


# -- child processes ---------------------------------------------------------


def run_child(spec: dict, work: Path, timeout: float):
    """Run job.py in a fresh process; returns (result or None, peak RSS in MB,
    error text). The process is always waited for; on timeout it is killed."""
    log_out, log_err = work / "child.out", work / "child.err"
    with open(log_out, "wb") as fo, open(log_err, "wb") as fe:
        proc = subprocess.Popen([sys.executable, str(JOB), json.dumps(spec)],
                                stdout=fo, stderr=fe, cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code == -signal.SIGKILL:
        return None, 0.0, f"killed after {timeout:.0f} s"
    rss_mb = usage.ru_maxrss / 1024.0
    lines = log_out.read_text().strip().splitlines()
    if code != 0 or not lines:
        return None, rss_mb, f"exit {code}: {log_err.read_text()[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        return None, rss_mb, f"unreadable result: {exc}"
    if result.get("exit", 0) != 0:
        return None, rss_mb, f"program exit {result['exit']}: {result.get('stderr', '')}"
    return result, rss_mb, ""


def _remaining(t_begin: float) -> float:
    return RUN_LIMIT_S - (time.monotonic() - t_begin)


# -- runs --------------------------------------------------------------------


def timed_run(name, wl: Workload, seed: int, seconds: int, work: Path, ck, log):
    t_begin = time.monotonic()
    setup_spec = {"kind": "setup", "field": wl.field}
    setups = []

    def measure_setup():
        res, _, err = run_child(setup_spec, work, _remaining(t_begin))
        if ck.add("set-up completed", res is not None, err):
            setups.append(res["setup_s"])

    job_s, rss, walls, digests = [], [], [], []
    t_measure = time.monotonic()
    k = 0
    while True:
        # Set-ups are spread between the jobs, so that their median samples
        # the whole run rather than one moment of it.
        measure_setup()
        out = work / f"job{k}"
        out.mkdir()
        t0 = time.monotonic()
        res, rss_mb, err = run_child(wl.job(seed, out), work, _remaining(t_begin))
        if ck.add(f"job {k} completed", res is not None, err):
            job_s.append(res["job_s"])
            rss.append(rss_mb)
            wl.check(ck, out)
            digests.append(checks.artifacts(out))
            if len(digests) > 1:
                checks.same_artifacts(ck, f"job {k} vs job 0", digests[0], digests[-1])
        shutil.rmtree(out, ignore_errors=True)
        walls.append(time.monotonic() - t0)
        k += 1
        est = median(walls)
        # Another job starts only if it would end within half a job of the
        # measuring time (and well within the run's time limit).
        if res is None or time.monotonic() - t_measure + est / 2 > seconds:
            break
        if _remaining(t_begin) < 1.5 * est + 5:
            break
    for _ in range(SETUP_REPS - len(setups)):
        if _remaining(t_begin) < 5:
            break
        measure_setup()

    js = median(job_s)
    metrics = {
        "setup_s": median(setups),
        "job_s": js,
        "tuples_per_s": wl.tuples / js if js else 0.0,
        "peak_rss_mb": median(rss),
    }
    log("setup_s samples " + " ".join(f"{v:.4f}" for v in setups))
    log("job_s samples " + " ".join(f"{v:.4f}" for v in job_s))
    tl = tail(job_s)
    if tl:
        log(f"job_s p{tl[0]:g} {tl[1]:.4f} s")
    return metrics, END_TO_END


def traced_run(name, wl: Workload, seed: int, seconds: int, work: Path, ck, log):
    t_begin = time.monotonic()
    out_u = work / "untraced"
    out_t = work / "traced"
    out_u.mkdir()
    res_u, _, err = run_child(wl.job(seed, out_u), work, _remaining(t_begin))
    metrics = {m: 0.0 for m in PER_LAYER}
    if not ck.add("untraced job completed", res_u is not None, err):
        return metrics, PER_LAYER
    wl.check(ck, out_u)
    spec = {"kind": "trace", "workload": name, "seed": seed, "field": wl.field,
            "out": str(out_t), "samples": RANDOM_SAMPLES, "cli_seed": _random_cli_seed(seed)}
    res_t, _, err = run_child(spec, work, _remaining(t_begin))
    if not ck.add("traced job completed", res_t is not None, err):
        return metrics, PER_LAYER
    ref, got = checks.artifacts(out_u), checks.artifacts(out_t)
    checks.same_artifacts(ck, "traced vs untraced", ref, got, sorted(set(ref) & set(got)))
    counters = wl.counters(out_u)
    if counters is not None:
        ck.add("traced vs untraced: counters identical", counters == res_t["counters"],
               f"{counters} vs {res_t['counters']}")
    metrics.update(res_t["metrics"])
    metrics["trace.overhead_ratio"] = metrics["trace.traced_job_s"] / res_u["job_s"]
    spans = SPANS_DIR / f"{name}.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(out_t / "spans.tsv", spans)
    log(f"untraced job_s {res_u['job_s']:.4f} s, traced {metrics['trace.traced_job_s']:.4f} s, "
        f"{res_t['spans']} spans in {spans.relative_to(ROOT)}")
    for metric in ITEM_TIMINGS:
        n = metrics[COUNT_NAMES.get(metric, metric + ".n")]
        pct = tail_percentile(n)
        if pct is not None:
            log(f"{metric}.tail is the p{pct:g} of {n} samples")
    return metrics, PER_LAYER


# -- host and provenance -------------------------------------------------------


def host_block() -> dict:
    info = {
        "tool_version": None,
        "git_revision": None,
        "python": platform.python_version(),
        "numpy": None,
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
    }
    m = re.search(r'__version__\s*=\s*"([^"]+)"', (ROOT / "src/hexapn/__init__.py").read_text())
    if m:
        info["tool_version"] = m.group(1)
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            info["git_revision"] = rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and info["cpu_model"] is None:
                info["cpu_model"] = line.split(":", 1)[1].strip()
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind normally so that the running job is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hexapn" / "cli.py").is_file():
        print(f"error: hexapn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True)
    ck = checks.Checks()
    lines = []
    try:
        run = traced_run if args.trace else timed_run
        values, units = run(args.workload, wl, args.seed, args.seconds, work, ck, lines.append)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("host " + json.dumps(host_block(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name:<52} {values[name]:>16.6g} {unit}")
    rate = ck.failed / ck.attempted if ck.attempted else 1.0
    print(f"error_rate {ck.failed}/{ck.attempted} = {rate:.4g}")
    for failure in ck.failures():
        print(f"FAILED {failure}")
    result = {
        "correct": ck.attempted > 0 and ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
