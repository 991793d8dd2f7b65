"""Exhaustive and seeded-random coefficient-space search drivers.

Exhaustive mode sweeps chunks of (A, B, C) blocks and takes its hits from
the 2-flat sieve (diffanalysis.apn_planes); it is deterministically
shardable: shards split the block range, and results are independent of
the shard count. Random mode draws tuples from counter-mode streams
addressed by sample index (see rng), which again makes the output
independent of sharding; each sample keeps its stream's first draw that
passes the filters, and apn_mask_batch tests the kept draws. Both modes
and passes_filters filter through one `_keep`, which runs the theory's
clauses on ints or on coefficient arrays: the sweep on each chunk's
survivors of its broadcast closed-form masks, random mode on groups of
draws. Shards run on at most os.cpu_count() processes.

Filter presets:
  theory A != 0, drop C1/C2, drop the generic obstruction (C6 with h1 != 0).
         This is the universe behind the reference APN hit counts.
  plain  A != 0, drop C1/C2 only.
  none   every tuple tested.

Filter tokens, combined with commas: a-nonzero, exclude-c1c2,
exclude-obstruction (the clauses of the presets), prioritized (drop tuples
whose theory verdict is 'excluded' or 'not-apn') and cases=i;j;... (keep
tuples matching at least one of the listed summary cases).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from . import __version__
from .field import FieldCtx, FieldSpec, make_field
from .hexanomial import Coeffs
from .diffanalysis import (
    BatchTables,
    apn_mask_batch,
    apn_planes,
    function_tables_batch,
    is_apn_ddt,
    is_apn_equation,
)
from .rng import Stream64
from .theory import _PROMISING, _ArrayField, _cases, _evaluate, _rule

EXHAUSTIVE_GATE_BITS = 30  # (q^2)^5 <= 2^30, i.e. q <= 8


class SearchGateError(ValueError):
    pass


@dataclass(frozen=True)
class SearchFilters:
    require_a_nonzero: bool = True
    exclude_c1c2: bool = True
    exclude_obstruction: bool = True
    prioritized: bool = False
    cases: frozenset[int] = frozenset()

    def label(self) -> str:
        parts = []
        if self.require_a_nonzero:
            parts.append("a-nonzero")
        if self.exclude_c1c2:
            parts.append("exclude-c1c2")
        if self.exclude_obstruction:
            parts.append("exclude-obstruction")
        if self.prioritized:
            parts.append("prioritized")
        if self.cases:
            parts.append("cases=" + ";".join(map(str, sorted(self.cases))))
        return ",".join(parts) if parts else "none"


THEORY_FILTERS = SearchFilters()
PLAIN_FILTERS = SearchFilters(exclude_obstruction=False)
NO_FILTERS = SearchFilters(False, False, False)


def parse_filters(text: str) -> SearchFilters:
    t = text.strip().lower()
    if t in ("", "default", "theory"):
        return THEORY_FILTERS
    if t == "plain":
        return PLAIN_FILTERS
    if t == "none":
        return NO_FILTERS
    f = NO_FILTERS
    for tok in t.split(","):
        tok = tok.strip()
        if tok == "a-nonzero":
            f = replace(f, require_a_nonzero=True)
        elif tok == "exclude-c1c2":
            f = replace(f, exclude_c1c2=True)
        elif tok == "exclude-obstruction":
            f = replace(f, exclude_obstruction=True)
        elif tok == "prioritized":
            f = replace(f, prioritized=True)
        elif tok.startswith("cases="):
            ids = frozenset(int(x) for x in tok[6:].split(";") if x)
            bad = sorted(ids.difference(range(1, 12)))
            if bad:
                raise ValueError(f"summary case IDs run from 1 to 11, not {bad}")
            f = replace(f, cases=ids)
        else:
            raise ValueError(f"unknown filter token {tok!r}")
    return f


@dataclass(frozen=True)
class SearchJob:
    field: FieldSpec
    mode: str  # 'exhaustive' | 'random'
    samples: int = 0
    seed: int | None = None
    filters: SearchFilters = THEORY_FILTERS
    shards: int = 1

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random mode requires an explicit seed")
        if self.mode == "exhaustive" and (self.seed is not None or self.samples):
            raise ValueError("exhaustive mode takes neither a seed nor a sample count")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")


@dataclass
class SearchResult:
    apn_hits: list[Coeffs]
    counters: dict[str, int]
    manifest: dict


def tuple_index(c: Coeffs, n: int) -> int:
    return (((c.A * n + c.B) * n + c.C) * n + c.D) * n + c.E


def index_tuple(idx: int, n: int) -> Coeffs:
    e = idx % n; idx //= n
    d = idx % n; idx //= n
    cc = idx % n; idx //= n
    b = idx % n; idx //= n
    return Coeffs(idx, b, cc, d, e)


def _closed_form_drop(s, A, filters: SearchFilters):
    """True where the A != 0, C1/C2 or obstruction clause drops the tuple.

    s is the theory's shared evaluation of the tuple. Works on ints and, when
    s was evaluated through an _ArrayField context, on coefficient arrays
    that broadcast against each other.
    """
    drop = False
    if filters.require_a_nonzero:
        drop = drop | (A == 0)
    if filters.exclude_c1c2:
        drop = drop | s.c1 | s.c2
    if filters.exclude_obstruction:
        drop = drop | (s.c6 & (s.h1 != 0))
    return drop


def _keep(ctx: FieldCtx, c: Coeffs, filters: SearchFilters):
    """True where the tuple passes filters: a bool on ints, a mask on 1-D
    coefficient arrays (ctx an _ArrayField)."""
    s = _evaluate(ctx, c)
    # with no closed-form clause on, the drop is the scalar False: broadcast
    # it to the input's shape so arrays always get a mask back
    keep = np.logical_not(np.broadcast_to(_closed_form_drop(s, c.A, filters), np.shape(c.A)))
    if filters.cases or filters.prioritized:
        cases = _cases(ctx, c, s)
        if filters.cases:
            keep = keep & reduce(or_, (cases[i - 1] for i in filters.cases))
        if filters.prioritized:
            keep = keep & _PROMISING[_rule(c, s, cases)]
    return keep


def passes_filters(ctx: FieldCtx, c: Coeffs, filters: SearchFilters) -> bool:
    return bool(_keep(ctx, c, filters))


def _count_permutations(ctx: FieldCtx, hits: list[Coeffs]) -> int:
    """Hits whose function table has N distinct entries, from sorted rows of
    function_tables_batch in chunks of at most 2^16 entries."""
    bt = BatchTables(ctx)
    step = max(1, (1 << 16) // ctx.size)
    count = 0
    for lo in range(0, len(hits), step):
        cols = np.array(hits[lo:lo + step], dtype=np.uint16).T
        f = np.sort(function_tables_batch(bt, *cols), axis=1)
        count += int(np.count_nonzero((f[:, 1:] != f[:, :-1]).all(axis=1)))
    return count


def _run(job: SearchJob, worker, total: int, verify: bool) -> SearchResult:
    """Map worker over the shards, then merge, re-verify and count.

    worker(job, lo, hi) runs one of job.shards contiguous parts of
    range(total) and returns (hit indices, tested, skipped_by_filter). The
    shard count alone fixes the partition; at most os.cpu_count() processes
    run the parts.
    """
    ctx = make_field(job.field)
    t0 = time.time()
    bounds = [total * i // job.shards for i in range(job.shards + 1)]
    args = [(job, bounds[i], bounds[i + 1]) for i in range(job.shards)]
    if job.shards == 1:
        parts = [worker(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(job.shards, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(worker, args))
    hit_lists, tested, skipped = zip(*parts)
    n = ctx.size
    hits = [index_tuple(i, n) for i in sorted(set().union(*hit_lists))]
    if verify:
        for c in hits:
            if not (is_apn_ddt(ctx, c, early_abort=False) and is_apn_equation(ctx, c)):
                raise AssertionError(f"hit {c} failed independent re-verification")
    counters = {
        "universe": n ** 5,
        "tested": sum(tested),
        "skipped_by_filter": sum(skipped),
        "apn": len(hits),
        "permutations": _count_permutations(ctx, hits),
    }
    manifest = {
        "field": str(job.field),
        "mode": job.mode,
        "filters": job.filters.label(),
        "seed": job.seed if job.mode == "random" else None,
        "shards": job.shards,
        "wall_time_s": round(time.time() - t0, 3),
        "tool_version": __version__,
    }
    return SearchResult(hits, counters, manifest)


# -- exhaustive ----------------------------------------------------------------


#: Tuples in one sweep chunk of whole blocks (at least one): apn_planes' line
#: indices then hold 35,840 entries at F16 and 166,656 at F64.
_CHUNK_TUPLES = 1 << 14


def _sweep_blocks(ctx: FieldCtx, lo: int, hi: int, filters: SearchFilters):
    """Run blocks [lo, hi) of the (A, B, C) range in chunks; returns (hits,
    tested, skipped). Closed-form masks broadcast over a chunk's (blocks, D, E)
    cube, `_keep` runs on their survivors under prioritized/cases=, and the
    hits are the kept tuples apn_planes marks APN."""
    n = ctx.size
    bt = BatchTables(ctx)
    actx = _ArrayField(ctx)
    zs = np.arange(n, dtype=np.uint16)
    closed = filters.exclude_c1c2 or filters.exclude_obstruction
    rescan = filters.prioritized or bool(filters.cases)
    step = max(1, _CHUNK_TUPLES // n ** 2)
    hits: list[int] = []
    tested = 0
    for first in range(lo, hi, step):
        blk = np.arange(first, min(first + step, hi))
        A, B, C = (z.astype(np.uint16) for z in (blk // n ** 2, blk // n % n, blk % n))
        cube = Coeffs(*(z[:, None, None] for z in (A, B, C)), zs[:, None], zs)
        s = _evaluate(actx, cube) if closed else None
        drop = np.broadcast_to(_closed_form_drop(s, cube.A, filters), (blk.size, n, n))
        idx = np.flatnonzero(~drop)
        if rescan and idx.size:
            b, de = np.divmod(idx, n * n)
            c = Coeffs(A[b], B[b], C[b], *(z.astype(np.uint16) for z in np.divmod(de, n)))
            idx = idx[_keep(actx, c, filters)]
        tested += idx.size
        apn = apn_planes(bt, A, B, C).ravel()[idx]
        hits.extend((first * n ** 2 + idx[apn]).tolist())
    return hits, tested, (hi - lo) * n ** 2 - tested


def _exhaustive_worker(args):
    job, lo, hi = args
    return _sweep_blocks(make_field(job.field), lo, hi, job.filters)


def run_exhaustive(job: SearchJob, verify: bool = True) -> SearchResult:
    """Visit every tuple once, apply filters, and keep the survivors that
    the 2-flat sieve marks APN.

    Results are a pure function of (field, filters); the shard count only
    changes the work partition. Every hit is re-verified with the no-abort
    DDT oracle and the equation-form test unless verify=False.
    """
    if job.mode != "exhaustive":
        raise ValueError("job mode is not exhaustive")
    spec = job.field
    if 5 * spec.degree > EXHAUSTIVE_GATE_BITS:
        raise SearchGateError(
            f"exhaustive universe (2^{5 * spec.degree}) exceeds the "
            f"2^{EXHAUSTIVE_GATE_BITS} gate for {spec}"
        )
    return _run(job, _exhaustive_worker, spec.size ** 3, verify)


# -- random --------------------------------------------------------------------

_MAX_DRAWS_PER_SAMPLE = 1_000_000
#: Random mode filters the draws of _GROUP_SAMPLES samples, _GROUP_DRAWS
#: draws each, in one array call; _GROUP_DRAWS divides _MAX_DRAWS_PER_SAMPLE.
_GROUP_SAMPLES = 16
_GROUP_DRAWS = 250


def _random_worker(args):
    """Samples [lo, hi) in groups. Sample j keeps the first draw of stream
    (seed, j) that passes the filters, so the draws it rejected are that
    draw's index; the kept tuples are APN-tested together."""
    job, lo, hi = args
    ctx = make_field(job.field)
    actx = _ArrayField(ctx)
    bt = BatchTables(ctx)
    n = ctx.size
    n5 = n ** 5
    digits = n ** np.arange(4, -1, -1, dtype=np.int64)  # tuple index -> (A, B, C, D, E)
    hits = []
    rejected = 0
    for first in range(lo, hi, _GROUP_SAMPLES):
        streams = {j: Stream64(job.seed, j) for j in range(first, min(first + _GROUP_SAMPLES, hi))}
        kept = []
        for drawn in range(0, _MAX_DRAWS_PER_SAMPLE, _GROUP_DRAWS):
            if not streams:
                break
            draws = np.array([[st.below(n5) for _ in range(_GROUP_DRAWS)]
                              for st in streams.values()], dtype=np.int64)
            cols = (draws[..., None] // digits % n).astype(np.uint16).reshape(-1, 5).T
            keep = _keep(actx, Coeffs(*cols), job.filters).reshape(draws.shape)
            for row, j in enumerate(list(streams)):
                if keep[row].any():
                    k = int(keep[row].argmax())
                    kept.append(draws[row, k])
                    rejected += drawn + k
                    del streams[j]
        if streams:
            raise SearchGateError(
                f"filter region too sparse: {_MAX_DRAWS_PER_SAMPLE} draws rejected "
                f"for sample {min(streams)}"
            )
        idx = np.array(kept, dtype=np.int64)
        cols = (idx[:, None] // digits % n).astype(np.uint16).T
        hits.extend(int(i) for i in idx[apn_mask_batch(bt, *cols)])
    return hits, hi - lo, rejected


def run_random(job: SearchJob, verify: bool = True) -> SearchResult:
    """Draw `samples` filtered tuples from seed-addressed streams and test each.

    Sampling is with replacement over the filtered universe (per-sample
    rejection); the hit list is deduplicated and sorted, and is identical
    for any shard count.
    """
    if job.mode != "random":
        raise ValueError("job mode is not random")
    return _run(job, _random_worker, job.samples, verify)


def run(job: SearchJob, verify: bool = True) -> SearchResult:
    if job.mode == "exhaustive":
        return run_exhaustive(job, verify=verify)
    return run_random(job, verify=verify)


# -- common-factor regime census -------------------------------------------


@dataclass
class CensusReport:
    """Classification of the h1 = 0, BC^q + B^qD != 0 (A != 0) regime.

    Every regime tuple carries an empirical APN flag and a gcd(a2, a0)
    triviality flag; tuples with nontrivial gcd are split by the phi-fixed
    point scan of (G = 0, gcd = 0) into 'exceptional' (no off-plane point)
    and 'generic'. Scans for non-APN tuples are skipped unless full_scan.

    A tuple with a2 = 0 counts as gcd-nontrivial, since gcd(0, a0) = a0,
    and a0 = g1 g2 is never constant in the regime: the Z0 coefficient of g1
    is (BC^q + B^qD)^q != 0. This covers 36 regime tuples at q = 2 and 1950
    at q = 4.
    """

    field: str
    regime_size: int = 0
    apn_total: int = 0
    gcd_trivial: int = 0
    gcd_trivial_apn: int = 0
    gcd_nontrivial: int = 0
    gcd_nontrivial_apn: int = 0
    exceptional_apn: int = 0
    generic_apn: int = 0
    exceptional_nonapn: int | None = None
    generic_nonapn: int | None = None
    exceptional_apn_all_c_zero: bool = True
    exceptional_tuples: list[Coeffs] = field(default_factory=list)

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out["exceptional_tuples"] = [list(c) for c in self.exceptional_tuples]
        return out


def regime_tuples(ctx: FieldCtx) -> list[Coeffs]:
    """All tuples with A != 0, h1 = 0 and BC^q + B^qD != 0."""
    n = ctx.size
    zs = np.arange(n, dtype=np.uint16)
    B, C, D = zs[:, None, None], zs[None, :, None], zs[None, None, :]
    actx = _ArrayField(ctx)
    out = []
    for a in range(1, n):
        s = _evaluate(actx, Coeffs(a, B, C, D, 0))  # h1 and BC^q + B^qD do not involve E
        for b, cc, d in np.argwhere((s.bcd != 0) & (s.h1 == 0)):
            out.extend(Coeffs(a, int(b), int(cc), int(d), e) for e in range(n))
    return out


def gcd_regime_census(spec: FieldSpec, full_scan: bool = False) -> CensusReport:
    """Classify the whole regime at one field; see CensusReport."""
    from .sympoly import gcd_curve_has_points, gcd_trivial

    ctx = make_field(spec)
    rep = CensusReport(field=str(spec))
    tuples = regime_tuples(ctx)
    rep.regime_size = len(tuples)
    if not tuples:
        return rep

    bt = BatchTables(ctx)
    arr = np.fromiter(chain.from_iterable(tuples), np.uint16, 5 * len(tuples)).reshape(-1, 5)
    apn = np.zeros(len(tuples), dtype=bool)
    for lo in range(0, len(tuples), 8192):
        hi = min(lo + 8192, len(tuples))
        apn[lo:hi] = apn_mask_batch(
            bt, arr[lo:hi, 0], arr[lo:hi, 1], arr[lo:hi, 2], arr[lo:hi, 3], arr[lo:hi, 4]
        )
    rep.apn_total = int(apn.sum())

    if full_scan:
        rep.exceptional_nonapn = 0
        rep.generic_nonapn = 0
    for i, c in enumerate(tuples):
        is_apn = bool(apn[i])
        if gcd_trivial(ctx, c):
            rep.gcd_trivial += 1
            rep.gcd_trivial_apn += is_apn
            continue
        rep.gcd_nontrivial += 1
        rep.gcd_nontrivial_apn += is_apn
        if not (is_apn or full_scan):
            continue
        if not gcd_curve_has_points(ctx, c):
            if is_apn:
                rep.exceptional_apn += 1
                rep.exceptional_tuples.append(c)
                if c.C != 0:
                    rep.exceptional_apn_all_c_zero = False
            else:
                rep.exceptional_nonapn += 1
        else:
            if is_apn:
                rep.generic_apn += 1
            else:
                rep.generic_nonapn += 1
    return rep
