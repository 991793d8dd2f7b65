"""Output checks for the benchmark's jobs.

Every check is counted: `Checks.attempted` and `Checks.failed` become the
`attempted` and `failed` of the benchmark's result, so their quotient is the
error rate. A check that cannot even read its input fails; it never raises.

The expected values asserted here are the green reproduction targets only
(390 and 28170 APN tuples, the regime size 288, zero contradictions at
q = 4). Reference values behind the red acceptance criteria 3, 4, 5 and 10
are deliberately not asserted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CONGRUENCE_Q2MOD3 = "data supports q = 2 (mod 3)"


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def _read_json(ck: Checks, path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        ck.add(f"{path.name} readable", False, str(exc))
        return None


def _field(name: str):
    from hexapn.field import NAMED_SPECS, make_field
    return make_field(NAMED_SPECS[name])


def hits_file(ck: Checks, path: Path, field: str, counters: dict, theory_filter: bool):
    """A JSONL hit stream against its manifest counters and two oracles:
    the batch APN kernel and, for theory-filtered searches, the scalar
    theory predicates (the search itself applies vectorized filter masks)."""
    import numpy as np
    from hexapn.diffanalysis import BatchTables, apn_mask_batch
    from hexapn.hexanomial import Coeffs
    from hexapn.search import THEORY_FILTERS, passes_filters, tuple_index

    try:
        lines = path.read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        ctx = _field(field)
        hits = [Coeffs(*(ctx.parse_elem(r[k]) for k in "ABCDE")) for r in recs]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ck.add(f"{path.name} readable", False, str(exc))
        return
    ck.add("hit lines = apn counter", len(hits) == counters.get("apn"),
           f"{len(hits)} lines, counter {counters.get('apn')}")
    idx = [tuple_index(c, ctx.size) for c in hits]
    ck.add("hits sorted without duplicates", all(a < b for a, b in zip(idx, idx[1:])))
    ck.add("hit records name the field", all(r.get("field") == str(ctx.spec) for r in recs))
    perms = sum(bool(r.get("is_permutation")) for r in recs)
    ck.add("permutation flags = permutation counter", perms == counters.get("permutations"),
           f"{perms} flagged, counter {counters.get('permutations')}")
    if hits:
        cols = np.array(hits, dtype=np.uint16).T
        apn = apn_mask_batch(BatchTables(ctx), *cols)
        ck.add("every hit APN under the batch kernel", bool(apn.all()),
               f"{int((~apn).sum())} not APN")
    if theory_filter:
        bad = sum(not passes_filters(ctx, c, THEORY_FILTERS) for c in hits)
        ck.add("every hit passes the scalar theory filter", bad == 0, f"{bad} fail")


def exhaustive_search(ck: Checks, out: Path, field: str, stem: str, expected_apn: int):
    """`hexapn search --mode exhaustive --filters theory` artifacts."""
    manifest = _read_json(ck, out / f"{stem}_manifest.json")
    if manifest is None:
        return
    c = manifest.get("counters", {})
    universe = _field(field).size ** 5
    ck.add(f"apn = {expected_apn}", c.get("apn") == expected_apn, f"apn {c.get('apn')}")
    ck.add("no permutations", c.get("permutations") == 0, f"{c.get('permutations')}")
    ck.add("tested + skipped = universe",
           c.get("universe") == universe
           and c.get("tested", 0) + c.get("skipped_by_filter", 0) == universe,
           f"{c}")
    hits_file(ck, out / f"{stem}_hits.jsonl", field, c, theory_filter=True)


def random_search(ck: Checks, out: Path, field: str, samples: int):
    """`hexapn search --mode random` artifacts."""
    stem = f"search_{field.lower()}_random"
    manifest = _read_json(ck, out / f"{stem}_manifest.json")
    if manifest is None:
        return
    c = manifest.get("counters", {})
    ck.add(f"tested = {samples}", c.get("tested") == samples, f"tested {c.get('tested')}")
    ck.add("universe = N^5", c.get("universe") == _field(field).size ** 5, f"{c.get('universe')}")
    hits_file(ck, out / f"{stem}_hits.jsonl", field, c, theory_filter=False)


def reconcile(ck: Checks, out: Path, field: str, expected_theory_hits: int):
    """reconcile.json and the unfiltered hit indices of the reconcile job."""
    from hexapn.search import THEORY_FILTERS, index_tuple, passes_filters

    rep = _read_json(ck, out / "reconcile.json")
    hits = _read_json(ck, out / "hits.json")
    if rep is None or hits is None:
        return
    ctx = _field(field)
    n = ctx.size
    contra = rep.get("contradictions", {})
    ck.add("contradictions C1 = C2 = case9 = case10 = 0",
           [contra.get(k) for k in ("c1", "c2", "case9", "case10")] == [0, 0, 0, 0], f"{contra}")
    ck.add("congruence resolution", rep.get("congruence_resolution") == CONGRUENCE_Q2MOD3,
           f"{rep.get('congruence_resolution')!r}")
    ck.add("every tuple reconciled", rep.get("total") == n ** 5, f"{rep.get('total')}")
    ck.add("reconcile apn total = sweep hits", rep.get("apn_total") == len(hits),
           f"{rep.get('apn_total')} vs {len(hits)}")
    kept = sum(passes_filters(ctx, index_tuple(i, n), THEORY_FILTERS) for i in hits)
    ck.add(f"unfiltered hits passing the theory filter = {expected_theory_hits}",
           kept == expected_theory_hits, f"{kept}")


REPRESENTATIVES_HEADER = ("field,A,B,C,D,E,polynomial,is_apn,is_permutation,uniformity,"
                          "fingerprint_hash,matched_cases")


def appendix(ck: Checks, out: Path):
    """`hexapn repro-appendix` (q = 2 only) artifacts."""
    census = _read_json(ck, out / "census_f4.json")
    if census is not None:
        ck.add("census regime size = 288", census.get("regime_size") == 288,
               f"{census.get('regime_size')}")
    exhaustive_search(ck, out, "F4", "search_f4", 390)
    try:
        rows = (out / "representatives.csv").read_text().splitlines()
        part = (out / "partition_f4.csv").read_text().splitlines()
        sizes = sum(int(line.split(",")[1]) for line in part[1:])
    except (OSError, ValueError, IndexError) as exc:
        ck.add("appendix tables readable", False, str(exc))
        return
    ck.add("representative table has 7 rows",
           len(rows) == 8 and rows[0] == REPRESENTATIVES_HEADER, f"{len(rows)} lines")
    ck.add("partition covers the 390 hits",
           part[0] == "group,size,representative" and sizes == 390, f"{sizes}")


def _normalized(path: Path) -> bytes:
    """File bytes; manifests without their wall-clock field."""
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        m = json.loads(data)
        m.pop("wall_time_s", None)
        data = json.dumps(m, sort_keys=True).encode()
    return data


def artifacts(out: Path) -> dict[str, str]:
    """sha256 of each artifact a job wrote, by file name."""
    return {
        p.name: hashlib.sha256(_normalized(p)).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "spans.tsv"
    }


def same_artifacts(ck: Checks, label: str, ref: dict[str, str], other: dict[str, str],
                   names=None):
    """Byte-identical artifacts (manifests up to wall time) between two jobs."""
    names = sorted(ref) if names is None else names
    if not names:
        ck.add(f"{label}: artifacts to compare", False, "no common artifacts")
    for name in names:
        ck.add(f"{label}: {name} identical", ref.get(name) is not None
               and ref.get(name) == other.get(name))
