"""Self-check of the benchmark harness: corrupted outputs must count as
failed checks, and the metric catalog must match BENCHMARK.json."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import checks  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

STEM = "search_f4_exhaustive"


@pytest.fixture(scope="module")
def f4_search(tmp_path_factory):
    from hexapn import cli

    out = tmp_path_factory.mktemp("f4")
    assert cli.main(["search", "--field", "F4", "--mode", "exhaustive", "--filters", "theory",
                     "--shards", "1", "--out", str(out)]) == 0
    return out


def _run_checks(out):
    ck = checks.Checks()
    checks.exhaustive_search(ck, out, "F4", STEM, 390)
    return ck


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_clean_output_passes(f4_search):
    ck = _run_checks(f4_search)
    assert ck.attempted >= 8
    assert ck.failed == 0, ck.failures()


def test_dropped_hit_is_a_failure(f4_search, tmp_path):
    out = _copy(f4_search, tmp_path / "dropped")
    hits = out / f"{STEM}_hits.jsonl"
    lines = hits.read_text().splitlines(keepends=True)
    hits.write_text("".join(lines[:100] + lines[101:]))
    ck = _run_checks(out)
    assert ck.failed >= 1
    assert any(f.startswith("hit lines = apn counter") for f in ck.failures())
    ref, got = checks.artifacts(f4_search), checks.artifacts(out)
    same = checks.Checks()
    checks.same_artifacts(same, "dropped vs clean", ref, got)
    assert same.failed == 1


def test_wrong_counter_is_a_failure(f4_search, tmp_path):
    out = _copy(f4_search, tmp_path / "counter")
    manifest = out / f"{STEM}_manifest.json"
    m = json.loads(manifest.read_text())
    m["counters"]["apn"] += 1
    manifest.write_text(json.dumps(m))
    ck = _run_checks(out)
    assert ck.failed >= 2  # the apn target and the hit-line count
    assert any(f.startswith("apn = 390") for f in ck.failures())


def test_missing_output_is_a_failure(tmp_path):
    ck = _run_checks(tmp_path)
    assert ck.attempted == ck.failed == 1


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
