import json
import random

import numpy as np
import pytest

from hexapn import search
from hexapn.cli import TABLE_REPRESENTATIVES, _report, main
from hexapn.diffanalysis import BatchTables, apn_mask_batch, differential_profile, is_permutation
from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs
from hexapn.invariants import fingerprint
from hexapn.theory import analyze


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_f64_representative(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "F64", "--tuple", "a^23,a^23,a^47,a^25,a^29"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["apn"] is True
    assert rep["is_permutation"] is False
    assert rep["differential_uniformity"] == 2


def test_verify_ddt_csv(capsys, tmp_path):
    path = tmp_path / "ddt.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--field", "F4", "--tuple", "a,0,0,0,a",
        "--ddt-csv", str(path),
    )
    assert code == 0
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 4 and rows[0].split(",")[0] == "4"


def test_theory_report(capsys):
    code, out, _ = run_cli(capsys, "theory", "--field", "F16", "--tuple", "a,0,0,a,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["c1"] is False and rep["c2"] is False
    assert rep["h1"] == "0"
    assert "verdict" in rep


def test_search_artifacts(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "search", "--field", "F4", "--mode", "exhaustive",
        "--out", str(tmp_path),
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["counters"]["apn"] == 390
    hits = (tmp_path / "search_f4_exhaustive_hits.jsonl").read_text().splitlines()
    assert len(hits) == 390
    rec = json.loads(hits[0])
    assert set(rec) == {
        "field", "A", "B", "C", "D", "E", "univariate",
        "is_permutation", "matched_cases", "fingerprint_hash",
    }
    assert (tmp_path / "search_f4_exhaustive_manifest.json").exists()


def test_invariants_tuple(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--field", "F4", "--tuple", "a,0,0,0,a", "--ranks"
    )
    assert code == 0
    fp = json.loads(out)
    assert fp["gamma_rank"] is not None and "hash" in fp


def test_invariants_partition_from_hits(capsys, tmp_path):
    run_cli(capsys, "search", "--field", "F4", "--mode", "exhaustive",
            "--out", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "invariants", "--field", "F4",
        "--hits", str(tmp_path / "search_f4_exhaustive_hits.jsonl"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,size,representative"
    assert len(lines) == 2  # a single fingerprint class
    assert lines[1].split(",")[1] == "390"


def test_sympoly_dump(capsys):
    code, out, _ = run_cli(
        capsys, "sympoly", "--field", "F4", "--tuple", "1,a,0,1,1", "--scan"
    )
    assert code == 0
    assert "# G" in out and "# gcd(a2,a0)" in out
    assert "# off-plane phi-fixed points of (F1, F2): 0" in out


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--field", "gf2:4:0x10", "--tuple", "a,0,0,0,0")
    assert code == 3 and "reducible" in err
    code, _, err = run_cli(capsys, "verify", "--field", "F4", "--tuple", "a,0,0")
    assert code == 3
    code, _, err = run_cli(capsys, "search", "--field", "F256", "--mode", "exhaustive",
                           "--out", str(tmp_path))
    assert code == 4 and "gate" in err
    code, _, err = run_cli(capsys, "invariants", "--field", "F256",
                           "--tuple", "a,0,0,0,a", "--ranks")
    assert code == 4
    code, _, err = run_cli(capsys, "invariants", "--field", "F4",
                           "--hits", str(tmp_path / "missing.jsonl"))
    assert code == 5
    code, _, err = run_cli(capsys, "sympoly", "--field", "F4", "--tuple", "a,0,0,0,0")
    assert code == 4 and "C1" in err
    # summary cases run from 1 to 11, in both search modes
    for mode in (("--mode", "exhaustive"), ("--mode", "random", "--seed", "1", "--samples", "1")):
        code, out, err = run_cli(capsys, "search", "--field", "F4", *mode, "--filters", "cases=12",
                                 "--out", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # fields stop at GF(2^10): a degree-12 spec is a bad spec, not a traceback
    for cmd in ("verify", "theory", "invariants"):
        code, out, err = run_cli(capsys, cmd, "--field", "gf2:12:0x1053",
                                 "--tuple", "a,0,0,0,a")
        assert code == 3 and out == "", cmd
        assert err.startswith("error: bad field spec") and err.count("\n") == 1, cmd


@pytest.mark.parametrize("cmd", ["verify", "theory", "repro-appendix"])
def test_force_gate_only_where_read(capsys, tmp_path, cmd):
    # only invariants and sympoly read --force-gate; elsewhere it is a usage error
    argv = [cmd, "--force-gate", "--out", str(tmp_path)]
    if cmd != "repro-appendix":
        argv += ["--field", "F4", "--tuple", "a,0,0,0,a"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--force-gate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--mode", "exhaustive", "--shards", "0"),
    ("--mode", "random", "--seed", "1", "--samples", "-5"),
    ("--mode", "exhaustive", "--seed", "5"),
    ("--mode", "exhaustive", "--samples", "7"),
    ("--mode", "random", "--samples", "3"),
])
def test_search_bad_sizes_are_usage_errors(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, "search", "--field", "F4", *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and the number
    of parts mapped, runs in-process."""

    seen: list[int] = []
    parts: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        args = list(args)
        self.parts.append(len(args))
        return map(fn, args)


def test_search_workers_capped_at_cpu_count(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    _InlinePool.seen.clear()
    _InlinePool.parts.clear()
    manifests = {}
    # F4 has 64 (A, B, C) blocks: 10000 shards split into 64 parts, and the
    # manifest keeps the requested count
    for shards in ("1", "3", "10000"):
        out = tmp_path / shards
        code, _, _ = run_cli(capsys, "search", "--field", "F4", "--shards", shards,
                             "--out", str(out))
        assert code == 0
        m = json.loads((out / "search_f4_exhaustive_manifest.json").read_text())
        assert m.pop("shards") == int(shards)
        m.pop("wall_time_s")
        manifests[shards] = m
        hits = (out / "search_f4_exhaustive_hits.jsonl").read_bytes()
        manifests[shards]["hits"] = hits
    assert _InlinePool.seen == [2, 2]  # two workers at most
    assert _InlinePool.parts == [3, 64]
    assert manifests["1"] == manifests["3"] == manifests["10000"]


@pytest.mark.parametrize("line", [
    '{"field": "gf2:2:0x7", "A": "a", "B": "0"}',  # partial record
    'not json',
    '{"field": "gf2:2:0x7", "A": "b^2", "B": "0", "C": "0", "D": "0", "E": "a"}',
    '{"field": "gf2:4:0x13", "A": "a", "B": "0", "C": "0", "D": "a", "E": "0"}',
])
def test_invariants_bad_hits_are_unreadable_input(capsys, tmp_path, line):
    good = '{"field": "gf2:2:0x7", "A": "a", "B": "0", "C": "0", "D": "0", "E": "a"}'
    path = tmp_path / "hits.jsonl"
    path.write_text(good + "\n" + line + "\n")
    code, out, err = run_cli(capsys, "invariants", "--field", "F4", "--hits", str(path))
    assert code == 5 and out == ""
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1


def test_repro_appendix_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(capsys, "repro-appendix", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "repro-appendix", "--out", str(out2))[0] == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "representatives.csv" in names
    assert "census_f4.json" in names
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        if name.endswith("manifest.json"):
            # wall time differs; compare without it
            ja, jb = json.loads(a), json.loads(b)
            ja.pop("wall_time_s"), jb.pop("wall_time_s")
            assert ja == jb
        else:
            assert a == b, name


def test_representatives_csv_flags(capsys, tmp_path):
    run_cli(capsys, "repro-appendix", "--out", str(tmp_path))
    rows = (tmp_path / "representatives.csv").read_text().strip().splitlines()
    assert len(rows) == 8  # header + 7 table rows
    headers = rows[0].split(",")
    i_apn = headers.index("is_apn")
    i_perm = headers.index("is_permutation")
    flags = [(r.split(",")[0], r.split(",")[i_apn], r.split(",")[i_perm]) for r in rows[1:]]
    # no representative is a permutation; F256 row 2 as printed fails APN
    assert all(p == "False" for _, _, p in flags)
    apn_by_row = [a == "True" for _, a, _ in flags]
    assert apn_by_row == [True, True, True, True, True, True, False]


def _sampled_tuples(ctx, rng, count, hits):
    """count random tuples and `hits` APN ones found among random draws."""
    n = ctx.size
    arr = np.array([[rng.randrange(n) for _ in range(5)] for _ in range(40000)],
                   dtype=np.uint16)
    apn = arr[apn_mask_batch(BatchTables(ctx), *arr.T)]
    return [Coeffs(*map(int, t)) for t in (*arr[:count], *apn[:hits])]


def test_report_matches_separate_calls():
    # the one-table report behind hit records and representative rows equals
    # the separate calls it replaces
    rng = random.Random(21)
    f4 = make_field(NAMED_SPECS["F4"])
    job = search.SearchJob(f4.spec, "exhaustive")
    inputs = [(f4, c) for c in search.run_exhaustive(job, verify=False).apn_hits]
    assert len(inputs) == 390
    for name, count, hits in (("F16", 30, 30), ("F64", 4, 6)):
        ctx = make_field(NAMED_SPECS[name])
        sample = _sampled_tuples(ctx, rng, count, hits)
        assert len(sample) == count + hits
        inputs += [(ctx, c) for c in sample]
    for fname, texts in TABLE_REPRESENTATIVES:
        ctx = make_field(NAMED_SPECS[fname])
        inputs.append((ctx, Coeffs(*(ctx.parse_elem(t) for t in texts))))
    for ctx, c in inputs:
        prof, fp, cases = _report(ctx, c)
        assert prof == differential_profile(ctx, c), c
        assert prof.is_permutation == is_permutation(ctx, c), c
        assert fp.hash == fingerprint(ctx, c).hash, c
        assert tuple(cases) == analyze(ctx, c).matched_cases, c
