import hashlib
import itertools
import random

import numpy as np
import pytest

from hexapn.field import NAMED_SPECS, make_field
from hexapn.hexanomial import Coeffs
from hexapn.diffanalysis import is_apn_ddt, is_apn_equation
from hexapn.search import (
    NO_FILTERS,
    THEORY_FILTERS,
    PLAIN_FILTERS,
    SearchFilters,
    SearchGateError,
    SearchJob,
    _ArrayField,
    _keep,
    _sweep_blocks,
    index_tuple,
    parse_filters,
    passes_filters,
    gcd_regime_census,
    run_exhaustive,
    run_random,
    tuple_index,
)
from oracles import passes_filters_scalar


def test_tuple_index_roundtrip():
    n = 16
    rng = random.Random(0)
    for _ in range(100):
        idx = rng.randrange(n ** 5)
        assert tuple_index(index_tuple(idx, n), n) == idx


def test_parse_filters():
    assert parse_filters("theory") == THEORY_FILTERS
    assert parse_filters("default") == THEORY_FILTERS
    assert parse_filters("plain") == PLAIN_FILTERS
    assert parse_filters("none") == NO_FILTERS
    f = parse_filters("a-nonzero,prioritized,cases=9;10")
    assert f.require_a_nonzero and f.prioritized and f.cases == frozenset({9, 10})
    assert not f.exclude_c1c2
    with pytest.raises(ValueError):
        parse_filters("bogus-token")
    for text in ("cases=0", "cases=12", "cases=5;12", "cases=", "cases=;"):
        with pytest.raises(ValueError):
            parse_filters(text)


def test_filter_labels():
    assert THEORY_FILTERS.label() == "a-nonzero,exclude-c1c2,exclude-obstruction"
    assert NO_FILTERS.label() == "none"


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "sideways")
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "random", samples=10)  # no seed
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "exhaustive", shards=0)
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "random", samples=-5, seed=1)
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "exhaustive", seed=5)
    with pytest.raises(ValueError):
        SearchJob(NAMED_SPECS["F4"], "exhaustive", samples=7)


def test_exhaustive_gate():
    with pytest.raises(SearchGateError):
        run_exhaustive(SearchJob(NAMED_SPECS["F256"], "exhaustive"))


def test_exhaustive_q2_counts():
    res = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive"))
    assert res.counters["apn"] == 390
    assert res.counters["permutations"] == 0
    assert res.counters["tested"] + res.counters["skipped_by_filter"] == 4 ** 5
    # dual census: the plain and unfiltered universes carry more APN tuples
    plain = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", filters=PLAIN_FILTERS))
    assert plain.counters["apn"] == 552
    unfiltered = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", filters=NO_FILTERS))
    assert unfiltered.counters["apn"] == 768
    assert unfiltered.counters["skipped_by_filter"] == 0


def test_exhaustive_shard_invariance():
    one = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", shards=1))
    three = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", shards=3))
    assert one.apn_hits == three.apn_hits
    assert one.counters == three.counters


def test_exhaustive_shard_invariance_q4():
    one = run_exhaustive(SearchJob(NAMED_SPECS["F16"], "exhaustive"), verify=False)
    four = run_exhaustive(SearchJob(NAMED_SPECS["F16"], "exhaustive", shards=4), verify=False)
    assert one.counters == four.counters
    assert one.apn_hits == four.apn_hits


#: sha256 of the exhaustive hit indices and counters below, as computed when
#: each (D, E) block's filter survivors went through the DDT kernel.
EXHAUSTIVE_DIGEST = "b0a1b9aee99fc2a27200c48cb20fa1502a5fc7374a3207ccac1d1e6557eec046"
EXHAUSTIVE_RUNS = [("F4", text) for text in ("none", "plain", "theory", "prioritized", "cases=5;6")]
EXHAUSTIVE_RUNS += [("F16", text) for text in ("none", "theory", "cases=9;10")]


def test_exhaustive_output_pinned():
    # the 2-flat sieve over chunks of blocks finds the kernel's hits and
    # keeps its counters, at every shard count
    digest = hashlib.sha256()
    for (field, text), shards in itertools.product(EXHAUSTIVE_RUNS, (1, 3)):
        spec = NAMED_SPECS[field]
        res = run_exhaustive(SearchJob(spec, "exhaustive", filters=parse_filters(text),
                                       shards=shards), verify=False)
        line = (field, text, shards, [tuple_index(c, spec.size) for c in res.apn_hits],
                sorted(res.counters.items()))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == EXHAUSTIVE_DIGEST


EQUIVALENCE_FILTERS = [
    "theory", "plain", "none", "a-nonzero", "exclude-c1c2", "exclude-obstruction",
    "prioritized", "a-nonzero,prioritized", "cases=9;10",
]


@pytest.mark.parametrize("text", EQUIVALENCE_FILTERS)
def test_exhaustive_filters_match_scalar_oracle_q2(text):
    # every filter token applies in exhaustive mode exactly as the scalar
    # reference decides it; the APN oracle is the scalar DDT test
    spec = NAMED_SPECS["F4"]
    ctx = make_field(spec)
    filters = parse_filters(text)
    kept = [c for c in map(lambda i: index_tuple(i, 4), range(4 ** 5))
            if passes_filters_scalar(ctx, c, filters)]
    res = run_exhaustive(SearchJob(spec, "exhaustive", filters=filters))
    assert res.counters["tested"] == len(kept)
    assert res.counters["skipped_by_filter"] == 4 ** 5 - len(kept)
    assert res.apn_hits == [c for c in kept if is_apn_ddt(ctx, c)]
    assert res.manifest["filters"] == filters.label()


def test_exhaustive_obstruction_filter_matches_scalar_oracle_q4():
    # the obstruction clause alone must also act on A = 0 blocks. The APN
    # oracle here is the unfiltered sweep (the batch kernel, itself checked
    # against the scalar tests), restricted to the tuples the scalar reference keeps
    spec = NAMED_SPECS["F16"]
    ctx = make_field(spec)
    filters = parse_filters("exclude-obstruction")
    kept = [i for i in range(16 ** 5) if passes_filters_scalar(ctx, index_tuple(i, 16), filters)]
    res = run_exhaustive(SearchJob(spec, "exhaustive", filters=filters), verify=False)
    assert res.counters["tested"] == len(kept) == 367936
    assert res.counters["skipped_by_filter"] == 16 ** 5 - len(kept)
    unfiltered = run_exhaustive(SearchJob(spec, "exhaustive", filters=NO_FILTERS), verify=False)
    kept_set = set(kept)
    assert res.apn_hits == [c for c in unfiltered.apn_hits if tuple_index(c, 16) in kept_set]
    assert res.counters["apn"] == 30116


@pytest.mark.parametrize("text", ["prioritized", "cases=5;6", "a-nonzero,prioritized"])
def test_sweep_theory_filters_match_scalar_oracle_q4(text):
    # the sweep's array-form verdicts and cases keep exactly the tuples that
    # the scalar reference keeps, tuple by tuple, on F16 blocks with A = 0
    # and A = 1 (every verdict reason occurs there); the block's hits are its
    # kept tuples that the scalar DDT test finds APN
    ctx = make_field(NAMED_SPECS["F16"])
    actx = _ArrayField(ctx)
    filters = parse_filters(text)
    zs = np.arange(16 * 16, dtype=np.uint16)
    kept_total = 0
    for blk in range(240, 336):
        A, B, C = blk // 256, blk // 16 % 16, blk % 16
        c = Coeffs(*(np.full(zs.shape, z, dtype=np.uint16) for z in (A, B, C)), zs // 16, zs % 16)
        keep = _keep(actx, c, filters)
        kept = [i for i in range(blk * 256, blk * 256 + 256)
                if passes_filters_scalar(ctx, index_tuple(i, 16), filters)]
        assert [blk * 256 + int(i) for i in np.flatnonzero(keep)] == kept, blk
        hits, tested, skipped = _sweep_blocks(ctx, blk, blk + 1, filters)
        assert (tested, skipped) == (len(kept), 256 - len(kept))
        assert hits == [i for i in kept if is_apn_ddt(ctx, index_tuple(i, 16))]
        kept_total += len(kept)
    assert kept_total == {"prioritized": 949, "cases=5;6": 620, "a-nonzero,prioritized": 796}[text]


def test_exhaustive_hits_verified():
    ctx = make_field(NAMED_SPECS["F4"])
    res = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive"))
    rng = random.Random(1)
    for c in rng.sample(res.apn_hits, 25):
        assert is_apn_ddt(ctx, c, early_abort=False)
        assert is_apn_equation(ctx, c)


def test_passes_filters_consistency():
    ctx = make_field(NAMED_SPECS["F16"])
    rng = random.Random(2)
    kept = 0
    others = [parse_filters(t) for t in EQUIVALENCE_FILTERS + ["cases=5;6", "a-nonzero,cases=2;3;4;7;8;11"]]
    for _ in range(500):
        c = Coeffs(*(rng.randrange(16) for _ in range(5)))
        if passes_filters(ctx, c, THEORY_FILTERS):
            kept += 1
            assert c.A != 0
        for filters in others:
            assert passes_filters(ctx, c, filters) == passes_filters_scalar(ctx, c, filters), c
    assert 0 < kept < 500


def test_random_determinism_and_shards():
    job = SearchJob(NAMED_SPECS["F16"], "random", samples=400, seed=99, shards=1)
    a = run_random(job)
    b = run_random(job)
    assert a.apn_hits == b.apn_hits and a.counters == b.counters
    sharded = run_random(SearchJob(NAMED_SPECS["F16"], "random", samples=400, seed=99, shards=8))
    assert sharded.apn_hits == a.apn_hits
    assert sharded.counters["skipped_by_filter"] == a.counters["skipped_by_filter"]
    different = run_random(SearchJob(NAMED_SPECS["F16"], "random", samples=400, seed=100))
    assert different.apn_hits != a.apn_hits or different.counters != a.counters


def test_random_prioritized_q8_finds_hits():
    # frozen seed; the theory-guided sampler hits APN tuples in a few hundred draws
    job = SearchJob(
        NAMED_SPECS["F64"], "random", samples=300, seed=20250809,
        filters=SearchFilters(prioritized=True),
    )
    res = run_random(job)
    assert res.counters["apn"] >= 1
    assert res.counters["permutations"] == 0
    ctx = make_field(NAMED_SPECS["F64"])
    for c in res.apn_hits:
        assert is_apn_ddt(ctx, c, early_abort=False) and is_apn_equation(ctx, c)


def test_random_hits_partition_audit():
    # post-search audit: group the q=8 random hits by fingerprint; every
    # member of every group is verified APN, group count bounds classes below
    from hexapn.invariants import partition_by_fingerprint

    job = SearchJob(
        NAMED_SPECS["F64"], "random", samples=300, seed=20250809,
        filters=SearchFilters(prioritized=True),
    )
    res = run_random(job)
    ctx = make_field(NAMED_SPECS["F64"])
    groups = partition_by_fingerprint(ctx, res.apn_hits)
    assert 1 <= len(groups) <= len(res.apn_hits)
    for members in groups.values():
        for c in members:
            assert is_apn_ddt(ctx, c)


def test_random_case_restricted_q8():
    # summary cases 9/10 are necessary-and-sufficient; sampled tuples are all APN
    job = SearchJob(
        NAMED_SPECS["F64"], "random", samples=10, seed=7,
        filters=SearchFilters(cases=frozenset({9, 10})),
    )
    res = run_random(job)
    assert res.counters["apn"] == 10


#: sha256 of the random-mode hits and counters below, as computed when each
#: draw was filtered one at a time by the scalar clauses.
RANDOM_DIGEST = "be968ab6fc63bd5565bb85b41a22707e163b641d584a6f136b7625d63fb6ce0d"
RANDOM_RUNS = [
    (field, text, 6 if (field, text) == ("F64", "cases=9;10") else 24)
    for field in ("F16", "F64")
    for text in ("theory", "prioritized", "cases=5;6", "cases=9;10")
]


def test_random_output_pinned():
    # grouped array-form filtering keeps each sample's first accepted draw:
    # hits and counters are those of the per-draw scalar loop, for every
    # shard count
    digest = hashlib.sha256()
    for (field, text, samples), seed, shards in itertools.product(RANDOM_RUNS, (3, 7), (1, 3)):
        res = run_random(SearchJob(NAMED_SPECS[field], "random", samples=samples, seed=seed,
                                   filters=parse_filters(text), shards=shards))
        line = (field, text, seed, shards, [tuple(c) for c in res.apn_hits],
                sorted(res.counters.items()))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == RANDOM_DIGEST


RANDOM_UNFILTERED_DIGEST = "dbe46d74b83d135ae9ae97a36f883a961677eb44c980faf566f9559a2314285b"


def test_random_unfiltered_pinned():
    # with no closed-form clause on (none) or only A != 0 the grouped filter
    # still returns one mask entry per draw
    digest = hashlib.sha256()
    for field, text, seed, shards in itertools.product(("F16", "F64"), ("none", "a-nonzero"),
                                                       (3, 7), (1, 3)):
        res = run_random(SearchJob(NAMED_SPECS[field], "random", samples=24, seed=seed,
                                   filters=parse_filters(text), shards=shards))
        if text == "none":
            assert res.counters["skipped_by_filter"] == 0
        line = (field, text, seed, shards, [tuple(c) for c in res.apn_hits],
                sorted(res.counters.items()))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == RANDOM_UNFILTERED_DIGEST


def test_random_sparse_filter_errors():
    # summary case 10 is empty at q=2 (it needs D^(q+1) != 1)
    from hexapn.search import _MAX_DRAWS_PER_SAMPLE
    job = SearchJob(
        NAMED_SPECS["F4"], "random", samples=1, seed=1,
        filters=SearchFilters(cases=frozenset({10})),
    )
    if _MAX_DRAWS_PER_SAMPLE <= 1_000_000:
        with pytest.raises(SearchGateError):
            run_random(job)


def test_manifest_contents():
    res = run_exhaustive(SearchJob(NAMED_SPECS["F4"], "exhaustive", shards=2))
    m = res.manifest
    assert m["field"] == "gf2:2:0x7"
    assert m["mode"] == "exhaustive"
    assert m["shards"] == 2
    assert "wall_time_s" in m and "tool_version" in m


def test_gcd_regime_census_q2():
    rep = gcd_regime_census(NAMED_SPECS["F4"], full_scan=True)
    assert rep.regime_size == 288
    assert rep.apn_total == 216
    assert rep.gcd_trivial + rep.gcd_nontrivial == 288
    assert rep.gcd_trivial == 48 and rep.gcd_nontrivial == 240
    assert rep.exceptional_apn + rep.generic_apn == rep.gcd_nontrivial_apn == 180
    assert rep.exceptional_apn == 48
    # every scan-empty tuple in this regime is empirically APN
    assert rep.exceptional_nonapn == 0
    assert len(rep.exceptional_tuples) == rep.exceptional_apn
