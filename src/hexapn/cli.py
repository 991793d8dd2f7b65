"""Command-line surface: search, verify, theory, invariants, sympoly, repro-appendix.

Exit codes: 0 success, 2 usage (argparse, bad search sizes), 3 bad field
spec or element text, 4 gate violation, 5 unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .field import NAMED_SPECS, ReducibleModulusError, make_field, parse_field_spec
from .hexanomial import Coeffs, function_table, to_univariate
from .diffanalysis import ddt_csv, differential_profile, differential_profile_table, is_apn_equation
from .invariants import RankGateError, fingerprint, fingerprint_table, partition_by_fingerprint
from .invariants import partition_csv
from .theory import analyze, match_summary_cases
from .sympoly import (
    DegenerateSystemError,
    ScanGateError,
    build_variety_system,
    gcd_bivariate,
    rational_point_scan,
)
from .search import (
    SearchGateError,
    SearchJob,
    parse_filters,
    gcd_regime_census,
    run as run_search,
)

EXIT_USAGE = 2
EXIT_BAD_SPEC = 3
EXIT_GATE = 4
EXIT_BAD_INPUT = 5

TABLE_REPRESENTATIVES = [
    ("F4", ("a", "0", "0", "0", "a")),
    ("F16", ("a", "0", "0", "a", "0")),
    ("F64", ("a^23", "a^23", "a^47", "a^25", "a^29")),
    ("F64", ("a^35", "a^46", "a^6", "a^20", "a^31")),
    ("F64", ("a^37", "0", "a^41", "a^28", "0")),
    ("F256", ("a^210", "a^34", "a^125", "a^170", "a^207")),
    ("F256", ("a^25", "a^51", "a^34", "a^68", "a^17")),
]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("HEXAPN_OUT") or "."
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _ctx(args):
    try:
        return make_field(parse_field_spec(args.field))
    except (ValueError, ReducibleModulusError) as exc:
        raise CliError(f"bad field spec: {exc}", EXIT_BAD_SPEC) from None


def _tuple(ctx, text: str) -> Coeffs:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 5:
        raise CliError(f"expected 5 comma-separated elements, got {len(parts)}", EXIT_BAD_SPEC)
    try:
        return Coeffs(*(ctx.parse_elem(p) for p in parts))
    except ValueError as exc:
        raise CliError(f"bad tuple: {exc}", EXIT_BAD_SPEC) from None


def _report(ctx, c: Coeffs):
    """(differential profile, fingerprint, matched summary cases) of one
    tuple, from one function table."""
    table = function_table(ctx, c)
    prof = differential_profile_table(ctx, table)
    return prof, fingerprint_table(ctx, table, prof), match_summary_cases(ctx, c)


def _write_hits(ctx, hits: list[Coeffs], path: Path) -> dict:
    """One JSONL record per hit; returns the hits grouped by fingerprint."""
    groups = {}
    with open(path, "w") as fh:
        for c in hits:
            prof, fp, cases = _report(ctx, c)
            rec = {
                "field": str(ctx.spec),
                "A": ctx.format_elem(c.A),
                "B": ctx.format_elem(c.B),
                "C": ctx.format_elem(c.C),
                "D": ctx.format_elem(c.D),
                "E": ctx.format_elem(c.E),
                "univariate": to_univariate(ctx, c).format(ctx),
                "is_permutation": prof.is_permutation,
                "matched_cases": cases,
                "fingerprint_hash": fp.hash,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            groups.setdefault(fp, []).append(c)
    return groups


def cmd_search(args) -> int:
    ctx = _ctx(args)
    try:
        filters = parse_filters(args.filters)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_SPEC) from None
    try:
        job = SearchJob(
            field=ctx.spec,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            filters=filters,
            shards=args.shards,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    res = run_search(job)
    out = _out_dir(args)
    stem = f"search_{args.field.lower()}_{args.mode}"
    manifest = {**res.manifest, "counters": res.counters}
    hits_path = out / f"{stem}_hits.jsonl"
    _write_hits(ctx, res.apn_hits, hits_path)
    manifest_path = out / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"hits: {hits_path}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    ctx = _ctx(args)
    c = _tuple(ctx, args.tuple)
    prof = differential_profile(ctx, c)
    eq = is_apn_equation(ctx, c)
    if prof.is_apn != eq:
        raise AssertionError("DDT and equation APN tests disagree")
    report = {
        "field": str(ctx.spec),
        "tuple": [ctx.format_elem(z) for z in c],
        "univariate": to_univariate(ctx, c).format(ctx),
        "apn": prof.is_apn,
        "apn_equation_test": eq,
        "differential_uniformity": prof.uniformity,
        "is_permutation": prof.is_permutation,
    }
    if args.ddt_csv:
        Path(args.ddt_csv).write_text(ddt_csv(ctx, c))
        report["ddt_csv"] = args.ddt_csv
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_theory(args) -> int:
    ctx = _ctx(args)
    c = _tuple(ctx, args.tuple)
    print(json.dumps(analyze(ctx, c).to_json(ctx), indent=2, sort_keys=True))
    return 0


def _read_hits(ctx, path: str) -> list[Coeffs]:
    """Tuples of a JSONL hit stream; any bad line is unreadable input."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT) from None
    tuples = []
    for no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            spec = parse_field_spec(rec["field"])
            if spec != ctx.spec:
                raise ValueError(f"record field {spec} differs from --field {ctx.spec}")
            tuples.append(Coeffs(*(ctx.parse_elem(rec[k]) for k in "ABCDE")))
        except KeyError as exc:
            raise CliError(f"{path}:{no}: record lacks {exc}", EXIT_BAD_INPUT) from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise CliError(f"{path}:{no}: {exc}", EXIT_BAD_INPUT) from None
    return tuples


def cmd_invariants(args) -> int:
    ctx = _ctx(args)
    if args.hits:
        tuples = _read_hits(ctx, args.hits)
        groups = partition_by_fingerprint(
            ctx, tuples, with_ranks=args.ranks, force=args.force_gate
        )
        csv_text = partition_csv(groups, ctx)
        if args.out:
            path = _out_dir(args) / "partition.csv"
            path.write_text(csv_text)
            print(f"partition: {path}", file=sys.stderr)
        print(csv_text, end="")
        return 0
    c = _tuple(ctx, args.tuple)
    fp = fingerprint(ctx, c, with_ranks=args.ranks, force=args.force_gate)
    print(json.dumps(fp.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_sympoly(args) -> int:
    ctx = _ctx(args)
    c = _tuple(ctx, args.tuple)
    try:
        vs = build_variety_system(ctx, c)
    except DegenerateSystemError as exc:
        raise CliError(str(exc), EXIT_GATE) from None
    ell = gcd_bivariate(vs.a2, vs.a0)
    blocks = {
        "F1": vs.F1, "F2": vs.F2, "G": vs.G, "Gbar": vs.Gbar,
        "a2": vs.a2, "a1": vs.a1, "a0": vs.a0,
        "g1": vs.g1, "g2": vs.g2, "g3": vs.g3, "gcd(a2,a0)": ell,
    }
    for name, poly in blocks.items():
        print(f"# {name}")
        print(poly.dump() or "(zero)")
    if args.scan:
        count, samples = rational_point_scan(
            ctx, [vs.F1, vs.F2], force=args.force_gate
        )
        print(f"# off-plane phi-fixed points of (F1, F2): {count}")
        for pt in samples:
            print("#   " + " ".join(ctx.format_elem(v) for v in pt))
    return 0


def cmd_repro_appendix(args) -> int:
    out = _out_dir(args)
    rows = ["field,A,B,C,D,E,polynomial,is_apn,is_permutation,uniformity,fingerprint_hash,matched_cases"]
    for fname, texts in TABLE_REPRESENTATIVES:
        ctx = make_field(NAMED_SPECS[fname])
        c = Coeffs(*(ctx.parse_elem(t) for t in texts))
        prof, fp, cases = _report(ctx, c)
        rows.append(",".join([
            fname,
            *texts,
            to_univariate(ctx, c).format(ctx).replace(",", ";"),
            str(prof.is_apn),
            str(prof.is_permutation),
            str(prof.uniformity),
            fp.hash,
            ";".join(map(str, cases)),
        ]))
    (out / "representatives.csv").write_text("\n".join(rows) + "\n")

    fields = ["F4"] + (["F16"] if args.full else [])
    for fname in fields:
        spec = NAMED_SPECS[fname]
        ctx = make_field(spec)
        census = gcd_regime_census(spec, full_scan=(fname == "F4"))
        cj = census.to_json()
        cj["exceptional_tuples"] = [
            [ctx.format_elem(z) for z in t] for t in census.exceptional_tuples
        ]
        (out / f"census_{fname.lower()}.json").write_text(
            json.dumps(cj, indent=2, sort_keys=True) + "\n"
        )
        res = run_search(SearchJob(spec, "exhaustive"))
        manifest = {**res.manifest, "counters": res.counters}
        (out / f"search_{fname.lower()}_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        groups = _write_hits(ctx, res.apn_hits, out / f"search_{fname.lower()}_hits.jsonl")
        (out / f"partition_{fname.lower()}.csv").write_text(partition_csv(groups, ctx))
    print(f"appendix artifacts written to {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hexapn",
        description="APN hexanomial search, verification and theory checking over GF(q^2).",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--field", required=True,
                        help="field spec: F4|F16|F64|F256 or gf2:<2m>:<modulus-hex>")
        sp.add_argument("--tuple", required=True,
                        help="five elements A,B,C,D,E as a^k / 0 / 1 / 0x-hex")
        sp.add_argument("--out", help="output directory (default $HEXAPN_OUT or .)")

    sp = sub.add_parser("search", help="exhaustive or seeded-random APN search")
    sp.add_argument("--field", required=True)
    sp.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--samples", type=int, default=0, help="random mode: accepted candidates")
    sp.add_argument("--seed", type=int, help="random mode: required seed")
    sp.add_argument("--shards", type=int, default=1,
                    help="work parts; results do not depend on it, and at most "
                         "the CPU count run at once")
    sp.add_argument("--filters", default="theory",
                    help="theory|plain|none or comma list (a-nonzero, exclude-c1c2, "
                         "exclude-obstruction, prioritized, cases=...)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("verify", help="APN / permutation verification of one tuple")
    add_common(sp)
    sp.add_argument("--ddt-csv", help="also write the full DDT as CSV")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("theory", help="coefficient-condition report for one tuple")
    add_common(sp)
    sp.set_defaults(func=cmd_theory)

    sp = sub.add_parser("invariants", help="fingerprint one tuple or partition a hit stream")
    sp.add_argument("--field", required=True)
    sp.add_argument("--tuple", help="five elements A,B,C,D,E")
    sp.add_argument("--hits", help="JSONL hit stream to partition")
    sp.add_argument("--ranks", action="store_true", help="include gamma/delta ranks (gated)")
    sp.add_argument("--force-gate", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("sympoly", help="variety system dump for one tuple")
    add_common(sp)
    sp.add_argument("--scan", action="store_true",
                    help="also count off-plane phi-fixed points of (F1, F2)")
    sp.add_argument("--force-gate", action="store_true",
                    help="override the point-scan size gate")
    sp.set_defaults(func=cmd_sympoly)

    sp = sub.add_parser("repro-appendix",
                        help="regenerate representative table and census artifacts")
    sp.add_argument("--out")
    sp.add_argument("--full", action="store_true", help="include the q=4 runs (minutes)")
    sp.set_defaults(func=cmd_repro_appendix)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "invariants" and not (args.tuple or args.hits):
        parser.error("invariants requires --tuple or --hits")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (SearchGateError, ScanGateError, RankGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
