"""CCZ-invariant fingerprints and invariant-class partitioning.

Fingerprints bundle the differential spectrum, the extended Walsh spectrum
and (gated, opt-in) the GF(2) ranks of the graph and DDT-support incidence
matrices. Equal fingerprints never certify equivalence; distinct
fingerprints certify inequivalence. Rank matrices have N^2 rows where
N = q^2, so the gate keeps them to 4096 rows (q <= 8) unless forced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .field import FieldCtx
from .hexanomial import Coeffs, function_table
from .diffanalysis import DiffProfile, _ddt_rows, differential_profile_table
from .walsh import Spectrum, extended_walsh_spectrum_table

RANK_GATE_ROWS = 4096


class RankGateError(ValueError):
    pass


def gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix given as int bitsets, one per row."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def _incidence_rank(dim_bits: int, points: list[int]) -> int:
    """Rank of M[u][v] = 1 iff u ^ v is in the point set."""
    rows = []
    for u in range(1 << dim_bits):
        row = 0
        for g in points:
            row |= 1 << (u ^ g)
        rows.append(row)
    return gf2_rank(rows)


def gamma_rank_table(ctx: FieldCtx, table: list[int], force: bool = False) -> int:
    """GF(2) rank of the graph incidence matrix of an arbitrary function table."""
    _check_gate(ctx.size, force)
    graph = [(x << ctx.n) | fx for x, fx in enumerate(table)]
    return _incidence_rank(2 * ctx.n, graph)


def _delta_rank_table(ctx: FieldCtx, table: list[int], force: bool = False) -> int:
    """GF(2) rank of the DDT-support incidence matrix of a function table."""
    _check_gate(ctx.size, force)
    pts = [
        (a << ctx.n) | b
        for a, row in enumerate(_ddt_rows(table), 1)
        for b, v in enumerate(row)
        if v > 0
    ]
    return _incidence_rank(2 * ctx.n, pts)


def _check_gate(n: int, force: bool):
    if n * n > RANK_GATE_ROWS and not force:
        raise RankGateError(
            f"rank matrix would have {n * n} rows "
            f"(~{(n * n) ** 2 // 8 / 1e6:.0f} MB dense); pass force=True to run"
        )


@dataclass(frozen=True)
class Fingerprint:
    field: str
    diff_spectrum: Spectrum
    walsh_spectrum: Spectrum
    gamma_rank: int | None
    delta_rank: int | None

    def key(self):
        return (self.field, self.diff_spectrum, self.walsh_spectrum,
                self.gamma_rank, self.delta_rank)

    @property
    def hash(self) -> str:
        payload = json.dumps(
            {
                "field": self.field,
                "diff_spectrum": list(self.diff_spectrum),
                "walsh_spectrum": list(self.walsh_spectrum),
                "gamma_rank": self.gamma_rank,
                "delta_rank": self.delta_rank,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "diff_spectrum": [list(p) for p in self.diff_spectrum],
            "walsh_spectrum": [list(p) for p in self.walsh_spectrum],
            "gamma_rank": self.gamma_rank,
            "delta_rank": self.delta_rank,
            "hash": self.hash,
        }


def fingerprint(
    ctx: FieldCtx,
    c: Coeffs,
    with_ranks: bool = False,
    force: bool = False,
) -> Fingerprint:
    table = function_table(ctx, c)
    fp = fingerprint_table(ctx, table, differential_profile_table(ctx, table))
    if with_ranks:
        fp = replace(fp, gamma_rank=gamma_rank_table(ctx, table, force=force),
                     delta_rank=_delta_rank_table(ctx, table, force=force))
    return fp


def fingerprint_table(ctx: FieldCtx, table: list[int], prof: DiffProfile) -> Fingerprint:
    """The rank-free fingerprint of a function table whose differential profile is prof."""
    return Fingerprint(
        field=str(ctx.spec),
        diff_spectrum=prof.spectrum,
        walsh_spectrum=extended_walsh_spectrum_table(ctx, table),
        gamma_rank=None,
        delta_rank=None,
    )


def partition_by_fingerprint(
    ctx: FieldCtx, tuples: list[Coeffs], with_ranks: bool = False, force: bool = False
) -> dict[Fingerprint, list[Coeffs]]:
    """Group tuples with identical fingerprints (one shared field context)."""
    groups: dict[Fingerprint, list[Coeffs]] = {}
    for c in tuples:
        fp = fingerprint(ctx, c, with_ranks=with_ranks, force=force)
        groups.setdefault(fp, []).append(c)
    return groups


def partition_csv(groups: dict[Fingerprint, list[Coeffs]], ctx: FieldCtx) -> str:
    """'group id, size, representative tuple' rows, deterministic order."""
    lines = ["group,size,representative"]
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0].hash))
    for gid, (fp, members) in enumerate(ordered, 1):
        rep = min(members)
        rep_txt = ";".join(ctx.format_elem(z) for z in rep)
        lines.append(f"{gid},{len(members)},{rep_txt}")
    return "\n".join(lines) + "\n"
