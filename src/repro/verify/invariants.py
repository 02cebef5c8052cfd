"""Paper-invariant proof pass over a concrete tile-to-rank assignment.

Checks, on the actual owner table a configuration will run with:

* **validity** — ``p`` divides ``prod_{j != i} gamma_j`` for every axis
  (Section 3's admissibility condition for a partitioning vector);
* **equally-many-to-one** — every rank owns the same number of tiles;
* **balance** — every slab along every axis gives every rank the same
  tile count (each sweep phase is perfectly load-balanced — the Section 4
  balance theorem);
* **neighbor** — all same-direction neighbors of one rank's tiles belong
  to a single rank (what lets the executor aggregate carries into one
  message per phase — the Section 4 neighbor theorem);
* **consistency** — when the modular mapping that *generated* the owner
  table is available, its ``rank_grid`` must reproduce the table exactly
  (a corrupted mapping matrix shows up here even if the corrupted
  assignment accidentally keeps the structural properties).

The emitted certificate embeds the full proof record (divisibility
quantities, per-slab counts verdicts, neighbor successor tables) so the
``repro.verify-report.v1`` document is self-contained.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import properties

from .report import AnalysisResult, Violation

__all__ = ["check_invariants"]


def check_invariants(
    partitioning: Any,
    p: int | None = None,
    mapping: Any = None,
) -> tuple[AnalysisResult, dict[str, Any]]:
    """Run the proof pass; returns ``(analysis_result, certificate)``.

    ``partitioning`` is a :class:`repro.core.mapping.Multipartitioning`,
    anything with ``owner``/``nprocs``, or a bare owner ``ndarray`` (then
    ``p`` is required — the path mutation tests use, since
    ``Multipartitioning`` itself refuses to construct a broken table);
    ``mapping`` an optional :class:`repro.core.modmap.ModularMapping` to
    cross-check.
    """
    owner = np.asarray(getattr(partitioning, "owner", partitioning))
    if p is None:
        p = int(partitioning.nprocs)
    nprocs = int(p)
    gammas = tuple(int(g) for g in owner.shape)

    certificate: dict[str, Any] = properties.mapping_certificate(
        owner, nprocs
    )
    equal = certificate["equally_many_to_one"]
    validity, balance, neighbor = (
        certificate[key] for key in ("validity", "balance", "neighbor")
    )

    violations: list[Violation] = []
    if not validity["ok"]:
        bad = [ax for ax in validity["axes"] if not ax["divides"]]
        violations.append(
            Violation(
                analysis="invariants",
                kind="validity",
                message=(
                    f"p={nprocs} does not divide the complementary tile "
                    f"product on axis/axes {[ax['axis'] for ax in bad]}"
                ),
                witness={"axes": bad},
            )
        )
    if not equal:
        counts = properties.image_counts(owner, nprocs)
        violations.append(
            Violation(
                analysis="invariants",
                kind="equally-many-to-one",
                message="ranks own unequal tile counts",
                witness={
                    "min_tiles": int(counts.min()),
                    "max_tiles": int(counts.max()),
                },
            )
        )
    if not balance["ok"]:
        violations.append(
            Violation(
                analysis="invariants",
                kind="balance",
                message=(
                    "a slab does not give every rank the same tile count "
                    "(sweep phases would be load-imbalanced)"
                ),
                witness=balance.get("witness", {}),
            )
        )
    if not neighbor["ok"]:
        violations.append(
            Violation(
                analysis="invariants",
                kind="neighbor",
                message=(
                    "a rank's same-direction neighbors straddle several "
                    "owners (carry aggregation would be unsound)"
                ),
                witness=neighbor.get("witness", {}),
            )
        )

    consistent = None
    if mapping is not None:
        generated = mapping.rank_grid(gammas)
        consistent = bool(np.array_equal(generated, owner))
        certificate["matrix"] = [
            [int(v) for v in row] for row in mapping.matrix
        ]
        certificate["moduli"] = list(mapping.moduli)
        certificate["mapping_consistent"] = consistent
        if not consistent:
            diff = np.argwhere(generated != owner)
            tile = tuple(int(v) for v in diff[0])
            violations.append(
                Violation(
                    analysis="invariants",
                    kind="mapping-consistency",
                    message=(
                        "modular mapping does not reproduce the owner "
                        f"table (first mismatch at tile {tile})"
                    ),
                    witness={
                        "tile": list(tile),
                        "mapping_rank": int(generated[tile]),
                        "owner_rank": int(owner[tile]),
                        "mismatches": int(len(diff)),
                    },
                )
            )
    certificate["ok"] = not violations
    result = AnalysisResult(
        name="invariants",
        violations=tuple(violations),
        stats={
            "tiles": int(owner.size),
            "nprocs": nprocs,
            "mapping_checked": mapping is not None,
        },
    )
    return result, certificate
