"""Diagnostics for tile-to-processor assignments.

:class:`repro.core.mapping.Multipartitioning` *rejects* invalid owner
tables; this module explains *why* one is invalid — which property fails,
where, and by how much — the error report a user porting their own mapping
needs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import properties

__all__ = ["MappingDiagnosis", "diagnose_mapping"]


@dataclasses.dataclass(frozen=True)
class MappingDiagnosis:
    """Structured verdict on an owner table."""

    nprocs: int
    gammas: tuple[int, ...]
    equally_many: bool
    balanced: bool
    neighbor: bool
    #: first offending (axis, slab) for balance, else None
    unbalanced_slab: tuple[int, int] | None
    #: first offending (rank, axis, step, sorted owners) for neighbor, else None
    neighbor_conflict: tuple[int, int, int, tuple[int, ...]] | None

    @property
    def is_multipartitioning(self) -> bool:
        return self.equally_many and self.balanced and self.neighbor

    def explain(self) -> str:
        """Human-readable report."""
        if self.is_multipartitioning:
            return (
                f"valid multipartitioning: {self.gammas} tiles on "
                f"{self.nprocs} ranks"
            )
        lines = [f"NOT a multipartitioning ({self.gammas} on {self.nprocs}):"]
        if not self.equally_many:
            lines.append(
                "- tile counts differ across ranks (not equally-many-to-one)"
            )
        if not self.balanced and self.unbalanced_slab is not None:
            axis, slab = self.unbalanced_slab
            lines.append(
                f"- balance violated: slab {slab} along axis {axis} does "
                "not give every rank the same tile count"
            )
        if not self.neighbor and self.neighbor_conflict is not None:
            rank, axis, step, owners = self.neighbor_conflict
            lines.append(
                f"- neighbor violated: rank {rank}'s {'+' if step > 0 else '-'}"
                f"{axis} neighbors belong to several ranks {sorted(owners)}"
            )
        return "\n".join(lines)


def diagnose_mapping(owner: np.ndarray, nprocs: int) -> MappingDiagnosis:
    """Check an owner table against the multipartitioning properties and
    localize the first violation of each."""
    owner = np.asarray(owner)
    equally = properties.is_equally_many_to_one(owner, nprocs)

    unbalanced = properties.unbalanced_slab(owner, nprocs)

    conflict: tuple[int, int, int, tuple[int, ...]] | None = None
    _, scan = properties.neighbor_scan(owner)
    if scan is not None:
        axis, step, src, dst, bad = scan
        flagged = np.zeros(int(src.max()) + 1, dtype=bool)
        flagged[src[bad]] = True
        rank = int(src[np.argmax(flagged[src])])  # first in raster order
        owners = tuple(np.unique(dst[src == rank]).tolist())
        conflict = (rank, axis, step, owners)

    return MappingDiagnosis(
        nprocs=nprocs,
        gammas=tuple(owner.shape),
        equally_many=equally,
        balanced=unbalanced is None,
        neighbor=conflict is None,
        unbalanced_slab=unbalanced,
        neighbor_conflict=conflict,
    )
