"""The `Multipartitioning` object — the runtime view of a tile→rank mapping.

Wraps an owner table (any int array over the tile grid, usually produced by
:func:`repro.core.modmap.build_modular_mapping` or
:mod:`repro.core.diagonal`) and answers what the sweep runtime and the
dHPF-lite communication planner ask of it:

* the neighbor successor tables per signed direction (the neighbor property
  guarantees these are single-valued), kept from validation, which is one
  :func:`repro.core.properties.certified_tables` scan;
* per-rank tile lists, computed on first use from one stable sort of the
  owner table (plan-only callers never pay for them).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import properties

__all__ = ["Multipartitioning"]


@dataclasses.dataclass(frozen=True)
class Multipartitioning:
    """A validated multipartitioning of a ``gamma_1 x ... x gamma_d`` tile
    grid onto ``nprocs`` processors.

    ``owner[t]`` is the rank owning tile ``t``.  Construction verifies the
    balance property and the (interior) neighbor property, so downstream code
    can rely on both unconditionally.
    """

    owner: np.ndarray
    nprocs: int
    #: derived caches, set via object.__setattr__: the successor tables in
    #: __post_init__, the tile order on the first ``tiles_of`` call
    _neighbors: dict[tuple[int, int], np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False
    )
    _tile_order: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        owner = np.ascontiguousarray(self.owner, dtype=np.int64)
        if owner.ndim < 2:
            raise ValueError("multipartitioning needs a >= 2-D tile grid")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        nbr = properties.certified_tables(owner, self.nprocs)
        if nbr is None:  # name the first property that fails
            if not properties.is_equally_many_to_one(owner, self.nprocs):
                raise ValueError("owner table is not equally-many-to-one")
            if not properties.has_balance_property(owner, self.nprocs):
                raise ValueError("owner table violates the balance property")
            raise ValueError("owner table violates the neighbor property")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "_neighbors", nbr)

    # -- basic geometry ----------------------------------------------------

    @property
    def gammas(self) -> tuple[int, ...]:
        """Tile counts per dimension."""
        return tuple(self.owner.shape)

    @property
    def ndim(self) -> int:
        return self.owner.ndim

    @property
    def tiles_total(self) -> int:
        return int(self.owner.size)

    @property
    def tiles_per_rank(self) -> int:
        return self.tiles_total // self.nprocs

    def tiles_per_slab_per_rank(self, axis: int) -> int:
        """Tiles each rank owns inside one slab along ``axis`` (balance
        property makes this a constant)."""
        slab_tiles = self.tiles_total // self.owner.shape[axis]
        return slab_tiles // self.nprocs

    # -- queries -----------------------------------------------------------

    def rank_of(self, tile: Sequence[int]) -> int:
        """Owner rank of one tile coordinate."""
        return int(self.owner[tuple(tile)])

    def tiles_of(self, rank: int) -> tuple[tuple[int, ...], ...]:
        """All tile coordinates owned by ``rank`` (lexicographic order)."""
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range for {self.nprocs}")
        order = self._tile_order
        if order is None:
            # stable: each rank's run of flat indices stays ascending, i.e.
            # lexicographic; equal counts make run r start at r * per-rank
            order = np.argsort(self.owner.ravel(), kind="stable")
            object.__setattr__(self, "_tile_order", order)
        per = self.tiles_per_rank
        flat = order[rank * per:(rank + 1) * per]
        coords = np.unravel_index(flat, self.owner.shape)
        return tuple(zip(*(c.tolist() for c in coords)))

    def neighbor_rank(self, rank: int, axis: int, step: int) -> int:
        """The single rank owning the ``step``-neighbors (along ``axis``) of
        ``rank``'s tiles; ``-1`` if ``rank`` has no tile with such a neighbor
        (only when ``gamma_axis == 1``)."""
        if step not in (+1, -1):
            raise ValueError("step must be +1 or -1")
        return int(self._neighbors[(axis, step)][rank])

    # -- representations ----------------------------------------------------

    def layer_strings(self, axis: int = 0) -> list[str]:
        """ASCII rendering of the owner table, one 2-D layer per slab along
        ``axis`` (only for 2-D/3-D grids) — used to regenerate Figure 1."""
        if self.ndim == 2:
            return [_matrix_str(self.owner)]
        if self.ndim == 3:
            return [
                _matrix_str(np.take(self.owner, k, axis=axis))
                for k in range(self.owner.shape[axis])
            ]
        raise ValueError("layer rendering supports 2-D and 3-D grids only")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "x".join(map(str, self.gammas))
        return (
            f"Multipartitioning({shape} tiles on {self.nprocs} ranks, "
            f"{self.tiles_per_rank} tiles/rank)"
        )


def _matrix_str(mat: np.ndarray) -> str:
    width = max(2, len(str(int(mat.max()))))
    return "\n".join(
        " ".join(f"{int(v):>{width}d}" for v in row) for row in mat
    )
