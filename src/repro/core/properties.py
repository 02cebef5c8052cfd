"""Brute-force verifiers for the structural properties of multipartitionings.

These check every tile rather than reason about the construction, so they
serve as an independent oracle for :mod:`repro.core.modmap` — the
test-suite checks the paper's construction against these on hundreds of
cases — in whole-array passes, with no Python loop per tile even on the
~1M-tile tables of p ~ 1000; ``tests/core/test_validation_oracle.py`` holds
the per-tile loops they must agree with.

:func:`certified_tables` decides all three properties of a multipartitioning
in one forward scan per axis ``a``: (i) slab 0 along ``a`` is
equally-many-to-one (one ``bincount``); (ii) ``succ``, seeded from slab 0 ->
slab 1, predicts every adjacent pair, ``owner[t + e_a] == succ[owner[t]]``
(one gather and compare: the +a neighbor property); (iii) ``succ`` is a
permutation of the ranks, with inverse ``pred``.  (ii) and (iii) give the -a
neighbor property with table ``pred``; slab ``k + 1`` is ``succ`` applied to
slab ``k``, so (i) and (iii) balance every slab, and balanced slabs make the
table equally-many-to-one.  Every multipartitioning passes: slab 0 holds
every rank, and ``succ`` is injective or some rank's -a neighbors straddle
two owners.  The per-property passes run only to name what failed.

Definitions (Section 4 of the paper):

* **one-to-one** — every processor-grid point has exactly one pre-image;
* **equally-many-to-one** — every processor-grid point has the same number of
  pre-images;
* **load-balancing / balance** — restricted to any axis-aligned *slice*
  (all tiles with fixed coordinate ``k`` along some axis ``i``), the mapping
  is equally-many-to-one;
* **neighbor** — for every processor ``q`` and signed direction, the owners
  of the neighbors of ``q``'s tiles form a single processor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


__all__ = [
    "image_counts",
    "is_one_to_one",
    "is_equally_many_to_one",
    "has_balance_property",
    "unbalanced_slab",
    "has_neighbor_property",
    "neighbor_scan",
    "neighbor_table",
    "slab_counts",
    "validity_certificate",
    "balance_certificate",
    "neighbor_certificate",
    "certified_tables",
    "mapping_certificate",
]


def _in_range(rank_grid: np.ndarray, nprocs: int) -> np.ndarray:
    grid = np.asarray(rank_grid)
    if grid.size and (grid.min() < 0 or grid.max() >= nprocs):
        raise ValueError("rank grid contains out-of-range ranks")
    return grid


def image_counts(rank_grid: np.ndarray, nprocs: int) -> np.ndarray:
    """Histogram of tile owners: ``counts[q]`` = number of tiles of rank q."""
    grid = _in_range(rank_grid, nprocs)
    return np.bincount(grid.ravel(), minlength=nprocs)


def is_one_to_one(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Every rank owns exactly one tile."""
    grid = np.asarray(rank_grid)
    return grid.size == nprocs and bool(
        (image_counts(grid, nprocs) == 1).all()
    )


def is_equally_many_to_one(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Every rank owns the same (positive) number of tiles."""
    grid = np.asarray(rank_grid)
    if grid.size == 0 or grid.size % nprocs != 0:
        return False
    counts = image_counts(grid, nprocs)
    return bool((counts == grid.size // nprocs).all())


def has_balance_property(rank_grid: np.ndarray, nprocs: int) -> bool:
    """Paper's balance property: every slice along every axis is
    equally-many-to-one (each slab gives every processor the same number of
    tiles, so every sweep phase is perfectly load-balanced)."""
    return unbalanced_slab(rank_grid, nprocs) is None


def unbalanced_slab(
    rank_grid: np.ndarray, nprocs: int
) -> tuple[int, int] | None:
    """The first ``(axis, slab)`` that is not equally-many-to-one, in axis
    then slab order; ``None`` when the balance property holds."""
    grid = np.asarray(rank_grid)
    for axis, slabs in enumerate(grid.shape):
        if slabs == 0:
            continue
        slab_tiles = grid.size // slabs
        if slab_tiles == 0 or slab_tiles % nprocs:
            return axis, 0
        counts = slab_counts(grid, nprocs, axis)
        bad = (counts != slab_tiles // nprocs).any(axis=1)
        if bad.any():
            return axis, int(np.argmax(bad))
    return None


def slab_counts(rank_grid: np.ndarray, nprocs: int, axis: int) -> np.ndarray:
    """Per-slab ownership histogram: shape ``(gamma_axis, nprocs)``; row k is
    the tile count per rank within slab k along ``axis``."""
    grid = _in_range(rank_grid, nprocs)
    slabs = grid.shape[axis]
    offset = np.arange(slabs, dtype=np.int64) * nprocs
    key = grid + offset.reshape(
        [-1 if a == axis else 1 for a in range(grid.ndim)]
    )
    counts = np.bincount(key.ravel(), minlength=slabs * nprocs)
    return counts.reshape(slabs, nprocs)


NeighborConflict = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]
NeighborTable = dict[tuple[int, int], np.ndarray]


def certified_tables(
    rank_grid: np.ndarray, nprocs: int
) -> NeighborTable | None:
    """The interior successor tables (as :func:`neighbor_table` gives them)
    when ``rank_grid`` is equally-many-to-one, balanced and neighbor-true on
    ``nprocs`` ranks, else ``None`` — checks (i)-(iii) of the module
    docstring, one forward scan per axis."""
    grid = np.asarray(rank_grid)
    if not grid.size or grid.min() < 0 or grid.max() >= nprocs:
        return None
    table: NeighborTable = {}
    for axis, slabs in enumerate(grid.shape):
        lead = (slice(None),) * axis
        first = grid[lead + (0,)]
        per, rem = divmod(first.size, nprocs)
        if rem or (np.bincount(first.ravel(), minlength=nprocs) != per).any():
            return None
        succ = np.full(nprocs, -1, dtype=np.int64)
        pred = succ.copy()
        if slabs > 1:
            succ[first] = grid[lead + (1,)]
            # one full-size gather alive at a time: bind only the view
            nxt = grid[lead + (slice(1, None),)]
            if not (np.take(succ, grid)[lead + (slice(0, -1),)] == nxt).all():
                return None
            pred[succ] = np.arange(nprocs)
            if (pred < 0).any():
                return None
        table[(axis, +1)], table[(axis, -1)] = succ, pred
    return table


def neighbor_scan(
    rank_grid: np.ndarray, periodic: bool = False
) -> tuple[dict[tuple[int, int], np.ndarray], NeighborConflict | None]:
    """Check the neighbor property one signed direction at a time.

    Per direction the (owner, neighbor owner) pairs ``src``/``dst`` are two
    shifted views of the grid, flattened in raster order of each pair's
    lower tile.  Scattering ``succ[src] = dst`` keeps one neighbor owner per
    rank; the direction passes iff every pair agrees with it,
    ``succ[src] == dst``.  A rank disagrees on some pair exactly when its
    neighbors straddle several owners.

    Returns ``(table, conflict)``: the successor arrays of the directions
    checked (see :func:`neighbor_table`) and ``None``, or, at the first
    failing direction, ``(axis, step, src, dst, bad)`` with ``bad`` the mask
    of disagreeing pairs; the scan stops there.
    """
    grid = np.asarray(rank_grid)
    nprocs = int(grid.max()) + 1 if grid.size else 0
    table: dict[tuple[int, int], np.ndarray] = {}
    for axis in range(grid.ndim):
        if periodic:
            lo, hi = grid, np.roll(grid, -1, axis=axis)
        else:
            lead = (slice(None),) * axis
            lo = grid[lead + (slice(0, -1),)]
            hi = grid[lead + (slice(1, None),)]
        lo, hi = lo.ravel(), hi.ravel()
        for step, src, dst in ((+1, lo, hi), (-1, hi, lo)):
            succ = np.full(nprocs, -1, dtype=np.int64)
            succ[src] = dst
            bad = succ[src] != dst
            if bad.any():
                return table, (axis, step, src, dst, bad)
            table[(axis, step)] = succ
    return table, None


def neighbor_table(
    rank_grid: np.ndarray, periodic: bool = False
) -> dict[tuple[int, int], np.ndarray] | None:
    """If the neighbor property holds, return the rank->rank successor table
    per signed direction; otherwise ``None``.

    Keys are ``(axis, step)`` with ``step in (+1, -1)``; values are int
    arrays ``succ`` with ``succ[q]`` = the unique owner of the ``step``
    neighbors (along ``axis``) of ``q``'s tiles, or ``-1`` when ``q`` owns no
    tile with such a neighbor (only possible when ``periodic=False``).

    The paper's neighbor property concerns *immediate* (interior) tile
    adjacency, so ``periodic=False`` is the default.  A modular mapping
    additionally satisfies the periodic version exactly when
    ``b_axis * M[:, axis] == 0 (mod m)`` — true for diagonal
    multipartitionings, not for general ones.
    """
    table, conflict = neighbor_scan(rank_grid, periodic=periodic)
    return table if conflict is None else None


def has_neighbor_property(rank_grid: np.ndarray, periodic: bool = False) -> bool:
    """True when, in every signed coordinate direction, all neighbors of any
    one processor's tiles belong to a single processor."""
    return neighbor_table(rank_grid, periodic=periodic) is not None


# -- certificates -------------------------------------------------------------
#
# Certificate-producing variants of the boolean verifiers above: each
# returns a JSON-ready dict with the checked quantities spelled out, so a
# downstream consumer (the static verifier's ``repro.verify-report.v1``
# document) can archive *why* a property holds, and a failure carries a
# concrete witness instead of a bare False.


def validity_certificate(gammas: Sequence[int], p: int) -> dict:
    """Proof record for the paper's validity condition (Section 3):
    ``p`` divides ``prod_{j != i} gamma_j`` for every axis ``i``."""
    gammas = tuple(int(g) for g in gammas)
    total = 1
    for g in gammas:
        total *= g
    axes: list[dict] = []
    ok = True
    for i, g in enumerate(gammas):
        others = total // g
        divides = others % p == 0
        ok = ok and divides
        axes.append(
            {
                "axis": i,
                "gamma": g,
                "others_product": others,
                "divides": divides,
            }
        )
    return {"property": "validity", "ok": ok, "p": p,
            "gammas": list(gammas), "axes": axes}


def balance_certificate(
    rank_grid: np.ndarray, nprocs: int, certified: bool = False
) -> dict:
    """Proof record for the balance property: every slab along every axis
    gives every rank exactly ``slab_tiles / nprocs`` tiles.  On failure the
    witness names the first offending (axis, slab, rank, count).
    ``certified`` (:func:`certified_tables` passed) skips the slab counts."""
    grid = np.asarray(rank_grid)
    axes: list[dict] = []
    ok = True
    witness: dict | None = None
    for axis in range(grid.ndim):
        slab_tiles = grid.size // grid.shape[axis]
        expected, rem = divmod(slab_tiles, nprocs)
        counts = None if certified else slab_counts(grid, nprocs, axis)
        axis_ok = counts is None or (
            rem == 0 and bool((counts == expected).all())
        )
        if not axis_ok and witness is None:
            if rem != 0:
                witness = {
                    "axis": axis,
                    "reason": "slab size not divisible by nprocs",
                    "slab_tiles": slab_tiles,
                    "nprocs": nprocs,
                }
            else:
                assert counts is not None
                bad = np.argwhere(counts != expected)
                slab, rank = (int(v) for v in bad[0])
                witness = {
                    "axis": axis,
                    "slab": slab,
                    "rank": rank,
                    "count": int(counts[slab, rank]),
                    "expected": expected,
                }
        ok = ok and axis_ok
        axes.append(
            {
                "axis": axis,
                "slabs": int(grid.shape[axis]),
                "tiles_per_rank_per_slab": expected if rem == 0 else None,
                "ok": axis_ok,
            }
        )
    cert = {"property": "balance", "ok": ok, "nprocs": nprocs, "axes": axes}
    if witness is not None:
        cert["witness"] = witness
    return cert


def neighbor_certificate(
    rank_grid: np.ndarray,
    periodic: bool = False,
    table: NeighborTable | None = None,
) -> dict:
    """Proof record for the neighbor property.  On success it archives the
    full successor tables (the run-time neighbor function); on failure the
    witness names, in the first failing direction, the smallest rank whose
    neighbors straddle several owners.  A ``table`` already certified (for
    ``periodic``) is archived without a scan."""
    conflict: NeighborConflict | None = None
    if table is None:
        table, conflict = neighbor_scan(rank_grid, periodic=periodic)
    if conflict is None:
        return {
            "property": "neighbor",
            "ok": True,
            "periodic": periodic,
            "successors": {
                f"axis{axis}{'+' if step > 0 else '-'}": [
                    int(v) for v in succ
                ]
                for (axis, step), succ in sorted(table.items())
            },
        }
    axis, step, src, dst, bad = conflict
    rank = int(src[bad].min())
    witness = {
        "rank": rank,
        "axis": axis,
        "step": step,
        "neighbor_owners": np.unique(dst[src == rank]).tolist(),
    }
    return {
        "property": "neighbor",
        "ok": False,
        "periodic": periodic,
        "witness": witness,
    }


def mapping_certificate(rank_grid: np.ndarray, nprocs: int) -> dict:
    """The ``repro.mapping-certificate.v1`` record of an owner table: the
    validity condition on its shape, equally-many-to-one, and the balance
    and (interior) neighbor certificates, from one :func:`certified_tables`
    scan when the table is a multipartitioning; the per-property passes run
    only to find a failure's witness."""
    grid = np.asarray(rank_grid)
    table = certified_tables(grid, nprocs)
    return {
        "schema": "repro.mapping-certificate.v1",
        "p": nprocs,
        "gammas": list(grid.shape),
        "equally_many_to_one": (
            table is not None or is_equally_many_to_one(grid, nprocs)
        ),
        "validity": validity_certificate(grid.shape, nprocs),
        "balance": balance_certificate(grid, nprocs, table is not None),
        "neighbor": neighbor_certificate(grid, table=table),
    }
