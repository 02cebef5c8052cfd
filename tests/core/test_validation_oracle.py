"""Differential test: the multipartitioning validators against per-tile oracles.

The oracles below are the straightforward per-tile / per-slab Python loops
the validators in :mod:`repro.core.properties` and
:class:`repro.core.mapping.Multipartitioning` must agree with.  Hypothesis
draws valid owner tables (modular mappings 2-D to 4-D, diagonal and
Gray-code tables, some transposed), the same tables with one or two entries
perturbed, two slabs exchanged or one slab's ranks relabelled (which breaks
the neighbor and/or balance property), whole tables relabelled (still
valid), and tables holding an out-of-range rank.

The per-tile oracles also run at p = 997 (~1M tiles) in CI, where they take
seconds: ``python -m tests.core.test_validation_oracle``.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.api import plan_multipartitioning
from repro.core.diagnose import diagnose_mapping
from repro.core.diagonal import diagonal_nd, gray_code_3d
from repro.core.elementary import elementary_partitionings
from repro.core.mapping import Multipartitioning
from repro.core.modmap import build_modular_mapping
from repro.core.properties import (
    balance_certificate,
    certified_tables,
    has_balance_property,
    is_equally_many_to_one,
    mapping_certificate,
    neighbor_certificate,
    neighbor_scan,
    neighbor_table,
    slab_counts,
)


# -- oracles ------------------------------------------------------------------


def _pairs(grid, axis, step, periodic):
    shifted = np.roll(grid, -step, axis=axis)
    if periodic:
        return zip(grid.ravel(), shifted.ravel())
    sel = [slice(None)] * grid.ndim
    sel[axis] = slice(0, -1) if step == 1 else slice(1, None)
    sel_t = tuple(sel)
    return zip(grid[sel_t].ravel(), shifted[sel_t].ravel())


def oracle_neighbor_table(grid, periodic):
    nprocs = int(grid.max()) + 1 if grid.size else 0
    table = {}
    for axis in range(grid.ndim):
        for step in (+1, -1):
            succ = np.full(nprocs, -1, dtype=np.int64)
            for owner, nbr in _pairs(grid, axis, step, periodic):
                if succ[owner] == -1:
                    succ[owner] = nbr
                elif succ[owner] != nbr:
                    return None
            table[(axis, step)] = succ
    return table


def oracle_owners_of(grid, axis, step):
    """Neighbor owners per rank, ranks in order of first appearance."""
    owners_of: dict[int, set[int]] = {}
    for q, nbr in _pairs(grid, axis, step, periodic=False):
        owners_of.setdefault(int(q), set()).add(int(nbr))
    return owners_of


def oracle_neighbor_witnesses(grid):
    """(certificate witness, diagnose conflict) of the first failing
    direction: the smallest conflicting rank, and the first one in raster
    order."""
    for axis in range(grid.ndim):
        for step in (+1, -1):
            owners_of = oracle_owners_of(grid, axis, step)
            bad = [q for q, nbrs in owners_of.items() if len(nbrs) > 1]
            if bad:
                q = min(bad)
                cert = {"rank": q, "axis": axis, "step": step,
                        "neighbor_owners": sorted(owners_of[q])}
                first = bad[0]
                diag = (first, axis, step, tuple(sorted(owners_of[first])))
                return cert, diag
    return None, None


def oracle_slab_counts(grid, nprocs, axis):
    out = np.empty((grid.shape[axis], nprocs), dtype=np.int64)
    for k in range(grid.shape[axis]):
        slab = np.take(grid, k, axis=axis).ravel()
        if slab.size and (slab.min() < 0 or slab.max() >= nprocs):
            raise ValueError("rank grid contains out-of-range ranks")
        out[k] = np.bincount(slab, minlength=nprocs)
    return out


def oracle_unbalanced_slab(grid, nprocs):
    """First (axis, slab) that is not equally-many-to-one, or None."""
    for axis in range(grid.ndim):
        for k in range(grid.shape[axis]):
            slab = np.take(grid, k, axis=axis).ravel()
            if slab.size == 0 or slab.size % nprocs:
                return axis, k
            if slab.min() < 0 or slab.max() >= nprocs:
                raise ValueError("rank grid contains out-of-range ranks")
            counts = np.bincount(slab, minlength=nprocs)
            if not (counts == slab.size // nprocs).all():
                return axis, k
    return None


def oracle_construction_error(grid, nprocs):
    """The ValueError message ``Multipartitioning`` raises, or None."""
    flat = grid.ravel()
    if flat.size == 0 or flat.size % nprocs:
        return "owner table is not equally-many-to-one"
    if flat.min() < 0 or flat.max() >= nprocs:
        return "rank grid contains out-of-range ranks"
    if not (np.bincount(flat, minlength=nprocs) == flat.size // nprocs).all():
        return "owner table is not equally-many-to-one"
    if oracle_unbalanced_slab(grid, nprocs) is not None:
        return "owner table violates the balance property"
    if oracle_neighbor_table(grid, periodic=False) is None:
        return "owner table violates the neighbor property"
    return None


def oracle_tiles_by_rank(grid, nprocs):
    buckets = [[] for _ in range(nprocs)]
    for coord in np.ndindex(*grid.shape):
        buckets[grid[coord]].append(coord)
    return [tuple(ts) for ts in buckets]


# -- draws --------------------------------------------------------------------

#: processor counts per dimensionality, small enough for the per-tile oracles
_PROCS = {2: (1, 2, 3, 4, 5, 6, 8, 9), 3: (2, 4, 6, 8, 9, 12), 4: (2, 4, 6)}


#: tables not built by a modular mapping: (grid, nprocs)
_OTHER_TABLES = (
    [(diagonal_nd(q ** (d - 1), d), q ** (d - 1))
     for d, q in ((2, 5), (3, 2), (3, 3), (4, 2))]
    + [(gray_code_3d(1), 4)]
)


@st.composite
def owner_tables(draw):
    """``(grid, nprocs, kind)`` with ``kind`` naming the perturbation."""
    if draw(st.integers(0, 4)):
        d = draw(st.integers(2, 4))
        p = draw(st.sampled_from(_PROCS[d]))
        b = list(draw(st.sampled_from(list(elementary_partitionings(p, d)))))
        b[draw(st.integers(0, d - 1))] *= draw(st.integers(1, 2))
        grid = build_modular_mapping(b, p).rank_grid(b).copy()
    else:
        grid, p = draw(st.sampled_from(_OTHER_TABLES))
        grid = grid.copy()
    d = grid.ndim
    if draw(st.booleans()):
        order = draw(st.permutations(range(d)))
        grid = np.ascontiguousarray(grid.transpose(order))
    # "slabs" keeps every slab balanced and "relabel" the slabs along its
    # axis, so both are drawn twice as often: they are the draws that reach
    # the neighbor check with a broken table
    kind = draw(st.sampled_from([
        "valid", "set", "swap", "slabs", "slabs", "relabel", "relabel",
        "relabel-all", "range",
    ]))
    flat = grid.reshape(-1)
    picks = st.integers(0, flat.size - 1)
    if kind == "set":
        for _ in range(draw(st.integers(1, 2))):
            flat[draw(picks)] = draw(st.integers(0, p - 1))
    elif kind == "swap":
        i, j = draw(picks), draw(picks)
        flat[i], flat[j] = flat[j], flat[i]
    elif kind == "slabs":
        axis = draw(st.integers(0, d - 1))
        n = grid.shape[axis]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        order = list(range(n))
        order[i], order[j] = order[j], order[i]
        grid = np.take(grid, order, axis=axis)
    elif kind == "relabel":
        axis = draw(st.integers(0, d - 1))
        slab = draw(st.integers(0, grid.shape[axis] - 1))
        labels = np.array(draw(st.permutations(range(p))))
        index = (slice(None),) * axis + (slab,)
        grid[index] = labels[grid[index]]
    elif kind == "relabel-all":
        grid = np.array(draw(st.permutations(range(p))))[grid]
    elif kind == "range":
        flat[draw(picks)] = draw(st.sampled_from([-1, p]))
    return np.ascontiguousarray(grid), p, kind


# -- the differential test ----------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=300)
@given(owner_tables(), st.booleans())
def test_validators_match_per_tile_oracles(case, periodic):
    grid, nprocs, kind = case
    error = oracle_construction_error(grid, nprocs)
    event(f"{kind}: {error or 'constructs'}")

    certified = certified_tables(grid, nprocs)
    assert (certified is None) == (error is not None)
    if certified is not None:
        want = oracle_neighbor_table(grid, periodic=False)
        assert list(certified) == list(want)
        for key, succ in want.items():
            assert certified[key].dtype == np.int64
            assert np.array_equal(certified[key], succ), key
    if kind != "range":
        cert = mapping_certificate(grid, nprocs)
        assert cert["equally_many_to_one"] is is_equally_many_to_one(
            grid, nprocs
        )
        assert cert["balance"] == balance_certificate(grid, nprocs)
        assert cert["neighbor"] == neighbor_certificate(grid)

    if grid.min() >= 0:
        got = neighbor_table(grid, periodic=periodic)
        want = oracle_neighbor_table(grid, periodic)
        assert (got is None) == (want is None)
        if want is not None:
            assert sorted(got) == sorted(want)
            for key, succ in want.items():
                assert np.array_equal(got[key], succ), key
        cert_witness, diag_conflict = oracle_neighbor_witnesses(grid)
        cert = neighbor_certificate(grid)
        assert cert["ok"] == (cert_witness is None)
        assert cert.get("witness") == cert_witness

    if kind == "range":
        with pytest.raises(ValueError, match="out-of-range"):
            has_balance_property(grid, nprocs)
        for axis in range(grid.ndim):
            with pytest.raises(ValueError, match="out-of-range"):
                slab_counts(grid, nprocs, axis)
    else:
        unbalanced = oracle_unbalanced_slab(grid, nprocs)
        assert has_balance_property(grid, nprocs) == (unbalanced is None)
        for axis in range(grid.ndim):
            assert np.array_equal(
                slab_counts(grid, nprocs, axis),
                oracle_slab_counts(grid, nprocs, axis),
            )
        diagnosis = diagnose_mapping(grid, nprocs)
        assert diagnosis.unbalanced_slab == unbalanced
        assert diagnosis.neighbor_conflict == diag_conflict

    if error is not None:
        with pytest.raises(ValueError) as info:
            Multipartitioning(grid, nprocs)
        assert str(info.value) == error
        return
    mp = Multipartitioning(grid, nprocs)
    for rank, tiles in enumerate(oracle_tiles_by_rank(grid, nprocs)):
        got = mp.tiles_of(rank)
        assert got == tiles
        assert all(type(v) is int for tile in got for v in tile)


# -- construction errors and large tables -------------------------------------


@pytest.mark.parametrize("rows, nprocs, error", [
    ([[0, 1, 0], [1, 0, 1]], 4, "owner table is not equally-many-to-one"),
    ([[0, 1], [1, 2]], 2, "rank grid contains out-of-range ranks"),
    ([[0, -1], [1, 0]], 2, "rank grid contains out-of-range ranks"),
    ([[0, 0], [0, 1]], 2, "owner table is not equally-many-to-one"),
    # every adjacent pair agrees with succ = [0, -1]: only the slab-0
    # balance check (i) rejects it
    ([[0, 0], [0, 0]], 2, "owner table is not equally-many-to-one"),
    # slab 0 balanced along both axes and succ = [1, 1] predicts every
    # pair: only the permutation check (iii) rejects it
    ([[0, 1], [1, 1]], 2, "owner table is not equally-many-to-one"),
    ([[0, 0], [1, 1]], 2, "owner table violates the balance property"),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 4,
     "owner table violates the neighbor property"),
])
def test_construction_error_names_first_failing_property(rows, nprocs, error):
    grid = np.array(rows, dtype=np.int64)
    assert oracle_construction_error(grid, nprocs) == error
    assert certified_tables(grid, nprocs) is None
    with pytest.raises(ValueError) as info:
        Multipartitioning(grid, nprocs)
    assert str(info.value) == error


@pytest.mark.parametrize("shape", [(102, 102, 102), (162, 162, 162)],
                         ids=["classB", "classC"])
@pytest.mark.parametrize("p", [960, 997, 1000])
def test_large_tables_equal_neighbor_scan(shape, p):
    """At p ~ 1000 the certified successor tables are exactly those of the
    per-direction scatter-and-gather scan."""
    mp = plan_multipartitioning(shape, p).partitioning
    want, conflict = neighbor_scan(mp.owner)
    assert conflict is None
    assert list(mp._neighbors) == list(want)
    for key, succ in want.items():
        assert mp._neighbors[key].dtype == succ.dtype
        assert np.array_equal(mp._neighbors[key], succ), key


def _check_at_scale(p: int = 997) -> None:
    """The per-tile oracles against ``Multipartitioning``'s tables for the
    class B and C plans at ``p``."""
    for shape in ((102,) * 3, (162,) * 3):
        mp = plan_multipartitioning(shape, p).partitioning
        assert oracle_unbalanced_slab(mp.owner, p) is None
        want = oracle_neighbor_table(mp.owner, periodic=False)
        assert want is not None and list(mp._neighbors) == list(want)
        for key, succ in want.items():
            assert np.array_equal(mp._neighbors[key], succ), (shape, key)
        print(f"{shape} p={p}: {mp.owner.size} tiles agree with the oracles")


if __name__ == "__main__":
    _check_at_scale()
