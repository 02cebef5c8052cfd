"""Tests for mapping diagnostics."""

import numpy as np
import pytest

from repro.core.diagnose import diagnose_mapping
from repro.core.diagonal import diagonal_3d, latin_square_2d


class TestDiagnoseValid:
    def test_valid_mapping(self):
        d = diagnose_mapping(diagonal_3d(16), 16)
        assert d.is_multipartitioning
        assert "valid multipartitioning" in d.explain()
        assert d.unbalanced_slab is None
        assert d.neighbor_conflict is None


class TestDiagnoseInvalid:
    def test_unequal_counts(self):
        owner = np.zeros((2, 2), dtype=np.int64)
        owner[0, 0] = 1
        d = diagnose_mapping(owner, 2)
        assert not d.equally_many
        assert "not equally-many-to-one" in d.explain()

    def test_block_partition_unbalanced(self):
        # column-block partition: globally equal counts, slabs single-owner
        owner = np.repeat(np.arange(2)[None, :], 4, axis=0)
        d = diagnose_mapping(owner, 2)
        assert d.equally_many
        assert not d.balanced
        axis, slab = d.unbalanced_slab
        assert axis == 1  # rows (axis-0 slices) are balanced; columns not
        assert "balance violated" in d.explain()

    def test_neighbor_conflict_localized(self):
        owner = np.array(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64
        )
        d = diagnose_mapping(owner, 3)
        assert not d.is_multipartitioning
        if d.neighbor_conflict is not None:
            rank, axis, step, owners = d.neighbor_conflict
            assert len(owners) > 1

    def test_neighbor_conflict_owners_deterministic(self):
        """The conflict witness must not leak set hash order.

        Owners 8 and 0 collide in a small set's hash table, so iteration
        order follows *insertion* order (8 first here) — a raw ``tuple(...)``
        of the owner set would emit (8, 0) and could flip under different
        insertion histories.  The witness is pinned to sorted order.
        """
        owner = np.array([[1, 8], [1, 0]], dtype=np.int64)
        d = diagnose_mapping(owner, 9)
        assert not d.neighbor
        rank, axis, step, owners = d.neighbor_conflict
        assert (rank, axis, step) == (1, 1, 1)
        assert owners == (0, 8)  # sorted, not insertion/hash order

    def test_balanced_but_neighbor_broken(self):
        """A *non-linear* latin square is perfectly balanced (every row and
        column a permutation) yet violates the neighbor property — exactly
        the distinction the paper's modular construction exists to solve.
        (Cyclic/group-table squares stay neighbor-consistent, so a
        hand-built non-group square is needed.)"""
        grid = np.array(
            [
                [0, 1, 2, 3],
                [1, 0, 3, 2],
                [2, 3, 1, 0],
                [3, 2, 0, 1],
            ],
            dtype=np.int64,
        )
        d = diagnose_mapping(grid, 4)
        assert d.equally_many and d.balanced
        assert not d.neighbor
        assert "neighbor violated" in d.explain()


class TestNeighborWitnessPinned:
    """The conflict ``diagnose_mapping`` reports is the first conflicting
    rank in raster order of the first failing direction -- not the smallest
    one, which is what the neighbor certificate reports."""

    @pytest.mark.parametrize(
        "rows,nprocs,conflict",
        [
            (
                [[3, 1, 0, 4, 2], [4, 2, 1, 0, 3], [0, 3, 2, 1, 4],
                 [1, 4, 3, 2, 0], [2, 0, 4, 3, 1]],
                5,
                (3, 1, 1, (1, 2)),
            ),
            (
                [[3, 2, 0, 1], [2, 3, 1, 0], [1, 0, 3, 2], [0, 1, 2, 3]],
                4,
                (3, 0, 1, (0, 2)),
            ),
        ],
    )
    def test_first_conflict_in_raster_order(self, rows, nprocs, conflict):
        d = diagnose_mapping(np.array(rows, dtype=np.int64), nprocs)
        assert d.equally_many and d.balanced and not d.neighbor
        assert d.neighbor_conflict == conflict
