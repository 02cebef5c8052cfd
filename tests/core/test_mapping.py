"""Tests for the Multipartitioning runtime object."""

import numpy as np
import pytest

from repro.core.diagonal import diagonal_3d, latin_square_2d
from repro.core.mapping import Multipartitioning
from repro.core.modmap import build_modular_mapping


@pytest.fixture
def mp16() -> Multipartitioning:
    return Multipartitioning(diagonal_3d(16), 16)


@pytest.fixture
def mp8() -> Multipartitioning:
    b = (4, 4, 2)
    return Multipartitioning(build_modular_mapping(b, 8).rank_grid(b), 8)


class TestConstruction:
    def test_geometry(self, mp16):
        assert mp16.gammas == (4, 4, 4)
        assert mp16.ndim == 3
        assert mp16.tiles_total == 64
        assert mp16.tiles_per_rank == 4
        assert mp16.tiles_per_slab_per_rank(0) == 1

    def test_generalized_geometry(self, mp8):
        assert mp8.tiles_per_rank == 4
        assert mp8.tiles_per_slab_per_rank(0) == 1
        assert mp8.tiles_per_slab_per_rank(2) == 2

    def test_rejects_unbalanced(self):
        grid = np.zeros((2, 2), dtype=np.int64)
        grid[0, 0] = 1
        with pytest.raises(ValueError):
            Multipartitioning(grid, 2)

    def test_rejects_block_partition(self):
        grid = np.repeat(np.arange(2), 2).reshape(2, 2).T.copy()
        # columns owned by single ranks: balanced along one axis only
        with pytest.raises(ValueError):
            Multipartitioning(np.ascontiguousarray(grid), 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            Multipartitioning(np.arange(4), 4)

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ValueError):
            Multipartitioning(latin_square_2d(3), 0)


class TestQueries:
    def test_rank_of_matches_owner(self, mp16):
        assert mp16.rank_of((0, 0, 0)) == int(mp16.owner[0, 0, 0])

    def test_tiles_of_partition_the_grid(self, mp8):
        seen = set()
        for rank in range(8):
            tiles = mp8.tiles_of(rank)
            assert len(tiles) == 4
            seen.update(tiles)
        assert len(seen) == 32

    @pytest.mark.parametrize("rank", [-1, 8])
    def test_tiles_of_rejects_unknown_rank(self, mp8, rank):
        with pytest.raises(IndexError):
            mp8.tiles_of(rank)

    def test_neighbor_rank_consistency(self, mp8):
        """neighbor_rank must agree with the owner table on every tile."""
        for rank in range(8):
            for axis in range(3):
                for step in (+1, -1):
                    nbr = mp8.neighbor_rank(rank, axis, step)
                    for tile in mp8.tiles_of(rank):
                        t = list(tile)
                        t[axis] += step
                        if 0 <= t[axis] < mp8.gammas[axis]:
                            assert mp8.rank_of(tuple(t)) == nbr

    def test_neighbor_rank_rejects_bad_step(self, mp8):
        with pytest.raises(ValueError):
            mp8.neighbor_rank(0, 0, 2)

    def test_unpartitioned_axis_neighbor_is_minus_one(self):
        b = (8, 8, 1)
        mp = Multipartitioning(build_modular_mapping(b, 8).rank_grid(b), 8)
        assert mp.neighbor_rank(0, 2, +1) == -1


class TestRendering:
    def test_layer_strings_3d(self, mp16):
        layers = mp16.layer_strings(axis=2)
        assert len(layers) == 4
        # layer 0 of the diagonal mapping enumerates ranks row-major
        first = [int(v) for v in layers[0].split()]
        assert first == list(range(16))

    def test_layer_strings_2d(self):
        mp = Multipartitioning(latin_square_2d(3), 3)
        layers = mp.layer_strings()
        assert len(layers) == 1

    def test_layer_strings_rejects_4d(self):
        b = (2, 2, 2, 2)
        grid = build_modular_mapping(b, 4).rank_grid(b)
        mp = Multipartitioning(grid, 4)
        with pytest.raises(ValueError):
            mp.layer_strings()
