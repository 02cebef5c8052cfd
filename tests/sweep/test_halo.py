"""Slab halo exchange: a one-op stencil schedule on the one-axis block
grids ``(p,)`` and ``(1, p)``."""

import numpy as np
import pytest

from repro.simmpi.machine import MachineModel
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.ops import StencilOp, star_laplacian
from repro.sweep.sequential import run_sequential


def run_slab_stencil(field, op, nprocs, part_axis=0):
    grid = (1,) * part_axis + (nprocs,)
    out, _ = BlockGridExecutor(grid, field.shape, MachineModel()).run(
        field, [op]
    )
    return out


class TestSlabStencil:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5])
    def test_matches_sequential(self, nprocs, rng):
        field = rng.standard_normal((15, 8, 6))
        op = star_laplacian(3)
        expect = run_sequential(field, [op])
        got = run_slab_stencil(field, op, nprocs)
        assert np.allclose(got, expect, atol=1e-13)

    def test_asymmetric_reach(self, rng):
        def fn(padded):
            sx = padded.shape[0]
            core = (slice(2, sx), slice(None))
            return padded[core] + 0.5 * padded[(slice(0, sx - 2), slice(None))]

        op = StencilOp(fn=fn, reach=((2, 0), (0, 0)), name="up2")
        field = rng.standard_normal((12, 5))
        expect = run_sequential(field, [op])
        got = run_slab_stencil(field, op, 3)
        assert np.allclose(got, expect, atol=1e-13)

    def test_partition_other_axis(self, rng):
        field = rng.standard_normal((6, 12, 6))
        op = star_laplacian(3)
        expect = run_sequential(field, [op])
        got = run_slab_stencil(field, op, 4, part_axis=1)
        assert np.allclose(got, expect, atol=1e-13)

    def test_shape_contract(self, rng):
        bad = StencilOp(fn=lambda p: p, reach=((1, 1), (0, 0)), name="bad")
        with pytest.raises(ValueError):
            run_slab_stencil(rng.standard_normal((8, 4)), bad, 2)
