"""Tests for star-stencil ops with halo (shadow-region) exchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import StencilOp, star_laplacian
from repro.sweep.sequential import run_sequential
from repro.sweep.transpose import TransposeExecutor


def asymmetric_stencil() -> StencilOp:
    """Reach (2,0) on axis 0, (0,1) on axis 1, (1,1) on axis 2 — exercises
    per-side widths."""

    def fn(padded: np.ndarray) -> np.ndarray:
        sx, sy, sz = padded.shape
        core = (slice(2, sx), slice(0, sy - 1), slice(1, sz - 1))
        out = padded[core].copy()
        out += 0.3 * padded[(slice(0, sx - 2), core[1], core[2])]  # x-2
        out += 0.2 * padded[(core[0], slice(1, sy), core[2])]      # y+1
        out += 0.1 * padded[(core[0], core[1], slice(0, sz - 2))]  # z-1
        out += 0.1 * padded[(core[0], core[1], slice(2, sz))]      # z+1
        return out

    return StencilOp(fn=fn, reach=((2, 0), (0, 1), (1, 1)), name="asym")


class TestSequentialStencil:
    def test_laplacian_interior_value(self):
        field = np.ones((5, 5, 5))
        out = run_sequential(field, [star_laplacian(3, weight=0.1)])
        # interior point: (1 - 0.6) + 6 * 0.1 = 1.0
        assert out[2, 2, 2] == pytest.approx(1.0)
        # corner point: 3 neighbors inside, 3 zero ghosts
        assert out[0, 0, 0] == pytest.approx(0.4 + 3 * 0.1)

    def test_shape_contract_enforced(self):
        bad = StencilOp(fn=lambda p: p, reach=((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            run_sequential(np.ones((4, 4)), [bad])

    def test_reach_validation(self):
        with pytest.raises(ValueError):
            StencilOp(fn=lambda p: p, reach=((-1, 0),))

    def test_rank_mismatch(self):
        op = star_laplacian(2)
        with pytest.raises(ValueError):
            run_sequential(np.ones((4, 4, 4)), [op])


class TestDistributedStencil:
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 8, 12])
    def test_multipart_matches_sequential(self, p, machine):
        shape = (12, 12, 12)
        field = random_field(shape)
        sched = [star_laplacian(3), star_laplacian(3, weight=0.05)]
        ref = run_sequential(field, sched)
        plan = plan_multipartitioning(shape, p)
        out, res = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        if p > 1:
            assert res.message_count > 0

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_multipart_asymmetric_reach(self, p, machine):
        shape = (13, 11, 9)
        field = random_field(shape)
        sched = [asymmetric_stencil()]
        ref = run_sequential(field, sched)
        plan = plan_multipartitioning(shape, p)
        out, _ = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_wavefront_stencil(self, p, machine):
        shape = (15, 10, 8)
        field = random_field(shape)
        sched = [star_laplacian(3), asymmetric_stencil()]
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor((p,), shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_transpose_stencil(self, p, machine):
        shape = (12, 12, 8)
        field = random_field(shape)
        sched = [star_laplacian(3)]
        ref = run_sequential(field, sched)
        out, _ = TransposeExecutor(p, shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_mixed_schedule(self, machine):
        """Stencils interleaved with sweeps — the real SP structure."""
        from repro.sweep.ops import thomas_ops

        shape = (12, 12, 12)
        field = random_field(shape)
        sched = (
            [star_laplacian(3)]
            + thomas_ops(12, 0, -1, 4, -1)
            + [star_laplacian(3, weight=0.02)]
            + thomas_ops(12, 2, -1, 4, -1)
        )
        ref = run_sequential(field, sched)
        plan = plan_multipartitioning(shape, 6)
        out, _ = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    @settings(deadline=None, max_examples=10)
    @given(
        st.integers(2, 9),
        st.integers(0, 2**31 - 1),
    )
    def test_property_random_fields(self, p, seed):
        from repro.simmpi.machine import MachineModel

        shape = (10, 12, 14)
        field = random_field(shape, seed=seed)
        sched = [star_laplacian(3, weight=0.08)]
        ref = run_sequential(field, sched)
        plan = plan_multipartitioning(shape, p)
        out, _ = MultipartExecutor(
            plan.partitioning, shape, MachineModel()
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)


class TestSPStencilMode:
    def test_sp_stencil_rhs_matches_across_executors(self, machine):
        from repro.apps.sp import SPProblem

        prob = SPProblem(shape=(12, 12, 12), steps=1, stencil_rhs=True)
        field = random_field(prob.shape)
        ref = prob.solve_sequential(field)
        plan = plan_multipartitioning(prob.shape, 6)
        out, _ = MultipartExecutor(
            plan.partitioning, prob.shape, machine
        ).run(field, prob.schedule())
        assert np.allclose(out, ref, atol=1e-11)

    def test_stencil_and_pointwise_rhs_differ(self):
        from repro.apps.sp import SPProblem

        field = random_field((8, 8, 8))
        a = SPProblem(shape=(8, 8, 8), stencil_rhs=True).solve_sequential(
            field
        )
        b = SPProblem(shape=(8, 8, 8), stencil_rhs=False).solve_sequential(
            field
        )
        assert not np.allclose(a, b)
