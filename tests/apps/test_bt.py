"""Tests for the NAS-BT proxy (block-tridiagonal solves on 5-vector fields)."""

import numpy as np
import pytest

from repro.apps.bt import NCOMP, BTProblem, bt_class, bt_plan
from repro.apps.workloads import random_field
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import BlockSweepOp, PointwiseOp


class TestBTProblem:
    def test_step_structure(self):
        prob = BTProblem(shape=(8, 8, 8))
        sched = prob.step_schedule()
        sweeps = [op for op in sched if isinstance(op, BlockSweepOp)]
        points = [op for op in sched if isinstance(op, PointwiseOp)]
        assert len(sweeps) == 6  # 3 axes x (forward + backward)
        assert [p.name for p in points] == ["compute_rhs", "add"]
        assert all(op.components == NCOMP for op in sweeps)

    def test_field_shape(self):
        assert BTProblem(shape=(8, 10, 12)).field_shape == (8, 10, 12, 5)

    def test_block_solve_residual(self, rng):
        prob = BTProblem(shape=(10, 8, 8))
        rhs = rng.standard_normal((10, 8, 8, NCOMP))
        for axis in range(3):
            assert prob.block_solve_residual(rhs, axis) < 1e-9

    def test_sequential_finite(self):
        prob = BTProblem(shape=(8, 8, 8), steps=2)
        field = random_field(prob.field_shape)
        out = prob.solve_sequential(field)
        assert np.isfinite(out).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            BTProblem(shape=(8, 8))
        with pytest.raises(ValueError):
            BTProblem(shape=(8, 8, 8), steps=0)
        with pytest.raises(ValueError):
            BTProblem(shape=(8, 8, 8)).solve_sequential(
                np.zeros((8, 8, 8))
            )

    def test_class_instances(self):
        assert bt_class("S").shape == (12, 12, 12)
        assert bt_class("B", steps=3).steps == 3


class TestBTPlan:
    def test_component_axis_never_cut(self):
        for p in (4, 6, 50):
            plan = bt_plan((102, 102, 102), p)
            assert plan.gammas[3] == 1
            assert plan.nprocs == p

    def test_spatial_tiling_matches_sp(self):
        from repro.core.api import plan_multipartitioning

        plan_bt = bt_plan((102, 102, 102), 50)
        plan_sp = plan_multipartitioning((102, 102, 102), 50)
        assert plan_bt.gammas[:3] == plan_sp.gammas


class TestBTDistributed:
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_matches_sequential(self, p, machine):
        prob = BTProblem(shape=(10, 10, 10), steps=1)
        field = random_field(prob.field_shape)
        ref = prob.solve_sequential(field)
        plan = bt_plan(prob.shape, p)
        out, res = MultipartExecutor(
            plan.partitioning, prob.field_shape, machine
        ).run(field, prob.schedule())
        assert np.allclose(out, ref, atol=1e-9), p
        if p > 1:
            assert res.message_count > 0

    def test_uneven_extents(self, machine):
        prob = BTProblem(shape=(11, 9, 7), steps=1)
        field = random_field(prob.field_shape)
        ref = prob.solve_sequential(field)
        plan = bt_plan(prob.shape, 4)
        out, _ = MultipartExecutor(
            plan.partitioning, prob.field_shape, machine
        ).run(field, prob.schedule())
        assert np.allclose(out, ref, atol=1e-9)

    def test_wavefront_executor_block_sweeps(self, machine):
        prob = BTProblem(shape=(10, 8, 8), steps=1)
        field = random_field(prob.field_shape)
        ref = prob.solve_sequential(field)
        out, _ = BlockGridExecutor(
            (2,), prob.field_shape, machine, chunks=4
        ).run(field, prob.schedule())
        assert np.allclose(out, ref, atol=1e-9)

    def test_carry_volume_is_5x_scalar(self, machine):
        """Block sweeps move 5-vectors across slab boundaries: the carried
        bytes must be ~5x a scalar sweep of the same grid."""
        from repro.apps.sp import SPProblem

        shape = (12, 12, 12)
        bt = BTProblem(shape=shape, steps=1)
        sp = SPProblem(shape=shape, steps=1)
        plan_bt = bt_plan(shape, 4)
        from repro.core.api import plan_multipartitioning

        plan_sp = plan_multipartitioning(shape, 4)
        _, res_bt = MultipartExecutor(
            plan_bt.partitioning, bt.field_shape, machine
        ).run(random_field(bt.field_shape), bt.solve_ops(0))
        _, res_sp = MultipartExecutor(
            plan_sp.partitioning, shape, machine
        ).run(random_field(shape), sp.solve_ops(0)[:2])
        # raw payload ratio is exactly 5; the pickle envelope of the
        # aggregated message dilutes it a little
        assert res_bt.message_count == res_sp.message_count
        assert res_bt.total_bytes > 3.5 * res_sp.total_bytes
