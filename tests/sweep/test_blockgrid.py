"""Tests for the 2-D processor-grid block/wavefront executor."""

import numpy as np
import pytest

from repro.apps.workloads import random_field
from repro.sweep.blockgrid import BlockGridExecutor, blockgrid_time
from repro.sweep.ops import PointwiseOp, SweepOp, star_laplacian, thomas_ops
from repro.sweep.sequential import run_sequential


def make_schedule(shape):
    return (
        thomas_ops(shape[0], 0, -1.0, 4.0, -1.0)
        + thomas_ops(shape[1], 1, -1.0, 3.0, -1.0)
        + [PointwiseOp(lambda b: b + 0.25, name="shift")]
        + thomas_ops(shape[2], 2, -0.5, 3.0, -0.5)
    )


class TestBlockGrid:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (2, 3), (4, 2)])
    def test_matches_sequential(self, grid, machine):
        shape = (12, 12, 10)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor(grid, shape, machine, chunks=3).run(
            field, sched
        )
        assert np.allclose(out, ref, atol=1e-12)

    def test_uneven_extents(self, machine):
        shape = (13, 11, 7)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor((3, 2), shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_reverse_sweeps(self, machine):
        shape = (12, 12, 8)
        field = random_field(shape)
        sched = [
            SweepOp(axis=0, mult=0.5, reverse=True),
            SweepOp(axis=1, mult=0.25, reverse=True),
        ]
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor((2, 2), shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_stencil_halo_both_axes(self, machine):
        shape = (12, 12, 8)
        field = random_field(shape)
        sched = [star_laplacian(3)]
        ref = run_sequential(field, sched)
        out, res = BlockGridExecutor((2, 3), shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        assert res.message_count > 0

    def test_local_axis2_sweep_no_messages(self, machine):
        shape = (8, 8, 8)
        field = random_field(shape)
        out, res = BlockGridExecutor((2, 2), shape, machine).run(
            field, [SweepOp(axis=2, mult=0.5)]
        )
        assert res.message_count == 0

    def test_chains_are_parallel(self, machine):
        """A sweep along axis 0 pipelines within columns but columns run
        concurrently: makespan must be far below the serialized sum."""
        shape = (16, 16, 8)
        field = random_field(shape)
        _, res = BlockGridExecutor(
            (4, 4), shape, machine, chunks=2, record_events=True
        ).run(field, [SweepOp(axis=0, mult=0.5)])
        busy = res.busy_seconds()
        assert res.makespan < sum(busy) / 2

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            BlockGridExecutor((0, 2), (8, 8), machine)
        with pytest.raises(ValueError):
            BlockGridExecutor((10, 1), (8, 8), machine)
        with pytest.raises(ValueError):
            BlockGridExecutor((2, 2), (8,), machine)
        with pytest.raises(ValueError):
            BlockGridExecutor((2, 2), (8, 8), machine, chunks=0)

    def test_2d_arrays_supported(self, machine):
        shape = (10, 12)
        field = random_field(shape)
        sched = thomas_ops(10, 0, -1, 4, -1) + thomas_ops(12, 1, -1, 4, -1)
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor((2, 3), shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)


class TestBlockGridModel:
    def test_tracks_simulation(self, machine):
        shape = (16, 16, 16)
        field = random_field(shape)
        sched = make_schedule(shape)
        _, res = BlockGridExecutor((2, 2), shape, machine, chunks=4).run(
            field, sched
        )
        predicted = blockgrid_time(shape, (2, 2), machine, sched, chunks=4)
        assert predicted == pytest.approx(res.makespan, rel=0.5)

    def test_multipart_beats_blockgrid_at_scale(self):
        """The paper's core comparison extended to the strongest block
        baseline: at class-B scale multipartitioning still wins."""
        from repro.apps.sp import sp_class
        from repro.core.api import plan_multipartitioning
        from repro.simmpi.machine import origin2000
        from repro.sweep.multipart import MultipartExecutor

        machine = origin2000()
        prob = sp_class("B", steps=1)
        sched = prob.schedule()
        for p1, p2 in ((4, 4), (8, 8)):
            p = p1 * p2
            plan = plan_multipartitioning(
                prob.shape, p, machine.to_cost_model()
            )
            tm = MultipartExecutor(
                plan.partitioning, prob.shape, machine, payload="skeleton"
            ).run_skeleton(sched).makespan
            best_bg = min(
                blockgrid_time(prob.shape, (p1, p2), machine, sched, chunks=c)
                for c in (4, 8, 16, 32)
            )
            assert tm < best_bg
