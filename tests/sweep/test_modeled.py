"""Closed-form baseline times cross-checked against simulated executions,
and the skeleton-timed multipartitioning behaviour they are compared with."""

import pytest

from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import MachineModel
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.modeled import (
    best_wavefront_chunks,
    blockgrid_time,
    transpose_time,
)
from repro.sweep.multipart import MultipartExecutor, best_processor_count
from repro.sweep.ops import PointwiseOp, SweepOp, thomas_ops
from repro.sweep.transpose import TransposeExecutor


def machine() -> MachineModel:
    return MachineModel(
        compute_per_point=1e-7,
        overhead=5e-6,
        latency=1e-5,
        bandwidth=1e8,
        tile_overhead=2e-6,
    )


def schedule(shape):
    return thomas_ops(shape[0], 0, -1, 4, -1) + [
        PointwiseOp(lambda b: b * 0.5, name="half"),
        SweepOp(axis=1, mult=0.5),
    ]


def skeleton_makespan(shape, p, m, sched, aggregate=True):
    plan = plan_multipartitioning(shape, p, m.to_cost_model())
    return MultipartExecutor(
        plan.partitioning, shape, m, aggregate=aggregate, payload="skeleton"
    ).run_skeleton(sched).makespan


class TestModelVsSimulation:
    """The closed-form baseline models must track the simulator closely
    (it is the same accounting, minus pipeline-overlap effects)."""

    @pytest.mark.parametrize("p", [2, 4])
    def test_transpose(self, p):
        m = machine()
        shape = (16, 16, 16)
        sched = schedule(shape)
        _, res = TransposeExecutor(p, shape, m).run(
            random_field(shape), sched
        )
        predicted = transpose_time(shape, p, m, sched)
        assert predicted == pytest.approx(res.makespan, rel=0.5)

    @pytest.mark.parametrize("p,chunks", [(2, 4), (4, 4)])
    def test_wavefront(self, p, chunks):
        m = machine()
        shape = (16, 16, 16)
        sched = schedule(shape)
        _, res = BlockGridExecutor((p,), shape, m, chunks=chunks).run(
            random_field(shape), sched
        )
        predicted = blockgrid_time(shape, (p,), m, sched, chunks=chunks)
        assert predicted == pytest.approx(res.makespan, rel=0.5)


class TestModelBehaviour:
    def test_multipart_aggregation_saves_startup(self):
        m = machine()
        shape = (24, 24, 24)
        sched = [SweepOp(axis=2, mult=0.5)]
        agg = skeleton_makespan(shape, 6, m, sched, aggregate=True)
        raw = skeleton_makespan(shape, 6, m, sched, aggregate=False)
        assert agg <= raw

    def test_wavefront_chunk_tradeoff(self):
        """Very few chunks (long fill) and very many chunks (per-message
        overhead) must both lose to an interior optimum."""
        # start-up-heavy machine so huge chunk counts clearly lose
        m = MachineModel(
            compute_per_point=1e-7,
            overhead=5e-5,
            latency=1e-5,
            bandwidth=1e8,
        )
        shape = (64, 64, 64)
        sched = [SweepOp(axis=0, mult=0.5)]
        c_best, t_best = best_wavefront_chunks(shape, 8, m, sched)
        t_one = blockgrid_time(shape, (8,), m, sched, chunks=1)
        t_max = blockgrid_time(shape, (8,), m, sched, chunks=64)
        assert t_best <= t_one and t_best <= t_max
        assert 1 < c_best < 64

    def test_multipart_time_scales_down_with_p(self):
        m = machine()
        shape = (48, 48, 48)
        sched = schedule(shape)
        times = [skeleton_makespan(shape, p, m, sched) for p in (1, 4, 16)]
        assert times[0] > times[1] > times[2]

    def test_best_processor_count_49_vs_50(self):
        """Conclusions experiment: for class B SP on the Origin model, 49
        compact processors beat 50 non-compact ones."""
        from repro.apps.sp import sp_class
        from repro.simmpi.machine import origin2000

        prob = sp_class("B", steps=1)
        p_used, _ = best_processor_count(
            prob.shape, 50, origin2000(), prob.schedule()
        )
        assert p_used == 49

    def test_best_processor_count_compact_keeps_all(self):
        from repro.apps.sp import sp_class
        from repro.simmpi.machine import origin2000

        prob = sp_class("A", steps=1)
        p_used, _ = best_processor_count(
            prob.shape, 49, origin2000(), prob.schedule()
        )
        assert p_used == 49

    def test_best_processor_count_class_b_p1000(self):
        """35 of the counts in [961, 1000] cut a 102-point axis into more
        tiles than it has points; the search skips them."""
        from repro.apps.sp import sp_class
        from repro.simmpi.machine import origin2000

        prob = sp_class("B", steps=1)
        p_used, _ = best_processor_count(
            prob.shape, 1000, origin2000(), prob.schedule()
        )
        assert p_used == 961

    def test_best_processor_count_needs_a_valid_tiling(self):
        with pytest.raises(ValueError, match=r"\[81, 81\] tiles the 8x8x8"):
            best_processor_count((8, 8, 8), 81, machine(), [])

    def test_bad_pmin(self):
        with pytest.raises(ValueError):
            best_processor_count(
                (16, 16, 16), 4, machine(), [], p_min=9
            )


class TestLocalOps:
    """Two-array schedules: ``BinaryPointwiseOp`` and ``CopyOp`` are local
    compute, charged like a ``PointwiseOp`` of the same flop weight."""

    @staticmethod
    def _schedules():
        import dataclasses

        from repro.apps.sp import SPProblem
        from repro.sweep.ops import BinaryPointwiseOp, CopyOp

        two_array = SPProblem((16, 16, 16)).schedule_two_array()
        copy = CopyOp("u", "rhs", flops_per_point=3.0)
        two_array = two_array[:2] + [copy] + two_array[2:]
        as_pointwise = [
            PointwiseOp(lambda b: b, flops_per_point=op.flops_per_point)
            if isinstance(op, (BinaryPointwiseOp, CopyOp))
            else dataclasses.replace(op)
            for op in two_array
        ]
        kinds = {type(op) for op in two_array}
        assert {BinaryPointwiseOp, CopyOp} <= kinds
        return two_array, as_pointwise

    @pytest.mark.parametrize("grid", [(4,), (1, 4), (2, 2)])
    def test_blockgrid_time(self, grid):
        two_array, as_pointwise = self._schedules()
        m, shape = machine(), (16, 16, 16)
        assert blockgrid_time(shape, grid, m, two_array) == blockgrid_time(
            shape, grid, m, as_pointwise
        )

    @pytest.mark.parametrize("part_axis", [0, 1, 2])
    def test_transpose_time(self, part_axis):
        two_array, as_pointwise = self._schedules()
        m, shape = machine(), (16, 16, 16)
        assert transpose_time(
            shape, 4, m, two_array, part_axis
        ) == transpose_time(shape, 4, m, as_pointwise, part_axis)
