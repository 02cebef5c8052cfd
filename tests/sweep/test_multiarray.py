"""Multi-array (named aligned arrays) schedules across every executor —
the real NAS data flow: compute_rhs writes rhs, solves sweep rhs, add
updates u."""

import numpy as np
import pytest

from repro.apps.sp import SPProblem
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import (
    BinaryPointwiseOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    star_laplacian,
    thomas_ops,
)
from repro.sweep.sequential import run_sequential
from repro.sweep.transpose import TransposeExecutor


def two_array_schedule(shape):
    """u -> (stencil) -> rhs; sweep rhs; u += rhs; copy u -> snapshot."""
    lap = star_laplacian(3)
    return [
        StencilOp(fn=lap.fn, reach=lap.reach, name="rhs_from_u",
                  array="u", out_array="rhs"),
        *(SweepOp(axis=a, mult=0.5, array="rhs") for a in range(3)),
        BinaryPointwiseOp(
            fn=lambda u, rhs: u + 0.1 * rhs, target="u", source="rhs",
            name="add",
        ),
        CopyOp(src="u", dst="snap"),
        PointwiseOp(fn=lambda b: b * 0.9, array="u", name="damp"),
    ]


def fields(shape, seed=0):
    return {
        "u": random_field(shape, seed=seed),
        "rhs": np.zeros(shape),
        "snap": np.zeros(shape),
    }


class TestSequentialMultiArray:
    def test_dataflow(self):
        shape = (8, 8, 8)
        arrays = fields(shape)
        out = run_sequential(arrays, two_array_schedule(shape))
        assert set(out) == {"u", "rhs", "snap"}
        # snap holds u BEFORE damping
        assert np.allclose(out["snap"] * 0.9, out["u"], atol=1e-13)
        # inputs untouched
        assert (arrays["rhs"] == 0).all()

    def test_unknown_array_rejected(self):
        with pytest.raises(KeyError):
            run_sequential(
                {"u": np.zeros((4, 4))},
                [SweepOp(axis=0, array="ghost")],
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_sequential(
                {"u": np.zeros((4, 4)), "v": np.zeros((5, 4))}, []
            )

    def test_single_array_backcompat(self, rng):
        arr = rng.standard_normal((6, 6))
        out = run_sequential(arr, [SweepOp(axis=0, mult=0.5)])
        assert isinstance(out, np.ndarray)


class TestDistributedMultiArray:
    @pytest.mark.parametrize("p", [2, 4, 6, 9])
    def test_multipart(self, p, machine):
        shape = (12, 12, 12)
        arrays = fields(shape)
        sched = two_array_schedule(shape)
        ref = run_sequential(arrays, sched)
        plan = plan_multipartitioning(shape, p)
        out, res = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(arrays, sched)
        for name in ref:
            assert np.allclose(out[name], ref[name], atol=1e-12), name

    @pytest.mark.parametrize("p", [2, 3])
    def test_wavefront(self, p, machine):
        shape = (12, 10, 8)
        arrays = fields(shape)
        sched = two_array_schedule(shape)
        ref = run_sequential(arrays, sched)
        out, _ = BlockGridExecutor((p,), shape, machine).run(arrays, sched)
        for name in ref:
            assert np.allclose(out[name], ref[name], atol=1e-12), name

    def test_transpose(self, machine):
        shape = (12, 12, 8)
        arrays = fields(shape)
        sched = two_array_schedule(shape)
        ref = run_sequential(arrays, sched)
        out, _ = TransposeExecutor(3, shape, machine).run(arrays, sched)
        for name in ref:
            assert np.allclose(out[name], ref[name], atol=1e-12), name

    def test_blockgrid(self, machine):
        shape = (12, 12, 8)
        arrays = fields(shape)
        sched = two_array_schedule(shape)
        ref = run_sequential(arrays, sched)
        out, _ = BlockGridExecutor((2, 2), shape, machine).run(arrays, sched)
        for name in ref:
            assert np.allclose(out[name], ref[name], atol=1e-12), name

    def test_unknown_array_rejected(self, machine):
        plan = plan_multipartitioning((8, 8), 2)
        with pytest.raises(KeyError):
            MultipartExecutor(plan.partitioning, (8, 8), machine).run(
                {"u": np.zeros((8, 8))},
                [SweepOp(axis=0, array="ghost")],
            )


class TestTwoArraySP:
    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_distributed_matches_sequential(self, p, machine):
        prob = SPProblem(shape=(12, 12, 12), steps=2)
        sched = prob.schedule_two_array()
        arrays = {
            "u": random_field(prob.shape),
            "rhs": np.zeros(prob.shape),
        }
        ref = run_sequential(arrays, sched)
        plan = plan_multipartitioning(prob.shape, p)
        out, res = MultipartExecutor(
            plan.partitioning, prob.shape, machine
        ).run(arrays, sched)
        assert np.allclose(out["u"], ref["u"], atol=1e-11)
        assert np.allclose(out["rhs"], ref["rhs"], atol=1e-11)

    def test_stencil_rhs_goes_through_shadow_path(self, machine):
        """compute_rhs(u) -> rhs must communicate (halo fills) but never
        modify u."""
        prob = SPProblem(shape=(12, 12, 12), steps=1)
        sched = prob.step_schedule_two_array()[:1]  # just compute_rhs
        u0 = random_field(prob.shape)
        arrays = {"u": u0, "rhs": np.zeros(prob.shape)}
        plan = plan_multipartitioning(prob.shape, 6)
        out, res = MultipartExecutor(
            plan.partitioning, prob.shape, machine
        ).run(arrays, sched)
        assert (out["u"] == u0).all()
        assert not (out["rhs"] == 0).all()
        assert res.message_count > 0
