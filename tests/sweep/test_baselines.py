"""Tests for the wavefront (one-axis block grid) and transpose baseline
executors."""

import numpy as np
import pytest

from repro.apps.workloads import random_field
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.ops import PointwiseOp, SweepOp, thomas_ops
from repro.sweep.sequential import run_sequential
from repro.sweep.transpose import TransposeExecutor


def make_schedule(shape):
    return (
        thomas_ops(shape[0], 0, -1.0, 4.0, -1.0)
        + [PointwiseOp(lambda b: b + 0.5, name="shift")]
        + thomas_ops(shape[1], 1, -1.0, 3.0, -1.0)
        + [SweepOp(axis=len(shape) - 1, mult=0.2, reverse=True)]
    )


class TestWavefront:
    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    @pytest.mark.parametrize("chunks", [1, 3, 8])
    def test_against_sequential(self, p, chunks, machine):
        shape = (15, 12, 10)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor(
            (p,), shape, machine, chunks=chunks
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_partition_other_axis(self, machine):
        shape = (10, 12, 8)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = BlockGridExecutor(
            (1, 4), shape, machine
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_more_chunks_more_messages(self, machine):
        shape = (16, 16, 8)
        field = random_field(shape)
        sched = [SweepOp(axis=0, mult=0.5)]
        _, few = BlockGridExecutor((4,), shape, machine, chunks=2).run(
            field, sched
        )
        _, many = BlockGridExecutor((4,), shape, machine, chunks=8).run(
            field, sched
        )
        assert few.message_count == (4 - 1) * 2
        assert many.message_count == (4 - 1) * 8

    def test_local_sweeps_have_no_messages(self, machine):
        shape = (12, 12, 12)
        field = random_field(shape)
        _, res = BlockGridExecutor((4,), shape, machine).run(
            field, [SweepOp(axis=1, mult=0.5), SweepOp(axis=2, mult=0.5)]
        )
        assert res.message_count == 0

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            BlockGridExecutor((20,), (10, 10), machine)
        with pytest.raises(ValueError):
            BlockGridExecutor((1,) * 5 + (2,), (10, 10), machine)
        with pytest.raises(ValueError):
            BlockGridExecutor((2,), (10, 10), machine, chunks=0)


class TestTranspose:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_against_sequential(self, p, machine):
        shape = (12, 12, 10)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = TransposeExecutor(p, shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_uneven_extents(self, machine):
        shape = (13, 11, 9)
        field = random_field(shape)
        sched = make_schedule(shape)
        ref = run_sequential(field, sched)
        out, _ = TransposeExecutor(3, shape, machine).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)

    def test_transposes_only_on_partitioned_axis(self, machine):
        shape = (12, 12, 12)
        field = random_field(shape)
        _, local = TransposeExecutor(4, shape, machine).run(
            field, [SweepOp(axis=1, mult=0.5)]
        )
        assert local.message_count == 0
        _, remote = TransposeExecutor(4, shape, machine).run(
            field, [SweepOp(axis=0, mult=0.5)]
        )
        # two alltoalls, each p*(p-1) messages
        assert remote.message_count == 2 * 4 * 3

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            TransposeExecutor(20, (10, 10), machine)
        with pytest.raises(ValueError):
            TransposeExecutor(2, (10,), machine)
        with pytest.raises(ValueError):
            TransposeExecutor(2, (10, 10), machine, part_axis=0, alt_axis=0)
