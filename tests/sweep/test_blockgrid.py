"""Tests for the per-axis processor-grid block/wavefront executor."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import random_field
from repro.simmpi.machine import MachineModel, bus
from repro.sweep import blockgrid
from repro.sweep.blockgrid import BlockGridExecutor, best_wavefront_chunks
from repro.sweep.ops import (
    PointwiseOp,
    StencilOp,
    SweepOp,
    star_laplacian,
    thomas_ops,
)
from repro.sweep.sequential import run_sequential
from repro.sweep.transpose import TransposeExecutor

from .block_oracle import blockgrid_time, transpose_time


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
        baseline: at class-B scale multipartitioning still beats the
        simulated 2-D block grid at its best chunk count."""
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
                BlockGridExecutor((p1, p2), prob.shape, machine, chunks=c)
                .run_skeleton(sched).makespan
                for c in (4, 8, 16, 32)
            )
            assert tm < best_bg


class TestWavefrontChunks:
    def test_best_is_the_least_skeleton_makespan(self, machine, monkeypatch):
        """The search runs the wavefront skeleton at each count
        ``ceil(n / h)`` for chunk heights ``h = 1 .. n`` of the chunked
        axis (n = 12: 1, 2, 3, 4, 6, 12 chunks) and keeps the least, the
        fewest chunks on a tie."""
        shape = (16, 12, 10)
        sched = make_schedule(shape)
        counts = (1, 2, 3, 4, 6, 12)
        times = {
            chunks: BlockGridExecutor((4,), shape, machine, chunks=chunks)
            .run_skeleton(sched).makespan
            for chunks in counts
        }
        best = min(times, key=times.get)
        tried = []

        class Spy(BlockGridExecutor):
            def __init__(self, *args, chunks, **kwargs):
                tried.append(chunks)
                super().__init__(*args, chunks=chunks, **kwargs)

        monkeypatch.setattr(blockgrid, "BlockGridExecutor", Spy)
        assert best_wavefront_chunks(shape, 4, machine, sched) == (
            best, times[best]
        )
        assert tuple(tried) == counts


class TestOneRankChain:
    """A chain of one rank neither pipelines nor transposes: its sweep is
    one local compute, which is what the closed forms charge."""

    def test_single_rank_makespans_equal_closed_forms(self, machine):
        shape = (12, 10, 8)
        field = random_field(shape)
        sched = make_schedule(shape) + [
            SweepOp(axis=0, mult=0.5, reverse=True), star_laplacian(3)
        ]
        _, grid = BlockGridExecutor((1,), shape, machine).run(field, sched)
        _, moved = TransposeExecutor(1, shape, machine).run(field, sched)
        assert grid.makespan == blockgrid_time(shape, (1,), machine, sched)
        assert moved.makespan == transpose_time(shape, 1, machine, sched)
        assert grid.makespan == moved.makespan

    def test_uncut_axis_sweep_is_one_local_compute(self, machine):
        shape = (12, 10, 8)
        field = random_field(shape)
        sched = [SweepOp(axis=1, mult=0.5, reverse=True)]
        out, res = BlockGridExecutor(
            (3, 1), shape, machine, record_events=True
        ).run(field, sched)
        assert res.message_count == 0
        computes = Counter(
            e.rank for e in res.trace.events if e.kind == "compute"
        )
        assert computes == {0: 1, 1: 1, 2: 1}
        assert np.array_equal(out, run_sequential(field, sched))


def star_stencil(reach) -> StencilOp:
    """A star stencil of per-side widths ``reach`` (any dimensionality)."""

    def fn(padded):
        core = tuple(
            slice(lo, n - hi) for n, (lo, hi) in zip(padded.shape, reach)
        )
        out = padded[core].copy()
        for axis, (lo, hi) in enumerate(reach):
            for offset in range(-lo, hi + 1):
                if offset:
                    sel = list(core)
                    sel[axis] = slice(
                        core[axis].start + offset, core[axis].stop + offset
                    )
                    out += 0.1 * padded[tuple(sel)]
        return out

    return StencilOp(fn=fn, reach=tuple(reach), name="star")


@st.composite
def block_cases(draw):
    """(machine, shape, grid, transpose (p, part_axis, alt_axis), chunks,
    schedule): a grid cuts one or two axes (trailing unit factors dropped
    or kept), the schedule sweeps every axis forward and backward, with a
    pointwise op and a star stencil whose reach fits every block.  The
    machine has a scalable network or a bus."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(4, 9)) for _ in range(ndim))
    cut = draw(st.lists(st.integers(0, ndim - 1), min_size=1, max_size=2,
                        unique=True))
    grid = [1] * ndim
    for axis in cut:
        grid[axis] = draw(st.integers(1, 3))
    length = draw(st.integers(max(cut) + 1, ndim))
    grid = tuple(grid[:length])
    part, alt = draw(st.permutations(range(ndim)))[:2]
    p = draw(st.integers(1, 3))
    chunks = draw(st.integers(1, min(n // g for n, g in zip(shape, grid))))
    ops = [
        SweepOp(axis=axis, mult=mult, reverse=reverse)
        for axis in range(ndim)
        for mult, reverse in ((0.3, False), (0.2, True))
    ]
    ops += [
        PointwiseOp(lambda b: 0.5 * b + 1.0, name="affine"),
        star_stencil([
            (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
            for _ in range(ndim)
        ]),
    ]
    machine = draw(st.sampled_from([MachineModel(tile_overhead=1e-6), bus()]))
    return (
        machine, shape, grid, (p, part, alt), chunks,
        draw(st.permutations(ops)),
    )


#: every number of a RunResult the skeleton must reproduce exactly
RESULT_FIELDS = (
    "clocks", "makespan", "message_count", "total_bytes",
    "compute_by_rank", "comm_by_rank", "blocked_by_rank",
)


def assert_skeleton_equals(executor, sched, real):
    """``run_skeleton`` replays what ``run`` interpreted: every number of
    the result, and with ``record_events`` every trace event, is equal."""
    skeleton = executor.run_skeleton(sched)
    for field in RESULT_FIELDS:
        assert getattr(skeleton, field) == getattr(real, field), field
    assert skeleton.trace.events == real.trace.events


class TestBlockExecutorsProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=block_cases())
    def test_match_sequential_and_count_chain_messages(self, case):
        machine, shape, grid, (p, part, alt), chunks, sched = case
        field = random_field(shape)
        ref = run_sequential(field, sched)
        executor = BlockGridExecutor(
            grid, shape, machine, chunks=chunks, record_events=True
        )
        out, res = executor.run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        assert_skeleton_equals(executor, sched, res)
        nprocs = math.prod(grid)
        sent = Counter(
            e.tag // 100_000 - 1 for e in res.trace.events if e.kind == "send"
        )
        for index, op in enumerate(sched):
            # (chain length, messages per link of the chain)
            if isinstance(op, StencilOp):
                links = [(g, sum(map(bool, op.reach[axis])))
                         for axis, g in enumerate(grid)]
            elif isinstance(op, SweepOp) and op.axis < len(grid):
                links = [(grid[op.axis], chunks)]
            else:
                links = []
            expected = sum(
                (chain - 1) * per_link * (nprocs // chain)
                for chain, per_link in links
            )
            assert sent[index] == expected, (index, op)

        executor = TransposeExecutor(
            p, shape, machine, part_axis=part, alt_axis=alt,
            record_events=True,
        )
        out, res = executor.run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        assert_skeleton_equals(executor, sched, res)
