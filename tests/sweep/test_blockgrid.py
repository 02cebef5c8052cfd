"""Tests for the per-axis processor-grid block/wavefront executor."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import plan_app
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.faults import ZERO_FAULTS, FaultPlan, ProtocolConfig
from repro.simmpi.machine import (
    MachineModel,
    bus,
    ethernet_cluster,
    origin2000,
)
from repro.sweep import blockgrid
from repro.sweep.blockgrid import BlockGridExecutor, best_wavefront_chunks
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import (
    PointwiseOp,
    StencilOp,
    SweepOp,
    star_laplacian,
    thomas_ops,
)
from repro.sweep.sequential import run_sequential
from repro.sweep.tiles import axis_extents
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
def block_cases(draw, min_procs=1):
    """(machine, shape, grid, transpose (p, part_axis, alt_axis), chunks,
    schedule): a grid cuts one or two axes (trailing unit factors dropped
    or kept), the schedule sweeps every axis forward and backward, with a
    pointwise op and a star stencil whose reach fits every block.  The
    machine has a scalable network or a bus.  ``min_procs=2`` draws only
    programs that send: each cut factor and the transpose's ``p`` are at
    least 2."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(4, 9)) for _ in range(ndim))
    # a slice of a permutation: a unique list would reject repeats
    cut = draw(st.permutations(range(ndim)))[:draw(st.integers(1, 2))]
    grid = [1] * ndim
    for axis in cut:
        grid[axis] = draw(st.integers(min_procs, 3))
    length = draw(st.integers(max(cut) + 1, ndim))
    grid = tuple(grid[:length])
    part, alt = draw(st.permutations(range(ndim)))[:2]
    p = draw(st.integers(min_procs, 3))
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
    machine = draw(st.sampled_from([
        MachineModel(tile_overhead=1e-6), origin2000(), ethernet_cluster(),
        bus(),
    ]))
    # the ops in drawn order, one pick at a time (a permutation strategy
    # rejects some of its draws)
    order = [ops.pop(draw(st.integers(0, len(ops) - 1))) for _ in ops[:]]
    return machine, shape, grid, (p, part, alt), chunks, order


#: every number of a RunResult the skeleton must reproduce exactly
RESULT_FIELDS = (
    "clocks", "makespan", "message_count", "total_bytes",
    "compute_by_rank", "comm_by_rank", "blocked_by_rank",
)


def assert_results_equal(run, real):
    for field in RESULT_FIELDS:
        assert getattr(run, field) == getattr(real, field), field


def assert_skeleton_equals(make, sched, real):
    """``run_skeleton`` times what ``run`` interpreted, traced (on the
    engine) and untraced (replayed in lockstep off a bus): every number of
    the result, and traced every event, is equal."""
    traced = make(record_events=True).run_skeleton(sched)
    assert_results_equal(traced, real)
    assert traced.trace.events == real.trace.events
    assert_results_equal(make().run_skeleton(sched), real)


class TestBlockExecutorsProperty:
    """Every executor, drawn on one case: the data matches the sequential
    reference and ``run_skeleton`` equals ``run``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=block_cases())
    def test_match_sequential_and_count_chain_messages(self, case):
        machine, shape, grid, (p, part, alt), chunks, sched = case
        field = random_field(shape)
        ref = run_sequential(field, sched)

        def block(**kw):
            return BlockGridExecutor(grid, shape, machine, chunks=chunks, **kw)

        out, res = block(record_events=True).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        assert_skeleton_equals(block, sched, res)
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

        def transpose(**kw):
            return TransposeExecutor(
                p, shape, machine, part_axis=part, alt_axis=alt, **kw
            )

        out, res = transpose(record_events=True).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        assert_skeleton_equals(transpose, sched, res)

        partitioning = plan_multipartitioning(shape, p).partitioning
        for aggregate in (True, False):
            def multipart(**kw):
                return MultipartExecutor(
                    partitioning, shape, machine, aggregate=aggregate, **kw
                )

            out, res = multipart(record_events=True).run(field, sched)
            assert np.allclose(out, ref, atol=1e-12)
            assert_skeleton_equals(multipart, sched, res)
            # a zero-rate plan changes nothing; a lossy one only the
            # protocol's traffic, never the data
            zero_out, zero = multipart(
                record_events=True, faults=ZERO_FAULTS
            ).run(field, sched)
            assert np.array_equal(zero_out, out)
            assert_results_equal(zero, res)
            assert zero.trace.events == res.trace.events
            lossy_out, lossy = multipart(
                faults=FaultPlan(drop_rate=0.2, seed=len(sched)),
                protocol=ProtocolConfig(),
            ).run(field, sched)
            assert np.array_equal(lossy_out, out)
            assert lossy.protocol_stats["data_sent"] == res.message_count


@pytest.mark.parametrize(
    "app, shape, p, machine, aggregate, drop, stats, makespan", [
    ("sp", (12, 12, 12), 4, origin2000, True, 0.1,
     (48, 13, 22, 7, 48, 12), 0.16049818666666685),
    ("adi", (9, 7, 11), 6, ethernet_cluster, False, 0.05,
     (144, 21, 32, 14, 144, 19), 0.1166332899999996),
    ("bt", (8, 8, 8), 9, bus, True, 0.1,
     (108, 22, 36, 13, 108, 19), 0.12666501333333352),
    ],
)
def test_lossy_multipart_runs_keep_data_and_protocol_counters(
    app, shape, p, machine, aggregate, drop, stats, makespan
):
    """Under a lossy plan with the reliable protocol on, a real-data
    multipartitioned run equals the sequential reference bit for bit, and
    its protocol counters and makespan are pinned."""
    machine = machine()
    config = plan_app(app, shape, p, cost_model=machine.to_cost_model())
    sched = config.problem.schedule()
    field = random_field(config.problem.field_shape, seed=7)
    out, res = MultipartExecutor(
        config.partitioning, config.problem.field_shape, machine,
        aggregate=aggregate, faults=FaultPlan(drop_rate=drop, seed=11),
        protocol=ProtocolConfig(),
    ).run(field, sched)
    assert np.abs(out - run_sequential(field, sched)).max() == 0.0
    assert res.protocol_stats == dict(zip(
        ("data_sent", "retransmits", "timeouts", "duplicates_dropped",
         "acks", "nacks"), stats,
    ))
    assert res.makespan == makespan


@pytest.mark.parametrize("grid, shape", [
    ((4,), (11, 6)), ((3, 2), (10, 7, 5)), ((1, 5), (6, 13)),
    ((2, 3, 2), (7, 11, 5)),
])
def test_block_layout_is_the_tile_grid(grid, shape):
    """Rank ``r`` of a block grid owns the tile at its C-order grid
    coordinates, cut by the BLOCK remainder rule: the block ``run``
    scatters and gathers."""
    executor = BlockGridExecutor(grid, shape, origin2000())
    tiles, owner = executor.layout
    field = random_field(shape)
    full = grid + (1,) * (len(shape) - len(grid))
    for rank, blocks in enumerate(tiles.scatter(field, owner, len(owner.flat))):
        at = np.unravel_index(rank, full)
        sel = tuple(
            slice(*axis_extents(n, g)[c]) for n, g, c in zip(shape, full, at)
        )
        assert list(blocks) == [tuple(map(int, at))]
        assert np.array_equal(blocks[tuple(map(int, at))], field[sel])
