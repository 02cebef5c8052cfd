"""Closed-form approximate times for the two block-partitioned baselines.

The wavefront (static block, pipelined) and transpose (dynamic block)
strategies have no compiled skeleton program, so their class-B times come
from these formulas: the simulator's latency/bandwidth/compute accounting
collapsed analytically, ignoring pipeline-overlap and uneven-block effects.
They are approximations; tests cross-check them against simulated runs on
small problems.  Multipartitioned times never come from here: they are the
makespan of the compiled program (:meth:`MultipartExecutor.run_skeleton`).

All functions return the approximate time of executing a *schedule* (list
of :class:`SweepOp` / :class:`PointwiseOp`).
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import NetworkScaling
from repro.simmpi.machine import MachineModel

from .ops import PointwiseOp, StencilOp


def _stencil_halo_time(
    machine: MachineModel,
    shape: tuple[int, ...],
    op: StencilOp,
    p: int,
    part_axis: int,
) -> float:
    """Halo-exchange cost of one StencilOp under slab partitioning along
    ``part_axis``: two slab-face messages per rank."""
    if p == 1:
        return 0.0
    lo, hi = op.reach[part_axis]
    # per-rank face elements per plane
    share = float(np.prod(shape)) / (shape[part_axis] * p)
    return sum(
        _msg_time(machine, width * share * machine.itemsize, concurrent=p)
        for width in (lo, hi)
        if width
    )


__all__ = [
    "wavefront_time",
    "transpose_time",
    "best_wavefront_chunks",
]


def _msg_time(
    machine: MachineModel, nbytes: float, concurrent: int = 1
) -> float:
    """End-to-end time of one message: both endpoint overheads plus wire.

    ``concurrent`` is how many such transfers are in flight simultaneously
    (one per rank in a pipeline stage, one per pair in an all-to-all
    round).  On a scalable network they overlap freely; on a
    BUS they serialize through the shared channel (footnote 1), so the wire
    term is multiplied by the concurrency."""
    wire = machine.transfer_time(nbytes)
    if machine.network is NetworkScaling.BUS:
        wire *= max(1, concurrent)
    return (
        machine.send_cpu_time(int(nbytes))
        + machine.recv_cpu_time(int(nbytes))
        + wire
    )


def wavefront_time(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
    part_axis: int = 0,
    chunks: int = 8,
) -> float:
    """Approximate time under static block unipartitioning with
    ``chunks``-deep pipelining of sweeps along the partitioned axis.

    A pipelined sweep behaves like ``chunks + p - 1`` stages, each costing
    one chunk of compute plus one chunk-carry message.
    """
    eta = float(np.prod(shape))
    p = nprocs
    total = 0.0
    chunk_axis_len = shape[0] if part_axis != 0 else shape[1]
    chunks = min(chunks, chunk_axis_len)
    for op in schedule:
        if isinstance(op, PointwiseOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            continue
        if isinstance(op, StencilOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            total += _stencil_halo_time(
                machine, shape, op, p, part_axis=part_axis
            )
            continue
        axis = op.axis % len(shape)
        if axis != part_axis:
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            continue
        chunk_points = eta / (p * chunks)
        carry_elems = eta / (shape[axis] * chunks)  # chunk of the cut plane
        stage = machine.compute_time(
            chunk_points, op.flops_per_point, tiles=1
        ) + _msg_time(
            machine, carry_elems * machine.itemsize, concurrent=p
        )
        total += (chunks + p - 1) * stage
    return total


def best_wavefront_chunks(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
    part_axis: int = 0,
    max_chunks: int = 4096,
) -> tuple[int, float]:
    """Pick the pipeline granularity minimizing approximate wavefront time —
    the tuning knob a careful hand coder would sweep."""
    limit = shape[0] if part_axis != 0 else shape[1]
    best = (1, float("inf"))
    c = 1
    while c <= min(limit, max_chunks):
        t = wavefront_time(shape, nprocs, machine, schedule, part_axis, c)
        if t < best[1]:
            best = (c, t)
        c *= 2
    return best


def transpose_time(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
    part_axis: int = 0,
) -> float:
    """Approximate time under dynamic block partitioning: local sweeps plus two
    all-to-alls (pairwise exchange, ``p - 1`` rounds) around every sweep
    along the partitioned axis."""
    eta = float(np.prod(shape))
    p = nprocs
    total = 0.0
    for op in schedule:
        if isinstance(op, PointwiseOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            continue
        if isinstance(op, StencilOp):
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            total += _stencil_halo_time(
                machine, shape, op, p, part_axis=part_axis
            )
            continue
        axis = op.axis % len(shape)
        total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
        if axis == part_axis and p > 1:
            # each rank exchanges (p-1)/p of its eta/p elements per transpose
            piece = eta / (p * p)
            round_time = _msg_time(
                machine, piece * machine.itemsize, concurrent=p
            )
            total += 2 * (p - 1) * round_time
            # pack + unpack memory passes over the local data, per transpose
            total += 2 * 2 * machine.compute_time(eta / p, ops=1.0)
    return total
