"""Closed-form approximate times for the two block-partitioned baselines,
kept as a test-only oracle.

The static block (:class:`~repro.sweep.blockgrid.BlockGridExecutor`,
pipelined wavefronts) and dynamic block
(:class:`~repro.sweep.transpose.TransposeExecutor`) strategies are timed by
simulating their lowered programs (``run`` or ``run_skeleton``).  These
formulas collapse the simulator's latency/bandwidth/compute accounting
analytically, ignoring pipeline-overlap and uneven-block effects; the tests
cross-check them against simulated runs on small problems, and the
granularity bench shows their interior chunk optimum.

All functions return the approximate time of executing a *schedule* (list
of :mod:`repro.sweep.ops` ops).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cost import NetworkScaling
from repro.simmpi.machine import MachineModel

from repro.sweep.ops import BinaryPointwiseOp, CopyOp, PointwiseOp, StencilOp

#: ops charged as local compute over every rank's block, as both executors
#: run them
_LOCAL = (PointwiseOp, BinaryPointwiseOp, CopyOp, StencilOp)

__all__ = ["blockgrid_time", "transpose_time"]


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


def _halo_time(
    machine: MachineModel,
    shape: tuple[int, ...],
    grid: tuple[int, ...],
    op: StencilOp,
) -> float:
    """Halo-exchange cost of one StencilOp on a block grid: per cut axis,
    one face message per non-zero reach side."""
    eta = float(np.prod(shape))
    p = math.prod(grid)
    return sum(
        _msg_time(
            machine,
            width * (eta / (shape[axis] * p)) * machine.itemsize,
            concurrent=p,
        )
        for axis, chain in enumerate(grid)
        if chain > 1
        for width in op.reach[axis]
        if width
    )


def blockgrid_time(
    shape: tuple[int, ...],
    grid: tuple[int, ...],
    machine: MachineModel,
    schedule,
    chunks: int = 8,
) -> float:
    """Approximate time of :class:`BlockGridExecutor` over the per-axis
    processor ``grid`` (missing trailing axes uncut).

    A sweep along a cut axis behaves like ``chunks + chain - 1`` pipeline
    stages, each costing one chunk of compute plus one chunk-carry message;
    sweeps along uncut axes and pointwise ops are pure compute, and a
    stencil adds its halo faces.
    """
    grid = tuple(grid) + (1,) * (len(shape) - len(grid))
    cut = [a for a, g in enumerate(grid) if g > 1]
    eta = float(np.prod(shape))
    p = math.prod(grid)
    total = 0.0
    for op in schedule:
        local = isinstance(op, _LOCAL)
        axis = None if local else op.axis % len(shape)
        if local or grid[axis] == 1:
            total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
            if isinstance(op, StencilOp):
                total += _halo_time(machine, shape, grid, op)
            continue
        chain = grid[axis]
        chunk_axis = next(a for a in cut + list(range(len(shape))) if a != axis)
        local_chunk = shape[chunk_axis] // grid[chunk_axis]
        eff_chunks = min(chunks, max(1, local_chunk))
        chunk_points = eta / (p * eff_chunks)
        # one chunk of the cut plane this rank's chain carries
        carry_elems = eta / (shape[axis] * (p // chain)) / eff_chunks
        stage = machine.compute_time(
            chunk_points, op.flops_per_point, tiles=1
        ) + _msg_time(
            machine, carry_elems * machine.itemsize, concurrent=p
        )
        total += (eff_chunks + chain - 1) * stage
    return total


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
        total += machine.compute_time(eta / p, op.flops_per_point, tiles=1)
        if isinstance(op, StencilOp):
            total += _halo_time(machine, shape, (1,) * part_axis + (p,), op)
        if isinstance(op, _LOCAL):
            continue
        axis = op.axis % len(shape)
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
