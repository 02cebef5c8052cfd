"""Line-sweep execution engines.

Real-data executors (all interpret the same :mod:`repro.sweep.ops`
schedules, so results are directly comparable):

* :class:`MultipartExecutor` — the paper's strategy;
* :class:`BlockGridExecutor` — static block baseline over a per-axis
  processor grid with pipelined wavefront sweeps (``(p,)`` is the classic
  one-axis wavefront);
* :class:`TransposeExecutor` — dynamic block (transpose) baseline: the
  one-axis block layout with transposes around each sweep of the cut axis;
* :func:`run_sequential` — single-processor ground truth.

Every time is the makespan of a simulated program.  Each executor lowers
a schedule once to a lockstep program, and one driver
(:mod:`repro.sweep.driver`) runs it in both modes for every strategy:
real data, and a payload-free ``run_skeleton`` that times class-B/C
shapes.  :func:`best_processor_count` searches processor counts with the
multipartitioned skeleton.  :class:`TransposeExecutor` is imported on
first use.
"""

from .multipart import MultipartExecutor, best_processor_count
from .blockgrid import BlockGridExecutor
from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    Schedule,
    StencilOp,
    SweepOp,
    block_thomas_ops,
    scan_op,
    star_laplacian,
    thomas_ops,
)
from .recurrence import affine_scan, thomas_factor, thomas_solve
from .sequential import run_sequential, sequential_time
from .tiles import TileGrid, axis_extents

__all__ = [
    "MultipartExecutor",
    "best_processor_count",
    "TransposeExecutor",
    "BlockGridExecutor",
    "run_sequential",
    "sequential_time",
    "PointwiseOp",
    "BinaryPointwiseOp",
    "CopyOp",
    "BlockSweepOp",
    "block_thomas_ops",
    "scan_op",
    "Schedule",
    "StencilOp",
    "SweepOp",
    "star_laplacian",
    "thomas_ops",
    "affine_scan",
    "thomas_factor",
    "thomas_solve",
    "TileGrid",
    "axis_extents",
]


def __getattr__(name: str):
    # the transpose baseline loads on first use: planning, checking and
    # sweeping a multipartitioning never run it
    if name == "TransposeExecutor":
        from .transpose import TransposeExecutor

        return TransposeExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
