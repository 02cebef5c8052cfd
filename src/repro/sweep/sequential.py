"""Sequential reference executor — the ground truth all distributed
strategies are verified against, and the baseline for speedup measurements.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.machine import MachineModel

from .ops import (
    BlockSweepOp,
    StencilOp,
    SweepOp,
    apply_local_op,
    as_named,
    scan_op,
    unwrap_named,
)

__all__ = ["run_sequential", "sequential_time"]


def run_sequential(arrays, schedule):
    """Execute a schedule on one processor.

    ``arrays`` may be a single numpy array (back-compatible: ops default to
    array name "u" and a single array is returned) or a dict of aligned
    same-shape arrays keyed by name (a dict of new arrays is returned).
    """
    single, named = as_named(arrays)
    out = {
        name: np.array(a, dtype=np.float64, copy=True)
        for name, a in named.items()
    }

    def get(name: str) -> np.ndarray:
        if name not in out:
            raise KeyError(f"schedule references unknown array {name!r}")
        return out[name]

    for op in schedule:
        if isinstance(op, (SweepOp, BlockSweepOp)):
            target = get(op.array)
            n = target.shape[op.axis % target.ndim]
            scan_op(target, op, 0, n, n, carry=None)
        elif isinstance(op, StencilOp):
            get(op.out_array or op.array)[...] = op.update(get(op.array))
        else:
            apply_local_op(op, get)
    return unwrap_named(single, out)


def sequential_time(
    shape: tuple[int, ...], schedule, machine: MachineModel
) -> float:
    """Modeled single-processor execution time of a schedule: pure compute,
    no communication (the denominator of every speedup in Table 1).

    Each op is charged ``tiles=1`` — the one processor's single block pays
    the same per-tile kernel overhead a distributed run pays per tile visit.
    This keeps the baseline consistent with the simulator: a p=1 simulated
    run executes the identical op sequence on one tile, so its speedup is
    exactly 1.0 instead of the sub-unity artifact an overhead-free baseline
    produced (see EXPERIMENTS.md, "Reproducing Table 1 at scale")."""
    points = float(np.prod(shape))
    total = 0.0
    for op in schedule:
        total += machine.compute_time(points, ops=op.flops_per_point, tiles=1)
    return total
