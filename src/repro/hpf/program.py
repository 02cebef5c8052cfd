"""A miniature data-parallel program IR and its "compilation" (Section 5).

``HpfProgram`` holds directives plus a statement list (sweep loops and
pointwise updates over the aligned array).  ``compile_program`` performs
what dHPF does for multipartitioned templates: resolve the distribution
(optimizer + modular mapping), lower statements to executable sweep
schedules, and attach the static communication plan for every sweep.  The
result runs on the simulator through the appropriate executor.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.cost import CostModel
from repro.simmpi.machine import MachineModel
from repro.simmpi.trace import RunResult
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import BlockSweepOp, PointwiseOp, StencilOp, SweepOp

from .commsched import (
    StencilCommPlan,
    SweepCommPlan,
    plan_stencil_comm,
    plan_sweep_comm,
)
from .directives import Distribute, DistFormat
from .distribution import ResolvedBlock, ResolvedMulti, resolve_distribution
from .shadow import ShadowRegion, StencilSpec

__all__ = [
    "SweepStmt",
    "BlockSweepStmt",
    "PointwiseStmt",
    "StencilStmt",
    "HpfProgram",
    "CompiledProgram",
    "compile_program",
]


@dataclasses.dataclass(frozen=True)
class SweepStmt:
    """A recurrence loop nest along ``axis`` (maps to one SweepOp)."""

    axis: int
    mult: object = 1.0
    scale: object = 1.0
    reverse: bool = False
    flops_per_point: float = 3.0
    array: str = "u"


@dataclasses.dataclass(frozen=True)
class PointwiseStmt:
    """A communication-free elementwise update."""

    fn: Callable[[np.ndarray], np.ndarray]
    flops_per_point: float = 1.0
    name: str = "pointwise"
    array: str = "u"


@dataclasses.dataclass(frozen=True)
class BlockSweepStmt:
    """A block-recurrence loop nest (NAS BT): ``c x c`` matrix coefficient
    sequences over a field whose trailing component axis must be STAR."""

    axis: int
    mult: np.ndarray
    scale: np.ndarray
    reverse: bool = False
    flops_per_point: float = 20.0
    array: str = "u"


@dataclasses.dataclass(frozen=True)
class StencilStmt:
    """A star-stencil update.  The compiler checks the declared SHADOW
    widths cover the stencil's reach (the dHPF shadow analysis) and plans
    the aggregated halo fills."""

    fn: Callable[[np.ndarray], np.ndarray]
    reach: tuple[tuple[int, int], ...]
    flops_per_point: float = 8.0
    name: str = "stencil"
    array: str = "u"
    out_array: str | None = None


@dataclasses.dataclass(frozen=True)
class HpfProgram:
    """Directives + statements: the compiler's input.

    ``shadow`` (optional) declares the aligned array's shadow widths; when
    present, every StencilStmt is validated against it.
    """

    distribute: Distribute
    statements: tuple
    shadow: tuple[tuple[int, int], ...] | None = None


@dataclasses.dataclass(frozen=True)
class CompiledProgram:
    """Output of compilation: runnable schedule + static analysis results."""

    program: HpfProgram
    resolution: ResolvedMulti | ResolvedBlock
    schedule: tuple
    comm_plans: tuple[SweepCommPlan | StencilCommPlan, ...]

    @property
    def planned_messages(self) -> int:
        return sum(p.message_count for p in self.comm_plans)

    @property
    def planned_elements(self) -> int:
        return sum(p.total_elements for p in self.comm_plans)

    def run(
        self,
        array: np.ndarray,
        machine: MachineModel,
        record_events: bool = False,
    ) -> tuple[np.ndarray, RunResult]:
        """Execute the compiled program on the simulator."""
        shape = self.program.distribute.template.shape
        if isinstance(self.resolution, ResolvedMulti):
            executor = MultipartExecutor(
                self.resolution.plan.partitioning,
                shape,
                machine,
                record_events=record_events,
            )
            return executor.run(array, list(self.schedule))
        # BLOCK: a block grid cutting the (single) partitioned axis
        axes = self.program.distribute.partitioned_axes()
        if len(axes) != 1:
            raise NotImplementedError(
                "block execution supports exactly one partitioned axis"
            )
        executor = BlockGridExecutor(
            (1,) * axes[0] + (self.resolution.nprocs,),
            shape,
            machine,
            record_events=record_events,
        )
        return executor.run(array, list(self.schedule))


def compile_program(
    program: HpfProgram, model: CostModel | None = None
) -> CompiledProgram:
    """dHPF-lite compilation: resolve distribution, lower statements, and
    statically plan all sweep communication."""
    resolution = resolve_distribution(program.distribute, model)
    shape = program.distribute.template.shape
    schedule = []
    comm_plans = []
    for stmt in program.statements:
        if isinstance(stmt, (SweepStmt, BlockSweepStmt)):
            axis = stmt.axis % len(shape)
            fmt = program.distribute.formats[axis]
            if fmt is DistFormat.STAR and isinstance(
                resolution, ResolvedMulti
            ):
                raise ValueError(
                    f"sweep along STAR axis {axis} of a multipartitioned "
                    "template: distribute that dimension instead"
                )
            if isinstance(stmt, BlockSweepStmt):
                comp_axis = len(shape) - 1
                if program.distribute.formats[comp_axis] is not DistFormat.STAR:
                    raise ValueError(
                        "block sweeps need a STAR component axis (last "
                        "template dimension)"
                    )
                schedule.append(
                    BlockSweepOp(
                        axis=axis,
                        mult=stmt.mult,
                        scale=stmt.scale,
                        reverse=stmt.reverse,
                        flops_per_point=stmt.flops_per_point,
                        array=stmt.array,
                    )
                )
            else:
                schedule.append(
                    SweepOp(
                        axis=axis,
                        mult=stmt.mult,
                        scale=stmt.scale,
                        reverse=stmt.reverse,
                        flops_per_point=stmt.flops_per_point,
                        array=stmt.array,
                    )
                )
            if isinstance(resolution, ResolvedMulti):
                comm_plans.append(
                    plan_sweep_comm(
                        resolution.plan.partitioning,
                        shape,
                        axis,
                        reverse=stmt.reverse,
                        aggregate=True,
                    )
                )
        elif isinstance(stmt, StencilStmt):
            if program.shadow is not None:
                # the dHPF SHADOW directive check: declared widths must
                # cover the stencil's reach on every axis
                region = ShadowRegion(program.shadow)
                if not region.covers(StencilSpec(stmt.reach)):
                    raise ValueError(
                        f"shadow widths {program.shadow} do not cover "
                        f"stencil {stmt.name} reach {stmt.reach}"
                    )
            schedule.append(
                StencilOp(
                    fn=stmt.fn,
                    reach=stmt.reach,
                    flops_per_point=stmt.flops_per_point,
                    name=stmt.name,
                    array=stmt.array,
                    out_array=stmt.out_array,
                )
            )
            if isinstance(resolution, ResolvedMulti):
                comm_plans.append(
                    plan_stencil_comm(
                        resolution.plan.partitioning,
                        shape,
                        stmt.reach,
                    )
                )
        elif isinstance(stmt, PointwiseStmt):
            schedule.append(
                PointwiseOp(
                    fn=stmt.fn,
                    flops_per_point=stmt.flops_per_point,
                    name=stmt.name,
                    array=stmt.array,
                )
            )
        else:
            raise TypeError(f"unsupported statement {stmt!r}")
    return CompiledProgram(
        program=program,
        resolution=resolution,
        schedule=tuple(schedule),
        comm_plans=tuple(comm_plans),
    )
