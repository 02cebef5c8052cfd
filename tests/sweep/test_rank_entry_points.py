"""The per-rank entry point returns the rank's slice of the full compile,
the compile memo follows its schedule, and the compiled byte counts match
the tiles the sites name.

``MultipartExecutor.skeleton_rank_program`` serves callers that want one
rank's program (the layered benchmark's traced drive times it).  It must
give exactly what ``compile`` gives for that rank, and it replays the
marked view when the executor observes the run.  Observing never changes
what is compiled.
"""

from math import prod

import pytest

from repro.apps import plan_app
from repro.simmpi.machine import origin2000
from repro.simmpi.program import record_ops
from repro.sweep.compile import ITEMSIZE, ScheduleCompiler
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import StencilOp

MACHINE = origin2000()


@pytest.mark.parametrize("marks", [False, True], ids=["plain", "marks"])
@pytest.mark.parametrize("aggregate", [True, False], ids=["agg", "noagg"])
@pytest.mark.parametrize("shape, p", [
    ((12, 12, 12), 4), ((13, 11, 10), 6), ((16, 16, 16), 9),
], ids=["even4", "uneven6", "even9"])
@pytest.mark.parametrize("app, stencil", [
    ("sp", False), ("sp", True), ("bt", False), ("adi", False),
], ids=["sp", "sp_stencil", "bt", "adi"])
def test_rank_entry_points_equal_full_compile(
    app, stencil, shape, p, aggregate, marks
):
    config = plan_app(
        app, shape, p, cost_model=MACHINE.to_cost_model(),
        stencil_rhs=stencil,
    )
    field_shape = config.problem.field_shape
    schedule = config.problem.schedule()
    compiler = ScheduleCompiler(
        config.partitioning, field_shape, MACHINE, aggregate
    )
    executor = MultipartExecutor(
        config.partitioning, field_shape, MACHINE, aggregate=aggregate,
        record_events=marks, payload="skeleton",
    )
    full = compiler.compile(schedule)
    assert executor.compile(schedule) == full
    assert full.nprocs == p
    for rank in range(p):
        replayed = full.marked[rank][0] if marks else full.ops[rank]
        assert tuple(
            record_ops(executor.skeleton_rank_program(rank, schedule))
        ) == replayed


@pytest.mark.parametrize("aggregate", [True, False], ids=["agg", "noagg"])
@pytest.mark.parametrize("shape, p", [
    ((13, 11, 10), 6), ((17, 9, 14), 9), ((23, 19, 29), 10),
])
def test_send_bytes_are_the_planes_of_the_site_tiles(shape, p, aggregate):
    """Every send carries the boundary planes (times the halo width) of
    exactly the tiles its site names, worked out tile by tile."""
    config = plan_app(
        "sp", shape, p, cost_model=MACHINE.to_cost_model(), stencil_rhs=True
    )
    compiler = ScheduleCompiler(
        config.partitioning, config.problem.field_shape, MACHINE, aggregate
    )
    compiled = compiler.compile(config.problem.schedule())
    grid = compiler.grid
    seen = 0
    for rank, send, site in compiled.sends():
        op = compiled.schedule[site.op_index]
        if isinstance(op, StencilOp):
            axis, side = divmod(site.phase, 2)
            width = op.pad_widths(grid.ndim)[axis][side]
            seen += 1
        else:
            axis, width = op.axis % grid.ndim, 1
        planes = sum(
            ITEMSIZE * prod(grid.tile_shape(t)) // grid.tile_shape(t)[axis]
            for t in site.tiles
        )
        assert send.payload.nbytes == width * planes, (rank, site)
    assert seen


def test_compile_rank_follows_a_new_schedule():
    """Each fresh schedule (BT's carry coefficient arrays) gets its own
    compile; an equal-looking one is never mistaken for the last."""
    config = plan_app("bt", (12, 12, 12), 4)
    compiler = ScheduleCompiler(
        config.partitioning, config.problem.field_shape, MACHINE
    )
    first = config.problem.schedule()
    second = config.problem.schedule()[:-1]
    for schedule in (first, second, first):
        full = compiler.compile(schedule)
        assert compiler.compile(schedule) is full
        assert len(full.schedule) == len(schedule)
        assert all(a is b for a, b in zip(full.schedule, schedule))
