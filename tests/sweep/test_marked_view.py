"""The marked view is a fold over the one compiled program.

:attr:`CompiledSchedule.marked` interleaves the op-label and phase-span
marks an observer reads into each rank's ops and sites.  One draw is (app,
even or uneven shape, p, aggregation on/off, SP stencil RHS on/off); for
each draw:

* dropping the marks gives back ``ops`` and ``sites`` exactly;
* every rank's spans nest (:func:`fold_phases` accepts them);
* each send, receive and compute sits in ``"{op.phase}/p{k}"`` for sweep
  phase ``k`` of a sweep, and in ``op.phase`` otherwise;
* ``op{j}:{label}`` appears once per schedule op, in order;
* a real-data run that records events returns the same array and summary
  as an unobserved one.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import plan_app
from repro.apps.workloads import random_field
from repro.simmpi.machine import origin2000
from repro.simmpi.message import PHASE_BEGIN, PHASE_END, MarkOp
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import BlockSweepOp, SweepOp
from repro.verify.ir import fold_phases

MACHINE = origin2000()
SHAPES = [(8, 8, 8), (12, 12, 12), (9, 7, 11), (13, 11, 10)]


def _executors(app, shape, p, aggregate, stencil):
    """(schedule, plain executor, observing executor), or None when the
    planner or the tile grid rejects the draw."""
    try:
        config = plan_app(
            app, shape, p, cost_model=MACHINE.to_cost_model(),
            stencil_rhs=stencil,
        )
        plain, observed = (
            MultipartExecutor(
                config.partitioning, config.problem.field_shape, MACHINE,
                aggregate=aggregate, record_events=record_events,
            )
            for record_events in (False, True)
        )
    except ValueError:
        return None
    return config.problem.schedule(), plain, observed


def _expected_phase(op, site):
    sweep_phase = (
        f"p{site.phase}" if isinstance(op, (SweepOp, BlockSweepOp)) else None
    )
    return "/".join(x for x in (op.phase, sweep_phase) if x)


@given(
    app=st.sampled_from(["sp", "bt", "adi"]),
    shape=st.sampled_from(SHAPES),
    p=st.sampled_from([1, 2, 3, 4, 6, 9]),
    aggregate=st.booleans(),
    stencil=st.booleans(),
)
@settings(derandomize=True, deadline=None, max_examples=40)
def test_marked_view_folds_the_compiled_program(
    app, shape, p, aggregate, stencil
):
    made = _executors(app, shape, p, aggregate, stencil)
    assume(made is not None)
    schedule, plain, observed = made
    compiled = plain.compile(schedule)
    assert observed.compile(schedule) == compiled
    labels = [f"op{j}:{op.label()}" for j, op in enumerate(schedule)]
    for rank, (ops, sites) in enumerate(compiled.marked):
        assert len(ops) == len(sites)
        kept = [i for i, site in enumerate(sites) if site is not None]
        assert tuple(ops[i] for i in kept) == compiled.ops[rank]
        assert tuple(sites[i] for i in kept) == compiled.sites[rank]
        marks = [op for op, site in zip(ops, sites) if site is None]
        assert all(m.__class__ is MarkOp for m in marks)
        assert [
            m.label for m in marks
            if not m.label.startswith((PHASE_BEGIN, PHASE_END))
        ] == labels
        phases = fold_phases(rank, ops)
        for i in kept:
            op = schedule[sites[i].op_index]
            assert phases[i] == _expected_phase(op, sites[i]), (rank, i)

    field = random_field(plain.grid.shape, seed=sum(shape) + p)
    out, run = plain.run(field, schedule)
    traced_out, traced = observed.run(field, schedule)
    assert traced.trace.events and not run.trace.events
    assert np.array_equal(traced_out, out)
    assert (
        RunSummary.from_result(traced).to_dict()
        == RunSummary.from_result(run).to_dict()
    )
