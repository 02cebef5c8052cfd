"""Differential oracle: every path that describes a multipartitioned
schedule's communication must agree on random configurations.

One draw is (app, uneven shape, p, aggregation on/off, SP two-array
stencil RHS on/off).  For each draw:

* real-data execution and skeleton replay give bit-identical
  :class:`RunSummary` documents (clocks, makespan, counters).  Real-data
  mode runs on the engine and a plain skeleton run on the lockstep replay
  (:func:`repro.simmpi.engine.replay_lockstep`), so this compares the two;
* the skeleton run's message/byte totals equal the verifier IR's
  ``total_sends``/``total_send_bytes`` and the closed-form
  :func:`schedule_comm_totals`;
* the static verifier reports the IR clean.

This is the gate for refactors of the executor, the verifier IR and the
engine: any divergence between them shows up as a failing draw.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.counting import schedule_comm_totals
from repro.apps.adi import ADIProblem
from repro.apps.bt import BTProblem, bt_plan
from repro.apps.sp import SPProblem
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import origin2000
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor
from repro.verify import extract_program_ir, verify_ir

MACHINE = origin2000()


def _configuration(app, shape, p, stencil):
    """(partitioning, field_shape, schedule, arrays), or None when the
    planner or the tile grid rejects the draw."""
    model = MACHINE.to_cost_model()
    try:
        if app == "bt":
            prob = BTProblem(shape, steps=1)
            plan = bt_plan(shape, p, model)
        else:
            prob = (SPProblem if app == "sp" else ADIProblem)(shape, steps=1)
            plan = plan_multipartitioning(shape, p, model)
        # the executor cuts the field with the plan's gammas; extents
        # smaller than their gamma are rejected here
        MultipartExecutor(plan.partitioning, prob.field_shape, MACHINE)
    except ValueError:
        return None
    field = random_field(prob.field_shape, seed=sum(shape) + p)
    if stencil:
        schedule = prob.schedule_two_array()
        arrays = {"u": field, "rhs": np.zeros(prob.field_shape)}
    else:
        schedule = prob.schedule()
        arrays = field
    return plan.partitioning, prob.field_shape, schedule, arrays


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    app=st.sampled_from(["sp", "bt", "adi"]),
    shape=st.tuples(*[st.integers(7, 17)] * 3),
    p=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
    aggregate=st.booleans(),
    stencil=st.booleans(),
)
def test_real_skeleton_verifier_and_closed_form_agree(
    app, shape, p, aggregate, stencil
):
    assume(app == "sp" or not stencil)
    config = _configuration(app, shape, p, stencil)
    assume(config is not None)
    partitioning, field_shape, schedule, arrays = config

    real = MultipartExecutor(
        partitioning, field_shape, MACHINE, aggregate=aggregate
    )
    _, real_res = real.run(arrays, schedule)
    skeleton = MultipartExecutor(
        partitioning, field_shape, MACHINE, aggregate=aggregate,
        payload="skeleton",
    )
    skel_res = skeleton.run_skeleton(schedule)
    assert RunSummary.from_result(real_res) == RunSummary.from_result(
        skel_res
    )

    traced = MultipartExecutor(
        partitioning, field_shape, MACHINE, aggregate=aggregate,
        record_events=True, payload="skeleton",
    )
    ir = extract_program_ir(traced, schedule)
    closed_form = schedule_comm_totals(
        field_shape, partitioning, schedule, aggregate=aggregate
    )
    assert (skel_res.message_count, skel_res.total_bytes) == (
        ir.total_sends,
        ir.total_send_bytes,
    )
    assert (ir.total_sends, ir.total_send_bytes) == closed_form
    analyses = verify_ir(ir)
    assert all(a.ok for a in analyses), [
        v.message for a in analyses for v in a.violations
    ]
