"""The verdict of a paired lockstep program equals the per-op analyses.

:func:`repro.verify.verify_ir` decides a paired compiled program from its
step vectors (no abstract run, no per-rank op tuples).  These tests hold it
to the per-op path it replaces: the same ``AnalysisResult`` documents and
the same ``total_*`` statistics as a per-op copy of the IR, the per-op
machinery never touched on a clean compiled check, and a corrupted step
falling back to the per-op analyses with the same findings as the
matching per-op mutation in ``test_mutations.py``.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import plan_app
from repro.simmpi.engine import Lockstep, Step
from repro.simmpi.machine import origin2000
from repro.simmpi.message import RecvOp, SendOp
from repro.sweep.compile import CompiledSchedule
from repro.sweep.multipart import MultipartExecutor
from repro.verify import checker as checker_module
from repro.verify import races as races_module
from repro.verify import (
    ProgramIR,
    extract_program_ir,
    verify_config,
    verify_ir,
)


def refuse(*args, **kwargs):
    raise AssertionError("the per-op path ran on a paired program")


def compiled_ir(app, shape, p, aggregate=True, stencil_rhs=False):
    """The IR ``repro check`` extracts: skeleton payloads, an executor
    that records events (the program is the same either way)."""
    machine = origin2000()
    config = plan_app(
        app, shape, p, cost_model=machine.to_cost_model(),
        stencil_rhs=stencil_rhs,
    )
    executor = MultipartExecutor(
        config.partitioning, config.problem.field_shape, machine,
        aggregate=aggregate, record_events=True, payload="skeleton",
    )
    return extract_program_ir(executor, config.problem.schedule())


def documents(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def totals(ir):
    return ir.total_ops, ir.total_sends, ir.total_send_bytes


@st.composite
def configs(draw):
    app = draw(st.sampled_from(["sp", "sp+stencil", "bt", "adi"]))
    if draw(st.booleans()):
        shape = (draw(st.sampled_from([8, 12, 16])),) * 3
    else:
        shape = tuple(draw(st.integers(7, 17)) for _ in range(3))
    return app, shape, draw(st.integers(1, 12)), draw(st.booleans())


@given(configs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_lockstep_verdict_equals_per_op(config):
    app, shape, p, aggregate = config
    try:
        ir = compiled_ir(
            app.split("+")[0], shape, p, aggregate,
            stencil_rhs=app.endswith("+stencil"),
        )
    except ValueError:
        assume(False)  # unplannable or untileable: nothing to compile
    per_op = ProgramIR(ir.nprocs, ir.ranks)
    assert ir.paired and not per_op.paired
    with mock.patch.object(checker_module, "execute_abstract", refuse):
        verdict = documents(verify_ir(ir))
    assert verdict == documents(verify_ir(per_op))
    assert totals(ir) == totals(per_op)


def test_clean_check_skips_the_per_op_machinery(monkeypatch):
    """Class B SP at p=64 is decided from the step vectors alone."""
    monkeypatch.setattr(checker_module, "execute_abstract", refuse)
    monkeypatch.setattr(races_module, "vector_clocks", refuse)
    monkeypatch.setattr(Lockstep, "rank_ops", refuse)
    report = verify_config("sp", (102, 102, 102), 64)
    assert report.ok, report.summary()


def test_two_senders_on_a_channel_fall_back_to_clocks():
    """Paired, but rank 1 hears tag 5 from ranks 0 and 2 in turn: the
    races need vector clocks, so the per-op path decides it."""
    def exchange(peer, match):
        peer = np.array(peer)
        tag, nbytes = np.full(3, 5), np.full(3, 8)
        return [
            Step(SendOp, peer=peer, tag=tag, nbytes=nbytes),
            Step(RecvOp, peer=np.argsort(peer), tag=tag, match=match),
        ]

    program = Lockstep(
        tuple(exchange([1, 2, 0], 0) + exchange([2, 0, 1], 2)), 3
    )
    ir = ProgramIR(3, lockstep=program)
    assert ir.paired
    results = verify_ir(ir)
    assert documents(results) == documents(verify_ir(ProgramIR(3, ir.ranks)))
    assert results[2].stats["checked_pairs"] > 0


# -- lockstep-level mutations -------------------------------------------------

@pytest.fixture(scope="module")
def clean():
    """The configuration ``test_mutations.py`` corrupts, as compiled."""
    ir = compiled_ir("sp", (8, 8, 8), 4)
    assert ir.paired and all(r.ok for r in verify_ir(ir))
    return ir


def mutate(ir, index, **fields):
    """The IR with step ``index``'s fields replaced, marks derived from
    the mutated program as from the compiled one."""
    steps = list(ir.lockstep.steps)
    steps[index] = steps[index]._replace(**fields)
    program = Lockstep(tuple(steps), ir.nprocs)
    assert not program.paired
    return ProgramIR(
        ir.nprocs, compiled=CompiledSchedule(ir.compiled.schedule, program)
    )


def first_step(ir, kind):
    return next(
        i for i, step in enumerate(ir.lockstep.steps) if step.kind is kind
    )


def findings(results):
    return {(v.analysis, v.kind) for r in results for v in r.violations}


def checked_against_per_op(mutated):
    """``verify_ir`` of a corrupted step, asserted equal to the per-op copy."""
    results = verify_ir(mutated)
    per_op = ProgramIR(mutated.nprocs, mutated.ranks)
    assert documents(results) == documents(verify_ir(per_op))
    return findings(results)


def test_swapped_send_peers_retarget_two_messages(clean):
    """Like ``TestRetargetDest``: receivers starve, so matching reports a
    missing send and the starved receive hangs at least one rank."""
    index = first_step(clean, SendOp)
    peer = clean.lockstep.steps[index].peer.copy()
    peer[[0, 1]] = peer[[1, 0]]
    found = checked_against_per_op(mutate(clean, index, peer=peer))
    assert ("matching", "missing-send") in found
    assert {kind for analysis, kind in found if analysis == "deadlock"}


def test_changed_send_tag_is_missing_and_orphaned(clean):
    """Like ``TestSwapTag``: both sides of the channel are reported."""
    index = first_step(clean, SendOp)
    tag = clean.lockstep.steps[index].tag.copy()
    tag[0] += 999_983
    found = checked_against_per_op(mutate(clean, index, tag=tag))
    assert {("matching", "missing-send"), ("matching", "orphan-send")} <= (
        found
    )
    deadlocks = {kind for analysis, kind in found if analysis == "deadlock"}
    assert deadlocks and deadlocks <= {"stall", "cycle"}


def test_match_pointing_later_only_unpairs(clean):
    """``match`` is compile-time bookkeeping, not part of any rank's ops:
    pointing it at a later step leaves the per-op program, and so its
    verdict, clean."""
    index = first_step(clean, RecvOp)
    mutated = mutate(clean, index, match=len(clean.lockstep.steps) - 1)
    assert mutated.ranks == clean.ranks
    assert checked_against_per_op(mutated) == set()
