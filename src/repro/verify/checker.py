"""Orchestration: from a configuration to a :class:`VerifyReport`.

``verify_config`` is the engine-free pre-flight a production deployment
runs before committing simulator (or cluster) time to a user-submitted
``(app, shape, p)``:

1. plan the configuration with :func:`repro.apps.plan_app`, the one
   builder every entry point plans through (so the verifier judges exactly
   the owner table the runner executes);
2. run the **paper-invariant proof pass** on the concrete assignment;
3. extract the **rank-program IR** (the compiled program, no engine);
4. run **send/recv matching**, **deadlock**, and **message-race** analyses
   over the IR (from the step vectors of a paired program, see
   :mod:`repro.verify.ir`; one op at a time otherwise).

The result is a ``repro.verify-report.v1`` document; ``ok`` means the
configuration is structurally sound — every message has exactly one
receiver, no wait-for cycle exists, delivery order is fully determined,
and the mapping provably satisfies the validity/balance/neighbor theorems.

``verify_planned`` is steps 2–4 over an already planned configuration; the
runner's ``verify=True`` pre-flight calls it on the configuration it is
about to run.  ``verify_ir`` exposes the analyses of step 4 for callers
that already hold an IR (the mutation self-test harness corrupts IRs and
feeds them back through it).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.simmpi.message import SendOp

from .abstract import execute_abstract
from .deadlock import check_deadlock
from .invariants import check_invariants
from .ir import ProgramIR, extract_program_ir
from .matching import check_matching
from .races import check_races
from .report import AnalysisResult, VerifyReport

__all__ = ["verify_config", "verify_ir", "verify_planned"]


def verify_ir(ir: ProgramIR) -> tuple[AnalysisResult, ...]:
    """The three communication analyses over one program IR."""
    if ir.paired and (verdict := _paired_verdict(ir)) is not None:
        return verdict
    run = execute_abstract(ir)
    return (
        check_matching(ir),
        check_deadlock(ir, run),
        check_races(ir, run),
    )


def _paired_verdict(ir: ProgramIR) -> tuple[AnalysisResult, ...] | None:
    """The clean verdict of a paired IR with the per-op analyses' stats,
    or ``None`` when a ``(dst, tag)`` channel has two senders."""
    assert ir.lockstep is not None
    sends = [s for s in ir.lockstep.steps if s.kind is SendOp]
    src = np.tile(np.arange(ir.nprocs), len(sends))
    dst = np.concatenate([s.peer for s in sends] or [src])
    tag = np.concatenate([s.tag for s in sends] or [src])

    def distinct(*columns: Any) -> int:
        rows = np.stack(columns)[:, np.lexsort(columns)]
        return int(np.diff(rows).any(axis=0).sum()) + bool(rows.shape[1])

    channels = distinct(dst, tag)
    if distinct(src, dst, tag) != channels:
        return None
    return (
        AnalysisResult("matching", (), {
            "sends": len(src), "recvs": len(src),
            "pairs": distinct(src, dst), "channels": channels,
        }),
        AnalysisResult("deadlock", (), {"blocked_ranks": 0, "cycles": 0}),
        AnalysisResult(
            "races", (), {"channels": channels, "checked_pairs": 0}
        ),
    )


def verify_planned(
    config: Any, executor: Any, schedule: Any
) -> tuple[tuple[AnalysisResult, ...], dict[str, Any], dict[str, int]]:
    """Proof pass + communication analyses over one planned configuration.

    ``config`` is a :class:`repro.apps.AppConfig` and ``executor`` a
    :class:`repro.sweep.multipart.MultipartExecutor` on its partitioning
    (carrying the machine and ``aggregate``); the analyses read the
    program it compiles for ``schedule``, which a run on that executor
    then reuses.  Witnesses name their phases whatever the executor
    observes.  Returns ``(analyses, certificate, ir_stats)`` with the
    analyses in report order (matching, deadlock, races, invariants).
    """
    invariant_result, certificate = check_invariants(
        config.partitioning, mapping=config.mapping
    )
    ir = extract_program_ir(executor, schedule)
    matching, deadlock, races = verify_ir(ir)
    stats = {
        "ranks": ir.nprocs,
        "ops": ir.total_ops,
        "messages": ir.total_sends,
        "bytes": ir.total_send_bytes,
    }
    return (matching, deadlock, races, invariant_result), certificate, stats


def verify_config(
    app: str,
    shape: tuple[int, ...],
    p: int,
    steps: int = 1,
    aggregate: bool = True,
    partitioner: str = "optimal",
    stencil_rhs: bool = False,
    protocol: bool = False,
) -> VerifyReport:
    """Statically verify one configuration without executing the engine.

    With ``protocol=True`` the report additionally carries the
    reliable-delivery model check (:mod:`repro.verify.protocol`): the
    exhaustive proof that this configuration's rank programs, run under the
    ack/retransmit wrapper, cannot deadlock under any message-drop pattern
    (pairwise automaton progress + the wrapper's any-source servicing; see
    that module's docstring for the composition argument).
    """
    from repro.apps import plan_app
    from repro.simmpi.machine import origin2000
    from repro.sweep.multipart import MultipartExecutor

    config: dict[str, Any] = {
        "app": app,
        "shape": list(int(s) for s in shape),
        "p": int(p),
        "steps": int(steps),
        "aggregate": bool(aggregate),
        "partitioner": partitioner,
        "stencil_rhs": bool(stencil_rhs),
    }
    machine = origin2000()
    try:
        planned = plan_app(
            app,
            shape,
            p,
            steps=steps,
            partitioner=partitioner,
            cost_model=machine.to_cost_model(),
            stencil_rhs=stencil_rhs,
        )
        # an axis cut into more tiles than it has points fails here
        executor = MultipartExecutor(
            planned.partitioning, planned.problem.field_shape, machine,
            aggregate=aggregate, payload="skeleton",
        )
    except ValueError as exc:
        # the configuration cannot be planned or tiled — surface it as an
        # invariant violation rather than a crash, with the reason
        from .report import Violation

        violation = Violation(
            "invariants", "unplannable", str(exc), {"error": str(exc)}
        )
        return VerifyReport(
            config=config,
            analyses=(AnalysisResult("invariants", (violation,), {}),),
        )

    config["gammas"] = list(planned.partitioning.gammas)
    analyses, certificate, ir_stats = verify_planned(
        planned, executor, planned.problem.schedule()
    )
    config["ir"] = ir_stats
    if protocol:
        from .protocol import check_protocol

        result = check_protocol()
        # tie the generic pairwise proof to this configuration's channels
        result = AnalysisResult(
            name=result.name,
            violations=result.violations,
            stats={**result.stats, "config_channels": ir_stats["messages"]},
        )
        analyses = analyses + (result,)
    return VerifyReport(
        config=config,
        analyses=analyses,
        certificate=certificate,
    )
