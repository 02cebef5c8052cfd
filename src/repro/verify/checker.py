"""Orchestration: from a configuration to a :class:`VerifyReport`.

``verify_config`` is the engine-free pre-flight a production deployment
runs before committing simulator (or cluster) time to a user-submitted
``(app, shape, p)``:

1. plan the multipartitioning exactly as the runner would (same optimizer,
   same diagonal/BT special cases);
2. run the **paper-invariant proof pass** on the concrete assignment;
3. extract the **rank-program IR** (the compiled op lists, no engine);
4. run **send/recv matching**, **deadlock**, and **message-race** analyses
   over the IR.

The result is a ``repro.verify-report.v1`` document; ``ok`` means the
configuration is structurally sound — every message has exactly one
receiver, no wait-for cycle exists, delivery order is fully determined,
and the mapping provably satisfies the validity/balance/neighbor theorems.

``verify_ir`` exposes steps 3–4 for callers that already hold an IR (the
mutation self-test harness corrupts IRs and feeds them back through it).
"""

from __future__ import annotations

from typing import Any

from .abstract import execute_abstract
from .deadlock import check_deadlock
from .invariants import check_invariants
from .ir import ProgramIR, extract_program_ir
from .matching import check_matching
from .races import check_races
from .report import AnalysisResult, VerifyReport

__all__ = ["verify_config", "verify_ir", "build_configuration"]


def verify_ir(ir: ProgramIR) -> tuple[AnalysisResult, ...]:
    """The three communication analyses over one program IR."""
    run = execute_abstract(ir)
    return (
        check_matching(ir),
        check_deadlock(ir, run),
        check_races(ir, run),
    )


def build_configuration(
    app: str,
    shape: tuple[int, ...],
    p: int,
    steps: int = 1,
    aggregate: bool = True,
    partitioner: str = "optimal",
    machine: Any = None,
    stencil_rhs: bool = False,
) -> tuple[Any, Any, Any, Any]:
    """(executor, schedule, partitioning, mapping) for a configuration.

    Mirrors the planning path of :func:`repro.runner.execute.run_spec` —
    the verifier must judge exactly the configuration the runner would
    execute.
    """
    from repro.apps.adi import ADIProblem
    from repro.apps.bt import BTProblem, bt_plan
    from repro.apps.sp import SPProblem
    from repro.core.api import plan_multipartitioning
    from repro.core.diagonal import diagonal_applicable, diagonal_nd
    from repro.core.mapping import Multipartitioning
    from repro.simmpi.machine import origin2000
    from repro.sweep.multipart import MultipartExecutor

    if machine is None:
        machine = origin2000()
    if app == "sp":
        problem = SPProblem(shape, steps=steps, stencil_rhs=stencil_rhs)
    elif app == "bt":
        problem = BTProblem(shape, steps=steps)
    elif app == "adi":
        problem = ADIProblem(shape, steps=steps)
    else:
        raise ValueError(f"unknown app {app!r} (expected sp, bt or adi)")

    mapping = None
    if partitioner == "diagonal":
        if app == "bt":
            raise ValueError(
                "diagonal partitioner does not support BT's component axis"
            )
        d = len(shape)
        if not diagonal_applicable(p, d):
            raise ValueError(
                f"no diagonal multipartitioning of p={p} in {d}-D"
            )
        partitioning = Multipartitioning(owner=diagonal_nd(p, d), nprocs=p)
    elif partitioner == "optimal":
        cost_model = machine.to_cost_model()
        if app == "bt":
            plan = bt_plan(shape, p, cost_model)
        else:
            plan = plan_multipartitioning(shape, p, cost_model)
        partitioning = plan.partitioning
        mapping = plan.mapping
        if mapping.dims_in != partitioning.ndim:
            # BT embeds a 3-D plan into a 4-D field (STAR component axis);
            # the mapping certifies the spatial axes only, so the proof
            # pass falls back to the owner table itself
            mapping = None
    else:
        raise ValueError(f"unknown partitioner {partitioner!r}")

    executor = MultipartExecutor(
        partitioning,
        problem.field_shape,
        machine,
        aggregate=aggregate,
        record_events=True,  # enables phase marks in the extracted IR
        payload="skeleton",
    )
    return executor, problem.schedule(), partitioning, mapping


def verify_config(
    app: str,
    shape: tuple[int, ...],
    p: int,
    steps: int = 1,
    aggregate: bool = True,
    partitioner: str = "optimal",
    machine: Any = None,
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
    config: dict[str, Any] = {
        "app": app,
        "shape": list(int(s) for s in shape),
        "p": int(p),
        "steps": int(steps),
        "aggregate": bool(aggregate),
        "partitioner": partitioner,
        "stencil_rhs": bool(stencil_rhs),
    }
    try:
        executor, schedule, partitioning, mapping = build_configuration(
            app,
            tuple(shape),
            p,
            steps=steps,
            aggregate=aggregate,
            partitioner=partitioner,
            machine=machine,
            stencil_rhs=stencil_rhs,
        )
    except ValueError as exc:
        # planning itself rejected the configuration — surface it as an
        # invariant violation rather than a crash, with the planner's reason
        from .report import Violation

        return VerifyReport(
            config=config,
            analyses=(
                AnalysisResult(
                    name="invariants",
                    violations=(
                        Violation(
                            analysis="invariants",
                            kind="unplannable",
                            message=str(exc),
                            witness={"error": str(exc)},
                        ),
                    ),
                    stats={},
                ),
            ),
        )

    config["gammas"] = list(partitioning.gammas)
    invariant_result, certificate = check_invariants(
        partitioning, p=partitioning.nprocs, mapping=mapping
    )
    ir = extract_program_ir(executor, schedule)
    matching, deadlock, races = verify_ir(ir)
    stats_extra = {
        "ranks": ir.nprocs,
        "ops": ir.total_ops,
        "messages": ir.total_sends,
        "bytes": ir.total_send_bytes,
    }
    config["ir"] = stats_extra
    analyses = (matching, deadlock, races, invariant_result)
    if protocol:
        from .protocol import check_protocol

        result = check_protocol()
        # tie the generic pairwise proof to this configuration's channels
        result = AnalysisResult(
            name=result.name,
            violations=result.violations,
            stats={**result.stats, "config_channels": ir.total_sends},
        )
        analyses = analyses + (result,)
    return VerifyReport(
        config=config,
        analyses=analyses,
        certificate=certificate,
    )
