"""Worker-side execution of one :class:`ExperimentSpec`.

:func:`run_spec` is the only function a pool worker runs.  It is a module
top-level (hence picklable by :mod:`concurrent.futures`), takes nothing but
the spec, and returns a plain-JSON dict — no numpy arrays, no trace objects,
nothing process-local — so results serialize identically whether they come
back over a pipe, out of the on-disk cache, or from an inline run.

Determinism contract: the returned dict is a pure function of the spec.
Everything stochastic is seeded from ``spec.seed``; floats are emitted as
Python floats whose ``repr`` round-trips exactly through JSON.
"""

from __future__ import annotations

import dataclasses

from .spec import SCHEMA_TAG, ExperimentSpec

__all__ = [
    "run_spec",
    "resolve_machine",
    "resolve_cost_model",
    "resolve_faults",
]


def resolve_faults(spec: ExperimentSpec):
    """(FaultPlan | None, ProtocolConfig | None) for the spec's ``faults``.

    The plan's hash seed defaults to the spec's seed; the reliable protocol
    defaults to *on* exactly when the plan drops or duplicates messages
    (lossy plans cannot complete without it) and can be forced on/off with
    the ``protocol`` field — forcing it off with a lossy plan is rejected
    downstream by the executor.
    """
    from repro.faults.plan import FaultPlan
    from repro.faults.protocol import ProtocolConfig

    if not spec.faults:
        return None, None
    params = dict(spec.faults)
    protocol_flag = params.pop("protocol", None)
    timeout = params.pop("protocol_timeout", None)
    retries = params.pop("max_retries", None)
    backoff = params.pop("backoff", None)
    params.setdefault("seed", spec.seed)
    plan = FaultPlan.from_dict(params)
    if protocol_flag is None:
        protocol_on = plan.drop_rate > 0.0 or plan.dup_rate > 0.0
    else:
        protocol_on = bool(int(protocol_flag))
    if not protocol_on:
        return plan, None
    kwargs = {}
    if timeout is not None:
        kwargs["timeout"] = float(timeout)
    if retries is not None:
        kwargs["max_retries"] = int(retries)
    if backoff is not None:
        kwargs["backoff"] = float(backoff)
    return plan, ProtocolConfig(**kwargs)


def resolve_machine(spec: ExperimentSpec):
    """Build the MachineModel a spec names (presets + field overrides)."""
    from repro.core.cost import NetworkScaling
    from repro.simmpi.machine import PRESETS, MachineModel

    # "generic" or "default" — plain constructor defaults
    machine = PRESETS.get(spec.machine, MachineModel)()
    overrides = dict(spec.machine_params)
    if "network" in overrides:
        overrides["network"] = NetworkScaling(overrides["network"])
    if "itemsize" in overrides:
        overrides["itemsize"] = int(overrides["itemsize"])
    if overrides:
        machine = dataclasses.replace(machine, **overrides)
    return machine


def resolve_cost_model(spec: ExperimentSpec):
    """Analytic CostModel for the optimizer: explicit cost_params win,
    otherwise the named machine's induced model."""
    from repro.core.cost import CostModel, NetworkScaling

    if spec.machine == "default":
        base = CostModel()
    else:
        base = resolve_machine(spec).to_cost_model()
    overrides = dict(spec.cost_params)
    if "scaling" in overrides:
        overrides["scaling"] = NetworkScaling(overrides["scaling"])
    if overrides:
        base = dataclasses.replace(base, **overrides)
    return base


def run_spec(spec: ExperimentSpec, verify: bool = False) -> dict:
    """Execute one experiment and return its JSON-serializable result.

    With ``verify=True`` the spec's exact configuration is statically
    verified first (:mod:`repro.verify`); violations short-circuit into a
    structured ``{"error": ...}`` result carrying the full report — which
    the batch runner never caches, so the cache schema is unaffected.
    """
    from repro.apps import plan_app

    config = plan_app(
        spec.app,
        spec.shape,
        spec.p,
        steps=spec.steps,
        partitioner=spec.partitioner,
        cost_model=resolve_cost_model(spec),
        objective=spec.objective,
    )
    field_shape = config.problem.field_shape
    if verify or spec.mode != "plan":
        from repro.sweep.multipart import MultipartExecutor

        # one executor compiles the schedule once: the pre-flight verifies
        # the program the run then executes (plan mode has no faults)
        schedule = config.problem.schedule()
        fault_plan, protocol = resolve_faults(spec)
        executor = MultipartExecutor(
            config.partitioning, field_shape, resolve_machine(spec),
            payload="data" if spec.mode == "simulated" else "skeleton",
            faults=fault_plan, protocol=protocol,
        )
    if verify:
        from repro.verify import VerifyReport, verify_planned

        analyses, certificate, _ = verify_planned(config, executor, schedule)
        report = VerifyReport(
            config={"spec": spec.to_canonical()},
            analyses=analyses,
            certificate=certificate,
        )
        if not report.ok:
            return {
                "schema": SCHEMA_TAG,
                "spec": spec.to_canonical(),
                "error": f"verification failed: {report.summary()}",
                "verify": report.to_dict(),
            }
    plan = config.plan
    result: dict = {
        "schema": SCHEMA_TAG,
        "spec": spec.to_canonical(),
        "gammas": list(config.partitioning.gammas),
        # the diagonal partitioner runs no optimizer and is always compact
        "cost": None if plan is None else float(plan.choice.cost),
        "candidates_examined": (
            0 if plan is None else plan.choice.candidates_examined
        ),
        "compact": True if plan is None else plan.choice.is_compact(),
    }
    if spec.mode == "plan":
        return result

    from repro.faults.protocol import ProtocolExhaustedError
    from repro.simmpi.summary import RunSummary
    from repro.sweep.sequential import sequential_time

    t_seq = sequential_time(field_shape, schedule, executor.machine)
    result["sequential_time"] = float(t_seq)
    if fault_plan is not None:
        result["fault_plan"] = fault_plan.to_canonical()
        result["fault_plan_hash"] = fault_plan.plan_hash()

    if spec.mode == "skeleton":
        # payload-free replay: same timing/comm story as simulated mode
        # (pinned by the equivalence tests), no data to verify
        try:
            run_result = executor.run_skeleton(schedule)
        except ProtocolExhaustedError as exc:
            return _protocol_exhausted_result(spec, exc)
        summary = RunSummary.from_result(run_result)
        result["summary"] = summary.to_dict()
        makespan = summary.makespan
        result["speedup"] = (
            float(t_seq / makespan) if makespan > 0 else None
        )
        return result

    # simulated: push real data through the discrete-event executor and
    # verify the distributed answer against the sequential solver
    import numpy as np

    from repro.apps.workloads import random_field
    from repro.sweep.sequential import run_sequential

    field = random_field(field_shape, seed=spec.seed)
    try:
        out, run_result = executor.run(field, schedule)
    except ProtocolExhaustedError as exc:
        return _protocol_exhausted_result(spec, exc)
    ref = run_sequential(field, schedule)
    summary = RunSummary.from_result(run_result)
    result["summary"] = summary.to_dict()
    result["max_abs_error"] = float(np.abs(out - ref).max())
    makespan = summary.makespan
    result["speedup"] = float(t_seq / makespan) if makespan > 0 else None
    return result


def _protocol_exhausted_result(spec: ExperimentSpec, exc) -> dict:
    """Structured, never-cached error for a sender that gave up.

    Mirrors the ``verify=True`` violation path: the batch runner treats any
    result carrying ``"error"`` as uncacheable, so a retry budget that was
    too small for the fault rate never poisons the result cache.
    """
    return {
        "schema": SCHEMA_TAG,
        "spec": spec.to_canonical(),
        "error": f"protocol retries exhausted: {exc}",
        "protocol_exhausted": {
            "rank": exc.rank,
            "dest": exc.dest,
            "seq": exc.seq,
            "retries": exc.retries,
        },
    }
