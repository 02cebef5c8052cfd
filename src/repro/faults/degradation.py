"""Degradation analysis: how multipartitioned runs respond to faults.

Three questions, all answered deterministically on the skeleton simulator:

* :func:`degradation_curve` — how does makespan grow with message-drop
  rate for one (app, shape, p) configuration?  Every point is a full
  reliable-protocol run under a seeded :class:`~repro.faults.plan
  .FaultPlan`; the zero-rate point reproduces the fault-free makespan
  exactly.
* :func:`resilience_ranking` — which tiling (processor count) of the same
  problem degrades *least* under a given fault plan?  Ranked by slowdown
  relative to each tiling's own fault-free makespan, so bigger tilings are
  not penalized for having more messages to lose in absolute terms.
* :func:`straggler_shift` — how does one slow rank move the critical path
  (via :func:`repro.obs.critical.critical_path`)?  Reports the fault-free
  and straggled path decompositions and whether the path now runs through
  the straggler.

:func:`chaos_report` bundles all three into one JSON document under the
``repro.chaos-report.v1`` schema — the payload of ``repro chaos``.

All heavyweight imports are function-local, mirroring
:mod:`repro.runner.execute`, which also keeps this module importable from
:mod:`repro.faults` without dragging the executor stack into every
``import repro.faults``.
"""

from __future__ import annotations

from .plan import FaultPlan
from .protocol import ProtocolConfig

__all__ = [
    "CHAOS_SCHEMA",
    "degradation_curve",
    "resilience_ranking",
    "straggler_shift",
    "chaos_report",
]

#: schema tag of the ``repro chaos`` report document
CHAOS_SCHEMA = "repro.chaos-report.v1"

#: default drop-rate grid for curves (zero first: the exactness anchor)
DEFAULT_DROP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)


def _plan(app: str, shape: tuple[int, ...], p: int, machine_name: str):
    """(config, machine) for one configuration on a preset machine."""
    from repro.apps import plan_app
    from repro.simmpi.machine import PRESETS

    machine = PRESETS[machine_name]()
    config = plan_app(app, shape, p, cost_model=machine.to_cost_model())
    return config, machine


def _skeleton_run(
    config,
    machine,
    faults: FaultPlan | None = None,
    protocol: ProtocolConfig | None = None,
    record_events: bool = False,
):
    from repro.sweep.multipart import MultipartExecutor

    executor = MultipartExecutor(
        config.partitioning,
        config.problem.field_shape,
        machine,
        payload="skeleton",
        record_events=record_events,
        faults=faults,
        protocol=protocol,
    )
    return executor.run_skeleton(config.problem.schedule())


def degradation_curve(
    app: str,
    shape: tuple[int, ...],
    p: int,
    drop_rates: tuple[float, ...] = DEFAULT_DROP_RATES,
    seed: int = 2002,
    machine: str = "origin2000",
    protocol: ProtocolConfig | None = None,
) -> dict:
    """Makespan vs drop rate for one configuration (reliable protocol on).

    The slowdown at each point is relative to the *fault-free, protocol-on*
    baseline, so the curve isolates the cost of faults from the (small)
    fixed cost of acknowledgements.
    """
    protocol = protocol or ProtocolConfig()
    config, mach = _plan(app, shape, p, machine)
    baseline = _skeleton_run(config, mach, protocol=protocol)
    points = []
    for rate in drop_rates:
        plan = FaultPlan(seed=seed, drop_rate=rate)
        result = _skeleton_run(
            config, mach, faults=plan, protocol=protocol
        )
        points.append(
            {
                "drop_rate": rate,
                "makespan": result.makespan,
                "slowdown": (
                    result.makespan / baseline.makespan
                    if baseline.makespan > 0
                    else None
                ),
                "fault_counts": dict(result.fault_counts or {}),
                "protocol": dict(result.protocol_stats or {}),
            }
        )
    return {
        "app": app,
        "shape": list(shape),
        "p": p,
        "machine": machine,
        "seed": seed,
        "protocol_config": protocol.to_canonical(),
        "baseline_makespan": baseline.makespan,
        "points": points,
    }


def resilience_ranking(
    app: str,
    shape: tuple[int, ...],
    ps: tuple[int, ...],
    drop_rate: float = 0.1,
    seed: int = 2002,
    machine: str = "origin2000",
    protocol: ProtocolConfig | None = None,
) -> dict:
    """Rank tilings of the same problem by slowdown under one fault rate.

    Lower slowdown = more resilient; entries come back sorted most-resilient
    first, ties broken by smaller p (deterministic output ordering).
    """
    protocol = protocol or ProtocolConfig()
    entries = []
    for p in ps:
        config, mach = _plan(app, shape, p, machine)
        base = _skeleton_run(config, mach, protocol=protocol)
        plan = FaultPlan(seed=seed, drop_rate=drop_rate)
        faulty = _skeleton_run(
            config, mach, faults=plan, protocol=protocol
        )
        entries.append(
            {
                "p": p,
                "gammas": list(config.partitioning.gammas),
                "baseline_makespan": base.makespan,
                "faulty_makespan": faulty.makespan,
                "slowdown": (
                    faulty.makespan / base.makespan
                    if base.makespan > 0
                    else None
                ),
                "retransmits": (faulty.protocol_stats or {}).get(
                    "retransmits", 0
                ),
            }
        )
    entries.sort(key=lambda e: (e["slowdown"], e["p"]))
    for position, entry in enumerate(entries, start=1):
        entry["rank"] = position
    return {
        "app": app,
        "shape": list(shape),
        "drop_rate": drop_rate,
        "machine": machine,
        "seed": seed,
        "protocol_config": protocol.to_canonical(),
        "ranking": entries,
    }


def straggler_shift(
    app: str,
    shape: tuple[int, ...],
    p: int,
    straggler_factor: float = 4.0,
    seed: int = 2002,
    machine: str = "origin2000",
) -> dict:
    """Critical-path shift induced by hash-chosen straggler ranks.

    Runs the configuration fault-free and with ``straggler_rate`` tuned so
    at least one rank is slowed (retrying seeds deterministically from
    ``seed`` upward until the hash picks one), then compares the
    :func:`~repro.obs.critical.critical_path` decompositions.  No protocol
    is needed — stragglers delay but never lose messages.
    """
    from repro.faults.inject import FaultInjector
    from repro.obs.critical import critical_path

    config, mach = _plan(app, shape, p, machine)
    base = _skeleton_run(config, mach, record_events=True)
    base_path = critical_path(base.trace.events, base.clocks)

    # find the first seed whose hash actually slows somebody (rate 1/p
    # slows one rank in expectation; with small p a given seed can miss)
    rate = min(1.0, 1.5 / p)
    plan = None
    for probe in range(seed, seed + 64):
        candidate = FaultPlan(
            seed=probe, straggler_rate=rate,
            straggler_factor=straggler_factor,
        )
        if FaultInjector(candidate, p).straggler_ranks():
            plan = candidate
            break
    if plan is None:  # pragma: no cover - 64 misses is astronomically rare
        raise RuntimeError("no seed in range selected a straggler rank")
    stragglers = FaultInjector(plan, p).straggler_ranks()

    slow = _skeleton_run(config, mach, faults=plan, record_events=True)
    slow_path = critical_path(slow.trace.events, slow.clocks)

    def _decompose(path) -> dict:
        return {
            "length": path.length,
            "compute_seconds": path.compute_seconds,
            "comm_cpu_seconds": path.comm_cpu_seconds,
            "wire_seconds": path.wire_seconds,
            "ranks": list(path.ranks),
        }

    return {
        "app": app,
        "shape": list(shape),
        "p": p,
        "machine": machine,
        "seed": plan.seed,
        "straggler_factor": straggler_factor,
        "straggler_ranks": list(stragglers),
        "baseline": _decompose(base_path),
        "straggled": _decompose(slow_path),
        "slowdown": (
            slow.makespan / base.makespan if base.makespan > 0 else None
        ),
        "path_through_straggler": any(
            r in stragglers for r in slow_path.ranks
        ),
    }


def chaos_report(
    app: str,
    shape: tuple[int, ...],
    p: int,
    drop_rates: tuple[float, ...] = DEFAULT_DROP_RATES,
    ranking_ps: tuple[int, ...] = (),
    seed: int = 2002,
    machine: str = "origin2000",
    protocol: ProtocolConfig | None = None,
) -> dict:
    """Full ``repro chaos`` document: degradation curve + straggler shift
    (+ resilience ranking over ``ranking_ps`` when given)."""
    doc = {
        "schema": CHAOS_SCHEMA,
        "curve": degradation_curve(
            app, shape, p, drop_rates=drop_rates, seed=seed,
            machine=machine, protocol=protocol,
        ),
        "straggler": straggler_shift(
            app, shape, p, seed=seed, machine=machine
        ),
    }
    if ranking_ps:
        doc["ranking"] = resilience_ranking(
            app, shape, tuple(ranking_ps), seed=seed, machine=machine,
            protocol=protocol,
        )
    return doc
