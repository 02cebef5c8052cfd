"""Traced run: every spec driven through the layers' public functions, one
span per layer boundary.

The drive follows ``repro.runner.execute.run_spec`` (and, for ``repro
check``, ``repro.verify.checker.verify_config``) step by step, so the layers
do exactly the work the CLI makes them do:

    ResultCache.get -> optimal_partitioning -> build_modular_mapping
    -> Multipartitioning(...) -> record_ops(skeleton_rank_program(r))
    -> Engine.run(recorded ops) -> RunSummary.from_result -> ResultCache.put

and ``check_invariants -> extract_program_ir -> verify_ir`` for checks.
Spans live in memory; each carries the spec's cache key (a config digest
for checks) as its trace id and the spec span as its parent.  A layer's
self time is its span's duration minus its children's.

The drive's outcomes (gammas, clocks, messages, bytes) are compared with the
untraced CLI result of the same round; a mismatch fails the spec.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

#: layer spans whose self time is attributed, in pipeline order
LAYERS = (
    "plan.optimize", "plan.modmap", "plan.validate", "compile", "engine",
    "summarize", "cache.get", "cache.put",
    "verify.invariants", "verify.ir", "verify.analyses",
)
#: the layers predicted to hold most of each workload's time
PREDICTED_DOMINANT = {
    "table1-cold": ("compile", "engine"),
    "table1-warm": ("cache.get", "cache.put", "cli.other"),
    "check-b": ("verify.invariants", "verify.ir", "verify.analyses"),
    "plan-scale": ("plan.validate",),
}


class Tracer:
    """In-memory span recorder (spans nest through a stack)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, trace_id: str):
        rec = {
            "id": len(self.spans),
            "round": self.round,
            "trace_id": trace_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def finish(self, start: int = 0) -> None:
        """Fill in duration and self time (seconds) of the spans from
        index ``start`` on; their parents must be among them."""
        child_time: dict[int, float] = {}
        spans = self.spans[start:]
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["dur"]
                )
        for s in spans:
            s["self"] = s["dur"] - child_time.get(s["id"], 0.0)


def _replay(ops):
    """A rank program that yields a recorded op list (sent values are
    ignored: skeleton control flow never depends on them)."""
    for op in ops:
        yield op


# -- the drive ----------------------------------------------------------------

def _plan(tr: Tracer, key: str, shape, p: int, model, objective):
    from repro.core.mapping import Multipartitioning
    from repro.core.modmap import build_modular_mapping
    from repro.core.optimizer import optimal_partitioning

    with tr.span("plan.optimize", key) as s:
        choice = optimal_partitioning(shape, p, model, objective)
        s["candidates"] = choice.candidates_examined
    with tr.span("plan.modmap", key):
        mapping = build_modular_mapping(choice.gammas, p)
        owner = mapping.rank_grid(choice.gammas)
    with tr.span("plan.validate", key) as s:
        partitioning = Multipartitioning(owner=owner, nprocs=p)
        s["tiles"] = int(owner.size)
    return choice, mapping, partitioning


def _compile(tr: Tracer, key: str, executor, schedule, p: int, name="compile"):
    from repro.simmpi.program import record_ops

    with tr.span(name, key) as s:
        programs = [
            record_ops(executor.skeleton_rank_program(r, schedule))
            for r in range(p)
        ]
        s["ops"] = sum(map(len, programs))
    return programs


def _engine(tr: Tracer, key: str, machine, programs, name="engine"):
    from repro.simmpi.engine import Engine

    with tr.span(name, key) as s:
        run = Engine(machine, nprocs=len(programs)).run(
            [_replay(ops) for ops in programs]
        )
        s["ops"] = sum(map(len, programs))
        s["messages"] = run.message_count
        s["bytes"] = run.total_bytes
    return run


def drive_sweep_spec(tr: Tracer, spec, cache) -> dict:
    """One sweep spec (plan or skeleton mode, SP, optimal partitioner,
    no faults) through the layers; returns its result document."""
    from repro.apps.sp import SPProblem
    from repro.core.cost import Objective
    from repro.runner.execute import resolve_cost_model, resolve_machine
    from repro.runner.spec import SCHEMA_TAG
    from repro.simmpi.summary import RunSummary
    from repro.sweep.multipart import MultipartExecutor
    from repro.sweep.sequential import sequential_time

    key = spec.cache_key()
    with tr.span("spec", key):
        if cache is not None:
            with tr.span("cache.get", key) as s:
                cached = cache.get(spec)
                s["hit"] = cached is not None
            if cached is not None:
                return cached
        problem = SPProblem(spec.shape, steps=spec.steps)
        choice, _, partitioning = _plan(
            tr, key, spec.shape, spec.p, resolve_cost_model(spec),
            Objective(spec.objective),
        )
        result = {
            "schema": SCHEMA_TAG,
            "spec": spec.to_canonical(),
            "gammas": list(choice.gammas),
            "cost": float(choice.cost),
            "candidates_examined": choice.candidates_examined,
            "compact": choice.is_compact(),
        }
        if spec.mode == "skeleton":
            machine = resolve_machine(spec)
            schedule = problem.schedule()
            t_seq = sequential_time(problem.field_shape, schedule, machine)
            result["sequential_time"] = float(t_seq)
            executor = MultipartExecutor(
                partitioning, problem.field_shape, machine,
                payload="skeleton",
            )
            programs = _compile(tr, key, executor, schedule, spec.p)
            run = _engine(tr, key, machine, programs)
            with tr.span("summarize", key):
                summary = RunSummary.from_result(run)
                result["summary"] = summary.to_dict()
                result["speedup"] = (
                    float(t_seq / summary.makespan)
                    if summary.makespan > 0 else None
                )
        with tr.span("summarize", key):
            result = json.loads(json.dumps(result, sort_keys=True))
        if cache is not None:
            with tr.span("cache.put", key) as s:
                s["bytes"] = cache.put(spec, result).stat().st_size
        return result


def drive_check(tr: Tracer, app: str, shape, p: int) -> dict:
    """One ``repro check`` configuration through the layers; returns the
    outcome fields compared against the CLI report.  The same configuration
    is then compiled and run (engine, no verify) outside the spec span, as
    the denominator of ``verify.over_run``."""
    from repro.apps.adi import ADIProblem
    from repro.apps.bt import BTProblem
    from repro.apps.sp import SPProblem
    from repro.core.cost import Objective
    from repro.core.mapping import Multipartitioning
    from repro.simmpi.machine import origin2000
    from repro.sweep.multipart import MultipartExecutor
    from repro.verify import check_invariants, extract_program_ir, verify_ir

    config = {"app": app, "shape": list(shape), "p": p}
    key = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    machine = origin2000()
    with tr.span("spec", key):
        problem = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}[app](
            tuple(shape), steps=1
        )
        _, mapping, partitioning = _plan(
            tr, key, tuple(shape), p, machine.to_cost_model(), Objective.FULL
        )
        if app == "bt":
            # BT embeds the spatial plan into its 4-D field (component
            # axis uncut) and re-validates; the proof pass then checks the
            # owner table itself (no 4-D mapping)
            with tr.span("plan.validate", key) as s:
                owner = partitioning.owner.reshape((*partitioning.gammas, 1))
                partitioning = Multipartitioning(owner=owner, nprocs=p)
                s["tiles"] = int(owner.size)
            mapping = None
        schedule = problem.schedule()
        executor = MultipartExecutor(
            partitioning, problem.field_shape, machine,
            record_events=True, payload="skeleton",
        )
        with tr.span("verify.invariants", key):
            invariants, _ = check_invariants(
                partitioning, p=partitioning.nprocs, mapping=mapping
            )
        with tr.span("verify.ir", key) as s:
            ir = extract_program_ir(executor, schedule)
            s["ops"] = ir.total_ops
        with tr.span("verify.analyses", key):
            analyses = verify_ir(ir)
    with tr.span("over_run.reference", key):
        plain = MultipartExecutor(
            partitioning, problem.field_shape, machine, payload="skeleton"
        )
        programs = _compile(tr, key, plain, schedule, p, "ref.compile")
        _engine(tr, key, machine, programs, "ref.engine")
    return {
        "ok": invariants.ok and all(a.ok for a in analyses),
        "gammas": list(partitioning.gammas),
        "ops": ir.total_ops,
        "messages": ir.total_sends,
        "bytes": ir.total_send_bytes,
    }


# -- comparison with the untraced result ----------------------------------------

def sweep_outcome(result: dict) -> dict:
    out = {"gammas": result.get("gammas"), "cost": result.get("cost")}
    summary = result.get("summary")
    if summary is not None:
        for field in ("clocks", "makespan", "message_count", "total_bytes"):
            out[field] = summary.get(field)
    return out


def check_outcome(report: dict) -> dict:
    config = report.get("config", {})
    ir = config.get("ir", {})
    return {
        "ok": report.get("ok"),
        "gammas": config.get("gammas"),
        "ops": ir.get("ops"),
        "messages": ir.get("messages"),
        "bytes": ir.get("bytes"),
    }


# -- per-round metrics ------------------------------------------------------------

def _sum(spans, name, field=None):
    if field is None:
        return sum(s["self"] for s in spans if s["name"] == name)
    return sum(s.get(field, 0) for s in spans if s["name"] == name)


def round_metrics(spans: list[dict], untraced_s: float, result_bytes: int):
    """Per-layer values of one round; times in ms.

    ``untraced_s`` is the wall time of the round's untraced CLI calls.
    """
    ms = {name: 1e3 * _sum(spans, name) for name in LAYERS}
    attributed = sum(ms.values())
    roots = [s for s in spans if s["name"] == "spec"]
    traced_s = sum(s["dur"] for s in roots)
    unattributed_s = sum(s["self"] for s in roots)
    tiles = _sum(spans, "plan.validate", "tiles")
    compile_ops = _sum(spans, "compile", "ops")
    engine_ops = _sum(spans, "engine", "ops")
    gets = [s for s in spans if s["name"] == "cache.get"]
    verify_ms = (
        ms["verify.invariants"] + ms["verify.ir"] + ms["verify.analyses"]
    )
    ref_ms = 1e3 * (_sum(spans, "ref.compile") + _sum(spans, "ref.engine"))
    cli_other = 1e3 * untraced_s - attributed
    metrics = {
        "plan.optimize_ms": ms["plan.optimize"],
        "plan.optimize_candidates": _sum(spans, "plan.optimize", "candidates"),
        "plan.modmap_ms": ms["plan.modmap"],
        "plan.validate_ms": ms["plan.validate"],
        "plan.validate_tiles": tiles,
        "plan.validate_us_per_tile": (
            1e3 * ms["plan.validate"] / tiles if tiles else 0.0
        ),
        "compile_ms": ms["compile"],
        "compile_ops": compile_ops,
        "compile_us_per_op": (
            1e3 * ms["compile"] / compile_ops if compile_ops else 0.0
        ),
        "engine_ms": ms["engine"],
        "engine_ops": engine_ops,
        "engine_messages": _sum(spans, "engine", "messages"),
        "engine_bytes": _sum(spans, "engine", "bytes"),
        "engine_kops_per_s": (
            engine_ops / ms["engine"] if ms["engine"] else 0.0
        ),
        "summarize_ms": ms["summarize"],
        "result_bytes": result_bytes,
        "cache.get_ms": ms["cache.get"],
        "cache.get_count": len(gets),
        "cache.hit_ratio": (
            sum(1 for s in gets if s["hit"]) / len(gets) if gets else 0.0
        ),
        "cache.put_ms": ms["cache.put"],
        "cache.put_count": sum(1 for s in spans if s["name"] == "cache.put"),
        "cache.put_bytes": _sum(spans, "cache.put", "bytes"),
        "verify.invariants_ms": ms["verify.invariants"],
        "verify.ir_ms": ms["verify.ir"],
        "verify.ir_ops": _sum(spans, "verify.ir", "ops"),
        "verify.analyses_ms": ms["verify.analyses"],
        "verify.over_run": verify_ms / ref_ms if ref_ms else 0.0,
        "cli.other_ms": cli_other,
        "trace.overhead": traced_s / untraced_s if untraced_s else 0.0,
        "trace.unattributed_share": (
            unattributed_s / traced_s if traced_s else 0.0
        ),
    }
    layer_ms = {**ms, "cli.other": max(cli_other, 0.0)}
    return metrics, layer_ms


def attribution(workload: str, layer_ms: dict) -> dict:
    """Shares of each layer and whether the predicted layers hold the
    majority of the attributed time."""
    total = sum(layer_ms.values())
    shares = {
        name: (value / total if total else 0.0)
        for name, value in layer_ms.items()
    }
    predicted = PREDICTED_DOMINANT[workload]
    share = sum(shares[name] for name in predicted)
    return {
        "layer_ms": layer_ms,
        "shares": shares,
        "predicted": list(predicted),
        "predicted_share": share,
        "matches_prediction": share > 0.5,
    }
