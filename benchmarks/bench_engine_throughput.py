"""Raw engine throughput: events/sec traced vs. untraced, and the engine
vs. the static replay on a compiled skeleton.

The null-emit fast path skips ``TraceEvent`` construction entirely when
``record_events=False`` and no sinks are attached — this bench records how
much that is worth, against both the current traced path and the pinned
pre-fast-path engine, so the win stays visible in the perf trajectory.

The skeleton rows time the engine and
:func:`~repro.simmpi.engine.replay_static` on the same compiled SP class-A
p=16 op lists, so their ratio is a same-machine measurement.

Writes ``BENCH_engine.json`` at the repo root.
"""

import json
import pathlib
import time

from repro.analysis.report import format_table
from repro.apps.sp import sp_class
from repro.core.api import plan_multipartitioning
from repro.simmpi.engine import Engine, replay_static, run_programs
from repro.simmpi.machine import MachineModel, origin2000
from repro.simmpi.message import Bytes, ComputeOp, RecvOp, SendOp
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor

_ENGINE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_engine.json"

#: ops/sec of the engine at the commit before the fast-path overhaul, same
#: ring workload and hardware as this bench's CI baseline (best of 3).
#: Absolute numbers are hardware-bound; the untraced/traced ratio below is
#: the portable signal.
PRE_PR_OPS_PER_SEC = {"traced": 130_814, "untraced": 159_276}

_RANKS, _ITERS = 8, 4000


def _ring_programs(n, iters):
    def prog(rank):
        nxt, prv = (rank + 1) % n, (rank - 1) % n
        for _ in range(iters):
            yield ComputeOp(1e-6)
            yield SendOp(nxt, Bytes(800))
            yield RecvOp(prv)
    return [prog(r) for r in range(n)]


def _ring_ops_per_sec(record_events, trials=7):
    best = 0.0
    for _ in range(trials):
        engine = Engine(MachineModel(), _RANKS, record_events=record_events)
        t0 = time.perf_counter()
        engine.run(_ring_programs(_RANKS, _ITERS))
        dt = time.perf_counter() - t0
        best = max(best, _RANKS * _ITERS * 3 / dt)
    return best


def test_engine_throughput(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _ring_ops_per_sec(False, trials=2)  # warmup
    traced = _ring_ops_per_sec(True)
    untraced = _ring_ops_per_sec(False)

    # both replays of one compiled real workload, SP class-A p=16: ops/sec
    # over its sends, receives and computes, best of 15 interleaved trials
    machine = origin2000()
    prob = sp_class("A", steps=1)
    plan = plan_multipartitioning(prob.shape, 16, machine.to_cost_model())
    ex = MultipartExecutor(
        plan.partitioning, prob.shape, machine, payload="skeleton"
    )
    ops = ex.compile(prob.schedule()).ops
    n_ops = sum(map(len, ops))
    replays = {
        "engine": lambda: run_programs(
            machine, [(op for op in rank_ops) for rank_ops in ops]
        ),
        "static": lambda: replay_static(machine, ops),
    }
    best = dict.fromkeys(replays, 0.0)
    summaries = {}
    for _ in range(15):
        for name, replay in replays.items():
            t0 = time.perf_counter()
            res = replay()
            dt = time.perf_counter() - t0
            best[name] = max(best[name], n_ops / dt)
            summaries[name] = RunSummary.from_result(res).to_dict()
    assert json.dumps(summaries["static"]) == json.dumps(summaries["engine"])
    doc = {
        "bench": "engine_throughput",
        "workload": f"ring {_RANKS} ranks x {_ITERS} iters x 3 ops",
        "ops_per_sec": {
            "traced": traced,
            "untraced": untraced,
        },
        "skeleton": {
            "workload": f"SP class A p=16, compiled once, {n_ops} ops",
            "engine_ops_per_sec": best["engine"],
            "static_ops_per_sec": best["static"],
            "static_over_engine": best["static"] / best["engine"],
        },
        "pre_pr_ops_per_sec": PRE_PR_OPS_PER_SEC,
        "speedup_vs_pre_pr": {
            "traced": traced / PRE_PR_OPS_PER_SEC["traced"],
            "untraced": untraced / PRE_PR_OPS_PER_SEC["untraced"],
        },
        "untraced_over_traced": untraced / traced,
    }
    with _ENGINE_JSON.open("w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    report(
        "Engine throughput: traced vs untraced (null-emit fast path), "
        "engine vs static replay (compiled skeleton)",
        format_table(
            ["variant", "ops/sec", "vs pre-PR"],
            [
                ["traced", f"{traced:,.0f}",
                 f"{doc['speedup_vs_pre_pr']['traced']:.2f}x"],
                ["untraced", f"{untraced:,.0f}",
                 f"{doc['speedup_vs_pre_pr']['untraced']:.2f}x"],
                ["skeleton, engine", f"{best['engine']:,.0f}", ""],
                ["skeleton, static", f"{best['static']:,.0f}", ""],
            ],
        ),
        data=doc,
    )
    # the fast path must stay decisively ahead of event construction —
    # hardware-portable floor (the 3x-vs-pre-PR claim is recorded above)
    assert untraced > 1.5 * traced
    assert doc["speedup_vs_pre_pr"]["untraced"] > 1.5
    # a same-machine ratio: the static replay must stay well ahead of the
    # engine on the ops both run
    assert doc["skeleton"]["static_over_engine"] >= 1.3
