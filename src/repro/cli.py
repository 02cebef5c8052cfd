"""Command-line interface: ``python -m repro <command>``.

Commands
--------
plan      Compute the optimal multipartitioning of an array shape.
map       Print the tile-to-processor mapping, layer by layer.
list      List all elementary partitionings for (p, d).
table1    Regenerate the paper's Table 1 (NAS SP class-B speedups).
figure1   Regenerate the paper's Figure 1 (3-D diagonal mapping, p=16).
drop      Processor-dropping search: fastest p' <= p (Conclusions).
count     Elementary-partitioning counts vs the Figure-2 complexity bound.
sweep     Batch experiment grid: parallel runner + persistent result cache.
chaos     Fault-injection degradation report (curve, straggler, ranking).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(x) for x in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}") from exc
    if not shape or any(s < 1 for s in shape):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}")
    return shape


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalized multipartitioning (IPDPS 2002) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="optimal multipartitioning of a shape")
    plan.add_argument("--shape", type=_shape, required=True,
                      help="array shape, e.g. 102,102,102 or 102x102x102")
    plan.add_argument("-p", "--nprocs", type=int, required=True)
    plan.add_argument(
        "--objective", choices=["full", "phases", "volume"], default="full"
    )

    mp = sub.add_parser("map", help="print a tile-to-processor mapping")
    mp.add_argument("--gammas", type=_shape, required=True,
                    help="tile grid, e.g. 5,10,10")
    mp.add_argument("-p", "--nprocs", type=int, required=True)

    ls = sub.add_parser("list", help="elementary partitionings for (p, d)")
    ls.add_argument("-p", "--nprocs", type=int, required=True)
    ls.add_argument("-d", "--dims", type=int, default=3)

    t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    t1.add_argument("--class", dest="cls", default="B",
                    choices=["S", "W", "A", "B", "C"])
    t1.add_argument(
        "--max-p", type=int, default=None,
        help="cap the processor counts",
    )

    sub.add_parser("figure1", help="regenerate the paper's Figure 1")

    drop = sub.add_parser(
        "drop", help="processor-dropping search (Conclusions)"
    )
    drop.add_argument("--shape", type=_shape, default=(102, 102, 102))
    drop.add_argument("-p", "--nprocs", type=int, required=True)

    count = sub.add_parser(
        "count", help="enumeration counts vs the complexity bound"
    )
    count.add_argument("--limit", type=int, default=2400)
    count.add_argument("-d", "--dims", type=int, default=3)

    bt = sub.add_parser("bt", help="BT proxy scaling (block-tridiagonal)")
    bt.add_argument("--class", dest="cls", default="B",
                    choices=["S", "W", "A", "B", "C"])

    loc = sub.add_parser(
        "locality", help="mapping hop profiles on a topology"
    )
    loc.add_argument("--gammas", type=_shape, required=True)
    loc.add_argument("-p", "--nprocs", type=int, required=True)
    loc.add_argument(
        "--topology", default="ring",
        choices=["ring", "mesh2d", "torus3d", "fattree", "hypercube",
                 "full"],
    )

    sens = sub.add_parser(
        "sensitivity", help="optimal tiling vs a machine constant"
    )
    sens.add_argument("--shape", type=_shape, required=True)
    sens.add_argument("-p", "--nprocs", type=int, required=True)
    sens.add_argument("--parameter", default="k2",
                      choices=["k1", "k2", "k3"])
    sens.add_argument("--values", type=str,
                      default="0,1e-6,1e-5,1e-4,1e-3,1e-2")

    sim = sub.add_parser(
        "simulate",
        help="run a small ADI workload on the simulator: timeline + "
        "per-op breakdown + verification",
    )
    sim.add_argument("--shape", type=_shape, default=(16, 16, 16))
    sim.add_argument("-p", "--nprocs", type=int, default=4)
    sim.add_argument("--steps", type=int, default=1)
    sim.add_argument("--width", type=int, default=64)
    sim.add_argument("--seed", type=int, default=2002,
                     help="seed for the random initial field")

    diag = sub.add_parser(
        "diagnose", help="check an owner-table file (npy) for the "
        "multipartitioning properties"
    )
    diag.add_argument("path", help=".npy file holding the owner table")
    diag.add_argument("-p", "--nprocs", type=int, required=True)

    prof = sub.add_parser(
        "profile",
        help="run a phase-annotated app on the simulator and report where "
        "virtual time goes: per-phase profile, per-rank activity, "
        "communication matrix, critical path",
    )
    prof.add_argument("--shape", type=_shape, default=(16, 16, 16))
    prof.add_argument("-p", "--nprocs", type=int, default=4)
    prof.add_argument("--app", default="sp", choices=["sp", "bt", "adi"])
    prof.add_argument("--steps", type=int, default=1)
    prof.add_argument(
        "--json", action="store_true",
        help="emit the profile document as JSON instead of text",
    )
    prof.add_argument(
        "--chrome", metavar="PATH",
        help="also write an enriched Chrome/Perfetto trace (phase rows + "
        "counter tracks) to PATH",
    )
    prof.add_argument(
        "--jsonl", metavar="PATH",
        help="also stream raw events to PATH as JSONL (one event per line "
        "+ final run_end record)",
    )

    check = sub.add_parser(
        "check",
        help="statically verify a configuration without running it: "
        "send/recv matching, deadlock, message races, and the paper's "
        "validity/balance/neighbor proofs",
    )
    check.add_argument("--app", default="sp", choices=["sp", "bt", "adi"])
    check.add_argument("--shape", type=_shape, required=True)
    check.add_argument("-p", "--nprocs", type=int, required=True)
    check.add_argument("--steps", type=int, default=1)
    check.add_argument("--no-aggregate", action="store_true",
                       help="verify the per-tile (unaggregated) message "
                       "schedule instead of the aggregated one")
    check.add_argument("--partitioner", default="optimal",
                       choices=["optimal", "diagonal"])
    check.add_argument("--stencil-rhs", action="store_true",
                       help="include SP's stencil RHS exchange phases")
    check.add_argument("--json", action="store_true",
                       help="emit the full repro.verify-report.v1 document")
    check.add_argument("--protocol", action="store_true",
                       help="additionally model-check the reliable-delivery "
                       "protocol: exhaustive proof that the ack/retransmit "
                       "wrapper cannot deadlock under any drop pattern")

    sweep = sub.add_parser(
        "sweep",
        help="run a batch experiment grid through the parallel runner with "
        "persistent result caching",
    )
    sweep.add_argument(
        "--grid", metavar="PATH",
        help="grid document (.json or .toml); overrides the inline flags",
    )
    sweep.add_argument("--shapes", type=str,
                       help='comma list of shapes, e.g. "12x12x12,16x16x16"')
    sweep.add_argument("--nprocs", type=str,
                       help='comma list of processor counts, e.g. "1,2,4"')
    sweep.add_argument("--apps", type=str, default="sp",
                       help='comma list of apps (sp, bt, adi)')
    sweep.add_argument("--machines", type=str, default="origin2000",
                       help="comma list of machine presets")
    sweep.add_argument("--mode", default="skeleton",
                       choices=["plan", "simulated", "skeleton"])
    sweep.add_argument("--objective", default="full",
                       choices=["full", "phases", "volume"])
    sweep.add_argument("--steps", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=2002)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = run inline)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache entirely")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="result cache directory (default .repro-cache)")
    sweep.add_argument("--json", action="store_true",
                       help="emit results + stats as a JSON document")
    sweep.add_argument("--verify", action="store_true",
                       help="statically verify each configuration before "
                       "running it; violations become structured errors")
    sweep.add_argument(
        "--faults", metavar="JSON",
        help="fault axis: JSON list of fault-field dicts crossed with the "
        'grid, e.g. \'[{"drop_rate": 0.1}, {"straggler_rate": 0.2}]\' '
        "(simulated/skeleton modes only)",
    )
    sweep.add_argument(
        "--fault-drops", metavar="RATES",
        help='shorthand for --faults: comma list of drop rates, e.g. '
        '"0,0.05,0.1" (the reliable protocol switches on automatically '
        "for rates > 0)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection report: makespan-vs-drop-rate "
        "degradation curve, straggler critical-path shift, and an "
        "optional per-tiling resilience ranking",
    )
    chaos.add_argument("--app", default="sp", choices=["sp", "bt", "adi"])
    chaos.add_argument("--shape", type=_shape, default=(12, 12, 12))
    chaos.add_argument("-p", "--nprocs", type=int, default=9)
    chaos.add_argument(
        "--drops", type=str, default="0,0.02,0.05,0.1,0.2",
        help="comma list of drop rates; keep 0 first — the zero-rate "
        "point must reproduce the fault-free makespan exactly",
    )
    chaos.add_argument("--seed", type=int, default=2002,
                       help="fault-plan seed (same seed => same faults)")
    chaos.add_argument(
        "--machine", default="origin2000",
        choices=["origin2000", "ethernet_cluster", "bus"],
    )
    chaos.add_argument(
        "--ranking-p", type=str, default="",
        help='comma list of processor counts to rank by resilience, '
        'e.g. "4,9,16"',
    )
    chaos.add_argument(
        "--timeout", type=float, default=None,
        help="protocol retransmit timeout in virtual seconds "
        "(default: ProtocolConfig default)",
    )
    chaos.add_argument("--json", action="store_true",
                       help="emit the repro.chaos-report.v1 document")

    return parser


def _run_sweep(args, out) -> int:
    import json

    from repro.analysis.report import format_table
    from repro.obs.metrics import MetricsRegistry
    from repro.runner import (
        SCHEMA_TAG,
        BatchRunner,
        ResultCache,
        expand_grid,
        load_grid,
        parse_ints,
        parse_shapes,
    )

    if args.grid:
        doc = load_grid(args.grid)
    else:
        if not args.shapes or not args.nprocs:
            print(
                "sweep: need --grid, or both --shapes and --nprocs",
                file=sys.stderr,
            )
            return 2
        doc = {
            "mode": args.mode,
            "apps": [a.strip() for a in args.apps.split(",") if a.strip()],
            "shapes": parse_shapes(args.shapes),
            "nprocs": parse_ints(args.nprocs),
            "machines": [
                m.strip() for m in args.machines.split(",") if m.strip()
            ],
            "objectives": [args.objective],
            "steps": args.steps,
            "seed": args.seed,
        }
    faults_axis = []
    if args.fault_drops:
        faults_axis.extend(
            {"drop_rate": float(r)}
            for r in args.fault_drops.split(",")
            if r.strip()
        )
    if args.faults:
        parsed = json.loads(args.faults)
        if isinstance(parsed, dict):
            parsed = [parsed]
        faults_axis.extend(parsed)
    if faults_axis:
        doc["faults"] = faults_axis
    try:
        specs = expand_grid(doc)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = BatchRunner(
        cache=cache, jobs=args.jobs, metrics=registry, verify=args.verify
    )
    results = runner.run(specs)
    stats = runner.last_stats
    failed = any("error" in r for r in results)

    if args.json:
        json.dump(
            {
                "schema": SCHEMA_TAG,
                "results": results,
                "stats": {
                    **stats.to_dict(),
                    "sources": runner.last_sources,
                    "metrics": registry.snapshot(),
                },
            },
            out,
        )
        out.write("\n")
        return 1 if failed else 0

    rows = []
    for spec, result, source in zip(specs, results, runner.last_sources):
        shape = "x".join(map(str, spec.shape))
        if "error" in result:
            rows.append([spec.app, shape, spec.p, spec.machine,
                         "ERROR", result["error"], "", source])
            continue
        gammas = "x".join(map(str, result["gammas"]))
        if spec.mode == "plan":
            t = result["cost"]
        else:
            t = result["summary"]["makespan"]
        speedup = result.get("speedup")
        rows.append([
            spec.app, shape, spec.p, spec.machine, gammas,
            f"{t:.4g}" if t is not None else "-",
            f"{speedup:.2f}" if speedup is not None else "-",
            source,
        ])
    mode = doc.get("mode", "skeleton")
    time_label = "cost" if mode == "plan" else "makespan(s)"
    print(
        format_table(
            ["app", "shape", "p", "machine", "tiling", time_label,
             "speedup", "cache"],
            rows,
            title=f"sweep: {stats.total} configs, mode {mode}",
        ),
        file=out,
    )
    print(
        f"{stats.total} specs: {stats.hits} hits, {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate), {stats.errors} errors, "
        f"{stats.wall_seconds:.2f}s wall on {stats.jobs} job(s)",
        file=out,
    )
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout

    if args.command == "plan":
        from repro.core.api import plan_multipartitioning
        from repro.core.cost import Objective

        plan = plan_multipartitioning(
            args.shape, args.nprocs, objective=Objective(args.objective)
        )
        print(plan.describe(), file=out)
        print(f"moduli: {plan.mapping.moduli}", file=out)
        print(f"matrix:\n{plan.mapping.matrix}", file=out)
        return 0

    if args.command == "map":
        from repro.analysis.report import render_figure1
        from repro.core.mapping import Multipartitioning
        from repro.core.modmap import build_modular_mapping

        mapping = build_modular_mapping(args.gammas, args.nprocs)
        partitioning = Multipartitioning(
            mapping.rank_grid(args.gammas), args.nprocs
        )
        if partitioning.ndim in (2, 3):
            print(
                render_figure1(
                    partitioning, axis=min(2, partitioning.ndim - 1)
                ),
                file=out,
            )
        else:
            print(partitioning.owner, file=out)
        return 0

    if args.command == "list":
        from repro.core.elementary import elementary_partitionings_unordered

        for gammas in elementary_partitionings_unordered(
            args.nprocs, args.dims
        ):
            print("x".join(map(str, gammas)), file=out)
        return 0

    if args.command == "table1":
        from repro.analysis.report import format_table1
        from repro.analysis.speedup import PAPER_CPU_COUNTS, sp_speedup_table
        from repro.apps.sp import sp_class

        prob = sp_class(args.cls, steps=1)
        counts = PAPER_CPU_COUNTS
        if args.max_p is not None:
            counts = tuple(p for p in counts if p <= args.max_p)
        rows = sp_speedup_table(prob.shape, steps=1, cpu_counts=counts)
        print(format_table1(rows), file=out)
        return 0

    if args.command == "figure1":
        from repro.analysis.report import render_figure1
        from repro.core.diagonal import diagonal_3d
        from repro.core.mapping import Multipartitioning

        print(
            render_figure1(Multipartitioning(diagonal_3d(16), 16), axis=2),
            file=out,
        )
        return 0

    if args.command == "drop":
        from repro.apps.sp import SPProblem
        from repro.simmpi.machine import origin2000
        from repro.sweep.multipart import best_processor_count

        prob = SPProblem(shape=args.shape, steps=1)
        try:
            p_used, t = best_processor_count(
                args.shape, args.nprocs, origin2000(), prob.schedule()
            )
        except ValueError as exc:
            print(f"drop: {exc}", file=sys.stderr)
            return 2
        print(
            f"requested p={args.nprocs}: fastest configuration uses "
            f"p'={p_used} (simulated step time {t:.4g} s)",
            file=out,
        )
        return 0

    if args.command == "count":
        from repro.analysis.counting import bound_main_term, worst_case_counts
        from repro.analysis.report import format_table

        rows = [
            [p, count, f"{bound:.1f}",
             f"{bound_main_term(p, args.dims, slack=2.0):.1f}"]
            for p, count, bound in worst_case_counts(args.limit, args.dims)
        ]
        print(
            format_table(
                ["p", "#elementary", "bound", "bound(slack=2)"], rows
            ),
            file=out,
        )
        return 0

    if args.command == "bt":
        from repro.analysis.report import format_table
        from repro.apps import bt_class, plan_app
        from repro.simmpi.machine import origin2000
        from repro.sweep.multipart import MultipartExecutor
        from repro.sweep.sequential import sequential_time

        machine = origin2000()
        prob = bt_class(args.cls, steps=1)
        sched = prob.schedule()
        t1 = sequential_time(prob.field_shape, sched, machine)
        rows = []
        for p in (1, 4, 9, 16, 25, 36, 49, 64, 81):
            partitioning = plan_app(
                "bt", prob.shape, p, cost_model=machine.to_cost_model()
            ).partitioning
            t = MultipartExecutor(
                partitioning, prob.field_shape, machine, payload="skeleton"
            ).run_skeleton(sched).makespan
            rows.append([p, partitioning.gammas[:3], t1 / t])
        print(
            format_table(
                ["p", "tiling", "speedup"], rows,
                title=f"BT proxy class {args.cls} (skeleton)",
            ),
            file=out,
        )
        return 0

    if args.command == "locality":
        from repro.analysis.locality import (
            best_mapping_for_topology,
            hop_profile,
        )
        from repro.core.mapping import Multipartitioning
        from repro.core.modmap import build_modular_mapping
        from repro.simmpi.topology import topology_for

        topo = topology_for(args.topology, args.nprocs)
        default = Multipartitioning(
            build_modular_mapping(args.gammas, args.nprocs).rank_grid(
                args.gammas
            ),
            args.nprocs,
        )
        prof = hop_profile(default, topo)
        print(
            f"default construction on {topo.name}: mean "
            f"{prof.mean_hops:.2f} hops, max {prof.max_hops}",
            file=out,
        )
        _, best_prof = best_mapping_for_topology(
            args.gammas, args.nprocs, topo
        )
        print(
            f"best variant:                    mean "
            f"{best_prof.mean_hops:.2f} hops, max {best_prof.max_hops}",
            file=out,
        )
        return 0

    if args.command == "sensitivity":
        from repro.analysis.report import format_table
        from repro.analysis.sensitivity import tiling_vs_parameter

        values = [float(v) for v in args.values.split(",")]
        points = tiling_vs_parameter(
            args.shape, args.nprocs, args.parameter, values
        )
        print(
            format_table(
                [args.parameter, "optimal gammas", "cost"],
                [[pt.value, pt.gammas, pt.cost] for pt in points],
                title=f"Tiling sensitivity of {args.shape} on "
                f"{args.nprocs} procs",
            ),
            file=out,
        )
        return 0

    if args.command == "simulate":
        import numpy as np

        from repro.analysis.phases import format_breakdown, op_breakdown
        from repro.apps import plan_app, random_field
        from repro.simmpi.machine import origin2000
        from repro.simmpi.traceio import ascii_timeline
        from repro.sweep.multipart import MultipartExecutor
        from repro.sweep.sequential import run_sequential

        machine = origin2000()
        config = plan_app(
            "adi", args.shape, args.nprocs, steps=args.steps,
            cost_model=machine.to_cost_model(),
        )
        schedule = config.problem.schedule()
        field = random_field(args.shape, seed=args.seed)
        result, run_res = MultipartExecutor(
            config.partitioning, args.shape, machine, record_events=True
        ).run(field, schedule)
        err = float(np.abs(result - run_sequential(field, schedule)).max())
        print(config.plan.describe(), file=out)
        print(ascii_timeline(run_res, width=args.width), file=out)
        print(format_breakdown(op_breakdown(run_res)), file=out)
        print(
            f"verified vs sequential: max error {err:.2e}; "
            f"{run_res.message_count} messages, efficiency "
            f"{run_res.efficiency():.2f}",
            file=out,
        )
        return 0

    if args.command == "profile":
        import json

        from repro.obs import build_profile, format_profile, run_profiled_app
        from repro.obs.sinks import JsonlSink
        from repro.simmpi.traceio import write_chrome_trace

        sinks = []
        if args.jsonl:
            sinks.append(JsonlSink(args.jsonl))
        _, run_res = run_profiled_app(
            args.app, args.shape, args.nprocs, steps=args.steps,
            sinks=tuple(sinks),
        )
        profile = {
            "app": args.app,
            "shape": list(args.shape),
            "steps": args.steps,
            **build_profile(run_res.trace.events, run_res.clocks),
        }
        if args.chrome:
            with open(args.chrome, "w") as fh:
                write_chrome_trace(run_res.trace, fh)
            print(f"chrome trace written to {args.chrome}", file=sys.stderr)
        if args.jsonl:
            print(f"event stream written to {args.jsonl}", file=sys.stderr)
        if args.json:
            json.dump(profile, out, indent=2)
            out.write("\n")
        else:
            print(
                f"{args.app} {'x'.join(map(str, args.shape))} on "
                f"{args.nprocs} ranks, {args.steps} step(s)",
                file=out,
            )
            print(format_profile(profile), file=out)
        return 0

    if args.command == "check":
        import json

        from repro.verify import verify_config

        report = verify_config(
            args.app,
            args.shape,
            args.nprocs,
            steps=args.steps,
            aggregate=not args.no_aggregate,
            partitioner=args.partitioner,
            stencil_rhs=args.stencil_rhs,
            protocol=args.protocol,
        )
        if args.json:
            json.dump(report.to_dict(), out, indent=2)
            out.write("\n")
        else:
            print(report.summary(), file=out)
        return 0 if report.ok else 1

    if args.command == "sweep":
        return _run_sweep(args, out)

    if args.command == "chaos":
        import json

        from repro.analysis.report import format_table
        from repro.faults import ProtocolConfig, chaos_report

        drops = tuple(
            float(r) for r in args.drops.split(",") if r.strip()
        )
        ranking_ps = tuple(
            int(x) for x in args.ranking_p.split(",") if x.strip()
        )
        protocol = (
            ProtocolConfig(timeout=args.timeout)
            if args.timeout is not None
            else None
        )
        doc = chaos_report(
            args.app,
            args.shape,
            args.nprocs,
            drop_rates=drops,
            ranking_ps=ranking_ps,
            seed=args.seed,
            machine=args.machine,
            protocol=protocol,
        )
        if args.json:
            json.dump(doc, out, indent=2)
            out.write("\n")
            return 0

        curve = doc["curve"]
        shape = "x".join(map(str, args.shape))
        rows = [
            [
                f"{pt['drop_rate']:.2f}",
                f"{pt['makespan']:.6g}",
                f"{pt['slowdown']:.3f}" if pt["slowdown"] else "-",
                pt["fault_counts"].get("dropped", 0),
                pt["protocol"].get("retransmits", 0),
                pt["protocol"].get("duplicates_dropped", 0),
            ]
            for pt in curve["points"]
        ]
        print(
            format_table(
                ["drop rate", "makespan(s)", "slowdown", "dropped",
                 "retransmits", "dups dropped"],
                rows,
                title=f"degradation: {args.app} {shape} on "
                f"{args.nprocs} ranks (seed {args.seed})",
            ),
            file=out,
        )
        strag = doc["straggler"]
        print(
            f"straggler shift: ranks {strag['straggler_ranks']} slowed "
            f"{strag['straggler_factor']}x -> slowdown "
            f"{strag['slowdown']:.3f}, critical path "
            f"{'moves through' if strag['path_through_straggler'] else 'avoids'}"
            " the straggler",
            file=out,
        )
        if "ranking" in doc:
            rank_rows = [
                [
                    e["rank"],
                    e["p"],
                    "x".join(map(str, e["gammas"])),
                    f"{e['slowdown']:.3f}",
                    e["retransmits"],
                ]
                for e in doc["ranking"]["ranking"]
            ]
            print(
                format_table(
                    ["rank", "p", "tiling", "slowdown", "retransmits"],
                    rank_rows,
                    title=f"resilience ranking at drop rate "
                    f"{doc['ranking']['drop_rate']}",
                ),
                file=out,
            )
        return 0

    if args.command == "diagnose":
        import numpy as np

        from repro.core.diagnose import diagnose_mapping

        owner = np.load(args.path)
        print(diagnose_mapping(owner, args.nprocs).explain(), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
