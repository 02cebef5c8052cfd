"""Conclusions — non-compact partitionings and processor dropping.

"for the 102^3 problem size, a 5x10x10 decomposition on 50 processors is
slower than a 7x7x7 decomposition on 49 processors"; the paper proposes
searching p' <= p for the fastest configuration.  Regenerates that finding
and the drop-search results for every non-square count in Table 1, each
time the makespan of the compiled skeleton program.
"""

from repro.analysis.report import format_table
from repro.apps.sp import sp_class
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import origin2000
from repro.sweep.multipart import MultipartExecutor, best_processor_count


def test_conclusion_49_vs_50(benchmark, report):
    machine = origin2000()
    prob = sp_class("B", steps=1)
    sched = prob.schedule()
    def regen():
        rows = []
        for p in (49, 50):
            plan = plan_multipartitioning(
                prob.shape, p, machine.to_cost_model()
            )
            t = MultipartExecutor(
                plan.partitioning, prob.shape, machine, payload="skeleton"
            ).run_skeleton(sched).makespan
            rows.append(
                [p, plan.gammas, plan.partitioning.tiles_per_rank, t]
            )
        return rows

    rows = benchmark.pedantic(regen, rounds=1, iterations=1)
    report(
        "Conclusions: 7x7x7 on 49 CPUs vs 5x10x10 on 50 CPUs (SP class B)",
        format_table(["p", "gammas", "tiles/rank", "makespan (s)"], rows),
    )
    assert rows[0][3] < rows[1][3]  # 49 beats 50


def test_drop_search_all_nonsquares(benchmark, report):
    machine = origin2000()
    prob = sp_class("B", steps=1)
    sched = prob.schedule()
    def regen():
        rows = []
        for p in (45, 50, 72):
            p_used, t = best_processor_count(
                prob.shape, p, machine, sched
            )
            rows.append([p, p_used, t])
        return rows

    rows = benchmark.pedantic(regen, rounds=1, iterations=1)
    report(
        "Processor-dropping search (Conclusions): best p' <= p",
        format_table(["p requested", "p used", "makespan (s)"], rows),
    )
    by_req = {r[0]: r[1] for r in rows}
    assert by_req[50] == 49  # the paper's example
    # 72 = 12x12x6 is efficient enough to keep all processors
    assert by_req[72] in (64, 72)


def test_drop_search_speed(benchmark):
    machine = origin2000()
    prob = sp_class("B", steps=1)
    sched = prob.schedule()

    def search():
        return best_processor_count(prob.shape, 50, machine, sched)

    p_used, _ = benchmark(search)
    assert p_used == 49
