"""Every public entry point plans and runs the same owner table.

``repro check``, ``run_spec`` (skeleton mode) and ``run_profiled_app``
each turn an ``(app, shape, p, partitioner)`` into a configuration and run
it; the closed form of :func:`schedule_comm_totals` over an independently
planned partitioning is the oracle all three must equal — same tile grid,
same message count, same bytes.
"""

import json

import pytest

from repro.analysis.counting import schedule_comm_totals
from repro.apps.adi import ADIProblem
from repro.apps.bt import BTProblem, bt_plan
from repro.apps.sp import SPProblem
from repro.cli import main
from repro.core.api import plan_multipartitioning
from repro.core.diagonal import diagonal_nd
from repro.core.mapping import Multipartitioning
from repro.obs import run_profiled_app
from repro.runner import ExperimentSpec
from repro.runner.execute import run_spec
from repro.simmpi.machine import origin2000

SHAPE = (8, 8, 8)
PROBLEMS = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}
CASES = [
    (app, p, "optimal") for app in ("sp", "bt", "adi") for p in (2, 4, 6, 9)
] + [(app, p, "diagonal") for app in ("sp", "adi") for p in (4, 9)]


def _oracle(app, p, partitioner):
    """(gammas, (messages, bytes)) from the planner and the closed form."""
    problem = PROBLEMS[app](SHAPE)
    cost_model = origin2000().to_cost_model()
    if partitioner == "diagonal":
        partitioning = Multipartitioning(diagonal_nd(p, len(SHAPE)), p)
    elif app == "bt":
        partitioning = bt_plan(SHAPE, p, cost_model).partitioning
    else:
        partitioning = plan_multipartitioning(
            SHAPE, p, cost_model
        ).partitioning
    totals = schedule_comm_totals(
        problem.field_shape, partitioning, problem.schedule()
    )
    return list(partitioning.gammas), totals


@pytest.mark.parametrize("app,p,partitioner", CASES)
def test_entry_points_run_one_owner_table(app, p, partitioner, capsys):
    gammas, totals = _oracle(app, p, partitioner)

    argv = ["check", "--app", app, "--shape", "8x8x8", "-p", str(p),
            "--partitioner", partitioner, "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    ir = report["config"]["ir"]
    assert report["config"]["gammas"] == gammas
    assert (ir["messages"], ir["bytes"]) == totals

    spec = ExperimentSpec(
        app=app, shape=SHAPE, p=p, mode="skeleton", partitioner=partitioner
    )
    result = run_spec(spec)
    summary = result["summary"]
    assert result["gammas"] == gammas
    assert (summary["message_count"], summary["total_bytes"]) == totals

    if partitioner == "optimal":
        _, run = run_profiled_app(app, SHAPE, p)
        assert (run.message_count, run.total_bytes) == totals
