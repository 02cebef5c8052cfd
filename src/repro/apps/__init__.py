"""Workloads — the ADI integration and the NAS-SP/BT-like proxies — and the
one configuration builder every entry point plans through.

:func:`plan_app` is the only place that chooses the problem class for an
app name and plans its tile-to-rank assignment: the Section-3 optimizer
plus the Section-4 modular mapping (BT through its embedded
``(MULTI, MULTI, MULTI, *)`` plan), or the classical diagonal construction.
``repro check``, the sweep runner and its ``--verify`` pre-flight, the chaos
report, ``repro profile`` and the ``simulate`` / ``bt`` subcommands all plan
through it, so they all judge and run the same owner table.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.api import MultipartitionPlan, plan_multipartitioning
from repro.core.cost import CostModel, Objective
from repro.core.diagonal import diagonal_applicable, diagonal_nd
from repro.core.mapping import Multipartitioning
from repro.core.modmap import ModularMapping

from .adi import ADIProblem
from .bt import BTProblem, bt_class, bt_plan
from .sp import SPProblem, sp_class
from .workloads import (
    CLASS_SHAPES,
    CLASS_STEPS,
    anisotropic_shape,
    problem_shape,
    random_field,
)

__all__ = [
    "ADIProblem",
    "AppConfig",
    "BTProblem",
    "bt_class",
    "bt_plan",
    "plan_app",
    "SPProblem",
    "sp_class",
    "CLASS_SHAPES",
    "CLASS_STEPS",
    "anisotropic_shape",
    "problem_shape",
    "random_field",
]


@dataclasses.dataclass(frozen=True)
class AppConfig:
    """A planned configuration: the problem and its tile-to-rank assignment.

    ``plan`` is the optimizer's plan (``None`` for the diagonal
    partitioner).  ``mapping`` is the modular mapping that generated
    ``partitioning``, or ``None`` when no mapping describes the owner table:
    the diagonal partitioner, and BT, whose 3-D mapping covers only the
    spatial axes of its 4-D field.
    """

    problem: SPProblem | BTProblem | ADIProblem
    partitioning: Multipartitioning
    mapping: ModularMapping | None
    plan: MultipartitionPlan | None


def plan_app(
    app: str,
    shape: Sequence[int],
    p: int,
    steps: int = 1,
    partitioner: str = "optimal",
    cost_model: CostModel | None = None,
    objective: str = "full",
    stencil_rhs: bool = False,
) -> AppConfig:
    """Plan ``app`` on a ``shape`` grid over ``p`` ranks.

    ``stencil_rhs`` selects SP's two-array stencil schedule; BT ignores
    ``objective`` (its plan comes from the distribution directive).  Raises
    ``ValueError`` for an unknown app or partitioner and for a diagonal
    multipartitioning that does not exist.
    """
    shape = tuple(int(s) for s in shape)
    problem: SPProblem | BTProblem | ADIProblem
    if app == "sp":
        problem = SPProblem(shape, steps=steps, stencil_rhs=stencil_rhs)
    elif app == "bt":
        problem = BTProblem(shape, steps=steps)
    elif app == "adi":
        problem = ADIProblem(shape, steps=steps)
    else:
        raise ValueError(f"unknown app {app!r} (expected sp, bt or adi)")

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
        return AppConfig(problem, partitioning, None, None)
    if partitioner != "optimal":
        raise ValueError(f"unknown partitioner {partitioner!r}")

    if app == "bt":
        plan = bt_plan(shape, p, cost_model)
    else:
        plan = plan_multipartitioning(
            shape, p, cost_model, Objective(objective)
        )
    # BT embeds a 3-D plan into its 4-D field; that mapping cannot vouch
    # for the owner table, so the proof pass checks the table itself
    mapping = plan.mapping
    if mapping.dims_in != plan.partitioning.ndim:
        mapping = None
    return AppConfig(problem, plan.partitioning, mapping, plan)
