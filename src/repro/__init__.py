"""Generalized multipartitioning for multi-dimensional arrays.

Reproduction of Darte, Chavarría-Miranda, Fowler & Mellor-Crummey,
"Generalized Multipartitioning for Multi-dimensional Arrays" (IPDPS 2002).

Subpackages
-----------
core
    The paper's contribution: optimal-partitioning search (Section 3) and
    the constructive balanced modular tile-to-processor mapping (Section 4).
simmpi
    Deterministic discrete-event message-passing simulator (the machine
    substrate replacing the paper's SGI Origin 2000 + MPI).
sweep
    Line-sweep execution engines: multipartitioned, wavefront (static block)
    and transpose (dynamic block) strategies; multipartitioned runs are
    timed from the compiled program, with or without payload data.
hpf
    dHPF-lite: templates, distribution directives, shadow regions and the
    communication vectorization/aggregation planner (Section 5).
apps
    Workloads: ADI integration and the NAS-SP-like proxy benchmark.
analysis
    Speedup tables, enumeration-count studies and ASCII report rendering.
"""

__version__ = "1.0.0"

from .core import (  # noqa: F401
    CostModel,
    Multipartitioning,
    MultipartitionPlan,
    Objective,
    best_processor_count,
    optimal_partitioning,
    plan_multipartitioning,
)

__all__ = [
    "CostModel",
    "Multipartitioning",
    "MultipartitionPlan",
    "Objective",
    "best_processor_count",
    "optimal_partitioning",
    "plan_multipartitioning",
    "__version__",
]
