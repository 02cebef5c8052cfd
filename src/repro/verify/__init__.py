"""Static communication verifier for rank programs (engine-free).

Public surface:

* :func:`verify_config` — plan + prove + analyze one ``(app, shape, p)``
  configuration, producing a ``repro.verify-report.v1`` document;
* :func:`verify_planned` — prove + analyze a configuration already planned
  by :func:`repro.apps.plan_app` (the runner's ``verify=True`` pre-flight);
* :func:`verify_ir` — the communication analyses over an already-extracted
  :class:`ProgramIR`;
* :func:`extract_program_ir` — lower an executor's compiled per-rank op
  lists to the side-effect-free IR;
* :func:`check_invariants` — the paper-invariant proof pass on a concrete
  tile-to-rank assignment;
* the report vocabulary (:class:`VerifyReport`, :class:`AnalysisResult`,
  :class:`Violation`) and the IR ops.

The determinism lint lives in :mod:`repro.verify.lint` and is runnable as
``python -m repro.verify.lint src/``.
"""

from .abstract import AbstractRun, execute_abstract
from .checker import verify_config, verify_ir, verify_planned
from .deadlock import check_deadlock
from .invariants import check_invariants
from .ir import (
    IRCompute,
    IRMark,
    IRRecv,
    IRSend,
    ProgramIR,
    extract_program_ir,
)
from .matching import check_matching
from .protocol import check_protocol
from .races import check_races, vector_clocks
from .report import SCHEMA, AnalysisResult, VerifyReport, Violation

__all__ = [
    "SCHEMA",
    "AbstractRun",
    "AnalysisResult",
    "IRCompute",
    "IRMark",
    "IRRecv",
    "IRSend",
    "ProgramIR",
    "VerifyReport",
    "Violation",
    "check_deadlock",
    "check_invariants",
    "check_matching",
    "check_protocol",
    "check_races",
    "execute_abstract",
    "extract_program_ir",
    "vector_clocks",
    "verify_config",
    "verify_ir",
    "verify_planned",
]
