"""Static communication verifier for rank programs (engine-free).

Public surface:

* :func:`verify_config` — plan + prove + analyze one ``(app, shape, p)``
  configuration, producing a ``repro.verify-report.v1`` document;
* :func:`verify_planned` — prove + analyze a configuration already planned
  by :func:`repro.apps.plan_app` (the runner's ``verify=True`` pre-flight);
* :func:`verify_ir` — the communication analyses over a
  :class:`ProgramIR`;
* :func:`extract_program_ir` — an executor's compiled lockstep program
  as a :class:`ProgramIR`, the same ops the engine replays;
* :func:`check_invariants` — the paper-invariant proof pass on a concrete
  tile-to-rank assignment;
* the report vocabulary (:class:`VerifyReport`, :class:`AnalysisResult`,
  :class:`Violation`).

The determinism lint lives in :mod:`repro.verify.lint` and is runnable as
``python -m repro.verify.lint src/``.
"""

from .abstract import AbstractRun, execute_abstract
from .checker import verify_config, verify_ir, verify_planned
from .deadlock import check_deadlock
from .invariants import check_invariants
from .ir import ProgramIR, extract_program_ir
from .matching import check_matching
from .protocol import check_protocol
from .races import check_races, vector_clocks
from .report import SCHEMA, AnalysisResult, VerifyReport, Violation

__all__ = [
    "SCHEMA",
    "AbstractRun",
    "AnalysisResult",
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
