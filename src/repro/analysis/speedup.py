"""Speedup computation and the Table-1 reproduction machinery.

``sp_speedup_table`` regenerates the paper's Table 1: NAS SP (class B)
speedups for the hand-coded MPI version (3-D *diagonal* multipartitioning,
perfect-square processor counts only) versus dHPF-generated code
(*generalized* multipartitioning, any processor count).  Times are the
makespans of the compiled programs on the Origin-2000 machine preset,
simulated payload-free at full class-B scale; speedups are relative to the
sequential schedule time, as in the paper (footnote 2).

The table is produced by fanning :class:`ExperimentSpec` configs through
the :mod:`repro.runner` batch machinery — pass ``runner=`` a
:class:`BatchRunner` with a cache to make repeated regenerations (CLI,
benches, notebooks) replay from disk.

``PAPER_TABLE1_*`` embeds the published numbers so benches/tests can compare
shapes (who wins, monotonicity, the 49-vs-50 inversion) — absolute
magnitudes are not expected to match a 2002 Origin 2000.
"""

from __future__ import annotations

import dataclasses

from repro.core.diagonal import diagonal_applicable
from repro.runner import BatchRunner, ExperimentSpec, machine_spec_fields
from repro.simmpi.machine import MachineModel, origin2000

__all__ = [
    "PAPER_CPU_COUNTS",
    "PAPER_TABLE1_HAND",
    "PAPER_TABLE1_DHPF",
    "SpeedupRow",
    "sp_speedup_table",
]

#: processor counts measured in Table 1
PAPER_CPU_COUNTS = (
    1, 2, 4, 6, 8, 9, 12, 16, 18, 20, 24, 25,
    32, 36, 45, 49, 50, 64, 72, 81,
)

#: published hand-coded speedups (perfect squares only)
PAPER_TABLE1_HAND = {
    1: 0.95, 4: 2.96, 9: 7.95, 16: 16.64, 25: 27.44,
    36: 38.46, 49: 48.37, 64: 76.74, 81: 81.40,
}

#: published dHPF speedups (all measured processor counts)
PAPER_TABLE1_DHPF = {
    1: 0.91, 2: 1.43, 4: 2.93, 6: 5.06, 8: 7.57, 9: 8.04, 12: 11.80,
    16: 16.25, 18: 18.54, 20: 19.03, 24: 22.25, 25: 24.32, 32: 32.22,
    36: 38.83, 45: 39.78, 49: 51.49, 50: 47.35, 64: 59.84, 72: 66.96,
    81: 70.63,
}


@dataclasses.dataclass(frozen=True)
class SpeedupRow:
    """One Table-1 row: simulated speedups at one processor count."""

    p: int
    gammas: tuple[int, ...]
    dhpf_time: float
    dhpf_speedup: float
    hand_time: float | None     # None when p is not a perfect square
    hand_speedup: float | None
    pct_diff: float | None      # (hand - dhpf) / hand * 100, as in Table 1

    @property
    def efficiency(self) -> float:
        return self.dhpf_speedup / self.p


def sp_speedup_table(
    shape: tuple[int, int, int],
    steps: int = 1,
    cpu_counts=PAPER_CPU_COUNTS,
    machine: MachineModel | None = None,
    dhpf_compute_overhead: float = 1.03,
    runner: BatchRunner | None = None,
) -> list[SpeedupRow]:
    """Table 1 from simulated makespans.

    ``dhpf_compute_overhead`` inflates compiler-generated compute slightly
    (generated loop nests vs hand-tuned Fortran); the hand-coded column uses
    the raw model.  The hand-coded version exists only on perfect squares
    (it is restricted to diagonal multipartitionings).  All configurations
    run through ``runner`` (a fresh cacheless :class:`BatchRunner` by
    default) as payload-free SP skeleton specs, tractable at class B.
    """
    machine = machine or origin2000()
    machine_name, machine_params = machine_spec_fields(machine)
    runner = runner or BatchRunner()

    def spec(p: int, partitioner: str) -> ExperimentSpec:
        return ExperimentSpec(
            shape=shape,
            p=p,
            mode="skeleton",
            app="sp",
            machine=machine_name,
            machine_params=machine_params,
            partitioner=partitioner,
            steps=steps,
        )

    diag_counts = [p for p in cpu_counts if diagonal_applicable(p, 3)]
    specs = [spec(p, "optimal") for p in cpu_counts] + [
        spec(p, "diagonal") for p in diag_counts
    ]
    results = runner.run(specs)
    for result in results:
        if "error" in result:
            raise RuntimeError(f"speedup sweep failed: {result['error']}")
    dhpf = dict(zip(cpu_counts, results))
    hand = dict(zip(diag_counts, results[len(list(cpu_counts)):]))

    rows: list[SpeedupRow] = []
    for p in cpu_counts:
        res = dhpf[p]
        t_seq = res["sequential_time"]
        t_dhpf = res["summary"]["makespan"] * dhpf_compute_overhead
        hand_time = hand_speedup = pct = None
        if p in hand:
            hand_time = hand[p]["summary"]["makespan"]
            hand_speedup = t_seq / hand_time
            pct = (hand_speedup - t_seq / t_dhpf) / hand_speedup * 100.0
        rows.append(
            SpeedupRow(
                p=p,
                gammas=tuple(res["gammas"]),
                dhpf_time=t_dhpf,
                dhpf_speedup=t_seq / t_dhpf,
                hand_time=hand_time,
                hand_speedup=hand_speedup,
                pct_diff=pct,
            )
        )
    return rows
