"""Experiment specifications — the canonical unit of work for the batch
runner.

An :class:`ExperimentSpec` pins *everything* a worker needs to reproduce one
experiment: the array shape, processor count, evaluation mode, application
schedule, machine model and any cost-model overrides.  Specs canonicalize to
a sorted JSON document, and the SHA-256 of that document (salted with the
result :data:`SCHEMA_TAG`) is the content address of the result in the
on-disk cache — two specs describing the same experiment always collide on
the same key, and bumping the schema tag cleanly orphans every stale entry.

Evaluation modes:

* ``plan``      — run only the Section-3 optimizer (gammas, cost);
* ``simulated`` — real-data run through :class:`MultipartExecutor` on the
  discrete-event simulator, verified against the sequential solver;
* ``skeleton``  — the same simulated run payload-free (the default):
  identical message counts, bytes, and makespan (pinned by equivalence
  tests) but no array data, so class B and C run at full scale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Sequence

__all__ = [
    "SCHEMA_TAG",
    "FAULT_FIELDS",
    "ExperimentSpec",
    "spec_for_cost_model",
    "machine_spec_fields",
]

#: version tag of the *result* schema; baked into every cache key so that a
#: format change invalidates all previously cached entries at once
#: (v2: structural message byte accounting, comm/blocked summary fields,
#: per-op tile overhead in the sequential baseline, skeleton mode;
#: v3: fault-injection axis — always-present summary fault counters,
#: optional protocol counters, fault plan echoed in the result)
SCHEMA_TAG = "repro.sweep-result.v3"

MODES = ("plan", "simulated", "skeleton")
APPS = ("sp", "bt", "adi")
#: machine names: the presets of repro.simmpi.machine.PRESETS, "generic"
#: (MachineModel defaults) and "default", which means the plain analytic
#: CostModel() and is only meaningful in plan mode
MACHINES = ("origin2000", "ethernet_cluster", "bus", "generic", "default")
PARTITIONERS = ("optimal", "diagonal")
OBJECTIVES = ("full", "phases", "volume")

#: overridable CostModel fields (cost_params)
COST_FIELDS = ("k1", "k2", "k3", "scaling")
#: overridable MachineModel fields (machine_params)
MACHINE_FIELDS = (
    "compute_per_point",
    "overhead",
    "latency",
    "bandwidth",
    "itemsize",
    "tile_overhead",
    "network",
)

#: fault-plan fields plus reliable-protocol knobs (the ``faults`` params;
#: see repro.faults.plan.FaultPlan / repro.faults.protocol.ProtocolConfig).
#: ``seed`` defaults to the spec's seed; ``protocol`` (0/1) defaults to on
#: exactly when the plan drops or duplicates messages.
FAULT_FIELDS = (
    "seed",
    "drop_rate",
    "dup_rate",
    "jitter",
    "slow_link_rate",
    "slow_link_factor",
    "straggler_rate",
    "straggler_factor",
    "pause_rate",
    "pause_start",
    "pause_duration",
    "protocol",
    "protocol_timeout",
    "max_retries",
    "backoff",
)


def _canon_params(params, allowed: tuple[str, ...], label: str):
    """Normalize an override mapping/sequence to a sorted tuple of pairs."""
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(tuple(pair) for pair in params)
    out = []
    for key, value in items:
        key = str(key)
        if key not in allowed:
            raise ValueError(
                f"unknown {label} override {key!r} (allowed: {allowed})"
            )
        if not isinstance(value, (int, float, str)):
            raise ValueError(
                f"{label} override {key!r} must be a number or string"
            )
        out.append((key, value))
    out.sort()
    if len({k for k, _ in out}) != len(out):
        raise ValueError(f"duplicate {label} override")
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One fully-determined experiment configuration."""

    shape: tuple[int, ...]
    p: int
    mode: str = "skeleton"
    app: str = "sp"
    machine: str = "origin2000"
    partitioner: str = "optimal"
    objective: str = "full"
    steps: int = 1
    seed: int = 2002
    machine_params: tuple[tuple[str, float], ...] = ()
    cost_params: tuple[tuple[str, float], ...] = ()
    #: fault-plan / protocol overrides (empty = no fault injection); only
    #: meaningful for the simulated and skeleton modes
    faults: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shape", tuple(int(s) for s in self.shape)
        )
        object.__setattr__(
            self,
            "machine_params",
            _canon_params(self.machine_params, MACHINE_FIELDS, "machine"),
        )
        object.__setattr__(
            self,
            "cost_params",
            _canon_params(self.cost_params, COST_FIELDS, "cost-model"),
        )
        object.__setattr__(
            self,
            "faults",
            _canon_params(self.faults, FAULT_FIELDS, "fault"),
        )
        if self.faults and self.mode not in ("simulated", "skeleton"):
            raise ValueError(
                "fault injection needs a message timeline: faults are only "
                "valid in simulated or skeleton mode, "
                f"not {self.mode!r}"
            )
        if len(self.shape) < 2 or any(s < 1 for s in self.shape):
            raise ValueError(f"invalid array shape {self.shape}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for field, value, allowed in (
            ("mode", self.mode, MODES),
            ("app", self.app, APPS),
            ("machine", self.machine, MACHINES),
            ("partitioner", self.partitioner, PARTITIONERS),
            ("objective", self.objective, OBJECTIVES),
        ):
            if value not in allowed:
                raise ValueError(
                    f"{field} must be one of {allowed}, got {value!r}"
                )

    # -- canonical form -----------------------------------------------------

    def to_canonical(self) -> dict:
        """Plain-JSON encoding with a stable field set and ordering."""
        return {
            "app": self.app,
            "cost_params": [list(pair) for pair in self.cost_params],
            "faults": [list(pair) for pair in self.faults],
            "machine": self.machine,
            "machine_params": [list(pair) for pair in self.machine_params],
            "mode": self.mode,
            "objective": self.objective,
            "p": self.p,
            "partitioner": self.partitioner,
            "seed": self.seed,
            "shape": list(self.shape),
            "steps": self.steps,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        doc = dict(doc)
        return cls(
            shape=tuple(doc.pop("shape")),
            p=int(doc.pop("p")),
            **{k: doc[k] for k in doc},
        )

    def cache_key(self, schema_tag: str = SCHEMA_TAG) -> str:
        """Content address: SHA-256 over the schema tag + canonical JSON."""
        material = json.dumps(
            {"schema": schema_tag, "spec": self.to_canonical()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for tables and logs."""
        shape = "x".join(map(str, self.shape))
        return f"{self.app}:{shape}@p{self.p}:{self.machine}:{self.mode}"


def spec_for_cost_model(
    shape: Sequence[int],
    p: int,
    model,
    objective: str = "full",
    mode: str = "plan",
    app: str = "sp",
    steps: int = 1,
) -> ExperimentSpec:
    """Build a spec that pins an explicit analytic CostModel.

    All four cost constants are recorded (not just the non-default ones)
    so the canonical form — and hence the cache key — never depends on
    what the library's defaults happen to be.
    """
    return ExperimentSpec(
        shape=tuple(shape),
        p=p,
        mode=mode,
        app=app,
        machine="default",
        objective=objective,
        steps=steps,
        cost_params=(
            ("k1", model.k1),
            ("k2", model.k2),
            ("k3", model.k3),
            ("scaling", model.scaling.value),
        ),
    )


def machine_spec_fields(machine) -> tuple[str, tuple[tuple[str, float], ...]]:
    """Encode a :class:`~repro.simmpi.machine.MachineModel` as spec fields.

    Preset instances (``origin2000()`` etc.) collapse to their bare name; any
    other model is pinned field-by-field on top of the "generic" base.
    Topology-carrying machines are rejected — a topology object has no
    canonical JSON form.
    """
    from repro.simmpi.machine import PRESETS

    if machine.topology is not None or machine.per_hop_latency:
        raise ValueError(
            "machines with a topology cannot be encoded in a sweep spec"
        )
    factory = PRESETS.get(machine.name)
    if factory is not None and machine == factory():
        return machine.name, ()
    return "generic", (
        ("bandwidth", machine.bandwidth),
        ("compute_per_point", machine.compute_per_point),
        ("itemsize", machine.itemsize),
        ("latency", machine.latency),
        ("network", machine.network.value),
        ("overhead", machine.overhead),
        ("tile_overhead", machine.tile_overhead),
    )
