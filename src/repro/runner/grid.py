"""Grid expansion: from a sweep description to an ordered spec list.

A grid document (JSON or TOML file, or flags assembled by the CLI) names a
few axes and the cartesian product becomes the experiment list::

    {
      "mode": "simulated",
      "apps": ["sp", "adi"],
      "shapes": [[12, 12, 12]],
      "nprocs": [1, 2, 4, 6, 9, 12],
      "machines": ["origin2000"],
      "steps": 1
    }

Expansion order is fixed (app, shape, machine, objective, partitioner,
faults, p — innermost last) so the same document always yields the same
spec sequence,
which in turn keeps ``repro sweep`` output deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path

from .spec import ExperimentSpec

__all__ = ["expand_grid", "load_grid", "parse_shapes", "parse_ints"]

_LIST_KEYS = {
    "apps": "sp",
    "shapes": None,
    "nprocs": None,
    "machines": "origin2000",
    "objectives": "full",
    "partitioners": "optimal",
    # fault-plan/protocol override dicts ({} = no injection); see
    # repro.runner.spec.FAULT_FIELDS for the accepted keys
    "faults": None,
}
_SCALAR_KEYS = {"mode": "skeleton", "steps": 1, "seed": 2002}


def _fault_axis(doc: dict) -> list:
    """The ``faults`` axis: a list of override dicts, default one no-fault
    entry so grids without the key expand exactly as before."""
    value = doc.get("faults")
    if value is None:
        return [{}]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("grid key 'faults' must be a non-empty list")
    for entry in value:
        if not isinstance(entry, dict):
            raise ValueError(
                "each 'faults' entry must be a mapping of fault fields"
            )
    return list(value)


def expand_grid(doc: dict) -> list[ExperimentSpec]:
    """Cartesian-product a grid document into a deterministic spec list."""
    unknown = set(doc) - set(_LIST_KEYS) - set(_SCALAR_KEYS)
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    if not doc.get("shapes"):
        raise ValueError("grid must list at least one shape")
    if not doc.get("nprocs"):
        raise ValueError("grid must list at least one processor count")

    def axis(key: str) -> list:
        value = doc.get(key)
        if value is None:
            value = [_LIST_KEYS[key]]
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"grid key {key!r} must be a non-empty list")
        return list(value)

    mode = doc.get("mode", _SCALAR_KEYS["mode"])
    steps = int(doc.get("steps", _SCALAR_KEYS["steps"]))
    seed = int(doc.get("seed", _SCALAR_KEYS["seed"]))
    specs = []
    for app in axis("apps"):
        for shape in axis("shapes"):
            for machine in axis("machines"):
                for objective in axis("objectives"):
                    for partitioner in axis("partitioners"):
                        for fault in _fault_axis(doc):
                            for p in axis("nprocs"):
                                specs.append(
                                    ExperimentSpec(
                                        shape=tuple(
                                            int(s) for s in shape
                                        ),
                                        p=int(p),
                                        mode=mode,
                                        app=app,
                                        machine=machine,
                                        partitioner=partitioner,
                                        objective=objective,
                                        steps=steps,
                                        seed=seed,
                                        faults=fault,
                                    )
                                )
    return specs


def load_grid(path: str | Path) -> dict:
    """Read a grid document from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    if path.suffix == ".toml":
        import tomllib

        with path.open("rb") as handle:
            return tomllib.load(handle)
    if path.suffix == ".json":
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    raise ValueError(
        f"grid file must be .json or .toml, got {path.suffix!r}"
    )


def parse_shapes(text: str) -> list[tuple[int, ...]]:
    """Parse ``"12x12x12,16x16x16"`` into shape tuples."""
    shapes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        shapes.append(tuple(int(s) for s in chunk.split("x")))
    if not shapes:
        raise ValueError("no shapes given")
    return shapes


def parse_ints(text: str) -> list[int]:
    """Parse ``"1,2,4"`` into ints."""
    values = [int(c) for c in text.split(",") if c.strip()]
    if not values:
        raise ValueError("no values given")
    return values
