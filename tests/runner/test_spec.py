"""Tests for experiment specs: canonicalization and cache keys."""

import json

import pytest

from repro.core.cost import CostModel, NetworkScaling
from repro.runner import (
    SCHEMA_TAG,
    ExperimentSpec,
    machine_spec_fields,
    spec_for_cost_model,
)


class TestCanonicalization:
    def test_shape_normalized_to_int_tuple(self):
        spec = ExperimentSpec(shape=[12.0, 12, 12], p=4)
        assert spec.shape == (12, 12, 12)

    def test_params_sorted(self):
        a = ExperimentSpec(
            shape=(8, 8), p=2,
            cost_params=(("k3", 1e-8), ("k1", 1e-7)),
        )
        b = ExperimentSpec(
            shape=(8, 8), p=2,
            cost_params=(("k1", 1e-7), ("k3", 1e-8)),
        )
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_dict_params_accepted(self):
        spec = ExperimentSpec(
            shape=(8, 8), p=2, machine_params={"latency": 1e-5}
        )
        assert spec.machine_params == (("latency", 1e-5),)

    def test_canonical_round_trips_through_json(self):
        spec = ExperimentSpec(
            shape=(12, 12, 12), p=6, mode="simulated", app="adi",
            machine_params=(("latency", 2.5e-6),),
        )
        doc = json.loads(json.dumps(spec.to_canonical()))
        assert ExperimentSpec.from_dict(doc) == spec

    def test_label_mentions_key_fields(self):
        spec = ExperimentSpec(shape=(12, 12, 12), p=6)
        assert "12x12x12" in spec.label()
        assert "p6" in spec.label()


class TestValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentSpec(shape=(8, 8), p=2, mode="telepathic")

    def test_modeled_mode_is_gone(self):
        with pytest.raises(ValueError) as exc:
            ExperimentSpec(shape=(8, 8), p=2, mode="modeled")
        assert "('plan', 'simulated', 'skeleton')" in str(exc.value)

    def test_default_mode_is_skeleton(self):
        assert ExperimentSpec(shape=(8, 8), p=2).mode == "skeleton"

    def test_rejects_bad_app(self):
        with pytest.raises(ValueError):
            ExperimentSpec(shape=(8, 8), p=2, app="lu")

    def test_rejects_unknown_override_key(self):
        with pytest.raises(ValueError):
            ExperimentSpec(shape=(8, 8), p=2, cost_params=(("k9", 1.0),))
        with pytest.raises(ValueError):
            ExperimentSpec(
                shape=(8, 8), p=2, machine_params=(("warp", 1.0),)
            )

    def test_rejects_duplicate_override(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                shape=(8, 8), p=2,
                cost_params=(("k1", 1.0), ("k1", 2.0)),
            )

    def test_rejects_degenerate_shape_and_p(self):
        with pytest.raises(ValueError):
            ExperimentSpec(shape=(8,), p=2)
        with pytest.raises(ValueError):
            ExperimentSpec(shape=(8, 8), p=0)


class TestCacheKey:
    def test_stable_across_equal_specs(self):
        a = ExperimentSpec(shape=(12, 12, 12), p=4)
        b = ExperimentSpec(shape=(12, 12, 12), p=4)
        assert a.cache_key() == b.cache_key()
        assert len(a.cache_key()) == 64  # sha256 hex

    def test_distinct_for_different_specs(self):
        base = ExperimentSpec(shape=(12, 12, 12), p=4)
        variants = [
            ExperimentSpec(shape=(12, 12, 12), p=6),
            ExperimentSpec(shape=(16, 12, 12), p=4),
            ExperimentSpec(shape=(12, 12, 12), p=4, mode="plan"),
            ExperimentSpec(shape=(12, 12, 12), p=4, app="adi"),
            ExperimentSpec(shape=(12, 12, 12), p=4, seed=7),
        ]
        keys = {v.cache_key() for v in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_schema_tag_changes_key(self):
        spec = ExperimentSpec(shape=(12, 12, 12), p=4)
        assert spec.cache_key() == spec.cache_key(SCHEMA_TAG)
        assert spec.cache_key() != spec.cache_key("repro.sweep-result.v4")


class TestHelpers:
    def test_spec_for_cost_model_pins_all_constants(self):
        model = CostModel(k2=1e-4)
        spec = spec_for_cost_model((64, 64, 64), 8, model)
        pinned = dict(spec.cost_params)
        assert set(pinned) == {"k1", "k2", "k3", "scaling"}
        assert pinned["k2"] == 1e-4
        assert pinned["scaling"] == NetworkScaling.SCALABLE.value
        assert spec.machine == "default"
        assert spec.mode == "plan"

    def test_machine_spec_fields_collapses_presets(self):
        from repro.simmpi.machine import ethernet_cluster, origin2000

        assert machine_spec_fields(origin2000()) == ("origin2000", ())
        assert machine_spec_fields(ethernet_cluster()) == (
            "ethernet_cluster", (),
        )

    def test_machine_spec_fields_pins_custom_machines(self):
        import dataclasses

        from repro.simmpi.machine import origin2000

        tweaked = dataclasses.replace(origin2000(), latency=1e-3)
        name, params = machine_spec_fields(tweaked)
        assert name == "generic"
        assert dict(params)["latency"] == 1e-3

    def test_machine_spec_fields_rejects_topology(self):
        import dataclasses

        from repro.simmpi.machine import origin2000
        from repro.simmpi.topology import Ring

        wired = dataclasses.replace(origin2000(), topology=Ring(4))
        with pytest.raises(ValueError):
            machine_spec_fields(wired)
