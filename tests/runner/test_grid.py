"""Grid expansion and loading tests."""

import json

import pytest

from repro.runner import expand_grid, load_grid, parse_ints, parse_shapes

DOC = {
    "mode": "simulated",
    "apps": ["sp", "adi"],
    "shapes": [[12, 12, 12]],
    "nprocs": [1, 2, 4],
    "steps": 2,
}


class TestExpandGrid:
    def test_cartesian_product_size_and_order(self):
        specs = expand_grid(DOC)
        assert len(specs) == 6
        assert [(s.app, s.p) for s in specs] == [
            ("sp", 1), ("sp", 2), ("sp", 4),
            ("adi", 1), ("adi", 2), ("adi", 4),
        ]
        assert all(s.mode == "simulated" and s.steps == 2 for s in specs)

    def test_defaults_fill_in(self):
        specs = expand_grid({"shapes": [[8, 8]], "nprocs": [2]})
        (spec,) = specs
        assert spec.app == "sp"
        assert spec.machine == "origin2000"
        assert spec.mode == "skeleton"
        assert spec.objective == "full"
        assert spec.seed == 2002

    def test_deterministic(self):
        assert expand_grid(DOC) == expand_grid(DOC)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown grid keys"):
            expand_grid({**DOC, "colour": "blue"})

    def test_rejects_missing_axes(self):
        with pytest.raises(ValueError):
            expand_grid({"nprocs": [2]})
        with pytest.raises(ValueError):
            expand_grid({"shapes": [[8, 8]]})

    def test_rejects_scalar_axis(self):
        with pytest.raises(ValueError):
            expand_grid({"shapes": [[8, 8]], "nprocs": 2})


class TestLoadGrid:
    def test_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(DOC))
        assert expand_grid(load_grid(path)) == expand_grid(DOC)

    def test_toml(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'mode = "simulated"\n'
            'apps = ["sp", "adi"]\n'
            "shapes = [[12, 12, 12]]\n"
            "nprocs = [1, 2, 4]\n"
            "steps = 2\n"
        )
        assert expand_grid(load_grid(path)) == expand_grid(DOC)

    def test_rejects_other_suffixes(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("mode: simulated")
        with pytest.raises(ValueError):
            load_grid(path)


class TestFlagParsers:
    def test_parse_shapes(self):
        assert parse_shapes("12x12x12,16x16") == [(12, 12, 12), (16, 16)]

    def test_parse_ints(self):
        assert parse_ints("1,2, 4") == [1, 2, 4]

    def test_reject_empty(self):
        with pytest.raises(ValueError):
            parse_shapes(",")
        with pytest.raises(ValueError):
            parse_ints("")
