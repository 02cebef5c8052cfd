"""The paper-invariant proof pass and its certificates."""

import json

import numpy as np
import pytest

from repro.core.mapping import Multipartitioning
from repro.core.modmap import build_modular_mapping
from repro.core.properties import (
    balance_certificate,
    neighbor_certificate,
    validity_certificate,
)
from repro.verify import check_invariants


class TestValidityCertificate:
    def test_valid_case_archives_divisibility(self):
        cert = validity_certificate((3, 3, 3), 9)
        assert cert["ok"]
        assert all(ax["divides"] for ax in cert["axes"])
        assert cert["axes"][0]["others_product"] == 9

    def test_invalid_axis_named(self):
        cert = validity_certificate((1, 2, 2), 4)
        assert not cert["ok"]
        bad = [ax["axis"] for ax in cert["axes"] if not ax["divides"]]
        assert bad == [1, 2]


class TestBalanceCertificate:
    def test_valid(self):
        grid = build_modular_mapping((2, 2, 2), 4).rank_grid((2, 2, 2))
        cert = balance_certificate(grid, 4)
        assert cert["ok"]
        assert all(ax["tiles_per_rank_per_slab"] == 1 for ax in cert["axes"])
        assert "witness" not in cert

    def test_violation_witness_localizes_slab(self):
        # column-block partition: axis-1 slabs are single-owner
        grid = np.repeat(np.arange(2)[None, :], 4, axis=0)
        cert = balance_certificate(grid, 2)
        assert not cert["ok"]
        w = cert["witness"]
        assert w["axis"] == 1
        assert w["count"] != w["expected"]

    def test_non_divisible_slab_reason(self):
        grid = np.zeros((3, 3), dtype=np.int64)
        cert = balance_certificate(grid, 2)
        assert not cert["ok"]
        assert cert["witness"]["reason"] == "slab size not divisible by nprocs"


class TestNeighborCertificate:
    def test_success_archives_successor_tables(self):
        grid = build_modular_mapping((2, 2, 2), 4).rank_grid((2, 2, 2))
        cert = neighbor_certificate(grid)
        assert cert["ok"]
        assert set(cert["successors"]) == {
            "axis0+", "axis0-", "axis1+", "axis1-", "axis2+", "axis2-",
        }
        for succ in cert["successors"].values():
            assert len(succ) == 4

    def test_failure_witness_sorted_owners(self):
        grid = np.array(
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
            dtype=np.int64,
        )
        cert = neighbor_certificate(grid)
        assert not cert["ok"]
        w = cert["witness"]
        assert len(w["neighbor_owners"]) > 1
        assert w["neighbor_owners"] == sorted(w["neighbor_owners"])

    @pytest.mark.parametrize(
        "rows,witness",
        [
            (
                [[3, 1, 0, 4, 2], [4, 2, 1, 0, 3], [0, 3, 2, 1, 4],
                 [1, 4, 3, 2, 0], [2, 0, 4, 3, 1]],
                {"rank": 0, "axis": 1, "step": 1, "neighbor_owners": [3, 4]},
            ),
            (
                [[3, 2, 0, 1], [2, 3, 1, 0], [1, 0, 3, 2], [0, 1, 2, 3]],
                {"rank": 0, "axis": 0, "step": 1, "neighbor_owners": [1, 2]},
            ),
        ],
    )
    def test_failure_witness_is_smallest_rank_of_first_direction(
        self, rows, witness
    ):
        cert = neighbor_certificate(np.array(rows, dtype=np.int64))
        assert cert == {
            "property": "neighbor",
            "ok": False,
            "periodic": False,
            "witness": witness,
        }


class TestMappingCertificate:
    @pytest.mark.parametrize("b,p", [((2, 2, 2), 4), ((3, 3, 3), 9),
                                     ((1, 6, 6), 6), ((5, 5), 5)])
    def test_construction_certifies(self, b, p):
        cert = build_modular_mapping(b, p).certificate(b)
        assert cert["ok"]
        assert cert["schema"] == "repro.mapping-certificate.v1"
        assert cert["validity"]["ok"] and cert["balance"]["ok"]
        assert cert["neighbor"]["ok"] and cert["equally_many_to_one"]
        json.dumps(cert)  # JSON-ready throughout


class TestCheckInvariants:
    def test_clean_multipartitioning(self):
        mapping = build_modular_mapping((2, 2, 2), 4)
        mp = Multipartitioning(mapping.rank_grid((2, 2, 2)), 4)
        result, cert = check_invariants(mp, mapping=mapping)
        assert result.ok
        assert cert["ok"] and cert["mapping_consistent"]
        assert result.stats["mapping_checked"]

    def test_bare_array_with_explicit_p(self):
        grid = np.repeat(np.arange(2)[None, :], 4, axis=0)
        result, cert = check_invariants(grid, p=2)
        assert not result.ok
        assert "balance" in [v.kind for v in result.violations]
        assert not cert["ok"]

    def test_tile_swap_breaks_balance_with_witness(self):
        grid = build_modular_mapping((2, 2, 2), 4).rank_grid((2, 2, 2))
        grid = grid.copy()
        a = (0, 0, 0)
        b = next(
            idx for idx in np.ndindex(*grid.shape) if grid[idx] != grid[a]
        )
        grid[a], grid[b] = grid[b], grid[a]
        result, _ = check_invariants(grid, p=4)
        assert "balance" in [v.kind for v in result.violations]
        w = next(
            v for v in result.violations if v.kind == "balance"
        ).witness
        assert {"axis", "slab", "rank", "count", "expected"} <= set(w)

    def test_mapping_inconsistency_detected(self):
        mapping = build_modular_mapping((2, 2, 2), 4)
        grid = np.roll(mapping.rank_grid((2, 2, 2)), 1, axis=2)
        # the rolled table is still a valid multipartitioning ...
        mp = Multipartitioning(grid, 4)
        # ... but not the one this mapping generates
        result, cert = check_invariants(mp, mapping=mapping)
        assert [v.kind for v in result.violations] == ["mapping-consistency"]
        assert cert["mapping_consistent"] is False
        w = result.violations[0].witness
        assert w["mapping_rank"] != w["owner_rank"]
        assert w["mismatches"] > 0

    def test_validity_violation(self):
        # every rank owns one column: balanced along axis 0 only
        result, _ = check_invariants(
            np.repeat(np.arange(2)[None, :], 2, axis=0), p=2
        )
        kinds = [v.kind for v in result.violations]
        assert "balance" in kinds
