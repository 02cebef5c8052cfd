"""Tests for the static communication planner (vectorization/aggregation)."""

import pytest

from repro.core.api import plan_multipartitioning
from repro.core.mapping import Multipartitioning
from repro.core.modmap import build_modular_mapping
from repro.hpf.commsched import plan_sweep_comm


def general_partitioning(b, p) -> Multipartitioning:
    return Multipartitioning(build_modular_mapping(b, p).rank_grid(b), p)


class TestPlanStructure:
    def test_one_message_per_rank_per_phase(self):
        mp = general_partitioning((4, 4, 2), 8)
        plan = plan_sweep_comm(mp, (16, 16, 16), axis=0)
        assert plan.phases == 4
        for phase in range(3):
            msgs = plan.messages_in_phase(phase)
            assert len(msgs) == 8
            assert {m.source for m in msgs} == set(range(8))

    def test_no_messages_on_unpartitioned_axis(self):
        mp = general_partitioning((8, 8, 1), 8)
        plan = plan_sweep_comm(mp, (16, 16, 16), axis=2)
        assert plan.message_count == 0
        assert plan.phases == 1

    def test_aggregation_factor(self):
        """Without aggregation the planner emits one message per tile in
        each slab, i.e. tiles_per_slab_per_rank times more."""
        mp = general_partitioning((6, 6, 2), 6)
        shape = (24, 24, 24)
        agg = plan_sweep_comm(mp, shape, axis=2, aggregate=True)
        raw = plan_sweep_comm(mp, shape, axis=2, aggregate=False)
        factor = mp.tiles_per_slab_per_rank(2)
        assert raw.message_count == agg.message_count * factor
        assert raw.total_elements == agg.total_elements

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unaggregated_messages_keep_their_phase(self, reverse):
        """Per-tile messages fall in the phase of the slab they leave."""
        mp = general_partitioning((6, 6, 3), 6)
        shape = (24, 24, 23)
        agg = plan_sweep_comm(mp, shape, axis=0, reverse=reverse)
        raw = plan_sweep_comm(
            mp, shape, axis=0, reverse=reverse, aggregate=False
        )
        factor = mp.tiles_per_slab_per_rank(0)
        for phase in range(agg.phases):
            raw_msgs = raw.messages_in_phase(phase)
            agg_msgs = agg.messages_in_phase(phase)
            assert len(raw_msgs) == factor * len(agg_msgs)
            assert sum(m.elements for m in raw_msgs) == sum(
                m.elements for m in agg_msgs
            )
        assert not raw.messages_in_phase(agg.phases - 1)

    def test_total_volume_matches_theory(self):
        """Per phase, the whole cut hyper-surface crosses: eta / eta_axis
        elements, (gamma - 1) times."""
        shape = (20, 24, 28)
        plan3 = plan_multipartitioning(shape, 4)
        mp = plan3.partitioning
        for axis in range(3):
            p = plan_sweep_comm(mp, shape, axis=axis)
            gamma = mp.gammas[axis]
            surface = shape[(axis + 1) % 3] * shape[(axis + 2) % 3]
            expected = (gamma - 1) * surface
            assert p.total_elements == expected

    def test_reverse_direction_mirrors(self):
        mp = general_partitioning((4, 4, 2), 8)
        fwd = plan_sweep_comm(mp, (16, 16, 16), axis=0, reverse=False)
        bwd = plan_sweep_comm(mp, (16, 16, 16), axis=0, reverse=True)
        assert fwd.message_count == bwd.message_count
        # backward phase 0 sends what forward's last phase received
        f0 = {(m.source, m.dest) for m in fwd.messages_in_phase(0)}
        b0 = {(m.dest, m.source) for m in bwd.messages_in_phase(0)}
        # both are permutations over all ranks
        assert {s for s, _ in f0} == {s for s, _ in b0}


class TestMatchesSimulation:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_counts_and_bytes(self, axis, machine):
        import numpy as np

        from repro.sweep.multipart import MultipartExecutor
        from repro.sweep.ops import SweepOp

        shape = (12, 12, 12)
        plan = plan_multipartitioning(shape, 6)
        static = plan_sweep_comm(plan.partitioning, shape, axis=axis)
        _, res = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(np.zeros(shape), [SweepOp(axis=axis, mult=0.5)])
        assert res.message_count == static.message_count
        # payload sizes are structural: exactly the planned planes
        assert res.total_bytes == static.total_elements * 8
