"""Tests for stencil statements through the dHPF-lite compiler: shadow
validation, static halo planning, and execution."""

import numpy as np
import pytest

from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.hpf.commsched import plan_stencil_comm
from repro.hpf.directives import Distribute, DistFormat, Processors, Template
from repro.hpf.program import HpfProgram, StencilStmt, SweepStmt, compile_program
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import StencilOp, star_laplacian
from repro.sweep.sequential import run_sequential


def lap_fn():
    return star_laplacian(3).fn


def make_program(shape=(12, 12, 12), p=6, shadow=((1, 1), (1, 1), (1, 1))):
    return HpfProgram(
        distribute=Distribute(
            Template("t", shape),
            (DistFormat.MULTI,) * 3,
            Processors("procs", p),
        ),
        statements=(
            StencilStmt(fn=lap_fn(), reach=((1, 1),) * 3, name="rhs"),
            SweepStmt(axis=0, mult=0.5),
        ),
        shadow=shadow,
    )


class TestShadowValidation:
    def test_covering_shadow_accepted(self):
        compiled = compile_program(make_program())
        assert len(compiled.comm_plans) == 2  # stencil halo + sweep

    def test_insufficient_shadow_rejected(self):
        with pytest.raises(ValueError, match="shadow widths"):
            compile_program(make_program(shadow=((0, 0), (1, 1), (1, 1))))

    def test_no_shadow_directive_skips_check(self):
        compiled = compile_program(make_program(shadow=None))
        assert any(
            isinstance(op, StencilOp) for op in compiled.schedule
        )


class TestStaticHaloPlan:
    def test_message_counts(self, machine):
        """One aggregated message per (rank, cut axis, nonzero side), and
        the simulated run must produce exactly that many messages."""
        shape = (12, 12, 12)
        plan = plan_multipartitioning(shape, 6)
        reach = ((1, 1), (0, 0), (2, 0))
        static = plan_stencil_comm(plan.partitioning, shape, reach)
        cut_axes_sides = sum(
            (1 if lo else 0) + (1 if hi else 0)
            for axis, (lo, hi) in enumerate(reach)
            if plan.gammas[axis] > 1
        )
        assert static.message_count == 6 * cut_axes_sides

        op = StencilOp(
            fn=lambda p_: p_[
                tuple(
                    slice(lo, p_.shape[a] - hi)
                    for a, (lo, hi) in enumerate(reach)
                )
            ].copy(),
            reach=reach,
            name="copy",
        )
        field = random_field(shape)
        _, res = MultipartExecutor(
            plan.partitioning, shape, machine
        ).run(field, [op])
        assert res.message_count == static.message_count

    def test_uncut_axis_is_free(self):
        shape = (12, 12, 12)
        plan = plan_multipartitioning(shape, 4)  # 2x2x2
        only_axis0 = plan_stencil_comm(
            plan.partitioning, shape, ((1, 1), (0, 0), (0, 0))
        )
        all_axes = plan_stencil_comm(
            plan.partitioning, shape, ((1, 1), (1, 1), (1, 1))
        )
        assert only_axis0.message_count == all_axes.message_count // 3

    def test_reach_length_check(self):
        plan = plan_multipartitioning((8, 8), 2)
        with pytest.raises(ValueError):
            plan_stencil_comm(plan.partitioning, (8, 8), ((1, 1),))


class TestCompiledExecution:
    def test_matches_sequential(self, machine):
        prog = make_program()
        compiled = compile_program(prog)
        field = random_field((12, 12, 12))
        ref = run_sequential(field, list(compiled.schedule))
        out, res = compiled.run(field, machine)
        assert np.allclose(out, ref, atol=1e-12)
        assert res.message_count == compiled.planned_messages
