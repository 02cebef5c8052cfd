"""How a sweep is lowered: one read-only tag table and one charge per
sweep, per-tile carries when aggregation is off, and Thomas factors built
once per ``(n, coefficients)``."""

import numpy as np
import pytest

from repro.analysis.counting import schedule_comm_totals
from repro.apps import plan_app
from repro.simmpi.machine import origin2000
from repro.simmpi.message import ComputeOp, RecvOp, SendOp
from repro.sweep.blockrec import (
    block_thomas_backward_coeffs,
    block_thomas_factor,
    block_thomas_forward_coeffs,
)
from repro.sweep.compile import neighbor_tile
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import BlockSweepOp, SweepOp, block_thomas_ops
from repro.sweep.recurrence import thomas_factor


def _compiled(app, shape, p, aggregate=True):
    config = plan_app(app, shape, p)
    executor = MultipartExecutor(
        config.partitioning, config.problem.field_shape, origin2000(),
        aggregate=aggregate, payload="skeleton",
    )
    schedule = config.problem.schedule()
    return config, schedule, executor.compile(schedule)


def _sweep_steps(schedule, steps, kind):
    return [
        step for step in steps
        if step.kind is kind
        and isinstance(schedule[step.site[0]], (SweepOp, BlockSweepOp))
    ]


@pytest.mark.parametrize("app", ["sp", "bt"])
def test_tag_table_rows_are_shared_and_read_only(app):
    """A sweep receive's tags are the very row its matched send carries,
    and neither they nor the compute charges can be written."""
    _, schedule, compiled = _compiled(app, (12, 14, 16), 6)
    steps = compiled.lockstep.steps
    recvs = _sweep_steps(schedule, steps, RecvOp)
    assert recvs
    for step in recvs:
        sent = steps[step.match].tag
        assert np.shares_memory(step.tag, sent)
        assert (step.tag == sent).all()
        with pytest.raises(ValueError, match="read-only"):
            step.tag[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            sent[0] = 0
    for step in steps:
        if step.kind is ComputeOp:
            with pytest.raises(ValueError, match="read-only"):
                step.seconds[0] = 0.0


@pytest.mark.parametrize("app, shape, p", [
    ("sp", (12, 14, 16), 6), ("adi", (9, 10, 11), 4), ("bt", (12,) * 3, 9),
])
def test_per_tile_carries(app, shape, p):
    """``aggregate=False``: one message per tile, tagged ``tag * 10**6``
    plus the receiving tile's linear index, and the closed-form totals."""
    config, schedule, compiled = _compiled(app, shape, p, aggregate=False)
    gammas = config.partitioning.gammas
    steps = compiled.lockstep.steps
    for kind in (SendOp, RecvOp):
        for step in _sweep_steps(schedule, steps, kind):
            index, phase, tiles = step.site
            op = schedule[index]
            axis = op.axis % len(gammas)
            tag = (index + 1) * 100_000 + phase + (kind is SendOp)
            for rank, (tile,) in enumerate(tiles()):
                if kind is SendOp:
                    tile = neighbor_tile(tile, axis, -1 if op.reverse else 1)
                linear = np.ravel_multi_index(tile, gammas)
                assert step.tag[rank] == tag * 10**6 + linear
    sends = [step for step in steps if step.kind is SendOp]
    assert (
        len(sends) * config.partitioning.nprocs,
        sum(int(step.nbytes.sum()) for step in sends),
    ) == schedule_comm_totals(
        config.problem.field_shape, config.partitioning, schedule,
        aggregate=False,
    )


class TestThomasMemo:
    def test_thomas_factor_is_built_once_and_read_only(self):
        cprime, denom_inv = thomas_factor(17, -1.0, 4.0, -1.0)
        again = thomas_factor(17, -1, 4, -1)
        assert again[0] is cprime and again[1] is denom_inv
        for arr in (cprime, denom_inv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # the key is the coefficients' bits: -0.0 and 0.0 stay apart
        plus = thomas_factor(3, 1.0, 4.0, 0.0)[0]
        minus = thomas_factor(3, 1.0, 4.0, -0.0)[0]
        assert np.signbit(minus).all() and not np.signbit(plus).any()

    def test_block_thomas_coefficients_are_built_once_and_read_only(self):
        rng = np.random.default_rng(7)
        A, C = rng.normal(size=(2, 3, 3)) * 0.2
        B = np.eye(3) * 4.0
        first = block_thomas_ops(9, 0, A, B, C)
        second = block_thomas_ops(9, 2, A.copy(), B.tolist(), C)
        Cprime = block_thomas_factor(9, A, B, C)
        expect = (
            block_thomas_forward_coeffs(9, A, B, Cprime),
            block_thomas_backward_coeffs(Cprime),
        )
        for op, again, (mult, scale) in zip(first, second, expect):
            assert again.mult is op.mult and again.scale is op.scale
            assert np.array_equal(op.mult, mult)
            assert np.array_equal(op.scale, scale)
            for arr in (op.mult, op.scale):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0, 0] = 0.0
        assert block_thomas_ops(8, 0, A, B, C)[0].mult.shape == (8, 3, 3)
