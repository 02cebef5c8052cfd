"""Tests for the block executors' local-op dispatch and input
normalization."""

import numpy as np
import pytest

from repro.sweep.ops import (
    BinaryPointwiseOp,
    CopyOp,
    PointwiseOp,
    SweepOp,
    apply_local_op,
    as_named,
    unwrap_named,
)


def run_local(op, slabs):
    apply_local_op(op, lambda n: slabs[n])


class TestAsNamed:
    def test_single_array(self):
        arr = np.zeros((3, 3))
        single, named = as_named(arr)
        assert single and named == {"u": arr}
        assert unwrap_named(single, {"u": arr}) is arr

    def test_dict_passthrough(self):
        d = {"a": np.zeros((2, 2)), "b": np.ones((2, 2))}
        single, named = as_named(d)
        assert not single and named is d
        assert unwrap_named(single, d) is d

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            as_named({"a": np.zeros((2, 2)), "b": np.zeros((3, 2))})


class TestLocalSlabOp:
    def test_pointwise(self):
        slabs = {"u": np.full((2, 2), 2.0)}
        run_local(PointwiseOp(fn=lambda b: b + 1), slabs)
        assert (slabs["u"] == 3.0).all()

    def test_binary(self):
        slabs = {"u": np.full((2, 2), 2.0), "v": np.full((2, 2), 5.0)}
        run_local(
            BinaryPointwiseOp(fn=lambda t, s: t * s, target="u", source="v"),
            slabs,
        )
        assert (slabs["u"] == 10.0).all()
        assert (slabs["v"] == 5.0).all()

    def test_copy(self):
        slabs = {"u": np.ones((2, 2)), "v": np.zeros((2, 2))}
        run_local(CopyOp(src="u", dst="v"), slabs)
        assert (slabs["v"] == 1.0).all()

    def test_shape_change_rejected(self):
        slabs = {"u": np.ones((3, 3))}
        with pytest.raises(ValueError):
            run_local(PointwiseOp(fn=lambda b: b[:1]), slabs)

    def test_sweep_rejected(self):
        slabs = {"u": np.ones((3, 3))}
        with pytest.raises(TypeError):
            run_local(SweepOp(axis=0), slabs)
