"""Tests for the Section-4 modular-mapping construction (Figure 3).

The key guarantee — any valid partitioning admits a balanced,
neighbor-respecting mapping — is checked against the brute-force property
oracles across every elementary partitioning of many processor counts, plus
hypothesis-generated valid (non-elementary) partitionings.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elementary import (
    elementary_partitionings,
    is_valid_partitioning,
)
from repro.core.factorization import product
from repro.core.modmap import (
    ModularMapping,
    build_modular_mapping,
    mapping_matrix,
    modulus_vector,
)
from repro.core.properties import (
    has_balance_property,
    has_neighbor_property,
)


class TestModulusVector:
    def test_figure1_case(self):
        assert modulus_vector((4, 4, 4), 16) == (1, 4, 4)

    def test_p8(self):
        assert modulus_vector((4, 4, 2), 8) == (1, 4, 2)
        assert modulus_vector((8, 8, 1), 8) == (1, 8, 1)

    def test_first_component_is_one_product_is_p(self):
        for p in (2, 6, 12, 30, 36):
            for b in elementary_partitionings(p, 3):
                m = modulus_vector(b, p)
                assert m[0] == 1
                assert product(m) == p

    def test_rejects_invalid_partitioning(self):
        with pytest.raises(ValueError):
            modulus_vector((2, 2, 2), 16)


class TestMappingMatrix:
    def test_unit_diagonal_lower_triangular_before_reduction(self):
        M = mapping_matrix((4, 4, 4), 16)
        # after mod-reduction rows keep the triangular support
        assert M.shape == (3, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert M[i, j] == 0

    def test_figure1_value(self):
        M = mapping_matrix((4, 4, 4), 16)
        # row 0 reduced mod 1 -> zero; rows 1, 2 implement skewed diagonals
        assert (M[0] == 0).all()


class TestModularMapping:
    def test_figure1_balance_and_neighbor(self):
        mm = build_modular_mapping((4, 4, 4), 16)
        grid = mm.rank_grid((4, 4, 4))
        assert has_balance_property(grid, 16)
        assert has_neighbor_property(grid)
        # 64 tiles over 16 ranks: 4 each, 1 per slab per rank
        counts = np.bincount(grid.ravel(), minlength=16)
        assert (counts == 4).all()

    def test_call_matches_rank_grid(self):
        b = (6, 10, 15)
        mm = build_modular_mapping(b, 30)
        grid = mm.rank_grid(b)
        for tile in itertools.product(range(6), range(10), range(15)):
            assert mm(tile) == grid[tile]

    def test_rank_vector_roundtrip(self):
        mm = build_modular_mapping((4, 4, 2), 8)
        for rank in range(8):
            vec = mm.vector_of_rank(rank)
            assert mm.rank_of_vector(vec) == rank

    def test_neighbor_shift_is_constant(self):
        """Algebraic neighbor property: owner(t + e_k) is a fixed shift of
        owner(t) in the processor grid."""
        b = (4, 4, 2)
        mm = build_modular_mapping(b, 8)
        grid = mm.rank_grid(b)
        for axis in range(3):
            if b[axis] == 1:
                continue
            shift = mm.neighbor_shift(axis, +1)
            for tile in itertools.product(*(range(x) for x in b)):
                nxt = list(tile)
                nxt[axis] += 1
                if nxt[axis] >= b[axis]:
                    continue
                v = mm.proc_vector(tile)
                expected = tuple(
                    (a + s) % m for a, s, m in zip(v, shift, mm.moduli)
                )
                assert mm.proc_vector(tuple(nxt)) == expected

    def test_bad_inputs(self):
        mm = build_modular_mapping((4, 4), 4)
        with pytest.raises(ValueError):
            mm.proc_vector((1, 2, 3))
        with pytest.raises(ValueError):
            mm.rank_of_vector((0, 99))
        with pytest.raises(ValueError):
            mm.vector_of_rank(4)
        with pytest.raises(ValueError):
            mm.rank_grid((4, 4, 4))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ModularMapping(matrix=np.eye(2, dtype=np.int64), moduli=(2, 0))
        with pytest.raises(ValueError):
            ModularMapping(matrix=np.eye(3, dtype=np.int64), moduli=(2, 2))


class TestConstructionExhaustive:
    """The paper's main theorem, checked by brute force."""

    @pytest.mark.parametrize("p", list(range(1, 37)))
    def test_all_elementary_partitionings_3d(self, p):
        for b in elementary_partitionings(p, 3):
            mm = build_modular_mapping(b, p)
            grid = mm.rank_grid(b)
            assert has_balance_property(grid, p), (p, b)
            assert has_neighbor_property(grid), (p, b)

    @pytest.mark.parametrize("p", [2, 4, 6, 8, 12, 16, 24, 30])
    def test_all_elementary_partitionings_4d(self, p):
        for b in elementary_partitionings(p, 4):
            mm = build_modular_mapping(b, p)
            grid = mm.rank_grid(b)
            assert has_balance_property(grid, p), (p, b)
            assert has_neighbor_property(grid), (p, b)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 24),
        st.lists(st.integers(1, 3), min_size=2, max_size=4),
    )
    def test_valid_non_elementary_partitionings(self, p, mults):
        """The construction must work for ANY valid partitioning, including
        paving multiples of elementary ones."""
        base = next(iter(elementary_partitionings(p, len(mults))))
        b = tuple(g * m for g, m in zip(base, mults))
        if int(np.prod([float(x) for x in b])) > 4000:
            return  # keep the brute-force check fast
        assert is_valid_partitioning(b, p)
        mm = build_modular_mapping(b, p)
        grid = mm.rank_grid(b)
        assert has_balance_property(grid, p)
        assert has_neighbor_property(grid)


class TestTilesOfRankFormula:
    """The paper's 'handy for a run-time library' property: per-rank tile
    lists by formula, no grid materialization."""

    @pytest.mark.parametrize("p", [1, 6, 8, 16, 30])
    def test_matches_grid(self, p):
        for b in elementary_partitionings(p, 3):
            mm = build_modular_mapping(b, p)
            grid = mm.rank_grid(b)
            for rank in range(p):
                via_formula = set(mm.tiles_of_rank(rank, b))
                via_grid = {
                    t
                    for t in itertools.product(*(range(x) for x in b))
                    if grid[t] == rank
                }
                assert via_formula == via_grid

    def test_counts_balanced(self):
        b = (5, 10, 10)
        mm = build_modular_mapping(b, 50)
        for rank in range(50):
            assert len(mm.tiles_of_rank(rank, b)) == 10

    def test_rejects_bad_rank_grid(self):
        mm = build_modular_mapping((4, 4), 4)
        with pytest.raises(ValueError):
            mm.tiles_of_rank(0, (4, 4, 4))

    def test_rejects_non_triangular_matrix(self):
        import numpy as np

        mm = ModularMapping(
            matrix=np.array([[1, 0], [0, 2]], dtype=np.int64),
            moduli=(1, 4),
        )
        with pytest.raises(ValueError):
            mm.tiles_of_rank(0, (4, 4))


class TestSymmetricCoefficients:
    """The paper's coefficient-shrinking post-pass: same mapping, smaller
    entries."""

    @pytest.mark.parametrize(
        "b,p", [((4, 4, 4), 16), ((5, 10, 10), 50), ((6, 10, 15), 30)]
    )
    def test_same_mapping(self, b, p):
        mm = build_modular_mapping(b, p)
        sym = ModularMapping(matrix=mm.symmetric_matrix(), moduli=mm.moduli)
        assert (sym.rank_grid(b) == mm.rank_grid(b)).all()

    def test_entries_are_small(self):
        mm = build_modular_mapping((6, 10, 15), 30)
        sym = mm.symmetric_matrix()
        for i, mi in enumerate(mm.moduli):
            assert (np.abs(sym[i]) <= mi // 2 + (mi % 2)).all()


def reference_rank_grid(mm, b):
    """The full-size broadcast sum and ``%`` per row that
    ``ModularMapping.rank_grid``'s per-axis fold replaced."""
    axes = np.ix_(*(np.arange(n, dtype=np.int64) for n in b))
    ranks = np.zeros(b, dtype=np.int64)
    for row, mi in zip(mm.matrix, mm.moduli):
        if mi == 1:
            continue
        image = sum(int(c) * x for c, x in zip(row, axes) if c)
        ranks = ranks * mi + np.asarray(image) % mi
    return ranks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_rank_grid_equals_full_size_reference(data):
    """Bit-identical (and an int64, C-contiguous, writable array) for the
    construction's matrix, its symmetric form and arbitrary integer
    matrices, including rows touching only some axes."""
    d = data.draw(st.integers(2, 4))
    p = data.draw(st.sampled_from([1, 2, 4, 6, 8, 12, 16, 30]))
    b = list(data.draw(st.sampled_from(list(elementary_partitionings(p, d)))))
    b[data.draw(st.integers(0, d - 1))] *= data.draw(st.integers(1, 3))
    b = tuple(b)
    mm = build_modular_mapping(b, p)
    matrix = data.draw(st.sampled_from([
        mm.matrix, mm.symmetric_matrix(),
        np.array(data.draw(st.lists(
            st.integers(-40, 40), min_size=d * d, max_size=d * d
        ))).reshape(d, d),
    ]))
    mapping = ModularMapping(matrix=matrix, moduli=mm.moduli)
    grid = mapping.rank_grid(b)
    assert grid.dtype == np.int64 and grid.shape == b
    assert grid.flags.c_contiguous and grid.flags.writeable
    assert np.array_equal(grid, reference_rank_grid(mapping, b))


class TestScale:
    """The search and construction must stay fast at realistic scale
    ('up to 1000 for example,' Section 3.3)."""

    @pytest.mark.parametrize("p", [997, 1000, 1024, 960])
    def test_plan_at_p_1000(self, p):
        import time

        from repro.core.api import plan_multipartitioning

        t0 = time.perf_counter()
        plan = plan_multipartitioning((1024, 1024, 1024), p)
        elapsed = time.perf_counter() - t0
        assert plan.nprocs == p
        assert elapsed < 30.0  # generous CI bound; typically < 1 s
