"""Modular mappings and the Figure-3 construction (Section 4).

A *modular mapping* sends a tile coordinate vector ``i`` (in the tile grid
``I_b = {0 <= i < b}``) to the processor-grid vector ``(M @ i) mod m``, where
``M`` is an integer ``d x d`` matrix and ``m`` a positive modulus vector with
``prod(m) == p``.  Because the mapping is linear, the **neighbor** property is
automatic: tiles adjacent along axis ``k`` map to processor vectors differing
by the constant ``M[:, k] mod m``.  The hard part — what the paper proves
constructively — is choosing ``M`` and ``m`` so the **balance**
(load-balancing) property holds: restricted to any axis-aligned slice of the
tile grid, the mapping is equally-many-to-one onto the processor grid.

The construction (for any *valid* partitioning ``b``, i.e. ``p`` divides
``prod_{j != i} b_j`` for all ``i``):

* modulus vector::

      m_i = gcd(p, prod_{j >= i} b_j) / gcd(p, prod_{j >= i+1} b_j)

  (telescoping gives ``prod(m) == p`` and validity gives ``m_1 == 1``);

* matrix ``M`` built by the Figure-3 kernel: start from ones on the diagonal
  and in the first column, then for each row ``i`` (top to bottom) eliminate
  against previous rows with multipliers ``t = r / gcd(r, b_j)`` driven by a
  gcd recurrence — a symbolic Hermite-form computation.

Everything this module constructs is independently checkable with
:mod:`repro.core.properties`; the test-suite brute-forces the balance and
neighbor properties across hundreds of valid partitionings.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .elementary import is_valid_partitioning
from .factorization import product

__all__ = [
    "modulus_vector",
    "mapping_matrix",
    "ModularMapping",
    "build_modular_mapping",
]


def modulus_vector(b: Sequence[int], p: int) -> tuple[int, ...]:
    """The paper's modulus vector ``m`` for tile-grid shape ``b`` (§4).

    Requires ``b`` to be a valid partitioning for ``p``; then ``m_1 == 1``
    and ``prod(m) == p``.
    """
    b = tuple(int(x) for x in b)
    if not is_valid_partitioning(b, p):
        raise ValueError(f"{b} is not a valid partitioning for p={p}")
    d = len(b)
    suffix = [1] * (d + 1)  # suffix[i] = prod_{j >= i} b_j  (0-based)
    for i in range(d - 1, -1, -1):
        suffix[i] = b[i] * suffix[i + 1]
    m = tuple(
        math.gcd(p, suffix[i]) // math.gcd(p, suffix[i + 1]) for i in range(d)
    )
    assert product(m) == p, "telescoping product must equal p"
    assert m[0] == 1, "validity forces m_1 == 1"
    return m


def mapping_matrix(b: Sequence[int], p: int) -> np.ndarray:
    """Figure-3 ``ModularMapping`` kernel: the integer matrix ``M``.

    Faithful translation of the paper's C program (1-based there, 0-based
    here), followed by the paper's coefficient reduction of row ``i`` modulo
    ``m_i`` (legal because component ``i`` of the image is taken mod ``m_i``).
    """
    b = tuple(int(x) for x in b)
    m = modulus_vector(b, p)
    d = len(b)
    M = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        M[i, 0] = 1
        M[i, i] = 1
    for i in range(1, d):
        r = m[i]
        for j in range(i - 1, 0, -1):
            t = r // math.gcd(r, b[j])
            M[i, :i] -= t * M[j, :i]
            r = math.gcd(t * m[j], r)
    # Reduce each row modulo its modulus (m_i == 1 rows collapse to zero).
    for i in range(d):
        M[i, :] %= m[i]
    return M


@dataclasses.dataclass(frozen=True)
class ModularMapping:
    """A concrete modular mapping ``i -> (M @ i) mod m`` with helpers.

    ``matrix`` is ``d x d`` int64, ``moduli`` has ``prod == nprocs``.
    Processor vectors are linearized row-major (mixed radix over ``moduli``)
    into ranks ``0 .. nprocs-1``.
    """

    matrix: np.ndarray
    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        M = np.asarray(self.matrix, dtype=np.int64)
        if M.ndim != 2 or M.shape[0] != len(self.moduli):
            raise ValueError("matrix rows must match moduli length")
        if any(mi < 1 for mi in self.moduli):
            raise ValueError("moduli must be positive")
        object.__setattr__(self, "matrix", M)

    @property
    def nprocs(self) -> int:
        return product(self.moduli)

    @property
    def dims_in(self) -> int:
        return self.matrix.shape[1]

    def proc_vector(self, tile: Sequence[int]) -> tuple[int, ...]:
        """Image of one tile coordinate: ``(M @ tile) mod m``."""
        tile = np.asarray(tile, dtype=np.int64)
        if tile.shape != (self.dims_in,):
            raise ValueError(
                f"tile coordinate must have {self.dims_in} components"
            )
        image = self.matrix @ tile
        return tuple(int(v % mi) for v, mi in zip(image, self.moduli))

    def rank_of_vector(self, vec: Sequence[int]) -> int:
        """Row-major linearization of a processor-grid vector."""
        rank = 0
        for v, mi in zip(vec, self.moduli):
            if not 0 <= v < mi:
                raise ValueError(f"vector {tuple(vec)} out of grid {self.moduli}")
            rank = rank * mi + v
        return rank

    def vector_of_rank(self, rank: int) -> tuple[int, ...]:
        """Inverse of :meth:`rank_of_vector`."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        out: list[int] = []
        for mi in reversed(self.moduli):
            out.append(rank % mi)
            rank //= mi
        return tuple(reversed(out))

    def __call__(self, tile: Sequence[int]) -> int:
        """Tile coordinate -> linear processor rank."""
        return self.rank_of_vector(self.proc_vector(tile))

    def rank_grid(self, b: Sequence[int]) -> np.ndarray:
        """Vectorized owner table: int array of shape ``b`` holding the rank
        of every tile.  This is the ``theta`` table used by the runtime."""
        b = tuple(int(x) for x in b)
        if len(b) != self.dims_in:
            raise ValueError("grid rank must match mapping input dimension")
        # one open (broadcastable) coordinate vector per axis instead of the
        # d x ntiles index array: digit i folds in the residues x_j M[i, j]
        # mod m_i axis by axis, kept below m_i by a conditional subtraction
        axes = np.ix_(*(np.arange(n, dtype=np.int64) for n in b))
        point = (1,) * len(b)
        ranks = np.zeros(point, dtype=np.int64)
        for row, mi in zip(self.matrix.tolist(), self.moduli):
            if mi == 1:
                continue  # contributes digit 0 with weight 1
            digit = np.zeros(point, dtype=np.int64)
            for c, x in zip(row, axes):
                if c % mi:
                    digit = digit + x * (c % mi) % mi
                    np.subtract(digit, mi, out=digit, where=digit >= mi)
            ranks = ranks * mi + digit
        return ranks if ranks.shape == b else np.broadcast_to(ranks, b).copy()

    def tiles_of_rank(
        self, rank: int, b: Sequence[int]
    ) -> "list[tuple[int, ...]]":
        """The tiles assigned to ``rank`` by *formula*, without
        materializing the owner grid — the paper's "handy for use in a
        run-time library" property (Section 4).

        Exploits the construction's unit lower-triangular matrix: solving
        ``M x ≡ v (mod m)`` row by row makes ``x_i`` determined modulo
        ``m_i`` once ``x_0 .. x_{i-1}`` are chosen, so enumeration touches
        only this rank's tiles (O(tiles/rank), not O(total tiles)).
        """
        b = tuple(int(x) for x in b)
        d = self.dims_in
        if len(b) != d:
            raise ValueError("grid rank must match mapping input dimension")
        M = self.matrix
        for i in range(d):
            mi = self.moduli[i]
            if mi == 1:
                continue  # trivial congruence: x_i is free
            if M[i, i] % mi != 1 or any(
                M[i, j] % mi != 0 for j in range(i + 1, d)
            ):
                raise ValueError(
                    "formula enumeration needs the construction's unit "
                    "lower-triangular matrix"
                )
        target = self.vector_of_rank(rank)
        out: list[tuple[int, ...]] = []

        def rec(i: int, partial: list[int]) -> None:
            if i == d:
                out.append(tuple(partial))
                return
            residue = (
                target[i]
                - sum(int(M[i, j]) * partial[j] for j in range(i))
            ) % self.moduli[i]
            for x in range(residue, b[i], self.moduli[i]):
                partial.append(x)
                rec(i + 1, partial)
                partial.pop()

        rec(0, [])
        return out

    def symmetric_matrix(self) -> np.ndarray:
        """The matrix with each row reduced to symmetric residues
        ``[-m_i/2, m_i/2)`` — the paper's "strategies ... to make
        coefficients smaller" (Section 4).  Defines the identical mapping
        (entries only change by multiples of the row modulus)."""
        M = self.matrix.copy()
        for i, mi in enumerate(self.moduli):
            if mi == 1:
                M[i, :] = 0
                continue
            row = M[i, :] % mi
            row[row > mi // 2] -= mi
            M[i, :] = row
        return M

    def certificate(self, b: Sequence[int]) -> dict:
        """Machine-checkable proof record that this mapping multipartitions
        the tile grid ``b``: the §3 validity condition, the §4 balance and
        neighbor theorems checked on the concrete owner table, plus the
        mapping data itself (matrix, moduli) so the certificate is
        self-contained.  Consumed by :mod:`repro.verify` and emitted inside
        the ``repro.verify-report.v1`` document."""
        from . import properties

        cert = properties.mapping_certificate(self.rank_grid(b), self.nprocs)
        cert["matrix"] = [[int(v) for v in row] for row in self.matrix]
        cert["moduli"] = list(self.moduli)
        cert["ok"] = cert["equally_many_to_one"] and all(
            cert[key]["ok"] for key in ("validity", "balance", "neighbor")
        )
        return cert

    def neighbor_shift(self, axis: int, step: int = 1) -> tuple[int, ...]:
        """Constant processor-grid displacement between a tile's owner and
        the owner of its neighbor ``step`` tiles along ``axis`` — the
        algebraic expression of the neighbor property."""
        col = self.matrix[:, axis] * step
        return tuple(int(c % mi) for c, mi in zip(col, self.moduli))


def build_modular_mapping(b: Sequence[int], p: int) -> ModularMapping:
    """Construct the paper's balanced modular mapping for a valid
    partitioning ``b`` on ``p`` processors (Figures 3 + the §4 ``m`` formula).
    """
    m = modulus_vector(b, p)
    M = mapping_matrix(b, p)
    return ModularMapping(matrix=M, moduli=m)
