"""Vectorized 1-D recurrence kernels applied along one axis of an nD block.

The serializing core of every line-sweep method is the *affine scan*::

    forward:   x[k] = mult[k] * x[k-1] + scale[k] * y[k]
    backward:  x[k] = mult[k] * x[k+1] + scale[k] * y[k]

applied independently to every line along ``axis`` (the loop over ``k`` is
sequential; everything orthogonal is vectorized, per the NumPy guidance of
avoiding per-element Python loops).  Tridiagonal (Thomas) solves decompose
into one forward and one backward affine scan, which is exactly why
multipartitioning fits them: each pass needs only a single boundary plane
("carry") flowing between adjacent slabs.

Coefficients ``mult`` / ``scale`` are 1-D arrays in *global* orientation:
``mult[k]`` always multiplies the already-computed neighbour of plane ``k``
(the ``k-1`` plane forward, the ``k+1`` plane backward).  Executors slice
them to each tile's global span, so a distributed scan is bit-identical to
the sequential one.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "affine_scan",
    "thomas_factor",
    "thomas_forward_coeffs",
    "thomas_backward_coeffs",
    "thomas_solve",
    "tridiagonal_matvec",
]


def _coef(coef, n: int, name: str) -> np.ndarray:
    arr = np.asarray(coef, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be scalar or length-{n}, got {arr.shape}")
    return arr


def affine_scan(
    block: np.ndarray,
    axis: int,
    mult,
    scale=1.0,
    reverse: bool = False,
    carry: np.ndarray | None = None,
) -> np.ndarray:
    """In-place affine scan along ``axis`` of ``block``; returns the outgoing
    boundary plane (a copy).

    ``carry`` is the incoming boundary plane (the ``x`` value just *before*
    this block along the sweep direction); ``None`` means zero — correct for
    the first slab of a sweep.
    """
    if not -block.ndim <= axis < block.ndim:
        raise ValueError(f"axis {axis} out of range for ndim {block.ndim}")
    axis %= block.ndim
    n = block.shape[axis]
    mult = _coef(mult, n, "mult")
    scale = _coef(scale, n, "scale")
    work = np.moveaxis(block, axis, 0)  # view: work[k] is plane k
    plane_shape = work.shape[1:]
    if carry is None:
        prev = np.zeros(plane_shape, dtype=block.dtype)
    else:
        carry = np.asarray(carry)
        if carry.shape != plane_shape:
            raise ValueError(
                f"carry shape {carry.shape} != plane shape {plane_shape}"
            )
        prev = carry
    indices = range(n - 1, -1, -1) if reverse else range(n)
    for k in indices:
        plane = work[k, ...]  # `[k, ...]` keeps a writable (0-d ok) view
        np.multiply(plane, scale[k], out=plane)
        plane += mult[k] * prev
        prev = plane
    return np.array(prev, copy=True)


def thomas_factor(
    n: int, a: float, b: float, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """LU-style factorization of the constant-coefficient tridiagonal system
    ``a*x[k-1] + b*x[k] + c*x[k+1] = d[k]`` with ``x[-1] = x[n] = 0``.

    Returns ``(cprime, denom_inv)`` — the scalar sequences of the Thomas
    algorithm.  They depend only on (n, a, b, c), so in a distributed solve
    every rank precomputes them locally: no communication, O(n) work.  They
    are computed once per ``(n, a, b, c)`` (keyed by the coefficients'
    float64 bytes, so ``-0.0`` and ``0.0`` stay apart) and shared
    read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _thomas_factor(n, np.array((a, b, c), dtype=np.float64).tobytes())


@functools.lru_cache(maxsize=128)
def _thomas_factor(
    n: int, coefficients: bytes
) -> tuple[np.ndarray, np.ndarray]:
    a, b, c = np.frombuffer(coefficients).tolist()
    cprime = np.empty(n)
    denom_inv = np.empty(n)
    denom = b
    if denom == 0.0:
        raise ZeroDivisionError("singular tridiagonal system")
    for k in range(n):
        if k > 0:
            denom = b - a * cprime[k - 1]
            if denom == 0.0:
                raise ZeroDivisionError("singular tridiagonal system")
        denom_inv[k] = 1.0 / denom
        cprime[k] = c * denom_inv[k]
    cprime.flags.writeable = denom_inv.flags.writeable = False
    return cprime, denom_inv


def thomas_forward_coeffs(
    a: float, denom_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Affine-scan coefficients of the Thomas forward-elimination pass:
    ``d'[k] = (d[k] - a*d'[k-1]) * denom_inv[k]``."""
    return -a * denom_inv, denom_inv.copy()


def thomas_backward_coeffs(cprime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine-scan coefficients of the back-substitution pass:
    ``x[k] = d'[k] - cprime[k] * x[k+1]``."""
    return -cprime.copy(), np.ones_like(cprime)


def thomas_solve(
    rhs: np.ndarray, axis: int, a: float, b: float, c: float
) -> np.ndarray:
    """Sequential reference Thomas solve along ``axis`` (in place on a copy;
    returns the solution array)."""
    n = rhs.shape[axis]
    cprime, denom_inv = thomas_factor(n, a, b, c)
    x = rhs.astype(np.float64, copy=True)
    fm, fs = thomas_forward_coeffs(a, denom_inv)
    affine_scan(x, axis, mult=fm, scale=fs, reverse=False)
    bm, bs = thomas_backward_coeffs(cprime)
    affine_scan(x, axis, mult=bm, scale=bs, reverse=True)
    return x


def tridiagonal_matvec(
    x: np.ndarray, axis: int, a: float, b: float, c: float
) -> np.ndarray:
    """Apply the tridiagonal operator (for verifying solves):
    ``y[k] = a*x[k-1] + b*x[k] + c*x[k+1]`` with zero boundaries."""
    x = np.asarray(x, dtype=np.float64)
    y = b * x
    n = x.shape[axis]
    if n > 1:
        lo = [slice(None)] * x.ndim
        hi = [slice(None)] * x.ndim
        lo[axis] = slice(0, n - 1)
        hi[axis] = slice(1, n)
        lo, hi = tuple(lo), tuple(hi)
        y[hi] += a * x[lo]
        y[lo] += c * x[hi]
    return y
