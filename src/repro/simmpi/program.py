"""Side-effect-free extraction of a rank program's primitive-op stream.

A rank program is a generator that yields the primitive ops of
:mod:`repro.simmpi.message`.  The engine *interprets* that stream against
virtual time; :func:`record_ops` instead returns the stream itself — every
send/recv/compute/mark a rank would issue, without running the engine,
advancing clocks, or touching any payload data.  Benchmarks use it to time
rank-program generation apart from the engine.

:func:`record_ops` drives one generator to completion in isolation, feeding
a placeholder value into every blocking receive.  That is only sound for
programs whose *control flow* does not depend on received payloads, such as
the executor's skeleton programs
(:meth:`repro.sweep.multipart.MultipartExecutor.skeleton_rank_program`),
which replay a compiled op list.
"""

from __future__ import annotations

from typing import Any, Generator

from .message import ComputeOp, MarkOp, RecvOp, SendOp

__all__ = ["record_ops"]

#: Primitive op classes a well-formed rank program may yield.
_PRIMITIVE_OPS = (SendOp, RecvOp, ComputeOp, MarkOp)


def record_ops(
    gen: Generator,
    recv_value: Any = None,
    max_ops: int | None = None,
) -> list:
    """Drain one rank generator and return its primitive-op list.

    Every :class:`~repro.simmpi.message.RecvOp` is answered with
    ``recv_value`` (default ``None``) so the program keeps running without
    a matching sender; all other ops receive ``None``, mirroring the
    engine.  ``max_ops`` guards against runaway programs (an op budget,
    not a time budget — extraction involves no clock).

    Raises :class:`TypeError` on a non-primitive op and
    :class:`RuntimeError` when ``max_ops`` is exhausted.
    """
    ops: list = []
    value: Any = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            return ops
        if not isinstance(op, _PRIMITIVE_OPS):
            raise TypeError(f"rank program yielded unsupported op {op!r}")
        ops.append(op)
        if max_ops is not None and len(ops) > max_ops:
            raise RuntimeError(
                f"rank program exceeded the {max_ops}-op extraction budget"
            )
        value = recv_value if isinstance(op, RecvOp) else None
