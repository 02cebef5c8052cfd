"""Machine models for the simulator — the paper's K1/K2/K3 constants made
operational.

The simulator charges time with a LogGP-flavoured point-to-point model:

* ``overhead`` seconds of CPU on each of the sender and receiver per message,
* ``latency`` seconds of wire time per message,
* ``1 / bandwidth`` seconds per transferred byte,
* ``compute_per_point`` seconds of CPU per array element per kernel
  application.

Mapping onto the Section-3.1 objective: one communication phase costs
``K2 ~= 2*overhead + latency`` per message plus ``K3`` per element of
hyper-surface, where ``K3 = itemsize / bandwidth`` *per processor share*;
with fixed per-link bandwidth and all ``p`` processors transferring their
shares concurrently, the aggregate behaves like the paper's scalable network
(``K3(p) ~ 1/p``).  A bus network serializes all transfers instead.

Presets: :func:`origin2000` approximates the paper's testbed (250 MHz
R10000, ~10 us MPI latency, ~300 MB/s link); :func:`ethernet_cluster` and
:func:`bus` are contrast machines for ablations.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .topology import Topology

from repro.core.cost import CostModel, NetworkScaling

__all__ = ["MachineModel", "PRESETS", "origin2000", "ethernet_cluster", "bus"]


@dataclasses.dataclass(frozen=True)
class MachineModel:
    """Timing constants used by the discrete-event engine."""

    name: str = "generic"
    compute_per_point: float = 1.0e-7  # s per element per kernel pass (K1)
    overhead: float = 5.0e-6           # s of CPU per message endpoint
    latency: float = 1.0e-5            # s wire latency per message
    bandwidth: float = 3.0e8           # bytes/s per link
    network: NetworkScaling = NetworkScaling.SCALABLE
    itemsize: int = 8                  # bytes per array element (float64)
    tile_overhead: float = 0.0         # s per tile/block visit per kernel pass
    #: optional network topology: messages pay `per_hop_latency` for every
    #: hop beyond the first (the paper's "topology not taken into account
    #: yet" future work, made concrete)
    topology: "Topology | None" = None
    per_hop_latency: float = 0.0

    def __post_init__(self) -> None:
        if min(
            self.compute_per_point,
            self.overhead,
            self.latency,
            self.tile_overhead,
        ) < 0 or self.per_hop_latency < 0:
            raise ValueError("timing constants must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.itemsize <= 0:
            raise ValueError("itemsize must be positive")

    # -- engine-facing charges ---------------------------------------------

    def send_cpu_time(self, nbytes: int) -> float:
        """CPU time the *sender* spends injecting one message."""
        return self.overhead

    def recv_cpu_time(self, nbytes: int) -> float:
        """CPU time the *receiver* spends draining one message."""
        return self.overhead

    def transfer_time(
        self, nbytes: int, src: int | None = None, dst: int | None = None
    ) -> float:
        """Wire time between injection and availability at the receiver.

        With a topology configured and endpoint ranks supplied, each hop
        beyond the first adds ``per_hop_latency``."""
        latency = self.latency
        if self.topology is not None and src is not None and dst is not None:
            hops = self.topology.hops(src, dst)
            latency += self.per_hop_latency * max(0, hops - 1)
        return latency + nbytes / self.bandwidth

    def compute_time(
        self, npoints: int | float, ops: float = 1.0, tiles: int = 0
    ) -> float:
        """CPU time to apply ``ops`` kernel passes to ``npoints`` elements
        spread over ``tiles`` separately-visited blocks.

        The per-tile term models what made non-compact partitionings slow in
        the paper's measurements: every extra tile visit pays loop startup,
        shift-buffer packing and cache refill, independent of tile size.
        """
        return (
            self.compute_per_point * float(npoints) * ops
            + self.tile_overhead * tiles
        )

    # -- analytic-model bridge ----------------------------------------------

    @property
    def k2(self) -> float:
        """Per-message start-up of the Section-3.1 objective."""
        return 2 * self.overhead + self.latency

    def to_cost_model(self) -> CostModel:
        """The analytic :class:`~repro.core.cost.CostModel` this machine
        induces; ``k3`` is normalized so that ``K3(p) = k3/p`` equals the
        per-processor per-element transfer time on a scalable network."""
        return CostModel(
            k1=self.compute_per_point,
            k2=self.k2,
            k3=self.itemsize / self.bandwidth,
            scaling=self.network,
        )


def origin2000() -> MachineModel:
    """SGI Origin 2000 approximation (the paper's platform): 250 MHz R10000
    doing ~5 flops/point line-sweep kernels, ~10 us MPI latency, ~300 MB/s
    CrayLink-class per-link bandwidth, scalable interconnect."""
    return MachineModel(
        name="origin2000",
        compute_per_point=8.0e-8,
        overhead=4.0e-6,
        latency=1.0e-5,
        bandwidth=3.0e8,
        network=NetworkScaling.SCALABLE,
        tile_overhead=1.2e-4,
    )


def ethernet_cluster() -> MachineModel:
    """Commodity cluster: high latency, modest bandwidth — start-up
    dominated, stresses the phase-count term of the objective."""
    return MachineModel(
        name="ethernet_cluster",
        compute_per_point=5.0e-8,
        overhead=1.0e-5,
        latency=5.0e-5,
        bandwidth=1.0e8,
        network=NetworkScaling.SCALABLE,
    )


def bus() -> MachineModel:
    """Bus machine: identical to :func:`origin2000` except that aggregate
    bandwidth is fixed regardless of p (paper's footnote 1), so the
    communication-volume term does not scale away — the clean ablation of
    network scaling."""
    return MachineModel(
        name="bus",
        compute_per_point=8.0e-8,
        overhead=4.0e-6,
        latency=1.0e-5,
        bandwidth=3.0e8,
        network=NetworkScaling.BUS,
        tile_overhead=1.2e-4,
    )


#: preset name -> factory; the names a sweep spec's ``machine`` field and
#: ``repro chaos --machine`` resolve
PRESETS: dict[str, typing.Callable[[], MachineModel]] = {
    "origin2000": origin2000,
    "ethernet_cluster": ethernet_cluster,
    "bus": bus,
}
