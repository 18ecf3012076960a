"""Link bandwidth models.

The simulator asks one question: *at what rate can node A stream to node
B?*  Two implementations cover the paper's two testbeds:

* :class:`HierarchicalBandwidth` — uniform intra-rack vs cross-rack rates,
  the Simics + wondershaper setup (1 Gb/s inside a rack, 0.1 Gb/s across,
  §5.1).
* :class:`MatrixBandwidth` — per-rack-pair rates, used to drive the EC2
  evaluation with the measured Table 1 region bandwidths (§5.2).

Rates are bytes/second.  Helpers convert from the paper's Gb/s / Mbps
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .topology import Cluster

__all__ = [
    "gbps",
    "mbps",
    "BandwidthModel",
    "HierarchicalBandwidth",
    "MatrixBandwidth",
    "SIMICS_BANDWIDTH",
]


def gbps(x: float) -> float:
    """Gigabits/second → bytes/second."""
    return x * 1e9 / 8


def mbps(x: float) -> float:
    """Megabits/second → bytes/second."""
    return x * 1e6 / 8


class BandwidthModel:
    """Interface: stream rate (and latency) between two cluster nodes."""

    def rate(self, cluster: Cluster, src: int, dst: int) -> float:
        """Bytes/second for a single stream from ``src`` to ``dst``."""
        raise NotImplementedError

    def latency(self, cluster: Cluster, src: int, dst: int) -> float:
        """Per-transfer setup/propagation delay in seconds.

        Zero by default (the paper's timestep model has none); the
        geo-distributed extension sets cross-region delays, which matter
        once blocks shrink enough that transfer time stops dominating.
        """
        return 0.0


@dataclass(frozen=True)
class HierarchicalBandwidth(BandwidthModel):
    """Uniform two-level model: one intra-rack rate, one cross-rack rate.

    Attributes
    ----------
    intra:
        Bytes/second between nodes under the same TOR switch.
    cross:
        Bytes/second between nodes in different racks (through the
        aggregation switch).
    intra_latency / cross_latency:
        Optional per-transfer setup delays in seconds (default 0, the
        paper's pure-throughput model).
    """

    intra: float
    cross: float
    intra_latency: float = 0.0
    cross_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.intra <= 0 or self.cross <= 0:
            raise ValueError("bandwidths must be positive")
        if self.cross > self.intra:
            raise ValueError(
                "cross-rack bandwidth exceeding intra-rack bandwidth is "
                "outside the model's assumptions"
            )
        if self.intra_latency < 0 or self.cross_latency < 0:
            raise ValueError("latencies must be non-negative")

    def rate(self, cluster: Cluster, src: int, dst: int) -> float:
        if src == dst:
            raise ValueError(f"no self-transfer: node {src}")
        return self.intra if cluster.same_rack(src, dst) else self.cross

    def latency(self, cluster: Cluster, src: int, dst: int) -> float:
        if src == dst:
            raise ValueError(f"no self-transfer: node {src}")
        return (
            self.intra_latency
            if cluster.same_rack(src, dst)
            else self.cross_latency
        )


@dataclass(frozen=True)
class MatrixBandwidth(BandwidthModel):
    """Per-rack-pair bandwidth (the EC2 geo-distributed model).

    Attributes
    ----------
    pair_rate:
        Mapping from unordered rack pair (as a frozenset-friendly sorted
        tuple ``(min, max)``) to bytes/second.  Diagonal entries
        ``(r, r)`` give the intra-rack rate of rack ``r``.
    pair_latency:
        Optional mapping with the same keys giving per-transfer delays in
        seconds; absent pairs default to zero.
    """

    pair_rate: Mapping[tuple[int, int], float]
    pair_latency: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        for pair, value in self.pair_rate.items():
            if value <= 0:
                raise ValueError(f"bandwidth for {pair} must be positive")
            if pair != (min(pair), max(pair)):
                raise ValueError(f"pair {pair} must be stored as (min, max)")
        if self.pair_latency is not None:
            for pair, value in self.pair_latency.items():
                if value < 0:
                    raise ValueError(f"latency for {pair} must be non-negative")
                if pair != (min(pair), max(pair)):
                    raise ValueError(f"pair {pair} must be stored as (min, max)")

    def _key(self, cluster: Cluster, src: int, dst: int) -> tuple[int, int]:
        if src == dst:
            raise ValueError(f"no self-transfer: node {src}")
        a, b = cluster.rack_of(src), cluster.rack_of(dst)
        return (min(a, b), max(a, b))

    def rate(self, cluster: Cluster, src: int, dst: int) -> float:
        key = self._key(cluster, src, dst)
        try:
            return self.pair_rate[key]
        except KeyError:
            raise KeyError(f"no bandwidth entry for rack pair {key}") from None

    def latency(self, cluster: Cluster, src: int, dst: int) -> float:
        key = self._key(cluster, src, dst)
        if self.pair_latency is None:
            return 0.0
        return self.pair_latency.get(key, 0.0)

#: The Simics testbed model (§5.1): node NICs at 1 Gb/s are treated as the
#: intra-rack rate; wondershaper caps cross-rack pairs at 0.1 Gb/s.
SIMICS_BANDWIDTH = HierarchicalBandwidth(intra=gbps(1.0), cross=gbps(0.1))
