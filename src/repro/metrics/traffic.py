"""Traffic accounting: the one byte ledger every plan interpreter fills.

Holds the quantities the paper plots: cross-rack vs inner-rack volume
(Figures 7 and 10) and per-node / per-rack byte counts for the
load-balance discussion (§2.3, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Cluster
from ..sim import SimResult

__all__ = ["TrafficLedger", "ledger_from_reports"]


def _str_keys(counts: dict[int, int]) -> dict[str, int]:
    return {str(key): value for key, value in counts.items()}


@dataclass
class TrafficLedger:
    """Per-direction, per-node byte counters of one run's sends.

    Every interpreter of a repair plan — the simulator, the byte
    executor, the live runtime, the store's daemons — accounts its
    traffic through :meth:`add_send`, so two runs of one plan moved the
    same bytes over the same links exactly when their ledgers are ``==``.

    Attributes
    ----------
    cross_rack_bytes / intra_rack_bytes:
        Total volume by link class.
    sends:
        Number of sends accounted.
    uploaded_by_node / downloaded_by_node:
        Bytes sent / received per node (all link classes).
    cross_uploaded_by_rack:
        Bytes each rack pushed through the aggregation switch — CAR's
        load-balance objective and the quantity RPR's pipeline spreads.

    All counters are exact ints: byte counts are integral by nature, and
    keeping them integral end-to-end is what lets ledgers be compared
    with ``==``, no tolerance.
    """

    cross_rack_bytes: int = 0
    intra_rack_bytes: int = 0
    sends: int = 0
    uploaded_by_node: dict[int, int] = field(default_factory=dict)
    downloaded_by_node: dict[int, int] = field(default_factory=dict)
    cross_uploaded_by_rack: dict[int, int] = field(default_factory=dict)

    def add_send(self, cluster: Cluster, src: int, dst: int, nbytes: int) -> None:
        """Account one ``nbytes`` send from node ``src`` to node ``dst``."""
        self.sends += 1
        self.uploaded_by_node[src] = self.uploaded_by_node.get(src, 0) + nbytes
        self.downloaded_by_node[dst] = self.downloaded_by_node.get(dst, 0) + nbytes
        if cluster.same_rack(src, dst):
            self.intra_rack_bytes += nbytes
        else:
            self.cross_rack_bytes += nbytes
            rack = cluster.rack_of(src)
            self.cross_uploaded_by_rack[rack] = (
                self.cross_uploaded_by_rack.get(rack, 0) + nbytes
            )

    @classmethod
    def from_sim(cls, result: SimResult, cluster: Cluster) -> "TrafficLedger":
        ledger = cls()
        for event in result.transfers():
            nbytes = int(event.nbytes)
            if nbytes != event.nbytes:
                raise ValueError(
                    f"transfer {event.job_id!r} carries a fractional byte "
                    f"count ({event.nbytes}); byte ledgers are integral"
                )
            ledger.add_send(cluster, event.node, event.peer, nbytes)
        return ledger

    def to_dict(self) -> dict:
        """JSON-shaped dump: string keys, so a dump compares ``==`` to
        another whether or not either has been through ``json``."""
        return {
            "cross_rack_bytes": self.cross_rack_bytes,
            "intra_rack_bytes": self.intra_rack_bytes,
            "sends": self.sends,
            "uploaded_by_node": _str_keys(self.uploaded_by_node),
            "downloaded_by_node": _str_keys(self.downloaded_by_node),
            "cross_uploaded_by_rack": _str_keys(self.cross_uploaded_by_rack),
        }

    def cross_rack_blocks(self, block_size: int) -> float:
        """Cross-rack volume in block units (the paper's Fig. 7/10 axis)."""
        if block_size < 1:
            raise ValueError("block_size must be positive")
        return self.cross_rack_bytes / block_size


def ledger_from_reports(cluster: Cluster, reports) -> TrafficLedger:
    """The ledger of the sends among the part reports of a wall-clock run
    (:class:`repro.live.node.NodeExecutor`: live runtime and store alike)."""
    ledger = TrafficLedger()
    for report in reports:
        if report["kind"] == "send":
            ledger.add_send(
                cluster, int(report["src"]), int(report["dst"]), int(report["nbytes"])
            )
    return ledger
