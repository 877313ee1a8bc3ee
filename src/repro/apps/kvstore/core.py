"""The KeyDB pricing core shared by the epoch and event-driven drivers.

An op's service time (§4.1) is the Redis CPU cost, plus a walk of the
shared structures (hash buckets, robjs) at the latency of a node mix,
plus the value access on the key's own page, plus any FLASH I/O.  The
latencies are *loaded*: each driver feeds the bytes its ops touched back
through the platform's bandwidth allocator and prices the next ops at
the re-solved utilizations.  The drivers keep their own policies (fault
handling, admission, tiering, queueing) around this one cost path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from ...hw.paths import MemoryPath
from ...hw.topology import Platform
from ...sim.stats import Counter, LatencyHistogram
from ...units import gb_per_s
from .store import AccessPlan, KeyValueStore

__all__ = ["MIGRATION_BANDWIDTH", "KeyDbCore", "KeyDbResult", "LatencyTables", "touched_bytes"]

#: Effective single-threaded kernel page-copy bandwidth for migrations.
MIGRATION_BANDWIDTH = gb_per_s(6.0)


@dataclass
class KeyDbResult:
    """Outcome of one KeyDB run."""

    ops: int = 0
    elapsed_ns: float = 0.0
    read_latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=50.0)
    )
    write_latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=50.0)
    )
    counters: Counter = field(default_factory=Counter)

    @property
    def throughput_ops_per_s(self) -> float:
        """Aggregate operations per second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / (self.elapsed_ns / 1e9)

    def tail_latencies_us(self) -> Dict[str, float]:
        """p50/p95/p99/p99.9 read latencies in microseconds (Fig. 5(b))."""
        return {
            f"p{p}": self.read_latency.percentile(p) / 1000.0
            for p in (50, 95, 99, 99.9)
        }


def touched_bytes(plan: AccessPlan) -> int:
    """Memory traffic of one op: its value plus a line per access."""
    return plan.value_bytes + 64 * (plan.struct_accesses + plan.value_accesses)


class LatencyTables(NamedTuple):
    """Loaded latencies ops are priced at, indexed by ``plan.is_write``.

    Latencies change only when utilization or placement changes, so a
    driver builds the tables once per refresh instead of recomputing the
    placement mix for every op.
    """

    #: Per-node latency: ``(read, write)``.
    node: Tuple[Dict[int, float], Dict[int, float]]
    #: Structure-walk latency at the placement mix: ``(read, write)``.
    struct: Tuple[float, float]


class KeyDbCore:
    """Prices KeyDB operations against one socket's memory paths."""

    def __init__(self, platform: Platform, store: KeyValueStore, socket: int = 0) -> None:
        self.platform = platform
        self.store = store
        self.socket = socket
        #: Per-resource utilization from the last allocation round.
        self.utilization: Dict[str, float] = {}
        self._paths: Dict[int, MemoryPath] = {}

    def _path(self, node_id: int) -> MemoryPath:
        path = self._paths.get(node_id)
        if path is None:
            path = self._paths[node_id] = self.platform.path(self.socket, node_id)
        return path

    def tables(
        self,
        mix: Mapping[int, float],
        multiplier: Optional[Callable[[int], float]] = None,
    ) -> LatencyTables:
        """Latency tables at the current utilizations.

        ``mix`` weights the structure walk across nodes; ``multiplier``
        scales a node's latencies (fault degradation) before the walk
        is averaged.
        """
        read: Dict[int, float] = {}
        write: Dict[int, float] = {}
        for n in self.platform.nodes:
            path = self._path(n)
            u = path.bottleneck_utilization(self.utilization)
            read[n] = path.loaded_latency_ns(u, 0.0)
            write[n] = path.loaded_latency_ns(u, 1.0)
            mult = 1.0 if multiplier is None else multiplier(n)
            if mult != 1.0:
                read[n] *= mult
                write[n] *= mult
        struct_read = sum(frac * read[n] for n, frac in mix.items())
        struct_write = sum(frac * write[n] for n, frac in mix.items())
        return LatencyTables((read, write), (struct_read, struct_write))

    def components(
        self, plan: AccessPlan, tables: LatencyTables
    ) -> Tuple[float, float, float]:
        """One op's ``(cpu, struct walk, value access)`` times."""
        w = plan.is_write
        return (
            self.store.profile.cpu_ns,
            plan.struct_accesses * tables.struct[w],
            plan.value_accesses * tables.node[w][plan.value_page.node_id],
        )

    def price(
        self, plan: AccessPlan, tables: LatencyTables, ssd_utilization: float = 0.0
    ) -> float:
        """Service time of one op: its components plus FLASH I/O."""
        cpu, struct, value = self.components(plan, tables)
        time_ns = cpu + struct + value
        flash = self.store.flash
        if flash is not None:
            if plan.ssd_read_bytes:
                time_ns += flash.read_time_ns(plan.ssd_read_bytes, ssd_utilization)
            if plan.ssd_write_bytes:
                time_ns += flash.write_time_ns(plan.ssd_write_bytes, ssd_utilization)
        return time_ns

    def refresh(
        self,
        read_bytes: Mapping[int, float],
        write_bytes: Mapping[int, float],
        window_ns: float,
    ) -> bool:
        """Re-solve utilizations from a window's per-node traffic.

        Runs one :meth:`Platform.allocate` round; returns False, leaving
        the utilizations as they were, for an empty window.
        """
        if window_ns <= 0:
            return False
        demands = []
        for node in read_bytes.keys() | write_bytes.keys():
            reads = read_bytes.get(node, 0.0)
            writes = write_bytes.get(node, 0.0)
            total = reads + writes
            if total <= 0:
                continue
            rate = total / (window_ns / 1e9)
            demands.append(
                self.platform.demand(
                    f"keydb/{node}", self._path(node), rate, writes / total
                )
            )
        if demands:
            self.utilization = self.platform.allocate(demands).utilization
        else:
            self.utilization = {}
        return True
