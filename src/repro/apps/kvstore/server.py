"""The epoch KeyDB driver: multi-threaded closed-loop operation pricing.

KeyDB runs several *server threads* over the standard Redis event loop
(seven in the paper, §4.1.1).  This driver produces Fig. 5, Fig. 8 and
the fault-catalog runs, and is the only KeyDB driver that runs a tiering
daemon.  The simulation advances in epochs:

1. draw a batch of YCSB operations and resolve each to an
   :class:`~repro.apps.kvstore.store.AccessPlan` (touching pages so the
   tiering daemons see real access history);
2. price every plan with the shared
   :class:`~repro.apps.kvstore.core.KeyDbCore` at the *current* loaded
   latencies — structure walks at the epoch's access mix, value
   accesses at the key's own page, SSD faults/persistence at the FLASH
   tier;
3. advance the clock by ``sum(op times) / threads`` (threads drain the
   closed-loop client in parallel);
4. feed the epoch's traffic back through the platform's bandwidth
   allocator to refresh per-node utilizations for the next epoch, and
   let the tiering daemon run — migration bytes stall the server for
   ``bytes / migration_bandwidth``.

This fixed-point-over-epochs scheme converges in one or two epochs for
these workloads because capacity-bound KV traffic sits far below the
bandwidth knee (which is precisely the paper's point in §4.1.2: "our
workload [is] primarily constrained by memory capacity rather than
memory bandwidth").
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from ...errors import (
    ConfigurationError,
    DeviceFaultError,
    MigrationError,
    PoisonedReadError,
    RetryExhaustedError,
)
from ...faults.injector import FaultInjector
from ...faults.metrics import RecoveryTracker
from ...faults.retry import RetryPolicy, retry_call
from ...hw.topology import Platform
from ...mem.page import Page
from ...mem.tiering.base import TieringDaemon
from ...overload.policy import OverloadController
from ...sim.stats import Counter
from ...workloads.ycsb import YcsbGenerator
from .core import MIGRATION_BANDWIDTH, KeyDbCore, KeyDbResult, touched_bytes
from .store import AccessPlan, KeyValueStore

__all__ = ["KeyDbServer"]


class KeyDbServer:
    """Prices YCSB operations against the platform's memory paths."""

    def __init__(
        self,
        platform: Platform,
        store: KeyValueStore,
        threads: int = 7,
        socket: int = 0,
        tiering: Optional[TieringDaemon] = None,
    ) -> None:
        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        self.platform = platform
        self.store = store
        self.threads = threads
        self.socket = socket
        self.tiering = tiering
        self.core = KeyDbCore(platform, store, socket)
        #: Access-weighted node mix of the previous epoch.  Shared server
        #: structures (hash buckets, robjs) are touched in proportion to
        #: key popularity, so after Hot-Promote converges the structure
        #: walk runs almost entirely out of DRAM even though half the
        #: *bytes* still sit on CXL — this is why Hot-Promote tracks the
        #: MMEM configuration in Fig. 5(a).
        self._access_mix: Dict[int, float] = {}
        self.now_ns = 0.0
        self.faults: Optional[FaultInjector] = None
        self.retry_policy = RetryPolicy()
        self.recovery: Optional[RecoveryTracker] = None
        self.overload: Optional[OverloadController] = None
        self._op_seq = 0

    def attach_faults(
        self,
        injector: FaultInjector,
        retry_policy: Optional[RetryPolicy] = None,
        tracker: Optional[RecoveryTracker] = None,
    ) -> None:
        """Enable RAS behaviour: fault gating, failover, retry budget.

        The degradation policy is the one a production KeyDB deployment
        with a replica would use: a poisoned value page is remapped to
        healthy DRAM and rewritten (scrubbing the poison); a page on a
        failed device is remapped and refilled the same way; either
        path retries under ``retry_policy``'s backoff budget and the
        operation is *shed* once the budget is exhausted.
        """
        self.faults = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        self.recovery = tracker
        injector.bind_pages(lambda: self.store.pages)
        if self.overload is not None and not self.overload.has_fault_signal:
            self.overload.bind_faults(injector)

    def attach_overload(self, controller: OverloadController) -> None:
        """Enable overload protection: admission, deadlines, shedding.

        Each operation becomes a :class:`~repro.overload.deadline.Request`
        stamped with an absolute deadline from the policy's budget.
        Admission runs the controller's pipeline (capacity-loss priority
        floor, token bucket, concurrency); admitted operations that can
        no longer meet their deadline at the current loaded latencies
        are shed *before* being priced — the doomed work never occupies
        a server thread.  Priorities are assigned round-robin across the
        policy's classes (YCSB has no native priority notion).

        Without a controller the server behaves exactly as before.
        """
        self.overload = controller
        if self.faults is not None and not controller.has_fault_signal:
            controller.bind_faults(self.faults)

    # -- degradation policy ------------------------------------------------

    def _failover_page(self, page: Page, counters: Counter) -> float:
        """Remap a page off its (failed/poisoned) node onto healthy DRAM.

        Returns the copy time; 0.0 when no healthy node took the page.
        """
        for node in self.platform.dram_nodes(online_only=True):
            if node.node_id == page.node_id:
                continue
            try:
                self.store.space.move_page(page, node.node_id)
            except MigrationError:
                continue
            counters.add("failover_bytes", page.size)
            return page.size / MIGRATION_BANDWIDTH * 1e9
        return 0.0

    def _apply_fault_policy(
        self, plan: AccessPlan, counters: Counter
    ) -> "tuple[bool, float]":
        """Gate one operation against RAS state.

        Returns ``(serviceable, extra_ns)`` where ``extra_ns`` is time
        spent on retries, backoff, and failover copies.  A False first
        element means the op was shed after exhausting the retry budget.
        """
        faults = self.faults
        assert faults is not None
        extra = 0.0

        def note_backoff(attempt: int, backoff_ns: float) -> None:
            nonlocal extra
            del attempt
            extra += backoff_ns
            counters.add("fault_retries", 1)
            counters.add("retry_backoff_ns", backoff_ns)

        def attempt(_n: int) -> bool:
            nonlocal extra
            page = plan.value_page
            try:
                faults.check_read(page)
            except PoisonedReadError:
                # Remap to healthy DRAM and rewrite from the replica /
                # FLASH copy; the rewrite scrubs the poison.  The retry
                # (after backoff) then lands on clean memory.
                counters.add("poison_reads", 1)
                extra += self._failover_page(page, counters)
                faults.scrub(page)
                raise
            except DeviceFaultError:
                counters.add("device_fault_reads", 1)
                extra += self._failover_page(page, counters)
                raise
            return True

        try:
            retry_call(attempt, self.retry_policy, note_backoff)
        except RetryExhaustedError:
            return False, extra
        return True, extra

    def run(
        self,
        generator: YcsbGenerator,
        total_ops: int,
        epoch_ops: int = 2000,
        warmup_ops: int = 0,
    ) -> KeyDbResult:
        """Run ``total_ops`` operations; discard ``warmup_ops`` from stats.

        Warmup lets the Hot-Promote daemon converge before measurement,
        matching how the paper loads the dataset and runs YCSB after the
        kernel has had time to react.
        """
        if total_ops <= 0 or epoch_ops <= 0:
            raise ConfigurationError("op counts must be positive")
        result = KeyDbResult()
        ssd_utilization = 0.0
        done = 0

        def drop(counter: str, at_ns: float, spent_ns: float = 0.0) -> None:
            """Count an op that will not complete; a failure to the tracker."""
            nonlocal shed
            shed += 1
            result.counters.add(counter, 1)
            if measuring and self.recovery is not None:
                self.recovery.record(at_ns, spent_ns, ok=False)

        while done < total_ops:
            degrade = None
            if self.faults is not None:
                self.faults.advance(self.now_ns)
                degrade = partial(self.faults.latency_multiplier, now_ns=self.now_ns)
            batch = min(epoch_ops, total_ops - done)
            plans = []
            for _ in range(batch):
                op = generator.next_operation()
                plan_op = self.store.plan_set if op.is_write else self.store.plan_get
                plans.append(plan_op(op.key, self.now_ns))

            measuring = done >= warmup_ops
            epoch_busy_ns = 0.0
            ssd_bytes = 0
            node_read_bytes: Dict[int, float] = {}
            node_write_bytes: Dict[int, float] = {}
            shed = 0
            # Structure walks follow the previous epoch's access mix (the
            # placement mix before the first epoch).
            tables = self.core.tables(self._access_mix or self.store.node_mix(), degrade)
            for plan in plans:
                request = None
                if self.overload is not None:
                    arrival = self.now_ns + epoch_busy_ns / self.threads
                    request = self.overload.make_request(
                        arrival,
                        priority=self._op_seq % self.overload.policy.priority_levels,
                    )
                    self._op_seq += 1
                    admitted, _ = self.overload.try_admit(request, arrival)
                    if not admitted:
                        drop("ops_rejected", arrival)
                        continue
                fault_extra = 0.0
                if self.faults is not None:
                    serviceable, fault_extra = self._apply_fault_policy(
                        plan, result.counters
                    )
                    epoch_busy_ns += fault_extra
                    if not serviceable:
                        at_ns = self.now_ns + epoch_busy_ns / self.threads
                        if request is not None:
                            self.overload.shed(request, at_ns, reason="fault")
                        drop("ops_shed", at_ns, fault_extra)
                        continue
                t = self.core.price(plan, tables, ssd_utilization)
                if (
                    request is not None
                    and self.overload.policy.shed_doomed
                    and request.doomed(request.arrival_ns + fault_extra, t)
                ):
                    # The op cannot meet its deadline even if serviced
                    # now: shed it before it occupies a server thread.
                    self.overload.shed(request, request.arrival_ns)
                    drop("ops_shed_doomed", request.arrival_ns)
                    continue
                epoch_busy_ns += t
                finish_ns = self.now_ns + epoch_busy_ns / self.threads
                deadline_missed: Optional[bool] = None
                if request is not None:
                    deadline_missed = not self.overload.complete(
                        request, finish_ns, t + fault_extra
                    )
                    if deadline_missed:
                        result.counters.add("deadline_misses", 1)
                if measuring:
                    if plan.is_write:
                        result.write_latency.record(t + fault_extra)
                    else:
                        result.read_latency.record(t + fault_extra)
                    if self.recovery is not None:
                        self.recovery.record(
                            finish_ns,
                            t + fault_extra,
                            ok=True,
                            deadline_missed=deadline_missed,
                        )
                ssd_bytes += plan.ssd_read_bytes + plan.ssd_write_bytes
                node = plan.value_page.node_id
                node_bytes = node_write_bytes if plan.is_write else node_read_bytes
                node_bytes[node] = node_bytes.get(node, 0.0) + touched_bytes(plan)

            epoch_ns = epoch_busy_ns / self.threads
            # Tiering daemon reacts to the access history of this epoch.
            if self.tiering is not None:
                round_ = self.tiering.tick(self.now_ns + epoch_ns)
                if round_.moved_bytes:
                    stall = round_.moved_bytes / MIGRATION_BANDWIDTH * 1e9
                    epoch_ns += stall
                    result.counters.add("migration_stall_ns", stall)
                    result.counters.add("migrated_bytes", round_.moved_bytes)

            self.now_ns += epoch_ns
            done += batch
            if measuring:
                result.ops += batch - shed
                result.elapsed_ns += epoch_ns
            result.counters.add("ssd_bytes", ssd_bytes)

            # Refresh utilizations and the access-weighted node mix from
            # this epoch's traffic.
            self.core.refresh(node_read_bytes, node_write_bytes, epoch_ns)
            if self.overload is not None:
                self.overload.note_utilization(
                    max(self.core.utilization.values(), default=0.0), self.now_ns
                )
            total_touched = sum(node_read_bytes.values()) + sum(node_write_bytes.values())
            if total_touched > 0:
                self._access_mix = {
                    node: (node_read_bytes.get(node, 0.0) + node_write_bytes.get(node, 0.0))
                    / total_touched
                    for node in set(node_read_bytes) | set(node_write_bytes)
                }
            ssd_utilization = self._ssd_utilization(ssd_bytes, epoch_ns)
        return result

    def _ssd_utilization(self, ssd_bytes: int, epoch_ns: float) -> float:
        if epoch_ns <= 0 or ssd_bytes == 0 or self.store.flash is None:
            return 0.0
        rate = ssd_bytes / (epoch_ns / 1e9)
        cap = self.store.flash.ssd.spec.read_bandwidth_bytes_per_s
        return min(0.9, rate / cap)
