"""Event-driven KeyDB: the DES counterpart of the epoch driver.

:class:`~repro.apps.kvstore.server.KeyDbServer` advances in epochs — a
fast fixed-point over thousands of operations.  This driver prices ops
with the *same* :class:`~repro.apps.kvstore.core.KeyDbCore` on the
discrete-event engine instead; it backs ``repro metrics`` / ``repro
trace``, the overload capacity calibration and the offered-load sweeps:

* the server's threads are a FIFO :class:`~repro.sim.resources.Resource`
  (seven slots, as in §4.1.1);
* each closed-loop client process draws an operation, waits for a
  thread, holds it for the op's priced service time, and immediately
  issues the next request (:meth:`DesKeyDbServer.run_open_loop` offers
  Poisson arrivals instead);
* latencies now include *queueing for a server thread*, which the epoch
  model folds into its averaging.

It runs no tiering daemon, so a ``hot-promote`` store stays at its
initial placement here.  Running both drivers and comparing (see
``tests/apps/test_des_server.py``) validates the epoch scheme's
shortcut: aggregate throughput agrees to within a few percent while the
DES path additionally exposes the thread-contention component of the
tails.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

import numpy as np

from ...errors import ConfigurationError
from ...faults.injector import FaultInjector
from ...hw.topology import Platform
from ...obs.tracing import NULL_TRACER, Tracer
from ...overload.policy import REASON_QUEUE_FULL, OverloadController
from ...sim.engine import Event, Simulator
from ...sim.resources import Resource
from ...workloads.ycsb import YcsbGenerator
from .core import KeyDbCore, KeyDbResult, LatencyTables, touched_bytes
from .store import KeyValueStore

__all__ = ["DesKeyDbServer"]


@dataclass
class _Window:
    """One run's completions and its traffic since the last refresh."""

    tables: LatencyTables  # latencies new ops are priced at until then
    done: int = 0
    start_ns: float = 0.0
    read_bytes: Dict[int, float] = field(default_factory=dict)
    write_bytes: Dict[int, float] = field(default_factory=dict)


class DesKeyDbServer:
    """Closed-loop clients against a thread-pool server, on the DES."""

    def __init__(
        self,
        platform: Platform,
        store: KeyValueStore,
        threads: int = 7,
        socket: int = 0,
        clients: int = 16,
        utilization_refresh_ops: int = 2000,
        overload: Optional[OverloadController] = None,
        tracer: Tracer = NULL_TRACER,
        engine_profile=None,
    ) -> None:
        if threads <= 0 or clients <= 0:
            raise ConfigurationError("threads and clients must be positive")
        if utilization_refresh_ops <= 0:
            raise ConfigurationError("utilization_refresh_ops must be positive")
        self.platform = platform
        self.store = store
        self.threads = threads
        self.socket = socket
        self.clients = clients
        self.refresh_ops = utilization_refresh_ops
        self.overload = overload
        #: Request-scoped span recorder (no-op unless a live Tracer is
        #: passed; tracing must never perturb the simulation).
        self.tracer = tracer
        #: Optional :class:`repro.obs.profile.EngineProfile` installed
        #: on each run's simulator.
        self.engine_profile = engine_profile
        self.core = KeyDbCore(platform, store, socket)

    def attach_overload(self, controller: OverloadController) -> None:
        """Enable admission control and deadline shedding on this server."""
        self.overload = controller

    def _emit_op_trace(
        self,
        plan,
        tables: LatencyTables,
        arrival_ns: float,
        service_start_ns: float,
        end_ns: float,
        service_ns: float,
        degrade_ns: float,
    ) -> None:
        """Record one op's per-layer spans; they sum to ``end - arrival``.

        The layer components come from the tables the op was priced at
        (a utilization refresh may retune the run's tables mid-service),
        and the SSD share is derived as the pricing residual so the
        spans reproduce the priced service time exactly.
        """
        cpu_ns, struct_ns, value_ns = self.core.components(plan, tables)
        op = self.tracer.op("ycsb.set" if plan.is_write else "ycsb.get", arrival_ns)
        op.span("admission", "queue_wait", arrival_ns,
                service_start_ns - arrival_ns)
        t = service_start_ns
        op.span("app", "redis_cpu", t, cpu_ns)
        t += cpu_ns
        op.span("mem", "struct_walk", t, struct_ns,
                accesses=plan.struct_accesses)
        t += struct_ns
        op.span("hw", "value_access", t, value_ns,
                node=plan.value_page.node_id)
        t += value_ns
        flash_ns = service_ns - cpu_ns - struct_ns - value_ns
        # Strictly-positive residual can still be fp noise from the
        # subtraction; only a residual visible at op scale is real IO.
        if flash_ns > 1e-9 * service_ns:
            op.span("device", "flash_io", t, flash_ns)
            t += flash_ns
        if degrade_ns > 0.0:
            op.span("device", "fault_degrade", t, degrade_ns)
        op.finish(end_ns)

    def _simulator(self) -> Simulator:
        sim = Simulator()
        if self.engine_profile is not None:
            self.engine_profile.attach(sim)
        return sim

    def _serve(self, sim, op, arrival_ns, request, window, result, injector=None):
        """Plan, price and hold one op's service (a sub-generator).

        Returns the op's plan, or None when the op could not meet its
        deadline and was shed before service.
        """
        plan_op = self.store.plan_set if op.is_write else self.store.plan_get
        plan = plan_op(op.key, sim.now)
        tables = window.tables
        service = base_ns = self.core.price(plan, tables)
        if injector is not None:
            service *= injector.latency_multiplier(plan.value_page.node_id, sim.now)
        if (
            request is not None
            and self.overload.policy.shed_doomed
            and request.doomed(sim.now, service)
        ):
            # The response could not arrive in time: shed before
            # burning the service time.
            result.counters.add("ops_shed_doomed", 1)
            self.overload.shed(request, sim.now)
            return None
        start_ns = sim.now
        yield sim.timeout(service)
        if self.tracer.enabled:
            self._emit_op_trace(plan, tables, arrival_ns, start_ns, sim.now,
                                base_ns, service - base_ns)
        return plan

    def _complete(self, now, plan, arrival_ns, request, window, result) -> None:
        """Account one served op; re-solve latencies every ``refresh_ops``."""
        latency = now - arrival_ns  # queueing + service
        if request is not None and not self.overload.complete(request, now, latency):
            result.counters.add("deadline_misses", 1)
        if plan.is_write:
            result.write_latency.record(latency)
        else:
            result.read_latency.record(latency)
        node = plan.value_page.node_id
        node_bytes = window.write_bytes if plan.is_write else window.read_bytes
        node_bytes[node] = node_bytes.get(node, 0.0) + touched_bytes(plan)
        window.done += 1
        if window.done % self.refresh_ops:
            return
        if self.core.refresh(window.read_bytes, window.write_bytes,
                             now - window.start_ns):
            window.tables = self.core.tables(self.store.node_mix())
        window.start_ns = now
        window.read_bytes.clear()
        window.write_bytes.clear()
        if self.overload is not None:
            self.overload.note_utilization(
                max(self.core.utilization.values(), default=0.0), now
            )

    def run(self, generator: YcsbGenerator, total_ops: int) -> KeyDbResult:
        """Run the closed loop until ``total_ops`` complete."""
        if total_ops <= 0:
            raise ConfigurationError("total_ops must be positive")
        sim = self._simulator()
        server_threads = Resource(sim, self.threads)
        result = KeyDbResult()
        window = _Window(self.core.tables(self.store.node_mix()))
        issued = 0

        def client():
            nonlocal issued
            while issued < total_ops:
                issued += 1
                op = generator.next_operation()
                arrival = sim.now
                request = None
                if self.overload is not None:
                    request = self.overload.make_request(
                        arrival,
                        priority=issued % self.overload.policy.priority_levels,
                    )
                    admitted, _ = self.overload.try_admit(request, arrival)
                    if not admitted:
                        result.counters.add("ops_rejected", 1)
                        continue
                yield server_threads.request()
                plan = yield from self._serve(sim, op, arrival, request, window, result)
                server_threads.release()
                if plan is not None:
                    self._complete(sim.now, plan, arrival, request, window, result)

        for _ in range(self.clients):
            sim.process(client())
        sim.run()
        result.ops = window.done
        result.elapsed_ns = sim.now
        return result

    def run_open_loop(
        self,
        generator: YcsbGenerator,
        arrival_rate_ops_per_s: float,
        duration_ns: float,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
    ) -> KeyDbResult:
        """Open-loop (Poisson-arrival) run for the overload experiments.

        Unlike the closed loop — which self-clocks and can never
        overload the server — arrivals here come at a fixed offered
        rate regardless of completions, so offered load past the
        capacity knee piles into the admission queue.  With an
        :class:`~repro.overload.policy.OverloadController` attached,
        the bounded queue rejects the excess, expired waiters are shed
        at dispatch, and doomed work is dropped before service; without
        one the queue is unbounded and latency grows without bound —
        the uncontrolled baseline of the goodput experiments.
        """
        if arrival_rate_ops_per_s <= 0:
            raise ConfigurationError("arrival_rate_ops_per_s must be positive")
        if duration_ns <= 0:
            raise ConfigurationError("duration_ns must be positive")
        sim = self._simulator()
        rng = np.random.default_rng(seed)
        result = KeyDbResult()
        window = _Window(self.core.tables(self.store.node_mix()))
        queue = self.overload.new_queue() if self.overload is not None else None
        backlog: Deque = deque()  # uncontrolled path: unbounded FIFO
        idle: Deque[Event] = deque()
        closed = False
        mean_gap_ns = 1e9 / arrival_rate_ops_per_s
        stop = object()  # sentinel waking idle workers at shutdown

        def take_next():
            """The next ``(request, arrival_ns, op)`` to serve, or None."""
            if queue is None:
                return backlog.popleft() if backlog else None
            request = queue.take(sim.now)
            return None if request is None else (request, request.arrival_ns, request.payload)

        def arrivals():
            nonlocal closed
            for seq in itertools.count():
                yield sim.timeout(rng.exponential(mean_gap_ns))
                if sim.now >= duration_ns:
                    break
                if injector is not None:
                    injector.advance(sim.now)
                op = generator.next_operation()
                if self.overload is not None:
                    request = self.overload.make_request(
                        sim.now,
                        priority=seq % self.overload.policy.priority_levels,
                    )
                    request.payload = op
                    if queue.full:
                        self.overload.metrics.reject(REASON_QUEUE_FULL)
                        queue.rejected_full += 1
                        result.counters.add("ops_rejected", 1)
                        continue
                    admitted, _ = self.overload.try_admit(request, sim.now)
                    if not admitted:
                        result.counters.add("ops_rejected", 1)
                        continue
                    queue.offer(request)
                else:
                    backlog.append((None, sim.now, op))
                if idle:
                    idle.popleft().succeed()
            closed = True
            while idle:
                idle.popleft().succeed(stop)

        def worker():
            while True:
                entry = take_next()
                if entry is None:
                    if closed:
                        return
                    gate = sim.event()
                    idle.append(gate)
                    value = yield gate
                    if value is stop:
                        return
                    continue
                request, arrival, op = entry
                plan = yield from self._serve(
                    sim, op, arrival, request, window, result, injector
                )
                if plan is not None:
                    self._complete(sim.now, plan, arrival, request, window, result)

        sim.process(arrivals())
        for _ in range(self.threads):
            sim.process(worker())
        sim.run()
        if queue is not None:
            result.counters.add("ops_shed_expired", queue.shed_expired)
        result.ops = window.done
        result.elapsed_ns = max(sim.now, duration_ns)
        return result
