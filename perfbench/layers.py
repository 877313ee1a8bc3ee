"""Per-layer tracing for the traced benchmark run.

The program under test is not modified: :func:`install` rebinds public
functions and methods of each layer to wrappers defined here.  Every
timed wrapper pushes a frame on a per-thread stack, so a layer's *self*
time is its inclusive time minus the inclusive time of the traced calls
it made.  Hot calls are aggregated per ``(layer, parent layer)`` instead
of being stored one span each.  Only root spans are kept one by one: one
per executed sweep point, and for a serve job its submit and queue spans
and its points' spans, which all carry the job id.

Counting wrappers (``sim.events``, ``sim.histogram_record``) count calls
without timing them, so their cost stays inside the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: Per-layer metric names, in the order BENCHMARK.json lists them.
METRICS = (
    "startup.import_s",
    "parallel.overhead_s",
    "parallel.task.self_s",
    "workloads.next_operation.calls",
    "workloads.next_operation.self_s",
    "workloads.zipf_grow.calls",
    "workloads.zipf_grow.self_s",
    "kvstore.plan.calls",
    "kvstore.plan.self_s",
    "kvstore.run.self_s",
    "mem.tiering_tick.calls",
    "mem.tiering_tick.self_s",
    "mem.migrated_bytes",
    "hw.allocate.calls",
    "hw.allocate.self_s",
    "sim.events",
    "sim.run.self_s",
    "sim.histogram_record.calls",
    "overload.try_admit.calls",
    "overload.try_admit.self_s",
    "overload.offered",
    "overload.admitted",
    "analytic.select.des_points",
    "analytic.select.analytic_points",
    "analytic.keydb.calls",
    "analytic.keydb.self_s",
    "cache.key_for.self_s",
    "cache.lookup.calls",
    "cache.lookup.self_s",
    "cache.hit_ratio",
    "cache.put.calls",
    "cache.put.self_s",
    "cache.entries_scanned",
    "obs.merge.self_s",
    "serve.submit_s",
    "serve.queue_wait_s",
    "serve.journal.calls",
    "serve.journal.self_s",
    "serve.stream_truncated",
    "trace.overhead_s",
)

#: Metrics that depend on host timing rather than on the inputs; every
#: other non-time metric must repeat exactly across two traced runs.
#: ``serve.stream_truncated`` counts a race in the server (see README).
TIMING_DEPENDENT = ("serve.stream_truncated",)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class _ThreadState:
    __slots__ = ("stack", "agg", "root")

    def __init__(self) -> None:
        # Each frame is [layer, inclusive time of traced children].
        self.stack: List[list] = []
        # (layer, parent) -> [calls, inclusive_s, self_s]
        self.agg: Dict[Tuple[str, Optional[str]], list] = {}
        self.root: Optional[str] = None


class Tracer:
    """Aggregates wrapped calls per (layer, parent) and per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self.origin = perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, root: str, layer: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append({
                "id": root, "layer": layer,
                "start_s": start - self.origin, "end_s": end - self.origin,
            })

    def set_root(self, root: Optional[str]) -> None:
        self._state().root = root

    def root(self) -> Optional[str]:
        return self._state().root

    def timed(self, layer: str, fn: Callable,
              after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped as one call of ``layer`` (self time and count).

        ``after(result, args, kwargs)`` runs outside the timed region.
        """
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (layer, parent[0] if parent is not None else None)
                row = state.agg.get(key)
                if row is None:
                    row = state.agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (no timing, no frame)."""
        state_of = self._state

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            agg = state_of().agg
            key = (name, "#count")
            row = agg.get(key)
            if row is None:
                row = agg[key] = [0, 0.0, 0.0]
            row[0] += 1
            return fn(*args, **kwargs)

        return counted

    def table(self) -> Dict[Tuple[str, Optional[str]], List[float]]:
        """Every thread's rows merged: (layer, parent) -> [calls, incl, self]."""
        merged: Dict[Tuple[str, Optional[str]], List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, row in list(state.agg.items()):
                total = merged.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += row[i]
        return merged

    def layer(self, name: str) -> Tuple[int, float, float]:
        """(calls, inclusive_s, self_s) of one layer over all parents."""
        calls, incl, self_s = 0, 0.0, 0.0
        for (layer, _parent), row in self.table().items():
            if layer == name:
                calls += row[0]
                incl += row[1]
                self_s += row[2]
        return calls, incl, self_s


def _rebind(old: Callable, new: Callable) -> None:
    """Point every loaded ``repro`` module binding of ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_method(cls: type, name: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(cls, name, wrap(cls.__dict__[name]))


def _wrap_function(fn: Callable, wrap: Callable[[Callable], Callable]) -> Callable:
    new = wrap(fn)
    _rebind(fn, new)
    return new


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (imports them first)."""
    import repro.analytic.keydb as analytic_keydb
    import repro.analytic.select as analytic_select
    import repro.cache.store as cache_store
    import repro.hw.topology as topology
    import repro.mem.tiering.base as tiering_base
    import repro.overload.policy as overload_policy
    import repro.parallel.merge as merge
    import repro.parallel.runner as runner
    import repro.serve.jobs as serve_jobs
    import repro.serve.protocol as serve_protocol
    import repro.sim.engine as engine
    import repro.sim.stats as stats
    import repro.workloads.distributions as distributions
    import repro.workloads.ycsb as ycsb
    from repro.apps.kvstore import des_server, server, store

    timed = tracer.timed

    # workloads: operation draws and Zipf key-space growth.
    _wrap_method(ycsb.YcsbGenerator, "next_operation",
                 lambda f: timed("workloads.next_operation", f))
    _wrap_method(distributions.ZipfianChooser, "grow",
                 lambda f: timed("workloads.zipf_grow", f))

    # kvstore: per-op access planning and the server drivers.
    for method in ("plan_get", "plan_set"):
        _wrap_method(store.KeyValueStore, method,
                     lambda f: timed("kvstore.plan", f))
    _wrap_method(server.KeyDbServer, "run", lambda f: timed("kvstore.run", f))
    for method in ("run", "run_open_loop"):
        _wrap_method(des_server.DesKeyDbServer, method,
                     lambda f: timed("kvstore.run", f))

    # mem: the tiering daemon tick and what it migrated.
    def _migrated(round_: Any, _args: Any, _kwargs: Any) -> None:
        moved = round_.moved_bytes
        if moved:
            tracer.add("mem.migrated_bytes", moved)

    _wrap_method(tiering_base.TieringDaemon, "tick",
                 lambda f: timed("mem.tiering_tick", f, after=_migrated))

    # hw: the max-min bandwidth allocation round.
    _wrap_method(topology.Platform, "allocate", lambda f: timed("hw.allocate", f))

    # sim: the event engine and the latency histograms.
    _wrap_method(engine.Simulator, "run", lambda f: timed("sim.run", f))
    _wrap_method(engine.Simulator, "step",
                 lambda f: tracer.counted("sim.events", f))
    _wrap_method(stats.LatencyHistogram, "record",
                 lambda f: tracer.counted("sim.histogram_record", f))

    # overload: the admission pipeline and its outcome.
    def _admitted(result: Any, _args: Any, _kwargs: Any) -> None:
        tracer.add("overload.offered")
        if result[0]:
            tracer.add("overload.admitted")

    _wrap_method(overload_policy.OverloadController, "try_admit",
                 lambda f: timed("overload.try_admit", f, after=_admitted))

    # analytic: per-point routing and the closed-form KeyDB model.
    def _routed(result: Any, _args: Any, _kwargs: Any) -> None:
        tracer.add(f"analytic.select.{result}_points")

    _wrap_function(analytic_select.select_backend,
                   lambda f: timed("analytic.select", f, after=_routed))
    for fn in (analytic_keydb.analytic_keydb_config,
               analytic_keydb.analytic_keydb_cxl_only):
        _wrap_function(fn, lambda f: timed("analytic.keydb", f))

    # cache: addressing, lookups (hit or miss), writes and eviction scans.
    def _looked_up(entry: Any, _args: Any, _kwargs: Any) -> None:
        if entry is not None:
            tracer.add("cache.hits")

    _wrap_method(cache_store.SweepCache, "key_for",
                 lambda f: timed("cache.key_for", f))
    _wrap_method(cache_store.SweepCache, "lookup",
                 lambda f: timed("cache.lookup", f, after=_looked_up))
    _wrap_method(cache_store.SweepCache, "put", lambda f: timed("cache.put", f))

    entries = cache_store.SweepCache.entries

    @functools.wraps(entries)
    def counted_entries(self: Any) -> Any:
        for info in entries(self):
            tracer.add("cache.entries_scanned")
            yield info

    cache_store.SweepCache.entries = counted_entries

    # obs: merging per-point documents into one export.
    _wrap_function(merge.merge_metrics_documents, lambda f: timed("obs.merge", f))

    # parallel: the sweep runner; its task bodies are timed separately
    # so the runner's own overhead is run_sweep minus task time.
    def traced_sweep(run_sweep: Callable) -> Callable:
        @functools.wraps(run_sweep)
        def run(spec: Any, *args: Any, **kwargs: Any) -> Any:
            import dataclasses

            task = spec.task
            index = [0]

            @functools.wraps(task)
            def body(params: Any, seed: int) -> Any:
                parent_root = tracer.root()
                root = f"{parent_root or spec.name}/point-{index[0]}"
                index[0] += 1
                tracer.set_root(root)
                start = perf_counter()
                try:
                    return timed("parallel.task", task)(params, seed)
                finally:
                    tracer.span(root, "parallel.task", start, perf_counter())
                    tracer.set_root(parent_root)

            return timed("parallel.run_sweep", run_sweep)(
                dataclasses.replace(spec, task=body), *args, **kwargs
            )

        return run

    _wrap_function(runner.run_sweep, traced_sweep)

    # serve: submission, queue wait, run and the job journal.  A job's
    # spans share its id; its points are rooted at it by traced_build.
    submitted: Dict[int, Tuple[str, float]] = {}
    submitted_lock = threading.Lock()

    def traced_submit(submit: Callable) -> Callable:
        inner = timed("serve.submit", submit)

        @functools.wraps(submit)
        def run(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            result = inner(*args, **kwargs)
            job = result[1]
            if job is not None:
                end = perf_counter()
                with submitted_lock:
                    submitted[id(job.spec)] = (job.id, end)
                tracer.span(job.id, "serve.submit", start, end)
            return result

        return run

    _wrap_method(serve_jobs.JobManager, "submit", traced_submit)

    def traced_build(build: Callable) -> Callable:
        @functools.wraps(build)
        def run(spec: Any) -> Any:
            now = perf_counter()
            with submitted_lock:
                job_id, at = submitted.pop(id(spec), (None, now))
            if job_id is not None:
                tracer.add("serve.queue_wait_s", now - at)
                tracer.span(job_id, "serve.queue", at, now)
                tracer.set_root(job_id)
            return build(spec)

        return run

    _wrap_function(serve_jobs.build_sweep_spec, traced_build)
    _wrap_function(serve_protocol.write_journal,
                   lambda f: timed("serve.journal", f))


#: Metrics read from :attr:`Tracer.counters` rather than from a layer.
_COUNTERS = (
    "serve.queue_wait_s",
    "mem.migrated_bytes",
    "overload.offered",
    "overload.admitted",
    "analytic.select.des_points",
    "analytic.select.analytic_points",
    "cache.entries_scanned",
)


def metrics(tracer: Tracer, import_s: float,
            stream_truncated: int) -> Dict[str, float]:
    """One traced run's per-layer values; all but ``trace.overhead_s``."""
    values: Dict[str, float] = {
        name: tracer.counters.get(name, 0) for name in _COUNTERS
    }
    values["startup.import_s"] = import_s
    values["serve.stream_truncated"] = stream_truncated
    values["serve.submit_s"] = tracer.layer("serve.submit")[2]
    values["sim.events"] = tracer.layer("sim.events")[0]
    lookups = tracer.layer("cache.lookup")[0]
    values["cache.hit_ratio"] = (tracer.counters.get("cache.hits", 0) / lookups
                                 if lookups else 0.0)
    sweeps = tracer.layer("parallel.run_sweep")[1]
    tasks = tracer.layer("parallel.task")[1]
    values["parallel.overhead_s"] = max(0.0, sweeps - tasks)
    for name in METRICS:
        if name.endswith(".calls"):
            values[name] = tracer.layer(name[:-len(".calls")])[0]
        elif name.endswith(".self_s"):
            values[name] = tracer.layer(name[:-len(".self_s")])[2]
    return {name: values[name] for name in METRICS if name != "trace.overhead_s"}
