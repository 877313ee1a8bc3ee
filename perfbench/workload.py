"""One benchmark process: set up one workload, run it, report as JSON.

``run.py`` starts this file nine times per run, so that every sweep runs
in a fresh interpreter as ``repro sweep`` does.  The last line of
standard output is one JSON object; everything else goes to stderr.

Modes:

``setup``   import the program and build the workload's inputs, then
            stop (a set-up time sample).
``timed``   set up, then run the workload untraced: one cold sweep into an
            empty ``--store`` and its warm re-runs, or ``--pairs`` job pairs.
``warm``    sweeps only: set up, then warm re-runs against a ``--store``
            that a ``timed`` process filled.
``traced``  as ``timed``, with every layer wrapped by ``layers.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = os.path.join(ROOT, "docs", "schemas", "metrics.schema.json")

#: The sweep workloads: (stock target, quick scale, backend).
SWEEPS = {
    "fig5-sweep": ("fig5", True, "des"),
    "fig5-auto": ("fig5", False, "auto"),
    "overload-sweep": ("overload", False, "des"),
}
#: Timed warm re-runs of a sweep per process.  A run makes nine
#: processes, so the warm p90 has eleven of 117 samples beyond it.
WARM_RUNS = 13
TERMINAL = ("done", "failed", "cancelled", "quarantined")


#: The speedometer's second probe: a benchmark-owned metrics-shaped
#: document, pickled once; each sample unpickles it and dumps it as JSON.
_PROBE_BLOB = pickle.dumps({
    "schema": "probe",
    "metrics": [
        {"name": f"family_{i % 17}", "type": "gauge",
         "samples": [{"labels": {"point": f"p{i}", "node": str(j)},
                      "value": i * 0.25 + j} for j in range(6)]}
        for i in range(40)
    ],
})


class Speedometer:
    """Samples host speed with two fixed pure-Python probes.

    On a small shared VM the interpreter's speed drifts by tens of
    percent over minutes.  Each measured section is therefore scaled by
    the median speed sampled during it, relative to a reference host:
    the values read as the seconds the work would take there.  One
    sample runs an arithmetic loop and a pickle/JSON round trip of a
    fixed document; its speed is the geometric mean of the two probes'
    speeds.  The loop tracks the event-driven DES best, the round trip
    tracks the epoch driver and the warm (cache, merge, JSON) path best,
    and the mean tracks both about as well as the better one alone.

    While a single-threaded sweep runs, a 0.2 s interval timer takes the
    samples; between warm re-runs and between whatif-serve job pairs
    they are taken explicitly, since a timer would interrupt millisecond
    requests or stall the server threads.  Time spent sampling is kept
    in :attr:`stolen` and subtracted from every measured interval.
    """

    LOOP_STEPS = 20_000
    PERIOD_S = 0.2
    #: The reference host: 10 M loop steps/s, one round trip in 2 ms.
    REFERENCE_LOOP_RATE = 10e6
    REFERENCE_ROUND_TRIP_S = 2e-3
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.speeds: List[float] = []
        self.stolen = 0.0

    def sample(self, *_signal: Any) -> None:
        # Masked, so the timer cannot fire inside an explicit sample.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOP_STEPS):
            acc += i * i % 7
        middle = time.perf_counter()
        json.dumps(pickle.loads(_PROBE_BLOB), indent=2)
        end = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        loop = self.LOOP_STEPS / (middle - start) / self.REFERENCE_LOOP_RATE
        round_trip = self.REFERENCE_ROUND_TRIP_S / (end - middle)
        self.speeds.append((loop * round_trip) ** 0.5)
        self.stolen += end - start

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Start a section; pass the result to :meth:`scale`."""
        return len(self.speeds)

    def scale(self, mark: int = 0) -> float:
        """The factor for times measured since ``mark``."""
        while len(self.speeds) - mark < self.MIN_SAMPLES:
            self.sample()
        return statistics.median(self.speeds[mark:])


def _install_tracer() -> Any:
    """Wrap every layer; installed after set-up, so only the run counts."""
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    return tracer


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Validates exports and counts failed operations."""

    def __init__(self) -> None:
        from repro.obs.schema import validate

        with open(SCHEMA) as fh:
            self._schema = json.load(fh)
        self._validate = validate
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def export(self, label: str, body: bytes) -> None:
        try:
            document = json.loads(body)
        except ValueError as exc:
            self.fail(f"{label}: export is not JSON: {exc}")
            return
        errors = self._validate(self._schema, document)
        if errors:
            self.fail(f"{label}: export fails the metrics schema: {errors[0]}")
        elif not document.get("metrics"):
            self.fail(f"{label}: export has no samples")


def _sweep_body(merge: Any, sweep: Any, target: str) -> bytes:
    merged = merge(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results],
        generated_by=f"repro sweep {target}",
    )
    return (json.dumps(merged, indent=2) + "\n").encode("utf-8")


def run_sweep_workload(args: argparse.Namespace,
                       speed: Speedometer) -> Dict[str, Any]:
    target, quick, backend = SWEEPS[args.workload]
    import_start = time.perf_counter()
    import repro.cache
    import repro.cli
    import repro.parallel
    import_s = time.perf_counter() - import_start
    spec = repro.cli.stock_sweep_spec(target, quick=quick, seed=args.seed,
                                      backend=backend)
    setup_s = time.monotonic() - args.started - speed.stolen
    result: Dict[str, Any] = {"setup_s": setup_s * speed.scale(),
                              "import_s": import_s}
    if args.mode == "setup":
        return result
    tracer = _install_tracer() if args.mode == "traced" else None

    checker = Checker()
    store = repro.cache.SweepCache(root=args.store)
    merge = repro.parallel.merge_metrics_documents

    def clock() -> float:
        # Wall time minus the time the speedometer took from it.
        return time.perf_counter() - speed.stolen

    body = b""
    if args.mode != "warm":
        # Cold: every point executes (empty store), as a first `repro sweep`.
        mark = speed.mark()
        start = clock()
        sweep = repro.parallel.run_sweep(spec, workers=1, cache=store)
        body = _sweep_body(merge, sweep, target) if sweep.ok else b""
        raw_sweep_s = clock() - start
        sweep_s = raw_sweep_s * speed.scale(mark)
        result.update({"raw_sweep_s": raw_sweep_s, "sweep_s": sweep_s,
                       "cold_ms": [sweep_s * 1e3]})
        for point in sweep.failures():
            checker.fail(f"point {point.key} failed: {point.error.type}")
        if sweep.ok:
            checker.export("cold sweep", body)

    # Warm: re-run the whole sweep against the filled store, as a second
    # `repro sweep` would.  Every point must be a cache hit and the merged
    # exports byte-identical to the cold one.  A re-run takes milliseconds,
    # so the speedometer samples between re-runs rather than on the timer.
    # The first re-run of a process pays first-use costs; it is not timed.
    speed.stop_timer()
    warm_ms: List[float] = []
    mark = speed.mark()
    for run in range(WARM_RUNS + 1):
        start = clock()
        warm = repro.parallel.run_sweep(spec, workers=1, cache=store)
        warm_body = _sweep_body(merge, warm, target) if warm.ok else b""
        if run:
            warm_ms.append((clock() - start) * 1e3)
        speed.sample()
        if not all(point.cached for point in warm.results):
            checker.fail("warm sweep missed the cache")
        body = body or warm_body
        if warm_body != body:
            checker.fail("warm export differs from the cold export")
    warm_scale = speed.scale(mark)

    result.update({
        "warm_ms": [ms * warm_scale for ms in warm_ms],
        "export_sha256": hashlib.sha256(body).hexdigest(),
        "attempted": len(spec.points) * (WARM_RUNS + 1 + (args.mode != "warm")),
        "failed": checker.failed,
        "problems": checker.problems,
        "peak_rss_mib": _peak_rss_mib(),
    })
    if tracer is not None:
        result["tracer"] = tracer
    return result


def _job(client: Any, seed: int, checker: Checker, label: str,
         warm: bool = False) -> "tuple[Optional[float], Optional[bytes], bool]":
    """Submit one quick fig5 analytic job; (latency_s, export, truncated).

    Completion is read from the job's event stream, not by polling.  A
    ``warm`` job must be served from the cache point by point.
    """
    spec = {"target": "fig5", "quick": True, "seed": seed,
            "backend": "analytic"}
    start = time.perf_counter()
    response = client.submit(spec)
    if response.status != 201:
        checker.fail(f"{label}: submission shed with HTTP {response.status}")
        return None, None, False
    job_id = response.json["id"]
    truncated = True
    points = []
    for event in client.events(job_id):
        if event.get("event") == "point":
            points.append(event.get("cached"))
        if event.get("event") in TERMINAL:
            truncated = False
            break
    latency = time.perf_counter() - start
    if warm and not (points and all(points)):
        checker.fail(f"{label}: job {job_id} missed the cache")
    record = client.job(job_id).json
    state = record.get("state") if record else None
    if state != "done":
        checker.fail(f"{label}: job {job_id} ended {state!r}")
        return latency, None, truncated
    body = client.result(job_id)
    if body is None:
        checker.fail(f"{label}: job {job_id} has no result")
    return latency, body, truncated


def _empty(store: Any) -> None:
    """Remove every entry and the fingerprint-prefix directories.

    ``SweepCache.clear`` keeps the ``<fp[:2]>/`` directories, and every
    write walks all of them, so a store emptied only by ``clear`` gets
    slower to write as it ages.  The server's own ``serve/`` directory
    (journals and results) stays.
    """
    store.clear()
    for name in os.listdir(store.root):
        path = os.path.join(store.root, name)
        if name != "serve" and os.path.isdir(path):
            shutil.rmtree(path)


def run_serve_workload(args: argparse.Namespace,
                       speed: Speedometer) -> Dict[str, Any]:
    import_start = time.perf_counter()
    import repro.cache
    import repro.parallel
    import repro.serve
    import_s = time.perf_counter() - import_start
    from repro.parallel.jobs import derive_seed

    checker = Checker()
    store = repro.cache.SweepCache(root=args.store)
    server = repro.serve.BackgroundServer(repro.serve.ServeConfig(port=0),
                                          cache=store).start()
    try:
        client = repro.serve.ServeClient("127.0.0.1", server.port)
        # One untimed job finishes lazy imports and first-use set-up.
        _job(client, derive_seed(args.seed, "warm-up"), checker, "warm-up")
        _empty(store)
        setup_s = time.monotonic() - args.started
        result: Dict[str, Any] = {"setup_s": setup_s * speed.scale(),
                                  "import_s": import_s}
        if args.mode == "setup":
            return result
        tracer = _install_tracer() if args.mode == "traced" else None

        cold_ms: List[float] = []
        warm_ms: List[float] = []
        truncated = 0
        digest = hashlib.sha256()
        session_s = 0.0
        mark = speed.mark()
        for pair in range(args.pairs):
            seed = derive_seed(args.seed, f"pair-{pair}")
            start = time.perf_counter()
            cold, cold_body, cut_cold = _job(client, seed, checker, "cold")
            warm, warm_body, cut_warm = _job(client, seed, checker, "warm",
                                             warm=True)
            session_s += time.perf_counter() - start
            truncated += cut_cold + cut_warm
            if cold is not None:
                cold_ms.append(cold * 1e3)
            if warm is not None:
                warm_ms.append(warm * 1e3)
            if cold_body is not None:
                checker.export(f"cold job {pair}", cold_body)
                digest.update(cold_body)
                if warm_body is not None and warm_body != cold_body:
                    checker.fail(f"warm job {pair} differs from its cold twin")
            # Every cold job meets the same, empty store (see README).
            _empty(store)
            speed.sample()
    finally:
        server.stop()
    scale = speed.scale(mark)
    result.update({
        "raw_sweep_s": session_s,
        "sweep_s": session_s * scale,
        "cold_ms": [ms * scale for ms in cold_ms],
        "warm_ms": [ms * scale for ms in warm_ms],
        "attempted": 2 * args.pairs,
        "failed": checker.failed,
        "problems": checker.problems,
        "stream_truncated": truncated,
        "export_sha256": digest.hexdigest(),
        "peak_rss_mib": _peak_rss_mib(),
    })
    if tracer is not None:
        result["tracer"] = tracer
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SWEEPS) + ["whatif-serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "warm", "traced"),
                        required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--pairs", type=int, default=0,
                        help="whatif-serve: cold/warm job pairs to run")
    parser.add_argument("--store", required=True,
                        help="cache store directory (the parent removes it)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    # One CPU for every thread of the process: the speedometer then
    # samples the CPU the work runs on, and no thread hand-off in the
    # server crosses CPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = Speedometer()
    if args.workload == "whatif-serve":
        result = run_serve_workload(args, speed)
    else:
        # No timer while tracing: its samples would land in the self
        # time of whichever layer they interrupt.
        if args.mode != "traced":
            speed.start_timer()
        try:
            result = run_sweep_workload(args, speed)
        finally:
            speed.stop_timer()
    tracer = result.pop("tracer", None)
    if tracer is not None:
        import layers

        result["layers"] = layers.metrics(
            tracer, result["import_s"], result.get("stream_truncated", 0)
        )
        result["spans"] = tracer.spans
        result["table"] = [
            {"layer": layer, "parent": parent, "calls": row[0],
             "inclusive_s": row[1], "self_s": row[2]}
            for (layer, parent), row in sorted(tracer.table().items(),
                                               key=lambda item: str(item[0]))
        ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
