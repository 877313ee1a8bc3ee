"""The repository benchmark: one workload per call, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 20 --trace 0

Each measured unit runs in a fresh process (``workload.py``) with the
sweep executed in-process (``workers=1``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload twice with every
layer wrapped (``layers.py``), checks that the two runs count the same
work, and prints the per-layer metrics.  See README.md for what each
workload and metric is for and how steady they are.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (the benchmark's own module, next to this file)

#: Nominal seconds one unit takes on a 2-vCPU x86 VM: a sweep, or a
#: cold/warm job pair.  The work of a run is fixed from ``--seconds``
#: and these constants, never from how fast the host happens to be.
UNIT_S = {
    "fig5-sweep": 16.0,
    "fig5-auto": 13.0,
    "overload-sweep": 8.5,
    "whatif-serve": 0.17,
}
WORKLOADS = tuple(UNIT_S)
#: Processes per run, each one a set-up sample.  Warm latencies shift
#: by 10-20% from one process to the next even after normalising, so
#: they are pooled from all of them.
PROCESSES = 9
#: Cold/warm job pairs in one traced whatif-serve process.
TRACE_PAIRS = 30
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


class ChildError(RuntimeError):
    pass


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_child(workload: str, seed: int, mode: str, store: str,
              pairs: int = 0) -> Dict[str, Any]:
    """Start one ``workload.py`` process, wait for it, parse its result."""
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env["REPRO_CACHE_DIR"] = store
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--pairs", str(pairs), "--store", store,
    ]
    started = time.monotonic()
    command += ["--started", repr(started)]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{workload} {mode} process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise ChildError(f"{workload} {mode} process exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(lines[-1])


def timed_run(workload: str, seed: int, seconds: int, scratch: str) -> Dict[str, Any]:
    """Untraced units for ``seconds``; the end-to-end metrics.

    A sweep unit is one process with a cold sweep into its own empty
    store, then warm re-runs.  Further processes, up to ``PROCESSES``,
    re-run the first unit's sweep warm, so warm samples come from that
    many interpreters.  On whatif-serve every process runs the same job
    pairs against its own server and store, and the session is their sum.
    """
    def store(name: Any) -> str:
        return os.path.join(scratch, f"store-{name}")

    if workload == "whatif-serve":
        pairs = max(1, round(seconds / UNIT_S[workload] / PROCESSES))
        runs = [run_child(workload, seed, "timed", store(n), pairs)
                for n in range(PROCESSES)]
        extra = []
        sweep_s = sum(run["sweep_s"] for run in runs)
    else:
        units = max(1, int(seconds // UNIT_S[workload]))
        runs = [run_child(workload, seed, "timed", store(n)) for n in range(units)]
        extra = [run_child(workload, seed, "warm", store(0))
                 for _ in range(units, PROCESSES)]
        sweep_s = statistics.median(run["sweep_s"] for run in runs)
    children = runs + extra
    setups = [child["setup_s"] for child in children]
    cold = [ms for run in runs for ms in run["cold_ms"]]
    warm = [ms for child in children for ms in child["warm_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "sweep_s": sweep_s,
        "cold_p50_ms": percentile(cold, 50),
        "cold_p90_ms": percentile(cold, 90),
        "warm_p50_ms": percentile(warm, 50),
        "warm_p90_ms": percentile(warm, 90),
        "peak_rss_mib": max(run["peak_rss_mib"] for run in runs),
    }
    digests = sorted({child["export_sha256"] for child in children
                      if "export_sha256" in child})
    print(f"[perfbench] {workload} seed={seed}: {len(cold)} cold / {len(warm)} "
          f"warm samples, {len(setups)} set-ups; sweep_s "
          f"{sum(run['raw_sweep_s'] for run in runs):.3f}s summed over "
          f"{len(runs)} process(es) before normalising", file=sys.stderr)
    for digest in digests:
        print(f"export_sha256 {workload} seed={seed} {digest}")
    if workload == "whatif-serve":
        cut = sum(run["stream_truncated"] for run in runs)
        print(f"[perfbench] {cut} event stream(s) closed before their "
              f"terminal event", file=sys.stderr)
    problems = [p for child in children for p in child["problems"]]
    if len(digests) != 1:
        problems.append(f"{len(digests)} different exports for one seed")
    return {
        "correct": not problems,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "problems": problems,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced_run(workload: str, seed: int, scratch: str) -> Dict[str, Any]:
    """Two traced units and one untraced; the per-layer metrics."""
    pairs = TRACE_PAIRS if workload == "whatif-serve" else 0
    first, second, plain = (
        run_child(workload, seed, mode, os.path.join(scratch, f"store-{n}"), pairs)
        for n, mode in enumerate(("traced", "traced", "timed"))
    )
    problems = first["problems"] + second["problems"] + plain["problems"]
    values = {}
    for name, value in first["layers"].items():
        again = second["layers"][name]
        if layers.unit_of(name) == "s":
            values[name] = (value + again) / 2
            continue
        values[name] = value
        if value != again and name not in layers.TIMING_DEPENDENT:
            problems.append(f"traced count {name} differs between runs: "
                            f"{value} vs {again}")
    traced_s = (first["sweep_s"] + second["sweep_s"]) / 2
    values["trace.overhead_s"] = traced_s - plain["sweep_s"]
    trace_path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "layers": first["table"],
                   "spans": first["spans"]}, fh, indent=1)
    print(f"[perfbench] {workload} traced: {traced_s:.2f}s traced vs "
          f"{plain['sweep_s']:.2f}s untraced; {len(first['spans'])} root spans "
          f"written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": first["attempted"] + second["attempted"] + plain["attempted"],
        "failed": first["failed"] + second["failed"] + plain["failed"],
        "problems": problems,
        "metrics": {name: {"value": values[name], "unit": layers.unit_of(name)}
                    for name in layers.METRICS},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE,
                        help="workload seed (default 0xC0FFEE)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measured seconds per run (sets the work done)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join("src", "repro", "__init__.py"),
                   os.path.join("docs", "schemas", "metrics.schema.json")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    try:
        # A throwaway set-up first, so bytecode compilation and a cold
        # page cache are not charged to the first measured process.
        run_child(args.workload, args.seed, "setup", os.path.join(scratch, "warm-up"))
        if args.trace:
            result = traced_run(args.workload, args.seed, scratch)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, scratch)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))  # only if nothing else is kept
        except OSError:
            pass
    for problem in result.pop("problems"):
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
