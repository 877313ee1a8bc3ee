"""Closed-form steady-state KeyDB model (the Fig. 5 / Fig. 8 fast path).

The ``des`` backend (the epoch driver, :mod:`repro.apps.kvstore.server`)
prices hundreds of thousands of individual YCSB operations; its epoch loop is a fixed-point solver
in disguise (see the module docstring there).  This model computes the
same steady state directly:

1. **Exact key popularity.**  The YCSB Zipfian chooser is the Gray
   et al. analytic inverse of a uniform draw, so its induced pmf has a
   closed form: the rank boundaries ``u_k = ((k/n)^(1-theta) - 1 +
   eta) / eta`` partition [0, 1] and the rank pmf is their difference
   (with the two explicit low-rank branches added back).  The FNV-style
   scramble is applied to the rank vector wholesale (vectorized uint64,
   wrap-around multiply), giving the *exact* per-key access mass —
   including hash collisions, which merge mass exactly as in the DES.
2. **Exact placement.**  Policies are deterministic, so the page→node
   map is the policy's own placement pattern tiled over the page array
   (smooth-WRR patterns repeat every ``sum(weights)`` placements).
3. **Fixed point.**  Per-node loaded latencies price the four operation
   classes; the implied byte rates go through the *same* platform
   allocator to refresh utilizations; iterate to convergence.  This is
   the DES's epoch loop with expectation values instead of samples.
4. **FLASH tier.**  Residency is an LRU over values; its steady state
   under a skewed key pmf is "the resident set is whatever was touched
   recently" — modeled as a first-touch transient (initially-resident
   tail ids keep their head start) plus the stationary cold-tail miss
   mass, plus the DES's churn residual.
5. **Hot-promote.**  The tiering daemon's scans are replayed
   analytically: scan times from the epoch timeline, candidates =
   CXL pages whose expected scan-window accesses clear the threshold,
   promotions rate-limited by the same byte budget, threshold doubling
   /halving as in the kernel patch.  Tiering is a *transient* process,
   so this is the model's weakest approximation — `auto` backend
   selection routes hot-promote cells to the epoch driver (see
   :mod:`repro.analytic.select`); the analytic variant remains useful
   for capacity-planning scans and is validated with a looser pinned
   tolerance.

The output is a real :class:`~repro.apps.kvstore.core.KeyDbResult` —
histograms populated from the latency-class mixture with
largest-remainder integer rounding, counters matching the DES keys —
so every downstream consumer (figure tables, metrics registries, merged
exports) is backend-agnostic.

``seed`` is accepted for interface parity and ignored: the model is the
infinite-sample limit, which is what makes it a *backend* rather than a
different experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.kvstore.core import MIGRATION_BANDWIDTH, KeyDbResult
from ..apps.kvstore.store import ServiceProfile
from ..errors import ConfigurationError
from ..hw.presets import paper_cxl_platform
from ..hw.topology import Platform
from ..mem.page import Page
from ..mem.policy import InterleavePolicy, WeightedInterleavePolicy
from ..sim.rng import DEFAULT_SEED
from ..sim.stats import LatencyHistogram
from ..units import KIB, PAGE_SIZE, gb_per_s
from ..workloads.distributions import ZipfianChooser, _fnv_hash_vector
from ..workloads.ycsb import WORKLOADS, YcsbSpec

__all__ = [
    "zipf_rank_pmf",
    "scrambled_key_pmf",
    "analytic_keydb_config",
    "analytic_keydb_cxl_only",
]

#: Epoch size of the DES server loop; used to reconstruct the tiering
#: daemon's tick timeline.
EPOCH_OPS = 2000


# -- exact workload distributions -------------------------------------------


@lru_cache(maxsize=16)
def _rank_pmf_cached(item_count: int, theta: float) -> np.ndarray:
    chooser = ZipfianChooser(item_count, theta)
    n = item_count
    s = 1.0 - theta
    t0 = 1.0 / chooser.zetan
    t1 = (1.0 + 0.5**theta) / chooser.zetan
    k = np.arange(0, n + 1, dtype=np.float64)
    boundaries = ((k / n) ** s - 1.0) / chooser.eta + 1.0
    boundaries = np.clip(boundaries, t1, 1.0)
    boundaries[-1] = 1.0
    pmf = np.diff(boundaries)
    pmf[0] += t0
    pmf[1] += t1 - t0
    pmf.setflags(write=False)
    return pmf


def zipf_rank_pmf(item_count: int, theta: float = 0.99) -> np.ndarray:
    """The exact pmf the YCSB Zipfian chooser induces over *ranks*.

    Inverts :meth:`repro.workloads.distributions.ZipfianChooser.next_key`
    interval by interval: rank ``k`` is drawn iff the uniform variate
    lands in ``[u_k, u_{k+1})``, with the two explicit branches for
    ranks 0 and 1 added back.  Sums to 1.0 to machine precision.
    Cached (read-only view) — the chooser's ``zeta`` constants are the
    expensive part and every cell of a figure shares one key space.
    """
    return _rank_pmf_cached(item_count, theta)


@lru_cache(maxsize=16)
def _scrambled_key_pmf_cached(item_count: int, theta: float) -> np.ndarray:
    rank_pmf = zipf_rank_pmf(item_count, theta)
    ranks = np.arange(item_count, dtype=np.uint64)
    keys = (_fnv_hash_vector(ranks) % np.uint64(item_count)).astype(np.int64)
    mass = np.bincount(keys, weights=rank_pmf, minlength=item_count)
    mass.setflags(write=False)
    return mass


def scrambled_key_pmf(item_count: int, theta: float = 0.99) -> np.ndarray:
    """Exact per-key access mass of the scrambled Zipfian chooser.

    Rank mass lands on ``fnv(rank) % n``; colliding ranks merge, exactly
    as in the DES.  Cached, read-only.
    """
    return _scrambled_key_pmf_cached(item_count, theta)


@lru_cache(maxsize=4)
def _shared_platform(snc_enabled: bool) -> Platform:
    """One read-only platform per topology flavour.

    The analytic backend never mutates platform state (no deratings, no
    device byte counters, no RAS transitions), so cells can share the
    construction cost.
    """
    return paper_cxl_platform(snc_enabled=snc_enabled)


def _page_mass(key_mass: np.ndarray, values_per_page: int) -> np.ndarray:
    """Aggregate per-key mass to per-page mass."""
    n = key_mass.size
    pad = (-n) % values_per_page
    if pad:
        key_mass = np.concatenate([key_mass, np.zeros(pad)])
    return key_mass.reshape(-1, values_per_page).sum(axis=1)


# -- placement ---------------------------------------------------------------


def _wrr_pattern(weights: Dict[int, int]) -> List[int]:
    """The repeating placement cycle of a smooth-WRR policy.

    Smooth weighted round-robin returns to its initial state after
    ``sum(weights)`` placements, so running a fresh policy that many
    steps (with ample capacity) yields the exact tile the DES lays down.
    """
    policy = WeightedInterleavePolicy(weights)
    free = {node: 1 << 62 for node in weights}
    return [policy.place(free, PAGE_SIZE) for _ in range(sum(weights.values()))]


def _placement_pattern(config: str, platform: Platform) -> List[int]:
    """Node cycle the DES policy tiles over the page array."""
    dram0 = [n.node_id for n in platform.dram_nodes(0)]
    dram_all = [n.node_id for n in platform.dram_nodes(None)]
    cxl_all = [n.node_id for n in platform.cxl_nodes()]
    if config == "mmem" or config.startswith("mmem-ssd-"):
        return [dram0[0]]
    if config == "hot-promote":
        policy = InterleavePolicy(list(dram_all) + list(cxl_all))
        free = {node: 1 << 62 for node in policy.nodes()}
        return [policy.place(free, PAGE_SIZE) for _ in policy.nodes()]
    if ":" in config:
        n, m = (int(x) for x in config.split(":"))
        if n <= 0 or m <= 0:
            raise ConfigurationError(f"bad interleave ratio {config!r}")
        weights = {d: n * len(cxl_all) for d in dram_all}
        weights.update({c: m * len(dram_all) for c in cxl_all})
        return _wrr_pattern(weights)
    raise ConfigurationError(f"unknown KeyDB config {config!r}")


# -- FLASH tier --------------------------------------------------------------


@dataclass(frozen=True)
class _FlashModel:
    """Expectation-level view of the FLASH tier for one run."""

    read_miss: float
    write_miss: float
    value_size: int
    read_latency_ns: float
    write_latency_ns: float
    read_bw: float
    write_bw: float
    os_hit: float = 0.45
    page_cache_ns: float = 5_000.0
    write_amortization: float = 0.10

    def fault_read_classes(self, ssd_utilization: float) -> List[Tuple[float, float]]:
        """(probability, latency) branches of one fault read."""
        scale = 1.0 / (1.0 - min(ssd_utilization, 0.99))
        device = (
            self.read_latency_ns + self.value_size / self.read_bw * 1e9
        ) * scale
        return [(self.os_hit, self.page_cache_ns), (1.0 - self.os_hit, device)]

    def persist_write_ns(self, ssd_utilization: float) -> float:
        """Amortized persistence write every SET pays."""
        scale = 1.0 / (1.0 - min(ssd_utilization, 0.99))
        raw = (
            self.write_latency_ns + self.value_size / self.write_bw * 1e9
        ) * scale
        return raw * self.write_amortization

    def ssd_bytes_per_op(self, read_fraction: float, write_fraction: float) -> float:
        reads = read_fraction * self.read_miss * self.value_size
        writes = write_fraction * (self.write_miss + 1.0) * self.value_size
        return reads + writes


def _first_touch_miss(
    nonresident_mass: np.ndarray, warmup_ops: int, total_ops: int
) -> float:
    """Per-op probability that a measured access misses the LRU.

    For an initially non-resident key with access probability ``p`` the
    expected number of measured-window misses is its *first touch*
    landing in the window: ``(1-p)^W - (1-p)^T``.  Hot keys fault in
    during warmup and contribute ~0; cold-tail keys reduce to the
    stationary miss mass ``p`` per op.  One formula covers the
    transient and the steady state.
    """
    window = max(total_ops - warmup_ops, 1)
    p = np.clip(nonresident_mass, 0.0, 1.0)
    misses = np.power(1.0 - p, warmup_ops) - np.power(1.0 - p, total_ops)
    return float(misses.sum()) / window


def _flash_model(
    config: str,
    spec: YcsbSpec,
    key_mass: np.ndarray,
    rank_pmf: np.ndarray,
    record_count: int,
    value_size: int,
    warmup_ops: int,
    total_ops: int,
    platform: Platform,
) -> Optional[_FlashModel]:
    if not config.startswith("mmem-ssd-"):
        return None
    spilled = float(config.rsplit("-", 1)[1])
    if not 0.0 < spilled < 1.0:
        raise ConfigurationError(f"bad spill fraction in {config!r}")
    resident = max(1, int(record_count * (1.0 - spilled)))
    spilled_fraction = max(0.0, 1.0 - resident / record_count)
    churn = 0.10 * spilled_fraction  # FlashTier.cache_inefficiency
    if spec.distribution == "latest":
        # Latest-distribution residency *is* recency: reads only miss on
        # ranks beyond the LRU capacity; inserts always land resident.
        # Inserts also *grow* the key space while the LRU capacity stays
        # fixed, which fattens the rank tail and raises the DES's live
        # spilled fraction (hence churn) as the run progresses; the
        # midpoint count captures the run-averaged effect.
        grown = record_count + spec.insert_fraction * total_ops / 2.0
        mid_pmf = zipf_rank_pmf(int(grown))
        churn = 0.10 * max(0.0, 1.0 - resident / grown)
        tail = float(mid_pmf[resident:].sum()) if resident < mid_pmf.size else 0.0
        read_miss = tail + churn * (1.0 - tail)
        write_miss = churn
    else:
        # Initial LRU contents: the *last* ``resident`` registered ids.
        # Every genuine fault-in evicts the LRU-oldest value — the
        # lowest still-untouched initially-resident ids, in id order —
        # so those ids join the non-resident population for first-touch
        # purposes.  One correction pass suffices: evictions are a small
        # fraction of the resident set.
        spill_count = max(record_count - resident, 0)
        nonres = np.clip(key_mass[:spill_count], 0.0, 1.0)
        evictions = int((1.0 - np.power(1.0 - nonres, total_ops)).sum())
        evicted_tail = key_mass[spill_count : spill_count + evictions]
        first_touch = _first_touch_miss(
            np.concatenate([nonres, evicted_tail]), warmup_ops, total_ops
        )
        read_miss = first_touch + churn * (1.0 - first_touch)
        write_miss = read_miss
    ssd_spec = platform.ssds[0].spec
    return _FlashModel(
        read_miss=read_miss,
        write_miss=write_miss,
        value_size=value_size,
        read_latency_ns=ssd_spec.read_latency_ns,
        write_latency_ns=ssd_spec.write_latency_ns,
        read_bw=ssd_spec.read_bandwidth_bytes_per_s,
        write_bw=ssd_spec.write_bandwidth_bytes_per_s,
    )


# -- the fixed-point solver --------------------------------------------------


@dataclass
class _SteadyState:
    """Converged operating point of one configuration."""

    mean_service_ns: float
    read_classes: List[Tuple[float, float]]  # (probability, latency_ns)
    write_classes: List[Tuple[float, float]]
    ops_per_s: float
    ssd_utilization: float
    ssd_bytes_per_op: float
    utilization: Dict[str, float] = field(default_factory=dict)
    iterations: int = 0


def _solve_steady_state(
    platform: Platform,
    spec: YcsbSpec,
    profile: ServiceProfile,
    node_read_mass: Dict[int, float],
    node_write_mass: Dict[int, float],
    flash: Optional[_FlashModel],
    threads: int,
    value_size: int,
    socket: int = 0,
    max_iterations: int = 50,
    tolerance: float = 1e-9,
) -> _SteadyState:
    """Iterate latencies -> service times -> traffic -> latencies."""
    rf, wf = spec.read_fraction, spec.write_fraction
    nodes = sorted(set(node_read_mass) | set(node_write_mass))
    paths = {n: platform.path(socket, n) for n in nodes}
    touched = value_size + 64 * (profile.struct_accesses + profile.value_accesses)
    # Combined access-weighted mix: the DES's struct walk follows the
    # previous epoch's touched-bytes distribution, and touched bytes per
    # op are constant, so at steady state the mix is the access mass.
    mix = {
        n: rf * node_read_mass.get(n, 0.0) + wf * node_write_mass.get(n, 0.0)
        for n in nodes
    }
    total_mix = sum(mix.values())
    if total_mix > 0:
        mix = {n: m / total_mix for n, m in mix.items()}

    utilization: Dict[str, float] = {}
    ssd_utilization = 0.0
    mean_ns = float("inf")
    state = _SteadyState(0.0, [], [], 0.0, 0.0, 0.0)
    for iteration in range(1, max_iterations + 1):
        read_lat = {
            n: paths[n].loaded_latency_ns(
                paths[n].bottleneck_utilization(utilization), 0.0
            )
            for n in nodes
        }
        write_lat = {
            n: paths[n].loaded_latency_ns(
                paths[n].bottleneck_utilization(utilization), 1.0
            )
            for n in nodes
        }
        struct_read = sum(mix[n] * read_lat[n] for n in nodes)
        struct_write = sum(mix[n] * write_lat[n] for n in nodes)

        read_classes: List[Tuple[float, float]] = []
        write_classes: List[Tuple[float, float]] = []
        for n in nodes:
            base_r = (
                profile.cpu_ns
                + profile.struct_accesses * struct_read
                + profile.value_accesses * read_lat[n]
            )
            base_w = (
                profile.cpu_ns
                + profile.struct_accesses * struct_write
                + profile.value_accesses * write_lat[n]
            )
            p_r = node_read_mass.get(n, 0.0)
            p_w = node_write_mass.get(n, 0.0)
            if flash is None:
                if p_r > 0:
                    read_classes.append((p_r, base_r))
                if p_w > 0:
                    write_classes.append((p_w, base_w))
                continue
            fault = flash.fault_read_classes(ssd_utilization)
            persist = flash.persist_write_ns(ssd_utilization)
            if p_r > 0:
                read_classes.append((p_r * (1.0 - flash.read_miss), base_r))
                for q, extra in fault:
                    read_classes.append((p_r * flash.read_miss * q, base_r + extra))
            if p_w > 0:
                write_classes.append(
                    (p_w * (1.0 - flash.write_miss), base_w + persist)
                )
                for q, extra in fault:
                    write_classes.append(
                        (p_w * flash.write_miss * q, base_w + extra + persist)
                    )

        mean_read = sum(p * t for p, t in read_classes)
        mean_write = sum(p * t for p, t in write_classes)
        proposed = rf * mean_read + wf * mean_write
        ops_per_s = threads * 1e9 / proposed

        demands = []
        for n in nodes:
            reads = rf * node_read_mass.get(n, 0.0) * touched * ops_per_s
            writes = wf * node_write_mass.get(n, 0.0) * touched * ops_per_s
            rate = reads + writes
            if rate <= 0:
                continue
            demands.append(
                platform.demand(f"keydb/{n}", paths[n], rate, writes / rate)
            )
        utilization = (
            platform.allocate(demands).utilization if demands else {}
        )
        ssd_bytes = flash.ssd_bytes_per_op(rf, wf) if flash is not None else 0.0
        if flash is not None:
            ssd_utilization = min(0.9, ops_per_s * ssd_bytes / flash.read_bw)

        state = _SteadyState(
            mean_service_ns=proposed,
            read_classes=read_classes,
            write_classes=write_classes,
            ops_per_s=ops_per_s,
            ssd_utilization=ssd_utilization,
            ssd_bytes_per_op=ssd_bytes,
            utilization=dict(utilization),
            iterations=iteration,
        )
        if math.isfinite(mean_ns) and abs(proposed - mean_ns) <= tolerance * proposed:
            break
        mean_ns = proposed
    return state


# -- hot-promote replay ------------------------------------------------------


@dataclass
class _PromotionOutcome:
    migrated_bytes: int = 0
    stall_ns: float = 0.0
    stall_measured_ns: float = 0.0


def _replay_hot_promote(
    page_node: np.ndarray,
    page_mass: np.ndarray,
    mean_service_ns: float,
    threads: int,
    total_ops: int,
    warmup_ops: int,
    dram_target: int,
    cxl_nodes: Sequence[int],
    dataset_bytes: int,
    page_size: int = PAGE_SIZE,
    scan_period_ns: float = 20e6,
    rate_limit_bytes_per_s: float = gb_per_s(0.1),
    initial_threshold: float = 4.0,
) -> _PromotionOutcome:
    """Replay the HotPageSelectionDaemon's scans in expectation.

    Mutates ``page_node``: promoted pages move to ``dram_target``.
    Thresholds auto-adjust exactly as the daemon's (doubling/halving in
    [0.5, 64]); candidate heat is each page's expected accesses in the
    scan window with the 100 ms-half-life decay applied at its midpoint.
    """
    outcome = _PromotionOutcome()
    op_wall_ns = mean_service_ns / threads
    total_ns = total_ops * op_wall_ns
    epoch_ns = EPOCH_OPS * op_wall_ns
    cap_pages = (dataset_bytes // 2) // page_size
    budget_pages = int(rate_limit_bytes_per_s * scan_period_ns / 1e9 // page_size)
    threshold = initial_threshold
    cxl_set = set(int(c) for c in cxl_nodes)

    is_cxl = np.isin(page_node, list(cxl_set))
    d0_pages = int((page_node == dram_target).sum())

    # Scan timeline: the daemon's first tick (end of epoch 1) always
    # scans; later ticks fire at the first epoch boundary past the
    # period.  The first scan sees one epoch of history; later scans a
    # full period's worth.
    scans: List[Tuple[float, float]] = []  # (now_ns, window_ops)
    now = epoch_ns
    if now <= total_ns + 1e-9:
        scans.append((now, float(EPOCH_OPS)))
    while True:
        nxt = now + scan_period_ns
        nxt = math.ceil(nxt / epoch_ns - 1e-9) * epoch_ns
        if nxt > total_ns + 1e-9:
            break
        scans.append((nxt, scan_period_ns / op_wall_ns))
        now = nxt

    for now_ns, window_ops in scans:
        decay = 0.5 ** ((min(now_ns, scan_period_ns) / 2.0) / Page.HEAT_HALF_LIFE)
        heat = page_mass * window_ops * decay
        candidate_idx = np.flatnonzero(is_cxl & (heat >= threshold))
        if candidate_idx.size:
            order = candidate_idx[np.argsort(-heat[candidate_idx], kind="stable")]
            room = max(0, cap_pages - d0_pages)
            take = min(order.size, budget_pages, room)
            if take > 0:
                chosen = order[:take]
                page_node[chosen] = dram_target
                is_cxl[chosen] = False
                d0_pages += take
                moved = take * page_size
                stall = moved / MIGRATION_BANDWIDTH * 1e9
                outcome.migrated_bytes += moved
                outcome.stall_ns += stall
                if now_ns >= warmup_ops * op_wall_ns:
                    outcome.stall_measured_ns += stall
        # Daemon's auto threshold adjustment.
        candidate_bytes = candidate_idx.size * page_size
        budget_bytes = budget_pages * page_size
        if candidate_bytes > budget_bytes:
            threshold = min(64.0, threshold * 2.0)
        elif candidate_bytes < budget_bytes / 2:
            threshold = max(0.5, threshold / 2.0)
    return outcome


# -- result assembly ---------------------------------------------------------


def _largest_remainder_counts(
    classes: Sequence[Tuple[float, float]], total: int
) -> List[Tuple[float, int]]:
    """Integer counts per class summing exactly to ``total``."""
    if total <= 0 or not classes:
        return []
    weights = np.array([max(p, 0.0) for p, _ in classes])
    if weights.sum() <= 0:
        return []
    weights = weights / weights.sum()
    raw = weights * total
    counts = np.floor(raw).astype(int)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return [(classes[i][1], int(counts[i])) for i in range(len(classes))]


def _fill_histogram(
    histogram: LatencyHistogram, classes: Sequence[Tuple[float, float]], total: int
) -> None:
    for latency, count in _largest_remainder_counts(classes, total):
        if count > 0:
            histogram.record(latency, count)


def _assemble_result(
    state: _SteadyState,
    spec: YcsbSpec,
    threads: int,
    total_ops: int,
    warmup_ops: int,
    promotion: Optional[_PromotionOutcome] = None,
) -> KeyDbResult:
    measured = max(total_ops - warmup_ops, 0)
    reads = int(round(measured * spec.read_fraction))
    writes = measured - reads
    result = KeyDbResult()
    result.ops = measured
    result.elapsed_ns = measured * state.mean_service_ns / threads
    if promotion is not None:
        result.elapsed_ns += promotion.stall_measured_ns
    _fill_histogram(result.read_latency, state.read_classes, reads)
    _fill_histogram(result.write_latency, state.write_classes, writes)
    result.counters.add(
        "ssd_bytes", int(round(total_ops * state.ssd_bytes_per_op))
    )
    if promotion is not None and promotion.migrated_bytes:
        result.counters.add("migrated_bytes", promotion.migrated_bytes)
        result.counters.add("migration_stall_ns", promotion.stall_ns)
    return result


# -- entry points ------------------------------------------------------------


def _node_masses(
    page_node: np.ndarray, page_mass: np.ndarray
) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for node in np.unique(page_node):
        out[int(node)] = float(page_mass[page_node == node].sum())
    return out


def _pattern_fractions(pattern: Sequence[int]) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for node in pattern:
        out[node] = out.get(node, 0.0) + 1.0 / len(pattern)
    return out


def analytic_keydb_config(
    config: str,
    workload: str = "A",
    record_count: int = 131_072,
    total_ops: int = 200_000,
    warmup_ops: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> KeyDbResult:
    """Closed-form counterpart of :func:`repro.apps.kvstore.run_keydb_config`."""
    del seed  # the model is the infinite-sample limit
    if workload not in WORKLOADS:
        raise ConfigurationError(f"unknown YCSB workload {workload!r}")
    spec = WORKLOADS[workload]
    if warmup_ops is None:
        warmup_ops = total_ops // 2 if config == "hot-promote" else total_ops // 10
    platform = _shared_platform(False)
    profile = ServiceProfile.capacity()
    value_size = KIB
    values_per_page = PAGE_SIZE // value_size
    threads = 7
    dataset_bytes = record_count * value_size

    pattern = _placement_pattern(config, platform)
    n_pages = -(-record_count // values_per_page)
    page_node = np.asarray(pattern, dtype=np.int64)[
        np.arange(n_pages, dtype=np.int64) % len(pattern)
    ].copy()
    rank_pmf = zipf_rank_pmf(record_count)

    if spec.distribution == "latest":
        # Reads chase recency: rank r -> key (n-1-r).  Inserts keep
        # appending new pages, so over a run the recency hotspot *walks*
        # across the placement pattern (any fixed rank's key slides over
        # hundreds of pages — far more than the pattern length).  Both
        # read and write traffic therefore average out to the policy's
        # long-run node fractions.
        key_mass = rank_pmf[::-1].copy()
        read_page_mass = _page_mass(key_mass, values_per_page)
        write_mass = _pattern_fractions(pattern)
        read_mass = dict(write_mass)
    else:
        key_mass = scrambled_key_pmf(record_count)
        read_page_mass = _page_mass(key_mass, values_per_page)
        write_mass = None
        read_mass = None

    flash = _flash_model(
        config, spec, key_mass, rank_pmf, record_count, value_size,
        warmup_ops, total_ops, platform,
    )

    node_read_mass = (
        dict(read_mass)
        if read_mass is not None
        else _node_masses(page_node, read_page_mass)
    )
    node_write_mass = (
        dict(write_mass) if write_mass is not None else dict(node_read_mass)
    )

    promotion: Optional[_PromotionOutcome] = None
    if config == "hot-promote":
        # Two-phase solve: pre-promotion operating point fixes the scan
        # timeline, then the promoted placement fixes the steady state.
        pre = _solve_steady_state(
            platform, spec, profile, node_read_mass, node_write_mass,
            flash, threads, value_size,
        )
        dram0 = platform.dram_nodes(0)[0].node_id
        cxl_ids = [n.node_id for n in platform.cxl_nodes()]
        promotion = _replay_hot_promote(
            page_node, read_page_mass, pre.mean_service_ns, threads,
            total_ops, warmup_ops, dram0, cxl_ids, dataset_bytes,
        )
        node_read_mass = _node_masses(page_node, read_page_mass)
        node_write_mass = dict(node_read_mass)

    state = _solve_steady_state(
        platform, spec, profile, node_read_mass, node_write_mass,
        flash, threads, value_size,
    )
    return _assemble_result(state, spec, threads, total_ops, warmup_ops, promotion)


def analytic_keydb_cxl_only(
    on_cxl: bool,
    record_count: int = 102_400,
    total_ops: int = 150_000,
    seed: int = DEFAULT_SEED,
) -> KeyDbResult:
    """Closed-form counterpart of :func:`repro.apps.kvstore.run_keydb_cxl_only`."""
    del seed
    platform = _shared_platform(False)
    profile = ServiceProfile.vm()
    spec = WORKLOADS["C"]
    value_size = KIB
    values_per_page = PAGE_SIZE // value_size
    if on_cxl:
        node = platform.cxl_nodes(0)[0].node_id
    else:
        node = platform.dram_nodes(0)[0].node_id
    n_pages = -(-record_count // values_per_page)
    page_node = np.full(n_pages, node, dtype=np.int64)
    key_mass = scrambled_key_pmf(record_count)
    read_page_mass = _page_mass(key_mass, values_per_page)
    node_read_mass = _node_masses(page_node, read_page_mass)
    state = _solve_steady_state(
        platform, spec, profile, node_read_mass, dict(node_read_mass),
        None, 7, value_size,
    )
    return _assemble_result(state, spec, 7, total_ops, total_ops // 10)
