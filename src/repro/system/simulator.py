"""Multi-cluster scale-out simulation on one HMC.

:class:`SystemSimulator` instantiates ``vaults x clusters_per_vault``
processing clusters on a shared :class:`~repro.mem.hmc.Hmc`, shards a
tiled workload across them through the work-queue scheduler, and runs
every tile end to end:

1. the tile's inputs are DMA-copied from the HMC into the assigned
   cluster's TCDM,
2. the tile's NTX commands execute through the cycle-level cluster
   simulator (bank conflicts included), and
3. the results are DMA-copied back into the HMC,

so after a run the HMC holds the bit-exact outputs of the whole workload.
Per cluster, DMA and compute overlap in the double-buffered fashion of
§II-E (:func:`repro.cluster.tiling.overlap_cycles`); across clusters, the
aggregate DMA traffic is checked against the bandwidth of the populated
vaults and, when the clusters collectively demand more than the DRAM can
deliver, every transfer is slowed by the resulting contention factor —
the mechanism behind the compute plateau of the paper's biggest
configurations (Table II).

Three system-scale accelerations sit on top of that machinery, all exact:

* **Tile-timing memoization** (on by default,
  ``ExecutionOptions(memoize=False)`` disables it): tiles whose engine/command-stream/cluster-configuration
  signature has been simulated before replay the cached timing and only
  re-execute the data plane, so the thousands of identical interior tiles
  of a big tiled workload pay for cycle simulation once
  (:mod:`repro.system.memo`).
* **Cross-tile batched replay** (on by default,
  ``ExecutionOptions(batch=False)`` disables it): cache-hit tiles sharing one timing signature replay their data
  planes as a single stacked NumPy dispatch instead of one dispatch per
  tile (:mod:`repro.system.batch`).  Guarded by a per-group
  self-containment gate, with a global fallback to the per-tile path when
  any tile fails it.
* **Parallel dispatch** (``ExecutionOptions(parallel=N)``): independent
  clusters run in worker processes and their HMC writes are merged back in
  deterministic cluster order (:mod:`repro.system.parallel`).  Requires
  what the work-queue contract already assumes — tiles do not read each
  other's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator, SimulationResult
from repro.cluster.tiling import TileSchedule, overlap_cycles
from repro.mem.hmc import Hmc
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.options import ExecutionOptions
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache
from repro.system.scheduler import ShardPlan, WorkQueueScheduler

# Registry instruments for the system layer.  The tile-timing cache is
# not touched per lookup — ``SystemSimulator.run`` already computes
# hit/miss deltas for :class:`SystemResult`, and publishes those same
# deltas here, so the memoization hot path stays uninstrumented.
_TILE_HITS = _metrics.counter(
    "repro_tile_cache_hits_total", "Tile-timing cache hits"
)
_TILE_MISSES = _metrics.counter(
    "repro_tile_cache_misses_total", "Tile-timing cache misses"
)
_TILE_ENTRIES = _metrics.gauge(
    "repro_tile_cache_entries", "Distinct timing signatures cached"
)
_PHASE_SECONDS = _metrics.histogram(
    "repro_phase_seconds",
    "Wall seconds per system-run phase",
    labelnames=("phase",),
)

__all__ = [
    "ClusterReport",
    "SystemResult",
    "SystemSimulator",
    "run_cluster_tiles",
]


@dataclass
class ClusterReport:
    """What one cluster did during a system run."""

    cluster_id: int
    vault_id: int
    tile_indices: List[int] = field(default_factory=list)
    compute_cycles_per_tile: List[float] = field(default_factory=list)
    dma_cycles_per_tile: List[float] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)
    busy_cycles: float = 0.0
    dma_bytes: int = 0

    @property
    def flops(self) -> int:
        return sum(result.flops for result in self.results)

    @property
    def tcdm_requests(self) -> int:
        return sum(result.tcdm_requests for result in self.results)

    @property
    def tcdm_conflicts(self) -> int:
        return sum(result.tcdm_conflicts for result in self.results)


@dataclass
class SystemResult:
    """Aggregate outcome of one multi-cluster run."""

    config: SystemConfig
    reports: List[ClusterReport]
    makespan_cycles: float
    contention_factor: float
    #: Timing-cache accounting of this run (zero when memoization is off).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Worker processes the run was dispatched onto (1 = in-process).
    workers: int = 1

    @property
    def num_tiles(self) -> int:
        return sum(len(report.tile_indices) for report in self.reports)

    @property
    def total_flops(self) -> int:
        return sum(report.flops for report in self.reports)

    @property
    def total_dma_bytes(self) -> int:
        return sum(report.dma_bytes for report in self.reports)

    @property
    def total_compute_cycles(self) -> float:
        """Cycle-simulated compute time summed over every tile (DMA excluded).

        For a single tile on a single co-processor this is exactly the
        cycle count of the streaming command itself, which is what the
        per-opcode throughput artifact (Figure 3b) reads off a campaign
        record.
        """
        return sum(
            sum(report.compute_cycles_per_tile) for report in self.reports
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of tile simulations served from the timing cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def throughput_flops_per_s(self) -> float:
        """Achieved system throughput over the whole run."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / self.config.cluster.ntx_frequency_hz
        return self.total_flops / seconds

    @property
    def utilization(self) -> float:
        """Mean busy fraction of the clusters over the makespan."""
        if self.makespan_cycles <= 0 or not self.reports:
            return 0.0
        busy = sum(report.busy_cycles for report in self.reports)
        return busy / (len(self.reports) * self.makespan_cycles)

    @property
    def conflict_probability(self) -> float:
        """Aggregate TCDM banking-conflict probability across all tiles."""
        requests = sum(report.tcdm_requests for report in self.reports)
        conflicts = sum(report.tcdm_conflicts for report in self.reports)
        return conflicts / requests if requests else 0.0

    @property
    def offered_dma_bandwidth_bytes_per_s(self) -> float:
        """Aggregate DRAM traffic rate the clusters asked for."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / self.config.cluster.ntx_frequency_hz
        return self.total_dma_bytes / seconds

    def summary(self) -> Dict[str, object]:
        """Headline metrics of the run (int counts and float rates)."""
        return {
            "clusters": self.config.num_clusters,
            "vaults": self.config.num_vaults,
            "tiles": self.num_tiles,
            "makespan_cycles": self.makespan_cycles,
            "compute_cycles": self.total_compute_cycles,
            "gflops": self.throughput_flops_per_s / 1e9,
            "utilization": self.utilization,
            "conflict_probability": self.conflict_probability,
            "dma_gbs": self.offered_dma_bandwidth_bytes_per_s / 1e9,
            "contention_factor": self.contention_factor,
            "cache_hit_rate": self.cache_hit_rate,
            "workers": self.workers,
        }


def run_cluster_tiles(
    cluster: Cluster,
    config: SystemConfig,
    assigned: Sequence[Tuple[int, TileSchedule]],
    vault_id: int,
    cache: Optional[TileTimingCache] = None,
) -> ClusterReport:
    """Execute ``assigned`` tiles on ``cluster`` and report what happened.

    ``assigned`` pairs each tile with its workload-global index.  This is
    the single per-cluster execution path: the sequential dispatcher calls
    it in-process, the parallel dispatcher calls it inside each worker.
    When ``cache`` is given, tile timing is memoized — a hit replays the
    cached :class:`~repro.cluster.sim.SimulationResult` and only executes
    the data plane (DMA plus functional command execution), which keeps
    the HMC bit-identical to an uncached run.

    ``busy_cycles`` is left at zero; the caller derives it (and the
    bandwidth-contention stretch) from the per-tile cycle lists.
    """
    cluster_config = config.cluster
    core_ratio = cluster_config.ntx_frequency_hz / cluster_config.core_frequency_hz
    report = ClusterReport(
        cluster_id=0,
        vault_id=vault_id,
        tile_indices=[index for index, _ in assigned],
    )
    for index, tile in assigned:
        with _trace.span("tile", index=index):
            dma_cycles = 0
            for transfer in tile.transfers_in:
                dma_cycles += cluster.run_dma(transfer)
                report.dma_bytes += transfer.total_bytes
            if tile.commands:
                simulator = ClusterSimulator(cluster, engine=config.engine)
                jobs = tile.jobs(cluster_config.num_ntx)
                result: Optional[SimulationResult] = None
                if cache is not None:
                    key = simulator.timing_signature(
                        jobs, stagger_cycles=config.stagger_cycles
                    )
                    cached = cache.get(key)
                    if cached is not None:
                        simulator.run_data_plane(jobs)
                        for ntx_id in range(cluster_config.num_ntx):
                            stats = cluster.ntx[ntx_id].stats
                            stats.active_cycles += cached.per_ntx_active[ntx_id]
                            stats.stall_cycles += cached.per_ntx_stall[ntx_id]
                        result = cached.to_result()
                if result is None:
                    result = simulator.run(jobs, stagger_cycles=config.stagger_cycles)
                    if cache is not None:
                        cache.put(key, CachedTiming.from_result(result))
                report.results.append(result)
                report.compute_cycles_per_tile.append(float(result.cycles))
            else:
                report.compute_cycles_per_tile.append(0.0)
            for transfer in tile.transfers_out:
                dma_cycles += cluster.run_dma(transfer)
                report.dma_bytes += transfer.total_bytes
            # DMA cycles tick at the core/AXI clock; convert to NTX cycles.
            report.dma_cycles_per_tile.append(dma_cycles * core_ratio)
    return report


class SystemSimulator:
    """N clusters per vault, V vaults, one shared HMC, one work queue."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        timing_cache: Optional[TileTimingCache] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        """``options`` selects the execution path; see :mod:`repro.options`.

        ``options.parallel`` worker processes dispatch the clusters (0
        and 1 run in-process), ``options.memoize`` toggles the tile
        timing cache (which persists across :meth:`run` calls), and
        ``options.batch`` (on by default) replays cache-hit tiles in
        stacked same-signature groups (:mod:`repro.system.batch`) —
        bit-identical to the per-tile path, and much faster once the
        cache is warm; it engages only when memoization is on and every
        tile passes the self-containment gate.  A non-``None``
        ``options.engine`` overrides the engine of ``config``.

        A caller running many simulators over structurally similar
        workloads (the campaign runner, the server) may pass a shared
        ``timing_cache`` so warm entries carry across simulator
        instances; signatures pin the full cluster configuration, so
        sharing is always exact.
        """
        options = options or ExecutionOptions()
        config = config or SystemConfig()
        if options.engine is not None and config.engine != options.engine:
            config = replace(config, engine=options.engine)
        self.options = options
        self.config = config
        self.parallel = options.parallel
        self.memoize = options.memoize
        self.batch = options.batch
        self.timing_cache = timing_cache if timing_cache is not None else TileTimingCache()
        self.hmc = Hmc(self.config.hmc)
        self.clusters: List[Cluster] = [
            Cluster(self.config.cluster, hmc=self.hmc)
            for _ in range(self.config.num_clusters)
        ]
        self.scheduler = WorkQueueScheduler()

    # -- scheduling -----------------------------------------------------------

    def _estimate_cost(self, tile: TileSchedule) -> float:
        """Scheduling estimate of a tile's busy time in NTX cycles."""
        config = self.config.cluster
        per_ntx = [0.0] * config.num_ntx
        for ntx_id, command in tile.jobs(config.num_ntx):
            per_ntx[ntx_id] += config.ntx.ideal_cycles(command)
        compute = max(per_ntx) if tile.commands else 0.0
        dma_bytes = tile.bytes_in + tile.bytes_out
        dma_seconds = dma_bytes / config.axi.peak_bandwidth_bytes_per_s
        dma = dma_seconds * config.ntx_frequency_hz
        return max(compute, dma)

    def shard(self, tiles: Sequence[TileSchedule]) -> ShardPlan:
        """Work-queue assignment of ``tiles`` to this system's clusters."""
        costs = [self._estimate_cost(tile) for tile in tiles]
        return self.scheduler.assign(costs, self.config.num_clusters)

    def _effective_workers(self, busy_clusters: int) -> int:
        """Resolve the ``parallel`` request against the work at hand."""
        if busy_clusters <= 1:
            return 1
        workers = int(self.parallel or 0)
        return min(max(workers, 1), busy_clusters)

    # -- execution ------------------------------------------------------------

    def run(self, tiles: Sequence[TileSchedule]) -> SystemResult:
        """Execute ``tiles`` end to end and aggregate the outcome."""
        config = self.config
        with _PHASE_SECONDS.time(phase="schedule"), _trace.span(
            "schedule", tiles=len(tiles)
        ):
            plan = self.shard(tiles)
        vault_of = config.vault_of_cluster
        cache = self.timing_cache if self.memoize else None
        hits_before = self.timing_cache.hits
        misses_before = self.timing_cache.misses
        busy_clusters = sum(1 for indices in plan.tiles_of if indices)
        workers = self._effective_workers(busy_clusters)

        if workers > 1:
            from repro.system.parallel import run_clusters_parallel

            with _PHASE_SECONDS.time(phase="cycle-sim"), _trace.span(
                "parallel-dispatch", workers=workers, clusters=busy_clusters
            ):
                reports = run_clusters_parallel(
                    config, plan, tiles, self.hmc, cache, workers, batch=self.batch
                )
        else:
            reports = None
            if self.batch and cache is not None:
                from repro.system.batch import (
                    ClusterAssignment,
                    run_cluster_groups_batched,
                )

                work = [
                    ClusterAssignment(
                        cluster_id=cluster_id,
                        vault_id=vault_of[cluster_id],
                        cluster=self.clusters[cluster_id],
                        assigned=[(index, tiles[index]) for index in tile_indices],
                    )
                    for cluster_id, tile_indices in enumerate(plan.tiles_of)
                ]
                # ``None`` means some tile failed the self-containment
                # gate (checked before any state was touched): fall back
                # to the ordinary per-tile path below.
                with _PHASE_SECONDS.time(phase="batched-replay"), _trace.span(
                    "batched-replay", tiles=len(tiles)
                ):
                    reports = run_cluster_groups_batched(config, work, cache)
            if reports is None:
                reports = []
                with _PHASE_SECONDS.time(phase="cycle-sim"):
                    for cluster_id, tile_indices in enumerate(plan.tiles_of):
                        with _trace.TRACER.track(f"cluster-{cluster_id}"), _trace.span(
                            "cluster-tiles", cluster=cluster_id, tiles=len(tile_indices)
                        ):
                            report = run_cluster_tiles(
                                self.clusters[cluster_id],
                                config,
                                [(index, tiles[index]) for index in tile_indices],
                                vault_of[cluster_id],
                                cache,
                            )
                        report.cluster_id = cluster_id
                        reports.append(report)

        with _PHASE_SECONDS.time(phase="merge"), _trace.span("merge"):
            # First pass: per-cluster double-buffered busy time without
            # memory contention, giving the uncontended makespan.
            for report in reports:
                report.busy_cycles = overlap_cycles(
                    report.compute_cycles_per_tile, report.dma_cycles_per_tile
                )
            makespan = max((r.busy_cycles for r in reports), default=0.0)

            # Second pass: if the clusters collectively offered more DRAM
            # traffic than the populated vaults can serve, stretch every
            # DMA phase by the contention factor and recompute the
            # timeline.
            contention = 1.0
            total_bytes = sum(report.dma_bytes for report in reports)
            if makespan > 0 and total_bytes > 0:
                seconds = makespan / config.cluster.ntx_frequency_hz
                offered = total_bytes / seconds
                limit = config.hmc_bandwidth_bytes_per_s
                if offered > limit:
                    contention = offered / limit
                    for report in reports:
                        report.dma_cycles_per_tile = [
                            cycles * contention
                            for cycles in report.dma_cycles_per_tile
                        ]
                        report.busy_cycles = overlap_cycles(
                            report.compute_cycles_per_tile, report.dma_cycles_per_tile
                        )
                    makespan = max((r.busy_cycles for r in reports), default=0.0)

        _TILE_HITS.inc(self.timing_cache.hits - hits_before)
        _TILE_MISSES.inc(self.timing_cache.misses - misses_before)
        _TILE_ENTRIES.set(len(self.timing_cache))

        return SystemResult(
            config=config,
            reports=reports,
            makespan_cycles=makespan,
            contention_factor=contention,
            cache_hits=self.timing_cache.hits - hits_before,
            cache_misses=self.timing_cache.misses - misses_before,
            workers=workers,
        )
