"""Multiprocessing dispatch of independent clusters to worker processes.

A system run shards its tiles across clusters; the clusters only interact
through two well-defined channels — the tile data they read from / write to
the shared HMC, and the bandwidth-contention pass computed *after* every
cluster's timeline is known.  Tiles of a schedulable workload are
independent (any tile may land on any cluster — the work-queue contract),
which makes the per-cluster execution embarrassingly parallel:

1. the parent groups the busy clusters round-robin into ``workers``
   groups and stages each group's tile *inputs* into one
   :class:`multiprocessing.shared_memory.SharedMemory` segment (one per
   task, laid out row by row), shipping only the row *layout* — addresses,
   lengths, offsets — plus the tiles and the current timing-cache snapshot
   through the pickle channel;
2. each worker attaches the segment read-write, rebuilds a private HMC
   (shared by its group's clusters, exactly like the parent's layout),
   seeds the input regions from the segment, runs every cluster through
   the usual per-cluster path — batched cache-hit replay
   (:mod:`repro.system.batch`) when enabled, the per-tile path otherwise —
   and writes the output regions back into the *same* segment in place of
   a pickled copy;
3. the parent merges the outcomes back **in cluster-id order** — HMC
   writes from the segments, reports, cache entries and hit/miss counters
   — so a parallel run is deterministic and bit-identical to the
   sequential one.

Segment lifecycle is owned by the parent: every segment it creates is
tracked by name in :data:`_ACTIVE_SEGMENTS` and unlinked in a ``finally``
block, so segments cannot leak even when a worker raises or dies.  A dead
worker process surfaces as a :class:`RuntimeError` naming the failure
(``concurrent.futures`` raises ``BrokenProcessPool`` instead of hanging
the way a raw ``Pool.map`` can).  Workers attach by name and close their
mapping before returning; they never unlink.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.tiling import TileSchedule
from repro.mem.hmc import Hmc
from repro.obs import trace as _trace
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache

__all__ = [
    "ClusterWork",
    "RowSpec",
    "WorkerTask",
    "WorkerOutcome",
    "stage_row_specs",
    "required_hmc_capacity",
    "execute_worker_task",
    "run_clusters_parallel",
]

#: Environment hook for the shared-memory lifecycle tests: set to
#: ``"raise"`` to make every worker raise, ``"exit"`` to make it die hard
#: (``os._exit``), exercising both failure paths of the segment cleanup.
CRASH_ENV = "REPRO_SYSTEM_WORKER_CRASH"

#: Names of every shared-memory segment this process created and has not
#: yet unlinked.  Empty after any completed (or failed) parallel run —
#: the lifecycle tests assert exactly that.
_ACTIVE_SEGMENTS: Set[str] = set()


def _create_segment(num_bytes: int) -> shared_memory.SharedMemory:
    """Create a tracked segment (``SharedMemory`` rejects zero sizes)."""
    segment = shared_memory.SharedMemory(create=True, size=max(num_bytes, 1))
    _ACTIVE_SEGMENTS.add(segment.name)
    return segment


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a tracked segment; idempotent against races."""
    name = segment.name
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    _ACTIVE_SEGMENTS.discard(name)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach; the parent owns the segment's lifetime.

    Workers are forked, so their ``resource_tracker`` registration lands in
    the same tracker the parent uses — one entry per name, removed when the
    parent unlinks.  The worker must therefore *not* unregister the name
    itself (that would strip the parent's entry), and must never unlink.
    """
    return shared_memory.SharedMemory(name=name)


@dataclass
class ClusterWork:
    """One cluster's share of a worker task."""

    cluster_id: int
    vault_id: int
    #: ``(workload tile index, tile)`` in execution order.
    assigned: List[Tuple[int, TileSchedule]]


@dataclass(frozen=True)
class RowSpec:
    """One staged DMA row: HMC address ↔ offset inside the task's segment."""

    address: int
    length: int
    offset: int


@dataclass
class WorkerTask:
    """Everything one worker needs to execute its cluster group."""

    config: SystemConfig
    clusters: List[ClusterWork]
    #: Name of the shared-memory segment carrying the staged rows.
    segment_name: str = ""
    input_rows: List[RowSpec] = field(default_factory=list)
    output_rows: List[RowSpec] = field(default_factory=list)
    cache_entries: Dict[tuple, CachedTiming] = field(default_factory=dict)
    memoize: bool = True
    #: Whether to replay cache-hit tiles in stacked batches inside the worker.
    batch: bool = True
    #: HMC capacity the worker actually needs (its tiles' address span);
    #: workers do not duplicate the parent's full DRAM allocation.
    hmc_capacity_bytes: int = 0
    #: Capture :mod:`repro.obs` spans inside the worker (shipped home in
    #: the outcome so the parent's trace gets one track per worker).
    trace: bool = False
    #: Position of this task in the dispatch, naming its trace track.
    worker_id: int = 0


@dataclass
class WorkerOutcome:
    """What a worker sends back: reports and cache discoveries.

    Tile data never rides in the outcome — outputs land in the task's
    shared-memory segment at the offsets of ``task.output_rows``.
    """

    #: One report per cluster of the group, ordered by cluster id.
    reports: List["object"]  # ClusterReport; typed loosely (import cycle)
    cache_entries: Dict[tuple, CachedTiming]
    cache_hits: int = 0
    cache_misses: int = 0
    #: Serialized spans recorded inside the worker (``task.trace`` only).
    spans: List[dict] = field(default_factory=list)


def stage_row_specs(
    assigned: Sequence[Tuple[int, TileSchedule]], cursor: int
) -> Tuple[List[RowSpec], List[RowSpec], int]:
    """Segment layout of every staged row of ``assigned``.

    Returns ``(input_rows, output_rows, next_cursor)``: inputs are the
    HMC-side source rows of every inbound transfer, outputs the HMC-side
    destination rows of every outbound transfer, packed back to back from
    ``cursor``.
    """
    input_rows: List[RowSpec] = []
    output_rows: List[RowSpec] = []
    for _, tile in assigned:
        for transfer in tile.transfers_in:
            for src, _ in transfer.row_addresses():
                input_rows.append(RowSpec(src, transfer.row_bytes, cursor))
                cursor += transfer.row_bytes
        for transfer in tile.transfers_out:
            for _, dst in transfer.row_addresses():
                output_rows.append(RowSpec(dst, transfer.row_bytes, cursor))
                cursor += transfer.row_bytes
    return input_rows, output_rows, cursor


def required_hmc_capacity(
    config: SystemConfig, clusters: Sequence[ClusterWork]
) -> int:
    """Smallest HMC capacity covering every address the group's tiles touch."""
    base = config.hmc.base_address
    top = 0
    for work in clusters:
        for _, tile in work.assigned:
            for transfer in (*tile.transfers_in, *tile.transfers_out):
                for src, dst in transfer.row_addresses():
                    for address in (src, dst):
                        if address >= base:
                            top = max(top, address + transfer.row_bytes - base)
    page = 4096
    capped = min(-(-top // page) * page, config.hmc.capacity_bytes)
    return max(capped, page)


def execute_worker_task(task: WorkerTask) -> WorkerOutcome:
    """Worker entry point: run one cluster group against a private HMC.

    With ``task.trace`` set the worker enables its process-local tracer,
    routes everything onto the ``worker-<id>`` track (clusters get
    ``worker-<id>/cluster-<id>`` sub-tracks) and ships the serialized
    spans home in the outcome, where
    :func:`run_clusters_parallel` ingests them into the parent's trace.
    """
    track_name = f"worker-{task.worker_id}"
    if task.trace:
        _trace.TRACER.set_enabled(True)
    with _trace.TRACER.track(track_name), _trace.span(
        "worker-task", clusters=len(task.clusters)
    ):
        outcome = _execute_worker_task_body(task)
    if task.trace:
        outcome.spans = [
            span.to_dict() for span in _trace.TRACER.drain(track_name)
        ]
    return outcome


def _execute_worker_task_body(task: WorkerTask) -> WorkerOutcome:
    """The untraced core of :func:`execute_worker_task`."""
    from repro.system.simulator import run_cluster_tiles

    crash = os.environ.get(CRASH_ENV, "")
    if crash == "raise":
        raise RuntimeError(f"injected worker crash ({CRASH_ENV}=raise)")
    if crash == "exit":
        os._exit(17)

    hmc_config = task.config.hmc
    if 0 < task.hmc_capacity_bytes < hmc_config.capacity_bytes:
        hmc_config = replace(hmc_config, capacity_bytes=task.hmc_capacity_bytes)
    hmc = Hmc(hmc_config)
    segment = _attach_segment(task.segment_name)
    try:
        buffer = segment.buf
        for row in task.input_rows:
            hmc.memory.write_bytes(
                row.address, bytes(buffer[row.offset : row.offset + row.length])
            )
        cache: Optional[TileTimingCache] = None
        if task.memoize:
            cache = TileTimingCache()
            cache.merge_entries(task.cache_entries)

        reports: Optional[List] = None
        clusters = [
            Cluster(task.config.cluster, hmc=hmc) for _ in task.clusters
        ]
        if task.batch and cache is not None:
            from repro.system.batch import (
                ClusterAssignment,
                run_cluster_groups_batched,
            )

            work = [
                ClusterAssignment(
                    cluster_id=item.cluster_id,
                    vault_id=item.vault_id,
                    cluster=cluster,
                    assigned=item.assigned,
                )
                for item, cluster in zip(task.clusters, clusters)
            ]
            reports = run_cluster_groups_batched(task.config, work, cache)
        if reports is None:
            reports = []
            for item, cluster in zip(task.clusters, clusters):
                with _trace.TRACER.track(
                    f"worker-{task.worker_id}/cluster-{item.cluster_id}"
                ), _trace.span(
                    "cluster-tiles",
                    cluster=item.cluster_id,
                    tiles=len(item.assigned),
                ):
                    report = run_cluster_tiles(
                        cluster, task.config, item.assigned, item.vault_id, cache
                    )
                report.cluster_id = item.cluster_id
                reports.append(report)

        for row in task.output_rows:
            buffer[row.offset : row.offset + row.length] = hmc.memory.read_bytes(
                row.address, row.length
            )
    finally:
        segment.close()
    return WorkerOutcome(
        reports=reports,
        cache_entries=cache.snapshot() if cache is not None else {},
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )


def run_clusters_parallel(
    config: SystemConfig,
    plan,
    tiles: Sequence[TileSchedule],
    hmc: Hmc,
    cache: Optional[TileTimingCache],
    workers: int,
    batch: bool = True,
) -> List:
    """Dispatch the busy clusters of ``plan`` onto ``workers`` processes.

    Returns one :class:`~repro.system.simulator.ClusterReport` per cluster
    (idle clusters get an empty report, exactly like the sequential path),
    with every worker's HMC output writes and timing-cache discoveries
    merged into ``hmc`` / ``cache`` in deterministic cluster-id order.
    Raises :class:`RuntimeError` when a worker process dies; the staged
    shared-memory segments are unlinked either way.
    """
    from repro.system.simulator import ClusterReport

    vault_of = config.vault_of_cluster
    busy = [
        (cluster_id, tile_indices)
        for cluster_id, tile_indices in enumerate(plan.tiles_of)
        if tile_indices
    ]
    num_groups = min(workers, len(busy))
    snapshot = cache.snapshot() if cache is not None else {}
    tasks: List[WorkerTask] = [
        WorkerTask(
            config=config,
            clusters=[],
            cache_entries=snapshot,
            memoize=cache is not None,
            batch=batch,
            trace=_trace.TRACER.enabled,
            worker_id=worker_id,
        )
        for worker_id in range(num_groups)
    ]
    for position, (cluster_id, tile_indices) in enumerate(busy):
        assigned = [(index, tiles[index]) for index in tile_indices]
        task = tasks[position % num_groups]
        task.clusters.append(ClusterWork(cluster_id, vault_of[cluster_id], assigned))

    reports: List = [
        ClusterReport(cluster_id=cluster_id, vault_id=vault_of[cluster_id])
        for cluster_id in range(config.num_clusters)
    ]
    segments: List[shared_memory.SharedMemory] = []
    try:
        for task in tasks:
            task.hmc_capacity_bytes = required_hmc_capacity(config, task.clusters)
            cursor = 0
            for work in task.clusters:
                input_rows, output_rows, cursor = stage_row_specs(
                    work.assigned, cursor
                )
                task.input_rows.extend(input_rows)
                task.output_rows.extend(output_rows)
            segment = _create_segment(cursor)
            segments.append(segment)
            task.segment_name = segment.name
            buffer = segment.buf
            for row in task.input_rows:
                buffer[row.offset : row.offset + row.length] = hmc.memory.read_bytes(
                    row.address, row.length
                )

        outcomes: List[WorkerOutcome] = []
        if tasks:
            context = multiprocessing.get_context()
            with ProcessPoolExecutor(
                max_workers=num_groups, mp_context=context
            ) as pool:
                try:
                    outcomes = list(pool.map(execute_worker_task, tasks))
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        "a parallel system-simulation worker process died "
                        "unexpectedly; rerun with parallel=0 to debug "
                        "in-process"
                    ) from exc

        # ``pool.map`` preserves task order, so this merge is deterministic;
        # tile outputs are disjoint by the workload contract, so writing them
        # group by group reproduces the sequential HMC contents exactly.
        for task, segment, outcome in zip(tasks, segments, outcomes):
            for report in outcome.reports:
                reports[report.cluster_id] = report
            buffer = segment.buf
            for row in task.output_rows:
                hmc.memory.write_bytes(
                    row.address, bytes(buffer[row.offset : row.offset + row.length])
                )
            if cache is not None:
                cache.merge_entries(outcome.cache_entries)
                cache.merge_counters(outcome.cache_hits, outcome.cache_misses)
            if outcome.spans:
                _trace.TRACER.ingest(outcome.spans)
    finally:
        for segment in segments:
            _release_segment(segment)
    return reports
