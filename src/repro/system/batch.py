"""Cross-tile batched replay of memoized system runs.

A big tiled workload is dominated by *identical* tile programs: the timing
cache (:mod:`repro.system.memo`) already collapses their cycle simulation
to one run per timing class, but the cache-*hit* path still replays the
data plane one tile at a time — hundreds of small NumPy dispatches that
all walk the same command streams.  This module stacks them:

1. after scheduling, every cache-hit tile is grouped under a **batch key**
   — its engine timing signature plus everything the signature deliberately
   leaves out but the data plane needs (per-command scalar immediates and
   the TCDM-side layout of its DMA transfers);
2. each group's data plane executes as **one stacked dispatch**: the HMC
   inputs of all member tiles are gathered into a ``(tiles, tcdm_words)``
   float32 image stack with one fancy-index per transfer row, the engine
   replays the shared command stream over the whole stack at once
   (:meth:`~repro.cluster.sim.ClusterSimulator.run_data_plane` with the
   stack, the same data-plane kernel the per-tile path runs over its live
   TCDM), and the outputs scatter back to each member's HMC region.
   Every group replays this way, a one-tile group and the scalar engine's
   exact per-op replay included;
3. cache misses still run the full cycle simulation immediately, in the
   exact order the sequential dispatcher would, so hit/miss accounting and
   cached timings are identical.

Bit-exactness rests on a conservative **self-containment gate** checked
per batch key before anything executes: every word a tile's commands read
must be covered by its own DMA-in transfers or by stores of earlier
commands of the same tile (own-command RAW reads resolve like the
unbatched fast path), and every byte its DMA-out transfers push back must
be covered by its DMA-in data or its command stores.  A self-contained
tile computes the same result on a zero-initialised private image as on
the residue-carrying shared TCDM.  The HMC side of every tile's transfers
is checked separately for every tile, since that is what varies across
the members of a group.  If *any* tile of a run fails the gate (or stages
outside the HMC↔TCDM address classes), the whole run falls
back to the per-tile sequential path before any state was touched, so
correctness never depends on the gate being clever.

Statistics are mirrored so a batched run's reports equal the sequential
run's: DMA engine/AXI/memory counters are credited per member on its own
cluster from the shared transfer geometry, and cached per-NTX active/stall
cycles are credited exactly like the unbatched hit path.  Data-plane
access counters of a multi-cluster group are accounted wholesale on the
group's representative cluster — aggregate totals match exactly; nothing
in the system reports reads the per-cluster breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.cluster.tiling import TileSchedule
from repro.core.vecops import CommandStreams, command_streams
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache

__all__ = ["ClusterAssignment", "run_cluster_groups_batched"]

_BATCH_GROUPS = _metrics.counter(
    "repro_batched_groups_total", "Stacked cache-hit groups replayed"
)
_BATCH_TILES = _metrics.counter(
    "repro_batched_tiles_total", "Tiles replayed through stacked groups"
)

_WORD = 4


@dataclass
class ClusterAssignment:
    """One cluster's share of a batched run."""

    cluster_id: int
    vault_id: int
    cluster: Cluster
    #: ``(workload tile index, tile)`` in execution order.
    assigned: List[Tuple[int, TileSchedule]]


@dataclass
class _Member:
    """One cache-hit tile deferred into a batch group."""

    work_index: int
    position: int
    tile: TileSchedule


@dataclass
class _Group:
    """All deferred hit tiles sharing one batch key."""

    jobs: List[Tuple[int, object]]
    cached: CachedTiming
    members: List[_Member]


def _group_key(tile: TileSchedule, signature: tuple) -> tuple:
    """Batch key: timing signature + what the data plane additionally pins.

    The timing signature deliberately excludes the per-command ``scalar``
    immediate (it cannot influence arbitration) and knows nothing about the
    DMA transfers; both determine the replayed data, so they join the key.
    Only the TCDM-side layout of a transfer is pinned — the HMC-side
    addresses are exactly what varies across the members of a group.
    """
    in_layout = tuple(
        (t.dst, t.row_bytes, t.rows, t.dst_pitch or t.row_bytes)
        for t in tile.transfers_in
    )
    out_layout = tuple(
        (t.src, t.row_bytes, t.rows, t.src_pitch or t.row_bytes)
        for t in tile.transfers_out
    )
    scalars = tuple(command.scalar for command in tile.commands)
    return (signature, scalars, in_layout, out_layout)


# --------------------------------------------------------------------------- #
# Self-containment gate                                                       #
# --------------------------------------------------------------------------- #


def _reads_resolved(
    streams: CommandStreams, covered: np.ndarray, base: int, size: int
) -> bool:
    """Whether every read of one command has a deterministic in-image source.

    A read resolves if its word is covered (DMA-in data or an earlier
    command's store) *or* it observes an earlier store of the same command
    (the own-command RAW case the unbatched executor handles exactly).
    """
    cov_words = covered.reshape(-1, _WORD).all(axis=1)
    store_addrs = streams.store_addrs
    unique_addrs: Optional[np.ndarray] = None
    first_ts: Optional[np.ndarray] = None
    if len(store_addrs):
        order = np.argsort(store_addrs, kind="stable")
        sorted_stores = store_addrs[order]
        unique_addrs, first_index = np.unique(sorted_stores, return_index=True)
        first_ts = np.minimum.reduceat(streams.store_ts[order], first_index)

    def resolved(addresses: Optional[np.ndarray], times: np.ndarray) -> bool:
        if addresses is None or len(addresses) == 0:
            return True
        if not (
            np.all((addresses >= base) & (addresses + _WORD <= base + size))
            and np.all((addresses - base) % _WORD == 0)
        ):
            return False
        from_image = cov_words[(addresses - base) >> 2]
        if from_image.all():
            return True
        if unique_addrs is None:
            return False
        rest = ~from_image
        addrs = addresses[rest]
        when = times[rest]
        slot = np.searchsorted(unique_addrs, addrs)
        slot = np.minimum(slot, len(unique_addrs) - 1)
        hit = unique_addrs[slot] == addrs
        return bool(np.all(hit & (when > first_ts[slot])))

    every = np.arange(streams.total, dtype=np.int64)
    return (
        resolved(streams.read0, every)
        and resolved(streams.read1, every)
        and resolved(streams.init_read_addrs, streams.init_ts)
    )


def _hmc_side_in_bounds(config: SystemConfig, tile: TileSchedule) -> bool:
    """Whether every HMC-side DMA row of ``tile`` lies inside the HMC.

    Checked for every tile: the HMC addresses are what varies across the
    members of a group.  A tile staging from anywhere else must run through
    the real DMA router, which raises on an unmapped address.
    """
    hmc_base = config.hmc.base_address
    hmc_top = hmc_base + config.hmc.capacity_bytes
    sides = [(t, t.src, t.src_pitch) for t in tile.transfers_in]
    sides += [(t, t.dst, t.dst_pitch) for t in tile.transfers_out]
    for transfer, first, pitch in sides:
        last = first + (transfer.rows - 1) * (pitch or transfer.row_bytes)
        if min(first, last) < hmc_base or max(first, last) + transfer.row_bytes > hmc_top:
            return False
    return True


def _self_contained(
    config: SystemConfig, tile: TileSchedule, jobs: Sequence[Tuple[int, object]]
) -> bool:
    """Whether ``tile`` computes identically on a zeroed private image.

    Checked once per batch key (every member shares the command streams and
    the TCDM-side DMA layout); the HMC side is :func:`_hmc_side_in_bounds`.
    """
    tcdm_cfg = config.cluster.tcdm
    base = tcdm_cfg.base_address
    size = tcdm_cfg.size_bytes
    if size % _WORD:  # pragma: no cover - TCDM sizes are word multiples
        return False
    covered = np.zeros(size, dtype=bool)

    for transfer in tile.transfers_in:
        for _, dst in transfer.row_addresses():
            if not (base <= dst and dst + transfer.row_bytes <= base + size):
                return False
            covered[dst - base : dst - base + transfer.row_bytes] = True

    num_ntx = config.cluster.num_ntx
    per_ntx: List[List[object]] = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        per_ntx[ntx_id].append(command)
    cov_bytes = covered.reshape(-1, _WORD)
    for commands in per_ntx:
        for command in commands:
            streams = command_streams(command)
            if not _reads_resolved(streams, covered, base, size):
                return False
            store_addrs = streams.store_addrs
            if len(store_addrs):
                if not (
                    np.all(
                        (store_addrs >= base)
                        & (store_addrs + _WORD <= base + size)
                    )
                    and np.all((store_addrs - base) % _WORD == 0)
                ):
                    return False
                cov_bytes[(store_addrs - base) >> 2] = True

    for transfer in tile.transfers_out:
        for src, _ in transfer.row_addresses():
            if not (base <= src and src + transfer.row_bytes <= base + size):
                return False
            if not covered[src - base : src - base + transfer.row_bytes].all():
                return False
    return True


# --------------------------------------------------------------------------- #
# The batched dispatcher                                                      #
# --------------------------------------------------------------------------- #


class _ReportSlots:
    """Position-indexed accumulators for one cluster's report."""

    __slots__ = ("report", "compute", "dma", "results_by_pos")

    def __init__(self, report, num_tiles: int) -> None:
        self.report = report
        self.compute = [0.0] * num_tiles
        self.dma = [0.0] * num_tiles
        self.results_by_pos: Dict[int, object] = {}

    def finish(self) -> None:
        self.report.compute_cycles_per_tile = self.compute
        self.report.dma_cycles_per_tile = self.dma
        self.report.results = [
            self.results_by_pos[position]
            for position in sorted(self.results_by_pos)
        ]


def run_cluster_groups_batched(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    cache: TileTimingCache,
) -> Optional[List["object"]]:
    """Execute ``work`` with cache-hit tiles replayed in stacked groups.

    Returns one :class:`~repro.system.simulator.ClusterReport` per work
    item (in order, ``busy_cycles`` left at zero exactly like
    :func:`~repro.system.simulator.run_cluster_tiles`), or ``None`` —
    *before any state is mutated* — when some tile is not self-contained,
    in which case the caller must run the ordinary per-tile path.

    Cache misses execute the full cycle simulation inline, walking tiles
    in the same (cluster, position) order as the sequential dispatcher, so
    hit/miss counters and discovered cache entries match it exactly.
    Hits are deferred into batch groups, and each group replays as one
    stacked dispatch.
    """
    from repro.system.simulator import ClusterReport

    cluster_cfg = config.cluster
    num_ntx = cluster_cfg.num_ntx
    core_ratio = cluster_cfg.ntx_frequency_hz / cluster_cfg.core_frequency_hz

    # -- phase A: read-only analysis; bail out before touching anything ----
    eligibility: Dict[tuple, bool] = {}
    annotated: List[List[Tuple[TileSchedule, list, Optional[tuple], tuple]]] = []
    for item in work:
        signer = ClusterSimulator(item.cluster, engine=config.engine)
        infos = []
        for _, tile in item.assigned:
            if not _hmc_side_in_bounds(config, tile):
                return None
            jobs = tile.jobs(num_ntx) if tile.commands else []
            signature = (
                signer.timing_signature(jobs, stagger_cycles=config.stagger_cycles)
                if tile.commands
                else None
            )
            key = _group_key(tile, signature)
            if key not in eligibility:
                eligibility[key] = _self_contained(config, tile, jobs)
            if not eligibility[key]:
                return None
            infos.append((tile, jobs, signature, key))
        annotated.append(infos)

    # -- phase B: walk tiles in sequential order; run misses, defer hits ----
    slots: List[_ReportSlots] = []
    groups: Dict[tuple, _Group] = {}
    for work_index, item in enumerate(work):
        report = ClusterReport(
            cluster_id=item.cluster_id,
            vault_id=item.vault_id,
            tile_indices=[index for index, _ in item.assigned],
        )
        slot = _ReportSlots(report, len(item.assigned))
        slots.append(slot)
        for position, (tile, jobs, signature, key) in enumerate(annotated[work_index]):
            if not tile.commands:
                # Pure staging tile: nothing to memoize, run it inline.
                dma_cycles = 0
                for transfer in (*tile.transfers_in, *tile.transfers_out):
                    dma_cycles += item.cluster.run_dma(transfer)
                    report.dma_bytes += transfer.total_bytes
                slot.dma[position] = dma_cycles * core_ratio
                continue
            cached = cache.get(signature)
            if cached is None:
                dma_cycles = 0
                for transfer in tile.transfers_in:
                    dma_cycles += item.cluster.run_dma(transfer)
                    report.dma_bytes += transfer.total_bytes
                simulator = ClusterSimulator(item.cluster, engine=config.engine)
                with _trace.span(
                    "tile-miss", cluster=item.cluster_id, position=position
                ):
                    result = simulator.run(jobs, stagger_cycles=config.stagger_cycles)
                cache.put(signature, CachedTiming.from_result(result))
                for transfer in tile.transfers_out:
                    dma_cycles += item.cluster.run_dma(transfer)
                    report.dma_bytes += transfer.total_bytes
                slot.results_by_pos[position] = result
                slot.compute[position] = float(result.cycles)
                slot.dma[position] = dma_cycles * core_ratio
            else:
                group = groups.get(key)
                if group is None:
                    group = _Group(jobs=jobs, cached=cached, members=[])
                    groups[key] = group
                group.members.append(_Member(work_index, position, tile))

    # -- phase C: replay the deferred hit groups ---------------------------
    for group in groups.values():
        _BATCH_GROUPS.inc()
        _BATCH_TILES.inc(len(group.members))
        with _trace.span("batched-group", tiles=len(group.members)):
            _replay_group(config, work, slots, group, core_ratio)

    for slot in slots:
        slot.finish()
    return [slot.report for slot in slots]


def _replay_group(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    group: _Group,
    core_ratio: float,
) -> None:
    """Replay one hit group as a single stacked data-plane dispatch."""
    members = group.members
    num_tiles = len(members)
    cached = group.cached
    tile0 = members[0].tile
    item0 = work[members[0].work_index]
    tcdm_cfg = config.cluster.tcdm
    tcdm_base = tcdm_cfg.base_address
    hmc = item0.cluster.hmc
    hmc_base = hmc.base
    hmc_u8 = hmc.memory.data

    images = np.zeros((num_tiles, tcdm_cfg.size_bytes // _WORD), dtype=np.float32)
    images_u8 = images.view(np.uint8)
    dma_cycles = 0

    # Gather: one fancy-index per transfer row pulls that row of every
    # member from the HMC into its image (TCDM-side layout is shared).
    for index, transfer0 in enumerate(tile0.transfers_in):
        row_bytes = transfer0.row_bytes
        cycles = item0.cluster.dma.transfer_cycles(transfer0)
        dma_cycles += cycles
        span = np.arange(row_bytes)
        sources = np.array(
            [
                [src for src, _ in member.tile.transfers_in[index].row_addresses()]
                for member in members
            ],
            dtype=np.int64,
        )
        for row, (_, dst) in enumerate(transfer0.row_addresses()):
            offset = dst - tcdm_base
            images_u8[:, offset : offset + row_bytes] = hmc_u8[
                (sources[:, row] - hmc_base)[:, None] + span
            ]
        _mirror_dma_stats(work, slots, members, transfer0, cycles, inbound=True)

    # Compute: the engine replays the shared command stream over the stack.
    simulator = ClusterSimulator(item0.cluster, engine=config.engine)
    simulator.run_data_plane(group.jobs, images)
    for member in members:
        cluster = work[member.work_index].cluster
        for ntx_id in range(config.cluster.num_ntx):
            stats = cluster.ntx[ntx_id].stats
            stats.active_cycles += cached.per_ntx_active[ntx_id]
            stats.stall_cycles += cached.per_ntx_stall[ntx_id]

    # Scatter: push every member's output rows back to its HMC region
    # (disjoint by the workload contract, so order cannot matter).
    for index, transfer0 in enumerate(tile0.transfers_out):
        row_bytes = transfer0.row_bytes
        cycles = item0.cluster.dma.transfer_cycles(transfer0)
        dma_cycles += cycles
        span = np.arange(row_bytes)
        destinations = np.array(
            [
                [dst for _, dst in member.tile.transfers_out[index].row_addresses()]
                for member in members
            ],
            dtype=np.int64,
        )
        for row, (src, _) in enumerate(transfer0.row_addresses()):
            offset = src - tcdm_base
            hmc_u8[(destinations[:, row] - hmc_base)[:, None] + span] = images_u8[
                :, offset : offset + row_bytes
            ]
        _mirror_dma_stats(work, slots, members, transfer0, cycles, inbound=False)

    for member in members:
        slot = slots[member.work_index]
        slot.results_by_pos[member.position] = cached.to_result()
        slot.compute[member.position] = float(cached.cycles)
        slot.dma[member.position] = dma_cycles * core_ratio


def _mirror_dma_stats(
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    members: Sequence[_Member],
    transfer0,
    cycles: int,
    inbound: bool,
) -> None:
    """Credit one staged transfer's counters per member, like ``run_dma``."""
    hmc_memory = work[members[0].work_index].cluster.hmc.memory
    for member in members:
        cluster = work[member.work_index].cluster
        cluster.dma.stats.transfers += 1
        cluster.dma.stats.bytes_moved += transfer0.total_bytes
        cluster.dma.stats.busy_cycles += cycles
        cluster.axi.record(transfer0.total_bytes, cycles)
        if inbound:
            cluster.tcdm.memory.writes += transfer0.rows
        else:
            cluster.tcdm.memory.reads += transfer0.rows
        slots[member.work_index].report.dma_bytes += transfer0.total_bytes
    if inbound:
        hmc_memory.reads += transfer0.rows * len(members)
    else:
        hmc_memory.writes += transfer0.rows * len(members)
