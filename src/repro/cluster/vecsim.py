"""Vectorized cycle-level engine for the cluster simulator.

The scalar engine (:mod:`repro.cluster.sim`) interprets every micro-op
through Python objects — controller steps, operand FIFOs, soft-float FPU
issues — inside the cycle loop.  This engine splits that work into three
phases so the per-cycle loop touches almost nothing:

1. **Stream precomputation** (:func:`repro.core.vecops.command_streams`):
   the complete address/bank stream of every TCDM port of every command is
   computed up front with NumPy.  Request generation inside the cycle loop
   reduces to indexing those arrays.
2. **Vectorized data plane** (:func:`repro.core.vecops.execute_streams`):
   reads, FPU issues and write-backs are replayed as array gathers,
   segmented reductions and scatters — once per command instead of once per
   cycle.  Commands with intra-command read-after-write hazards fall back
   to the exact per-op executor; on the fast path only MAC can differ from
   the soft-float reference, by at most a final-ulp rounding (see
   :mod:`repro.core.vecops`).  The same data plane serves the timing-cache
   hit path of both engines (:func:`run_data_plane`), over the live TCDM
   or over the private image stack of a batch group
   (:mod:`repro.system.batch`).
3. **Timing core**: a lean per-cycle loop that models exactly the same
   machine as the scalar engine — per-port head-of-line requests, the
   operand-FIFO run-ahead window, one retirement per cycle, write-back
   backpressure, rotating-priority bank arbitration, command setup/drain —
   but over precomputed bank arrays and integer state only.

The timing core is behaviourally equivalent to the scalar engine except
for two deliberately dropped micro-behaviours (store-to-load forwarding
across the write-back FIFO, and the shared-grant case where two ports of
one NTX present the same address in the same cycle), both of which are
vanishingly rare for streaming kernels.  ``tests/test_vecsim.py`` pins the
resulting conflict-probability and cycle-count agreement on golden
workloads.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.commands import NtxCommand, NtxOpcode
from repro.core.vecops import (
    _account_accesses,
    command_streams,
    execute_functional,
    execute_streams,
)
from repro.obs import metrics as _metrics

__all__ = ["run_vectorized", "run_data_plane"]

_DATA_PLANE_COMMANDS = _metrics.counter(
    "repro_data_plane_commands_total",
    "Data-plane command executions, by path: fast (array replay), exact "
    "(per-op executor by request) or refused (array replay declined)",
    labelnames=("path",),
)

_IDLE, _SETUP, _RUN, _DRAIN = 0, 1, 2, 3


class _CommandPlan:
    """Precomputed port streams and retirement bookkeeping of one command."""

    __slots__ = (
        "command", "streams", "total", "p0_banks", "p1_banks",
        "init_banks", "init_ts", "store_banks", "period_init", "period_store",
        "num_init_reads", "num_stores", "has_store",
    )

    def __init__(self, command: NtxCommand, tcdm, with_banks: bool = True) -> None:
        """``with_banks=False`` skips the per-port bank-stream projection —
        only the timing core consumes it, so data-plane-only replays (the
        timing-cache hit path) need not pay for it."""
        self.command = command
        streams = command_streams(command)
        self.streams = streams
        self.total = streams.total
        base = tcdm.base
        banks = tcdm.config.num_banks

        def to_banks(addresses):
            if not with_banks or addresses is None or len(addresses) == 0:
                return None
            return (((addresses - base) >> 2) % banks).tolist()

        self.p0_banks = to_banks(streams.read0)
        self.p1_banks = to_banks(streams.read1)
        self.init_banks = to_banks(streams.init_read_addrs)
        self.init_ts = streams.init_ts.tolist() if self.init_banks else None
        self.store_banks = to_banks(streams.store_addrs)
        self.period_init = streams.period_init
        self.period_store = streams.period_store
        self.num_init_reads = len(streams.init_ts) if self.init_banks else 0
        self.num_stores = len(streams.store_ts)
        self.has_store = self.num_stores > 0


class _NtxState:
    """Integer-only cycle state of one co-processor."""

    __slots__ = (
        "queue", "next_command", "start_cycle", "phase", "setup_left",
        "drain_left", "plan", "pos0", "pos1", "rpos", "wpos", "retired",
        "active", "stall",
    )

    def __init__(self, start_cycle: int) -> None:
        self.queue: List[_CommandPlan] = []
        self.next_command = 0
        self.start_cycle = start_cycle
        self.phase = _IDLE
        self.setup_left = 0
        self.drain_left = 0
        self.plan: _CommandPlan | None = None
        self.pos0 = 0
        self.pos1 = 0
        self.rpos = 0
        self.wpos = 0
        self.retired = 0
        self.active = 0
        self.stall = 0


def _run_data_plane(
    cluster,
    jobs_per_ntx: List[List[_CommandPlan]],
    images: Optional[np.ndarray] = None,
    exact: bool = False,
) -> None:
    """Apply every command's data effects in issue order over an image stack.

    ``images`` holds one float32 TCDM word-view row per tile (see
    :func:`repro.core.vecops.execute_streams`); ``None`` is the cluster's
    live TCDM as a one-row stack.  Each command runs over the whole stack
    in one array dispatch, and a command the array path refuses runs
    through the exact per-op executor row by row.  With ``exact=True``
    every command takes the per-op path: the timing-cache hit path of the
    *scalar* engine uses it, so memoized scalar runs stay bit-identical to
    uncached ones.

    Statistics are accounted wholesale — each command's counters times the
    stack height — onto ``cluster``.  Aggregate system totals match the
    per-tile path exactly; per-cluster attribution of a multi-cluster
    batch group lands on the cluster it is replayed on (nothing in the
    system reports reads the per-cluster counters).
    """
    tcdm = cluster.tcdm
    if images is None:
        images = tcdm.memory.words()[None, :]
    height = images.shape[0]
    base = tcdm.base
    for ntx, plans in zip(cluster.ntx, jobs_per_ntx):
        for plan in plans:
            command = plan.command
            fast_path = not exact and execute_streams(
                command, plan.streams, images, base
            )
            _DATA_PLANE_COMMANDS.inc(
                height, path="fast" if fast_path else "exact" if exact else "refused"
            )
            if fast_path:
                _account_accesses(tcdm, plan.streams, height)
            else:
                for row in images:
                    execute_functional(ntx, command, _ImageTcdm(row, tcdm))
            stats = ntx.stats
            stats.commands += height
            stats.iterations += plan.total * height
            stats.flops += command.flops * height
            stats.tcdm_reads += plan.streams.num_reads * height
            stats.tcdm_writes += plan.num_stores * height
            stats.ideal_cycles += cluster.config.ntx.ideal_cycles(command) * height
            if fast_path:
                # The per-op executor issued the real FPU (which counts its
                # own statistics); the fast path accounts them wholesale.
                fpu_stats = ntx.fpu.stats
                fpu_stats.issues += plan.total * height
                fpu_stats.writebacks += plan.num_stores * height
                if command.opcode is NtxOpcode.MAC:
                    fpu_stats.macs += plan.total * height
                elif command.opcode in (
                    NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX,
                    NtxOpcode.ARGMIN, NtxOpcode.RELU, NtxOpcode.THRESHOLD,
                ):
                    fpu_stats.comparisons += plan.total * height


class _ImageTcdm:
    """One row of a TCDM image stack, presented as a scratchpad.

    The per-op executor reads and writes through ``read_f32`` /
    ``write_f32``; this adapter serves them from the row's bytes with the
    TCDM's own bounds check and mirrors the access counters onto the real
    TCDM, so over the live one-row stack it is indistinguishable from the
    TCDM itself.
    """

    __slots__ = ("_bytes", "_tcdm")

    def __init__(self, row: np.ndarray, tcdm) -> None:
        self._bytes = row.view(np.uint8)
        self._tcdm = tcdm

    def _offset(self, address: int) -> int:
        tcdm = self._tcdm
        tcdm.bank_accesses[tcdm.bank_of(address)] += 1
        return tcdm.memory._offset(address, 4)

    def read_f32(self, address: int) -> float:
        self._tcdm.memory.reads += 1
        return struct.unpack_from("<f", self._bytes, self._offset(address))[0]

    def write_f32(self, address: int, value: float) -> None:
        self._tcdm.memory.writes += 1
        struct.pack_into(
            "<f", self._bytes, self._offset(address), float(np.float32(value))
        )


def run_data_plane(
    simulator,
    jobs: Sequence[Tuple[int, NtxCommand]],
    images: Optional[np.ndarray] = None,
    exact: bool = False,
) -> None:
    """Timing-cache hook: apply ``jobs``' data effects without the cycle loop.

    Used on a timing-cache hit (:mod:`repro.system.memo`): the data plane
    still executes so the TCDM contents stay bit-exact, while the per-cycle
    simulation is skipped.  ``images`` is ``None`` for the simulator's live
    TCDM, or the private image stack of a batch group
    (:mod:`repro.system.batch`) whose tiles all execute ``jobs``.
    Statistics are accounted exactly like :func:`run_vectorized`'s
    data-plane phase; the caller credits the cached active/stall cycles.
    """
    cluster = simulator.cluster
    num_ntx = cluster.config.num_ntx
    jobs_per_ntx: List[List[_CommandPlan]] = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        if not 0 <= ntx_id < num_ntx:
            raise ValueError(f"NTX index {ntx_id} out of range")
        jobs_per_ntx[ntx_id].append(
            _CommandPlan(command, cluster.tcdm, with_banks=False)
        )
    _run_data_plane(cluster, jobs_per_ntx, images, exact)


def run_vectorized(
    simulator,
    jobs: Sequence[Tuple[int, NtxCommand]],
    max_cycles: int,
    dma_requests_per_cycle: float,
    stagger_cycles: int,
):
    """Cycle-level run over precomputed streams; see module docstring."""
    from repro.cluster.sim import SimulationResult

    cluster = simulator.cluster
    config = cluster.config
    num_ntx = config.num_ntx
    tcdm = cluster.tcdm
    num_banks = tcdm.config.num_banks
    window = config.ntx.data_fifo_depth
    wb_depth = config.ntx.writeback_fifo_depth
    setup_cycles = config.ntx.command_setup_cycles
    drain_cycles = config.ntx.writeback_drain_cycles
    interconnect = simulator.interconnect
    num_masters = interconnect.num_masters

    jobs_per_ntx: List[List[_CommandPlan]] = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        if not 0 <= ntx_id < num_ntx:
            raise ValueError(f"NTX index {ntx_id} out of range")
        jobs_per_ntx[ntx_id].append(_CommandPlan(command, tcdm))

    start_flops = [n.stats.flops for n in cluster.ntx]
    start_iterations = [n.stats.iterations for n in cluster.ntx]
    _run_data_plane(cluster, jobs_per_ntx)

    states = [
        _NtxState(i * max(stagger_cycles, 0)) for i in range(num_ntx)
    ]
    for ntx_id, plans in enumerate(jobs_per_ntx):
        states[ntx_id].queue = plans

    # Arbitration scratch: per-bank best priority / request slot, reset via
    # the list of touched banks only.
    best_prio = [num_masters + 1] * num_banks
    best_slot = [0] * num_banks
    req_banks: List[int] = []
    req_slots: List[int] = []
    touched: List[int] = []

    rr_offset = interconnect._rr_offset
    requests = 0
    grants = 0
    conflicts = 0
    conflict_cycles = 0

    dma_master = num_ntx
    dma_accumulator = 0.0
    dma_word = 0
    tcdm_words = tcdm.size // 4

    cycles = 0
    while cycles < max_cycles:
        req_banks.clear()
        req_slots.clear()
        any_busy = False

        for ntx_id in range(num_ntx):
            state = states[ntx_id]
            phase = state.phase
            if phase == _IDLE:
                if state.next_command >= len(state.queue):
                    continue
                if cycles < state.start_cycle:
                    any_busy = True  # staggered start still pending
                    continue
                state.plan = state.queue[state.next_command]
                state.next_command += 1
                # A zero-cycle setup phase starts streaming immediately,
                # exactly like the scalar engine's setup guard.
                state.phase = _SETUP if setup_cycles > 0 else _RUN
                state.setup_left = setup_cycles
                state.pos0 = state.pos1 = state.rpos = state.wpos = 0
                state.retired = 0
                phase = state.phase
            any_busy = True
            if phase != _RUN:
                continue

            plan = state.plan
            limit = state.retired + window
            slot_base = ntx_id << 2
            pos0 = state.pos0
            if plan.p0_banks is not None and pos0 < plan.total and pos0 < limit:
                req_banks.append(plan.p0_banks[pos0])
                req_slots.append(slot_base)
            pos1 = state.pos1
            if plan.p1_banks is not None and pos1 < plan.total and pos1 < limit:
                req_banks.append(plan.p1_banks[pos1])
                req_slots.append(slot_base | 1)
            rpos = state.rpos
            if plan.init_banks is not None and rpos < plan.num_init_reads and (
                plan.init_ts[rpos] < limit
            ):
                req_banks.append(plan.init_banks[rpos])
                req_slots.append(slot_base | 2)
            elif plan.has_store and (
                min(state.retired, plan.total) // plan.period_store > state.wpos
            ):
                req_banks.append(plan.store_banks[state.wpos])
                req_slots.append(slot_base | 3)

        if not any_busy:
            break

        # Background DMA traffic: fire-and-forget requests, like the scalar
        # engine's (a stalled DMA beat is not retried).
        dma_accumulator += dma_requests_per_cycle
        while dma_accumulator >= 1.0:
            req_banks.append(dma_word % num_banks)
            req_slots.append(-1)
            dma_word = (dma_word + 1) % tcdm_words
            dma_accumulator -= 1.0

        # Rotating-priority arbitration: at most one grant per bank.
        num_requests = len(req_banks)
        requests += num_requests
        if num_requests:
            for index in range(num_requests):
                bank = req_banks[index]
                slot = req_slots[index]
                master = dma_master if slot < 0 else (slot >> 2)
                prio = (master - rr_offset) % num_masters
                if best_prio[bank] > prio:
                    if best_prio[bank] > num_masters:
                        touched.append(bank)
                    best_prio[bank] = prio
                    best_slot[bank] = slot
            granted_here = len(touched)
            grants += granted_here
            if granted_here != num_requests:
                conflicts += num_requests - granted_here
                conflict_cycles += 1
            for bank in touched:
                slot = best_slot[bank]
                best_prio[bank] = num_masters + 1
                if slot < 0:
                    continue
                state = states[slot >> 2]
                port = slot & 3
                if port == 0:
                    state.pos0 += 1
                elif port == 1:
                    state.pos1 += 1
                elif port == 2:
                    state.rpos += 1
                else:
                    state.wpos += 1
            touched.clear()
        rr_offset = (rr_offset + 1) % num_masters

        # Commit: setup/drain phases, one retirement per co-processor.
        for ntx_id in range(num_ntx):
            state = states[ntx_id]
            phase = state.phase
            if phase == _IDLE:
                continue
            if phase == _SETUP:
                state.setup_left -= 1
                state.active += 1
                if state.setup_left == 0:
                    state.phase = _RUN
                continue
            plan = state.plan
            retired = state.retired
            if retired < plan.total:
                k = retired
                ready = True
                if plan.p0_banks is not None and state.pos0 <= k:
                    ready = False
                elif plan.p1_banks is not None and state.pos1 <= k:
                    ready = False
                elif plan.init_banks is not None and (
                    state.rpos <= k // plan.period_init
                ):
                    ready = False
                if ready and plan.has_store and (
                    k % plan.period_store == plan.period_store - 1
                ):
                    if k // plan.period_store - state.wpos >= wb_depth:
                        ready = False  # write-back FIFO full
                if ready:
                    state.retired = k + 1
                    state.active += 1
                    if state.retired == plan.total:
                        state.drain_left = drain_cycles
                        if drain_cycles == 0 and state.wpos == plan.num_stores:
                            state.phase = _IDLE
                            state.plan = None
                    continue
                state.stall += 1
                continue
            # All micro-ops retired: drain the write-back FIFO, then the
            # fixed pipeline-drain cycles.
            if state.wpos == plan.num_stores:
                if state.drain_left > 0:
                    state.drain_left -= 1
                    state.active += 1
                if state.drain_left <= 0:
                    state.phase = _IDLE
                    state.plan = None
                continue
            state.stall += 1

        cycles += 1
    else:
        raise RuntimeError(f"simulation did not finish within {max_cycles} cycles")

    interconnect.cycles += cycles
    interconnect.requests += requests
    interconnect.grants += grants
    interconnect.conflicts += conflicts
    interconnect.conflict_cycles += conflict_cycles
    interconnect._rr_offset = rr_offset

    for ntx_id in range(num_ntx):
        stats = cluster.ntx[ntx_id].stats
        stats.active_cycles += states[ntx_id].active
        stats.stall_cycles += states[ntx_id].stall

    return SimulationResult(
        cycles=cycles,
        flops=sum(n.stats.flops - start_flops[i] for i, n in enumerate(cluster.ntx)),
        iterations=sum(
            n.stats.iterations - start_iterations[i]
            for i, n in enumerate(cluster.ntx)
        ),
        tcdm_requests=interconnect.requests,
        tcdm_conflicts=interconnect.conflicts,
        per_ntx_active=[states[i].active for i in range(num_ntx)],
        per_ntx_stall=[states[i].stall for i in range(num_ntx)],
        frequency_hz=config.ntx_frequency_hz,
    )
