"""Parity/fuzz harness for cross-tile batched replay (repro.system.batch).

The batched cache-hit path promises *bit-identical* results to the plain
sequential scalar path — same HMC bytes, same timing reports — across
every combination of cycle engine, memoization, parallel dispatch and
batching.  This file holds that promise in place:

* a fixed accelerator matrix (engine x memoize x parallel x batch) checked
  against one sequential scalar reference run,
* a seeded randomized fuzz sweep over tile shapes, tile counts and
  cluster topologies (full depth under ``-m slow``, a short prefix in the
  default quick run),
* the self-containment gate: a tile whose compute reads TCDM residue that
  no DMA staged must send the *whole* run down the per-tile fallback
  before any state is touched,
* the shared-memory segment lifecycle of the parallel dispatcher — normal
  runs and injected worker crashes both leave zero segments behind,
* the acceptance gate: batched memoized replay is >= 5x faster than the
  unmemoized sequential path on the system bench shape, with identical
  outputs.

The reference draws lattice-valued operands (multiples of 1/16) so both
cycle engines produce bit-identical floating-point results; one test uses
arbitrary normal data to check batched-vs-unbatched identity *within* the
vectorized engine, where no cross-engine rounding question arises.
"""

import math
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.options import ExecutionOptions
from repro.scenarios.workloads import _lattice
from repro.system import (
    ClusterAssignment,
    SystemConfig,
    SystemSimulator,
    conv_tiled_workload,
    run_cluster_groups_batched,
)
from repro.system import parallel as parallel_mod
from repro.system.memo import TileTimingCache


def _run(
    num_tiles=8,
    image_shape=(12, 14),
    seed=2019,
    engine="vectorized",
    memoize=True,
    parallel=None,
    batch=True,
    config=None,
    draw=_lattice,
):
    """One end-to-end system run; returns (simulator, workload, result)."""
    if config is None:
        config = SystemConfig(engine=engine)
    simulator = SystemSimulator(
        config,
        options=ExecutionOptions(parallel=parallel, memoize=memoize, batch=batch),
    )
    workload = conv_tiled_workload(
        simulator.hmc,
        num_tiles=num_tiles,
        image_shape=image_shape,
        seed=seed,
        draw=draw,
    )
    result = simulator.run(workload.tiles)
    return simulator, workload, result


def _hmc_bytes(simulator):
    """Zero-copy byte view of the whole HMC — full-DRAM bit identity."""
    return np.frombuffer(simulator.hmc.memory.data, dtype=np.uint8)


def _timing_view(result):
    """Everything timing-related a run reports, for exact comparison.

    ``cache_hits``/``cache_misses``/``workers`` are accounting of the
    acceleration machinery itself (a parallel run takes one miss per
    worker group by design) and deliberately excluded; every modeled
    quantity — makespan, contention, per-tile cycles, per-tile simulation
    results — must match bit for bit.
    """
    return (
        result.makespan_cycles,
        result.contention_factor,
        [
            (
                report.cluster_id,
                report.vault_id,
                report.tile_indices,
                report.compute_cycles_per_tile,
                report.dma_cycles_per_tile,
                report.results,
                report.busy_cycles,
                report.dma_bytes,
            )
            for report in result.reports
        ],
    )


def _assert_matches_reference(reference, candidate):
    """Bit-identical HMC contents and identical timing reports."""
    ref_sim, ref_workload, ref_result = reference
    sim, workload, result = candidate
    assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
    assert _timing_view(result) == _timing_view(ref_result)
    workload.verify(sim.hmc)


# -- the accelerator matrix ----------------------------------------------------


@pytest.fixture(scope="module")
def scalar_reference():
    """The ground truth: sequential scalar engine, no acceleration at all."""
    return _run(engine="scalar", memoize=False, parallel=None, batch=False)


class TestAcceleratorMatrix:
    """Every engine x memoize x parallel x batch combination vs the reference."""

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("memoize", [False, True])
    @pytest.mark.parametrize("parallel", [None, 2])
    @pytest.mark.parametrize("batch", [False, True])
    def test_combination_matches_scalar_sequential(
        self, scalar_reference, engine, memoize, parallel, batch
    ):
        candidate = _run(
            engine=engine, memoize=memoize, parallel=parallel, batch=batch
        )
        _assert_matches_reference(scalar_reference, candidate)

    def test_batched_run_actually_hits_the_cache(self):
        """Guard against the matrix passing because batching never engaged."""
        _, _, result = _run(memoize=True, batch=True)
        assert result.cache_hits > 0


class TestBatchedVsUnbatchedArbitraryData:
    """On arbitrary (non-lattice) data the cross-engine comparison is moot,
    but batched replay must still be bit-identical to the per-tile path of
    the *same* engine."""

    def test_vectorized_engine_bit_identical(self):
        def normal(rng, shape):
            return rng.standard_normal(shape).astype(np.float32)

        unbatched = _run(memoize=True, batch=False, draw=normal, seed=7)
        batched = _run(memoize=True, batch=True, draw=normal, seed=7)
        _assert_matches_reference(unbatched, batched)


# -- randomized fuzz sweep -----------------------------------------------------


def _fuzz_draws(count, entropy):
    """Seeded random system/workload shapes — deterministic across runs."""
    rng = np.random.default_rng(entropy)
    draws = []
    for _ in range(count):
        draws.append(
            dict(
                num_tiles=int(rng.integers(3, 19)),
                image_shape=(
                    int(rng.integers(8, 25)),
                    int(rng.integers(8, 29)),
                ),
                seed=int(rng.integers(0, 2**31)),
                config_kwargs=dict(
                    num_vaults=int(rng.integers(1, 3)),
                    clusters_per_vault=int(rng.integers(1, 5)),
                ),
            )
        )
    return draws


def _fuzz_one(draw, combos):
    """Run one fuzz draw: scalar sequential reference vs each combo."""
    reference = _run(
        num_tiles=draw["num_tiles"],
        image_shape=draw["image_shape"],
        seed=draw["seed"],
        memoize=False,
        parallel=None,
        batch=False,
        config=SystemConfig(engine="scalar", **draw["config_kwargs"]),
    )
    for engine, memoize, parallel, batch in combos:
        candidate = _run(
            num_tiles=draw["num_tiles"],
            image_shape=draw["image_shape"],
            seed=draw["seed"],
            memoize=memoize,
            parallel=parallel,
            batch=batch,
            config=SystemConfig(engine=engine, **draw["config_kwargs"]),
        )
        _assert_matches_reference(reference, candidate)


class TestFuzzParity:
    QUICK_COMBOS = [
        ("vectorized", True, None, True),
        ("scalar", True, None, True),
    ]
    FULL_COMBOS = [
        (engine, memoize, parallel, batch)
        for engine in ("scalar", "vectorized")
        for memoize in (False, True)
        for parallel in (None, 2)
        for batch in (False, True)
    ]

    @pytest.mark.parametrize("draw", _fuzz_draws(3, entropy=0xB47C4))
    def test_quick_sweep(self, draw):
        _fuzz_one(draw, self.QUICK_COMBOS)

    @pytest.mark.slow
    @pytest.mark.parametrize("draw", _fuzz_draws(8, entropy=0x5C41E))
    def test_full_depth_sweep(self, draw):
        _fuzz_one(draw, self.FULL_COMBOS)


# -- the self-containment gate -------------------------------------------------


class TestSelfContainmentGate:
    """A tile whose reads are not covered by its own DMA-in rows (it reads
    whatever residue the previous tile left in the TCDM) must force the
    whole run down the per-tile path — before any state is touched."""

    def _doctored(self, simulator, num_tiles=6):
        workload = conv_tiled_workload(
            simulator.hmc, num_tiles=num_tiles, image_shape=(12, 14), draw=_lattice
        )
        # Strip the staging DMA of one interior tile: its commands now read
        # uncovered TCDM words, so the group containing it is not
        # self-contained.
        workload.tiles[2].transfers_in = []
        return workload

    def test_gate_refuses_the_group(self):
        simulator = SystemSimulator(SystemConfig())
        workload = self._doctored(simulator)
        plan = simulator.shard(workload.tiles)
        vault_of = simulator.config.vault_of_cluster
        work = [
            ClusterAssignment(
                cluster_id=cluster_id,
                vault_id=vault_of[cluster_id],
                cluster=simulator.clusters[cluster_id],
                assigned=[(i, workload.tiles[i]) for i in tile_indices],
            )
            for cluster_id, tile_indices in enumerate(plan.tiles_of)
        ]
        assert run_cluster_groups_batched(
            simulator.config, work, TileTimingCache()
        ) is None
        # The refusal happened in the read-only phase: nothing ran.
        for cluster in simulator.clusters:
            assert cluster.tcdm.memory.reads == 0
            assert cluster.tcdm.memory.writes == 0
            assert cluster.dma.stats.transfers == 0

    def test_fallback_is_still_bit_identical(self):
        runs = []
        for batch in (False, True):
            simulator = SystemSimulator(
                SystemConfig(), options=ExecutionOptions(batch=batch)
            )
            workload = self._doctored(simulator)
            result = simulator.run(workload.tiles)
            runs.append((simulator, workload, result))
        (ref_sim, _, ref_result), (sim, _, result) = runs
        assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
        assert _timing_view(result) == _timing_view(ref_result)


# -- shared-memory segment lifecycle -------------------------------------------


class TestSharedMemoryLifecycle:
    def _track_segments(self, monkeypatch):
        """Record the name of every segment the dispatcher creates."""
        created = []
        real = parallel_mod._create_segment

        def tracking(num_bytes):
            segment = real(num_bytes)
            created.append(segment.name)
            return segment

        monkeypatch.setattr(parallel_mod, "_create_segment", tracking)
        return created

    def _assert_all_unlinked(self, names):
        assert not parallel_mod._ACTIVE_SEGMENTS
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_normal_run_unlinks_every_segment(self, monkeypatch):
        created = self._track_segments(monkeypatch)
        _run(parallel=2, memoize=True, batch=True)
        assert created  # the run really went through the staging path
        self._assert_all_unlinked(created)

    def test_worker_exception_surfaces_and_unlinks(self, monkeypatch):
        created = self._track_segments(monkeypatch)
        monkeypatch.setenv(parallel_mod.CRASH_ENV, "raise")
        with pytest.raises(RuntimeError, match="injected worker crash"):
            _run(parallel=2, memoize=True, batch=True)
        assert created
        self._assert_all_unlinked(created)

    def test_worker_hard_death_surfaces_and_unlinks(self, monkeypatch):
        """os._exit in a worker must raise a clear error, not hang."""
        created = self._track_segments(monkeypatch)
        monkeypatch.setenv(parallel_mod.CRASH_ENV, "exit")
        with pytest.raises(RuntimeError, match="worker process died"):
            _run(parallel=2, memoize=True, batch=True)
        assert created
        self._assert_all_unlinked(created)


# -- acceptance gate -----------------------------------------------------------


class TestAcceptanceBatchedSpeedup:
    def test_batched_memoized_is_5x_faster_with_identical_outputs(self):
        """Acceptance gate: memoization+batching >= 5x over the unaccelerated
        sequential path on the system bench shape, bit-identical outputs.

        Mirrors the parallel 3x gate in ``test_system.py``: the baseline is
        sized to take ~1s so the accelerated side has margin on a loaded
        CI machine, and the accelerated run is best-of-three — noise can
        only slow the accelerated side, so retrying it is conservative.
        """
        shape, tiles = (48, 52), 32

        start = time.perf_counter()
        reference = _run(
            num_tiles=tiles, image_shape=shape, memoize=False, batch=False
        )
        wall_sequential = time.perf_counter() - start

        wall_fast = math.inf
        for _ in range(3):
            start = time.perf_counter()
            candidate = _run(
                num_tiles=tiles, image_shape=shape, memoize=True, batch=True
            )
            wall_fast = min(wall_fast, time.perf_counter() - start)
            if wall_sequential / wall_fast >= 7.0:  # comfortable margin
                break

        _assert_matches_reference(reference, candidate)
        assert candidate[2].cache_hits > 0
        speedup = wall_sequential / wall_fast
        assert speedup >= 5.0, (
            f"batched replay speedup {speedup:.2f}x below the 5x gate "
            f"({wall_sequential:.3f}s -> {wall_fast:.3f}s)"
        )
