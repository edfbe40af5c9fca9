"""Parity/fuzz harness for cross-tile batched replay (repro.system.batch).

The batched cache-hit path promises *bit-identical* results to the plain
sequential scalar path — same HMC bytes, same timing reports — across
every combination of cycle engine, memoization and batching.  This file holds that promise in place:

* a fixed accelerator matrix (engine x memoize x batch) checked
  against one sequential scalar reference run,
* a seeded randomized fuzz sweep over tile shapes, tile counts and
  cluster topologies (full depth under ``-m slow``, a short prefix in the
  default quick run),
* the self-containment gate: a tile whose compute reads TCDM residue that
  no DMA staged must send the *whole* run down the per-tile fallback
  before any state is touched, and ``repro_system_dispatch_total`` counts
  which path each run took,
* the acceptance gate: batched memoized replay is >= 5x faster than the
  unmemoized sequential path on the system bench shape, with identical
  outputs.

The reference draws lattice-valued operands (multiples of 1/16) so both
cycle engines produce bit-identical floating-point results; one test
restages arbitrary normal data to check batched-vs-unbatched identity
*within* the vectorized engine, where no cross-engine rounding question
arises.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, build_workload, registered_scenarios, run_scenario
from repro.system import (
    ClusterAssignment,
    SystemConfig,
    SystemSimulator,
    run_cluster_groups_batched,
)
from repro.system.memo import TileTimingCache


def _conv(simulator, num_tiles=8, image_shape=(12, 14), seed=2019):
    """Independent convolution tiles staged in ``simulator``'s HMC."""
    spec = ScenarioSpec(
        name="conv",
        family="conv",
        params={"image_shape": image_shape},
        num_tiles=num_tiles,
        seed=seed,
    )
    return build_workload(spec, simulator.hmc, simulator.config.cluster)


def _restage_normal(hmc, workload, seed):
    """Overwrite every staged input row with standard-normal float32 draws.

    The goldens then no longer describe the HMC contents; the point is
    data off the 1/16 lattice.
    """
    rng = np.random.default_rng(seed)
    for tile in workload.tiles:
        for transfer in tile.transfers_in:
            for src, _ in transfer.row_addresses():
                words = rng.standard_normal(transfer.row_bytes // 4)
                hmc.memory.store_array(src, words.astype(np.float32))


def _run(
    num_tiles=8,
    image_shape=(12, 14),
    seed=2019,
    engine="vectorized",
    memoize=True,
    batch=True,
    config=None,
    normal=False,
):
    """One end-to-end system run; returns (simulator, workload, result).

    ``normal`` restages the inputs with :func:`_restage_normal` first.
    """
    if config is None:
        config = SystemConfig(engine=engine)
    simulator = SystemSimulator(
        config, options=ExecutionOptions(memoize=memoize, batch=batch)
    )
    workload = _conv(simulator, num_tiles, image_shape, seed)
    if normal:
        _restage_normal(simulator.hmc, workload, seed)
    result = simulator.run(workload.tiles)
    return simulator, workload, result


def _hmc_bytes(simulator):
    """Zero-copy byte view of the whole HMC — full-DRAM bit identity."""
    return np.frombuffer(simulator.hmc.memory.data, dtype=np.uint8)


def _timing_view(result):
    """Everything timing-related a run reports, for exact comparison.

    ``cache_hits``/``cache_misses`` are accounting of the acceleration
    machinery itself and deliberately excluded; every modeled
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


def _assert_matches_reference(reference, candidate, verify=True):
    """Bit-identical HMC contents and identical timing reports."""
    ref_sim, ref_workload, ref_result = reference
    sim, workload, result = candidate
    assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
    assert _timing_view(result) == _timing_view(ref_result)
    if verify:
        workload.verify(sim.hmc)


# -- the accelerator matrix ----------------------------------------------------


@pytest.fixture(scope="module")
def scalar_reference():
    """The ground truth: sequential scalar engine, no acceleration at all."""
    return _run(engine="scalar", memoize=False, batch=False)


class TestAcceleratorMatrix:
    """Every engine x memoize x batch combination vs the reference."""

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("memoize", [False, True])
    @pytest.mark.parametrize("batch", [False, True])
    def test_combination_matches_scalar_sequential(
        self, scalar_reference, engine, memoize, batch
    ):
        candidate = _run(engine=engine, memoize=memoize, batch=batch)
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
        unbatched = _run(memoize=True, batch=False, normal=True, seed=7)
        batched = _run(memoize=True, batch=True, normal=True, seed=7)
        _assert_matches_reference(unbatched, batched, verify=False)
        sim, workload, result = batched
        assert result.cache_hits > 0
        # The restaged data reached the engines: the lattice goldens fail.
        with pytest.raises(AssertionError):
            workload.verify(sim.hmc)


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
        batch=False,
        config=SystemConfig(engine="scalar", **draw["config_kwargs"]),
    )
    for engine, memoize, batch in combos:
        candidate = _run(
            num_tiles=draw["num_tiles"],
            image_shape=draw["image_shape"],
            seed=draw["seed"],
            memoize=memoize,
            batch=batch,
            config=SystemConfig(engine=engine, **draw["config_kwargs"]),
        )
        _assert_matches_reference(reference, candidate)


class TestFuzzParity:
    QUICK_COMBOS = [
        ("vectorized", True, True),
        ("scalar", True, True),
    ]
    FULL_COMBOS = [
        (engine, memoize, batch)
        for engine in ("scalar", "vectorized")
        for memoize in (False, True)
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


def _doctored(simulator, num_tiles=6):
    """A workload one of whose interior tiles fails the gate."""
    workload = _conv(simulator, num_tiles)
    # Strip the staging DMA of one interior tile: its commands now read
    # uncovered TCDM words, so the group containing it is not
    # self-contained.
    workload.tiles[2].transfers_in = []
    return workload


class TestSelfContainmentGate:
    """A tile whose reads are not covered by its own DMA-in rows (it reads
    whatever residue the previous tile left in the TCDM) must force the
    whole run down the per-tile path — before any state is touched."""

    def test_gate_refuses_the_group(self):
        simulator = SystemSimulator(SystemConfig())
        workload = _doctored(simulator)
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
            workload = _doctored(simulator)
            result = simulator.run(workload.tiles)
            runs.append((simulator, workload, result))
        (ref_sim, _, ref_result), (sim, _, result) = runs
        assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
        assert _timing_view(result) == _timing_view(ref_result)


class TestHmcBoundsGate:
    """The gate checks the HMC-side rows of *every* member of a group, not
    only the first: a tile staging from outside the HMC must take the
    per-tile path, which raises, instead of replaying wrapped bytes."""

    def test_out_of_hmc_source_on_a_later_member_is_refused(self):
        REGISTRY.set_enabled(True)
        for batch in (False, True):
            simulator = SystemSimulator(
                SystemConfig(), options=ExecutionOptions(batch=batch)
            )
            workload = _conv(simulator, num_tiles=4)
            last = workload.tiles[-1]
            last.transfers_in[0] = replace(last.transfers_in[0], src=0x7FFFF000)
            with pytest.raises(IndexError, match="0x7ffff000 is not TCDM, L2 or HMC"):
                simulator.run(workload.tiles)
        assert _dispatch_counts() == {"batched": 0, "refused": 1, "per_tile": 1}


def _dispatch_counts() -> dict:
    counter = REGISTRY.get("repro_system_dispatch_total")
    return {
        path: counter.value(path=path)
        for path in ("batched", "refused", "per_tile")
    }


class TestDispatchCounter:
    """``repro_system_dispatch_total`` counts each run once, by path."""

    def test_batched_run_counts_batched(self):
        REGISTRY.set_enabled(True)
        _run(memoize=True, batch=True)
        assert _dispatch_counts() == {"batched": 1, "refused": 0, "per_tile": 0}

    @pytest.mark.parametrize(
        "engine, num_tiles",
        [("scalar", 8), ("vectorized", 2)],
        ids=["scalar-memoized", "one-member-group"],
    )
    def test_every_hit_group_replays_stacked(self, engine, num_tiles):
        """A memoized scalar run and a hit group of one tile replay stacked
        too, with HMC bytes equal to ``batch=False``."""
        reference = _run(num_tiles=num_tiles, engine=engine, batch=False)
        REGISTRY.set_enabled(True)
        candidate = _run(num_tiles=num_tiles, engine=engine, batch=True)
        assert _dispatch_counts() == {"batched": 1, "refused": 0, "per_tile": 0}
        hits = candidate[2].cache_hits
        assert hits > 0
        assert REGISTRY.get("repro_batched_tiles_total").value() == hits
        assert np.array_equal(_hmc_bytes(reference[0]), _hmc_bytes(candidate[0]))

    def test_gate_refusal_counts_refused(self):
        REGISTRY.set_enabled(True)
        simulator = SystemSimulator(SystemConfig())
        workload = _doctored(simulator)
        simulator.run(workload.tiles)
        assert _dispatch_counts() == {"batched": 0, "refused": 1, "per_tile": 0}

    @pytest.mark.parametrize(
        "memoize, batch", [(False, True), (True, False), (False, False)]
    )
    def test_knob_off_counts_per_tile(self, memoize, batch):
        REGISTRY.set_enabled(True)
        _run(memoize=memoize, batch=batch)
        assert _dispatch_counts() == {"batched": 0, "refused": 0, "per_tile": 1}

    @pytest.mark.parametrize("name", registered_scenarios())
    def test_registered_scenarios_are_batched(self, name):
        """Under default options the gate admits every registered family.

        A refusal keeps every output exact and only costs speed, so nothing
        else would notice a gate change that sends a family per-tile.
        """
        REGISTRY.set_enabled(True)
        assert run_scenario(name).verified
        assert _dispatch_counts() == {"batched": 1, "refused": 0, "per_tile": 0}


# -- acceptance gate -----------------------------------------------------------


class TestAcceptanceBatchedSpeedup:
    def test_batched_memoized_is_5x_faster_with_identical_outputs(self):
        """Acceptance gate: memoization+batching >= 5x over the unaccelerated
        sequential path on the system bench shape, bit-identical outputs.

        The baseline is sized to take ~1s so the accelerated side has margin on a loaded
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
