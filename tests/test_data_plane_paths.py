"""Which data-plane path every command takes.

The vectorized engine replays a command's data effects as array ops
(``execute_streams``) and falls back to the exact per-op executor
(``execute_functional``) when the fast path refuses.  A change to the
memory backing that silently breaks the array view keeps every output
correct but routes every command down the slow path, so these tests pin
the path itself: every registered scenario stays on the fast path, the
``repro_data_plane_commands_total`` counter reports each decision, and
``repro_data_plane_refusals_total`` says why the fast path refused.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cluster.vecsim as vecsim
from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.core.commands import AguConfig, LoopConfig, NtxCommand, NtxOpcode
from repro.kernels.reductions import reduce_max_command
from repro.obs.metrics import REGISTRY, render_prometheus
from repro.options import ExecutionOptions
from repro.scenarios import registered_scenarios, run_scenario


@pytest.fixture
def path_calls(monkeypatch):
    """Count fast-path calls, refusals and functional fallbacks in vecsim."""
    calls = {"fast": 0, "refused": 0, "functional": 0}
    execute_streams = vecsim.execute_streams
    execute_functional = vecsim.execute_functional

    def counted_streams(*args, **kwargs):
        taken = execute_streams(*args, **kwargs)
        calls["fast" if taken else "refused"] += 1
        return taken

    def counted_functional(*args, **kwargs):
        calls["functional"] += 1
        return execute_functional(*args, **kwargs)

    monkeypatch.setattr(vecsim, "execute_streams", counted_streams)
    monkeypatch.setattr(vecsim, "execute_functional", counted_functional)
    return calls


@pytest.mark.parametrize(
    "options",
    [
        ExecutionOptions(engine="vectorized"),
        ExecutionOptions(engine="vectorized", memoize=False),
        ExecutionOptions(engine="vectorized", batch=False),
    ],
    ids=["default", "no-memoize", "no-batch"],
)
@pytest.mark.parametrize("name", registered_scenarios())
def test_registered_scenarios_stay_on_the_fast_path(name, options, path_calls):
    outcome = run_scenario(name, options=options)
    assert outcome.verified
    assert path_calls["functional"] == 0, path_calls
    assert path_calls["refused"] == 0, path_calls
    assert path_calls["fast"] > 0, path_calls


def _path_counts() -> dict:
    counter = REGISTRY.get("repro_data_plane_commands_total")
    return {path: counter.value(path=path) for path in ("fast", "exact", "refused")}


class TestDataPlaneCounter:
    def test_vectorized_scenario_counts_only_fast(self):
        REGISTRY.set_enabled(True)
        outcome = run_scenario("conv-tiled", num_tiles=2, engine="vectorized")
        counts = _path_counts()
        commands = sum(
            ntx.stats.commands
            for cluster in outcome.simulator.clusters
            for ntx in cluster.ntx
        )
        assert counts == {"fast": commands, "exact": 0, "refused": 0}
        assert 'repro_data_plane_commands_total{path="fast"}' in render_prometheus()

    def test_memoized_scalar_scenario_counts_exact(self):
        REGISTRY.set_enabled(True)
        run_scenario("conv-tiled", num_tiles=4, engine="scalar")
        counts = _path_counts()
        assert counts["exact"] > 0
        assert counts["fast"] == counts["refused"] == 0


_REASONS = ("off_image", "raw_hazard", "nan_comparator")


def _refusals() -> dict:
    counter = REGISTRY.get("repro_data_plane_refusals_total")
    return {reason: counter.value(reason=reason) for reason in _REASONS}


def _raw_hazard_copy(cluster, n=8):
    """COPY that reads the word its previous iteration stored."""
    buf = cluster.tcdm.alloc_layout([(n + 1) * 4])[0]
    cluster.stage_in(buf, np.arange(1, n + 2, dtype=np.float32))
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
    )


def _nan_max(cluster, n=8):
    """MAX reduction over an input holding a NaN."""
    src, dst = cluster.tcdm.alloc_layout([n * 4, 4])
    values = np.arange(n, dtype=np.float32)
    values[3] = np.nan
    cluster.stage_in(src, values)
    return reduce_max_command(n, src, dst)


def _unaligned_copy(cluster, n=8):
    """COPY whose read stream is not word-aligned."""
    src, dst = cluster.tcdm.alloc_layout([(n + 1) * 4, n * 4])
    cluster.stage_in(src, np.arange(n + 1, dtype=np.float32))
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=src + 2, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=dst, strides=(4, 0, 0, 0, 0)),
    )


class TestRefusalReasons:
    @pytest.mark.parametrize(
        "build, reason",
        [
            (_raw_hazard_copy, "raw_hazard"),
            (_nan_max, "nan_comparator"),
            (_unaligned_copy, "off_image"),
        ],
    )
    def test_refusal_counts_its_reason(self, build, reason):
        REGISTRY.set_enabled(True)
        cluster = Cluster()
        command = build(cluster)
        ClusterSimulator(cluster, engine="vectorized").run([(0, command)])
        refusals = _refusals()
        assert refusals == {key: float(key == reason) for key in _REASONS}
        assert sum(refusals.values()) == _path_counts()["refused"]

    def test_stacked_refusal_counts_every_row(self):
        """One refused command over a stack counts once per row, and each row
        still runs the exact executor (here: the same chain in every row)."""
        REGISTRY.set_enabled(True)
        cluster = Cluster()
        command = _raw_hazard_copy(cluster)
        images = np.repeat(cluster.tcdm.memory.words()[None, :], 3, axis=0)
        ClusterSimulator(cluster, engine="vectorized").run_data_plane(
            [(0, command)], images
        )
        assert _refusals() == {"off_image": 0, "raw_hazard": 3, "nan_comparator": 0}
        assert _path_counts()["refused"] == 3
        start = (command.agu0.base - cluster.tcdm.base) >> 2
        chain = images[:, start : start + 9]
        np.testing.assert_array_equal(chain, np.ones((3, 9), dtype=np.float32))
