"""Which data-plane path every command takes.

The vectorized engine replays a command's data effects as array ops
(``execute_streams``) and falls back to the exact per-op executor
(``execute_functional``) when the fast path refuses.  A change to the
memory backing that silently breaks the array view keeps every output
correct but routes every command down the slow path, so these tests pin
the path itself: every registered scenario stays on the fast path, and
the ``repro_data_plane_commands_total`` counter reports each decision.
"""

from __future__ import annotations

import pytest

import repro.cluster.vecsim as vecsim
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
