"""The scenario subsystem: spec round trips, registry errors, workload
builders, golden-model verification (including its failure paths) and the
scenario runner."""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.engine import available_engines, get_engine
from repro.cluster.tiling import TileSchedule
from repro.mem.hmc import Hmc
from repro.options import ExecutionOptions
from repro.scenarios import (
    FAMILIES,
    ScenarioSpec,
    build_workload,
    get_scenario,
    register_scenario,
    registered_scenarios,
    run_scenario,
)


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            name="rt",
            family="matmul",
            description="round trip",
            params={"m": 4, "k": 6, "n": 5},
            num_tiles=3,
            seed=7,
            num_vaults=1,
            clusters_per_vault=2,
            engine="scalar",
            stagger_cycles=5,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = get_scenario("conv-tiled")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_tuple_params(self):
        """JSON turns tuples into lists; normalization keeps the identity."""
        spec = ScenarioSpec(
            name="rt2", family="conv", params={"image_shape": (8, 10)}
        )
        round_tripped = ScenarioSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert round_tripped.merged_params()["image_shape"] == (8, 10)

    def test_from_dict_rejects_unknown_fields(self):
        data = get_scenario("conv-tiled").to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_rejects_missing_required_fields(self):
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_unknown_family_lists_choices(self):
        with pytest.raises(ValueError, match="matmul"):
            ScenarioSpec(name="x", family="fft")

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="vectorized"):
            ScenarioSpec(name="x", family="conv", engine="quantum")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kernel_size"):
            ScenarioSpec(name="x", family="conv", params={"kernel_size": 3})

    def test_params_merge_over_family_defaults(self):
        spec = ScenarioSpec(name="x", family="conv", params={"kernel": 5})
        merged = spec.merged_params()
        assert merged["kernel"] == 5
        assert merged["image_shape"] == (12, 14)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="conv", num_tiles=-1)

    @pytest.mark.parametrize("knob", ["memoize", "parallel"])
    def test_execution_knobs_are_not_spec_fields(self, knob):
        """Execution knobs live only in ExecutionOptions, never in a spec."""
        data = {"name": "x", "family": "conv", knob: 0}
        with pytest.raises(ValueError, match=rf"'{knob}'.*accepted: .*'engine'"):
            ScenarioSpec.from_dict(data)

    def test_system_config_carries_the_knobs(self):
        spec = ScenarioSpec(
            name="x", family="conv", num_vaults=1, clusters_per_vault=3,
            engine="scalar", stagger_cycles=3,
        )
        config = spec.system_config()
        assert config.num_clusters == 3
        assert config.engine == "scalar"
        assert config.stagger_cycles == 3


class TestRegistry:
    def test_one_scenario_per_family_is_registered(self):
        specs = [get_scenario(name) for name in registered_scenarios()]
        assert set(FAMILIES) <= {spec.family for spec in specs}
        assert len(registered_scenarios()) >= 4

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ValueError, match="conv-tiled"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("conv-tiled")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        # Explicit replace is allowed (and is a no-op with the same spec).
        assert register_scenario(spec, replace=True) is spec

    def test_engine_registry_round_trip(self):
        assert set(available_engines()) >= {"scalar", "vectorized"}
        for name in available_engines():
            assert get_engine(name).name == name
        with pytest.raises(ValueError, match="scalar"):
            get_engine("bogus")


class TestPlacements:
    def test_default_round_robin(self):
        tile = TileSchedule(commands=[object(), object(), object()])
        assert [ntx for ntx, _ in tile.jobs(2)] == [0, 1, 0]

    def test_explicit_placements(self):
        commands = [object(), object()]
        tile = TileSchedule(commands=commands, placements=[1, 1])
        assert tile.jobs(4) == [(1, commands[0]), (1, commands[1])]

    def test_length_mismatch_rejected(self):
        tile = TileSchedule(commands=[object()], placements=[0, 1])
        with pytest.raises(ValueError, match="placements"):
            tile.jobs(8)

    def test_out_of_range_placement_rejected(self):
        tile = TileSchedule(commands=[object()], placements=[9])
        with pytest.raises(ValueError, match="out of range"):
            tile.jobs(8)


def _run_family(name, **overrides):
    overrides.setdefault("num_tiles", 2)
    overrides.setdefault("num_vaults", 1)
    overrides.setdefault("clusters_per_vault", 2)
    return run_scenario(name, **overrides)


class TestWorkloadFamilies:
    @pytest.mark.parametrize("name", ["conv-tiled", "matmul-tiled",
                                      "stencil-laplace2d", "dnn-training-step"])
    def test_runs_and_verifies(self, name):
        outcome = _run_family(name)
        assert outcome.verified
        assert outcome.result.num_tiles == 2
        assert outcome.result.makespan_cycles > 0
        assert outcome.workload.references

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_verify_failure_path(self, name):
        """Corrupting any verified output region must fail verification."""
        spec = next(
            get_scenario(s) for s in registered_scenarios()
            if get_scenario(s).family == name
        )
        outcome = run_scenario(
            spec, num_tiles=1, num_vaults=1, clusters_per_vault=1
        )
        hmc = outcome.simulator.hmc
        for address, expected in outcome.workload.references:
            produced = hmc.memory.load_array(address, expected.shape)
            corrupted = produced.copy().ravel()
            corrupted[0] += np.float32(1.0)
            hmc.memory.store_array(address, corrupted.reshape(expected.shape))
            with pytest.raises(AssertionError):
                outcome.workload.verify(hmc)
            hmc.memory.store_array(address, produced)  # restore for the next region
        outcome.workload.verify(hmc)  # restored state passes again

    def test_build_workload_is_deterministic(self):
        spec = get_scenario("dnn-training-step").with_overrides(num_tiles=1)
        arrays = []
        for _ in range(2):
            hmc = Hmc()
            workload = build_workload(spec, hmc, ClusterConfig())
            arrays.append([expected for _, expected in workload.references])
        for a, b in zip(*arrays):
            assert np.array_equal(a, b)

    def test_memoized_scenario_is_exact(self):
        """The system-scale accelerations compose with every family."""
        plain = _run_family(
            "dnn-training-step", num_tiles=4,
            options=ExecutionOptions(memoize=False),
        )
        fast = _run_family(
            "dnn-training-step", num_tiles=4,
            options=ExecutionOptions(memoize=True),
        )
        assert fast.result.cache_hits > 0
        assert fast.result.makespan_cycles == plain.result.makespan_cycles
        for a, b in zip(plain.output_arrays(), fast.output_arrays()):
            assert np.array_equal(a, b)  # bit-identical HMC buffers

    def test_conv_scenario_matches_legacy_workload_shape(self):
        """The conv family is the port of conv_tiled_workload: same tiling
        structure (bands, transfers) for the same shape parameters."""
        from repro.system import conv_tiled_workload

        spec = get_scenario("conv-tiled").with_overrides(num_tiles=2)
        hmc = Hmc()
        ported = build_workload(spec, hmc, ClusterConfig())
        legacy = conv_tiled_workload(Hmc(), num_tiles=2)
        assert len(ported.tiles) == len(legacy.tiles)
        for new_tile, old_tile in zip(ported.tiles, legacy.tiles):
            assert len(new_tile.commands) == len(old_tile.commands)
            assert new_tile.bytes_in == old_tile.bytes_in
            assert new_tile.bytes_out == old_tile.bytes_out


class TestRunnerSurface:
    def test_summary_names_the_scenario(self):
        outcome = _run_family("matmul-tiled")
        summary = outcome.summary()
        assert summary["scenario"] == "matmul-tiled"
        assert summary["family"] == "matmul"
        assert summary["verified"] is True

    def test_format_outcome_mentions_verification(self):
        from repro.scenarios import format_outcome

        outcome = _run_family("conv-tiled")
        rendered = format_outcome(outcome)
        assert "conv-tiled" in rendered
        assert "verified" in rendered

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_scenario("conv-tiled", engine="nope")
