"""The scenario subsystem: spec round trips, registry errors, workload
builders, golden-model verification (including its failure paths) and the
scenario runner."""

import hashlib

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.engine import available_engines, get_engine
from repro.cluster.tiling import TileSchedule
from repro.mem.hmc import Hmc
from repro.options import ExecutionOptions
from repro.system import SystemSimulator
from repro.scenarios import (
    FAMILIES,
    ScenarioSpec,
    build_workload,
    get_scenario,
    iter_scenarios,
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

    @pytest.mark.parametrize(
        "family, params, match",
        [
            ("conv", {"kernel": 20}, "kernel larger than image"),
            ("opstream", {"opcode": "nope"}, "unknown opcode"),
        ],
        ids=["conv-kernel", "opstream-opcode"],
    )
    def test_bad_shape_rejected_at_construction(self, family, params, match):
        """Every family's builder runs at spec time, not only at run time."""
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(name="x", family=family, params=params)

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
        """Corrupting any verified output region must fail verification,
        down to a one-ulp change of a single word (verify is bit-exact)."""
        spec = next(
            get_scenario(s) for s in registered_scenarios()
            if get_scenario(s).family == name
        )
        outcome = run_scenario(
            spec, num_tiles=1, num_vaults=1, clusters_per_vault=1
        )
        hmc = outcome.simulator.hmc
        perturbations = (
            lambda x: x + np.float32(1.0),
            lambda x: np.nextafter(x, np.float32(np.inf)),
        )
        for address, expected in outcome.workload.references:
            produced = hmc.memory.load_array(address, expected.shape)
            for perturb in perturbations:
                corrupted = produced.copy().ravel()
                corrupted[0] = perturb(corrupted[0])
                hmc.memory.store_array(address, corrupted.reshape(expected.shape))
                with pytest.raises(AssertionError):
                    outcome.workload.verify(hmc)
                hmc.memory.store_array(address, produced)  # restore
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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tiles_share_one_command_stream(self, family):
        """The command stream is built once per build, not once per tile."""
        spec = next(s for s in iter_scenarios() if s.family == family)
        workload = build_workload(spec.with_overrides(num_tiles=3), Hmc())
        first = workload.tiles[0]
        for tile in workload.tiles[1:]:
            assert len(tile.commands) == len(first.commands)
            assert all(a is b for a, b in zip(tile.commands, first.commands))
            assert tile.placements == first.placements


def _staging_digest(hmc, tiles) -> str:
    """SHA-256 (first 16 hex digits) over every DMA transfer's HMC-side
    row addresses and the bytes they hold."""
    digest = hashlib.sha256()
    for tile in tiles:
        rows = [
            src for transfer in tile.transfers_in
            for src, _ in transfer.row_addresses()
        ] + [
            dst for transfer in tile.transfers_out
            for _, dst in transfer.row_addresses()
        ]
        sizes = [t.row_bytes for t in tile.transfers_in for _ in range(t.rows)]
        sizes += [t.row_bytes for t in tile.transfers_out for _ in range(t.rows)]
        for address, size in zip(rows, sizes):
            digest.update(address.to_bytes(8, "little"))
            digest.update(hmc.memory.read_bytes(address, size))
    return digest.hexdigest()[:16]


#: ``(after build, after run)`` staging digests per scenario.  Any change to
#: an HMC address, to the order of the generator's draws or to an output
#: byte changes them.
_STAGING_DIGESTS = {
    "conv-tiled": ('7c9174ae399142b0', 'c6afbc1224311e87'),
    "matmul-tiled": ('7a6a5c3261384059', '9c78fdd1c34172ab'),
    "stencil-laplace2d": ('4af67e1ff2ed63bd', '7dd086e58d8602b7'),
    "dnn-training-step": ('93126504aaed6b52', '80f3732febe2905b'),
    "opcode-stream": ('1f4f2379ea6d87a4', '3446c6ae4de0d786'),
    "cstencil-laplace27": ('079b012520f6b0d3', 'd9104e86048937fe'),
    "cstencil-heat3d": ('dedf6fd852930274', 'deebb86ac13d08d4'),
    "cstencil-gauss-blur": ('3c2db4292d510183', '22e83e3bcc69ad08'),
    "cstencil-bilateral": ('9c5bd8e0560f50bb', 'e36a8b13b8d238ef'),
    "cstencil-laplace2d-vn": ('1ff88914d01ca478', 'faae8a4fc90788e5'),
    "pipeline-blur-stencil-reduce": ('9a5ad7cb11e5fb09', 'c0c94d189fac69f6'),
    "opcode-stream[relu]": ('cf236c92c5fe2991', 'a8465059346303b0'),
}

#: Cases beyond the registered scenarios: an opcode that reads one operand
#: (the second is staged but never transferred).
_STAGING_EXTRA = {
    "opcode-stream[relu]": ("opcode-stream", {"params": {"opcode": "relu"}}),
}


class TestStagingLayout:
    """HMC addresses, staged bytes and draw order are pinned per scenario."""

    @pytest.mark.parametrize(
        "case", [*registered_scenarios(), *_STAGING_EXTRA]
    )
    def test_staging_digests_are_pinned(self, case):
        name, overrides = _STAGING_EXTRA.get(case, (case, {}))
        spec = get_scenario(name).with_overrides(**overrides)
        config = spec.system_config()
        simulator = SystemSimulator(config)
        workload = build_workload(spec, simulator.hmc, config.cluster)
        built = _staging_digest(simulator.hmc, workload.tiles)
        simulator.run(workload.tiles)
        workload.verify(simulator.hmc)
        ran = _staging_digest(simulator.hmc, workload.tiles)
        assert (built, ran) == _STAGING_DIGESTS[case]


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
