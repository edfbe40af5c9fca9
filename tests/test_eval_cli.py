"""Tests for the ``python -m repro.eval`` command-line entry point."""

import pytest

from repro.campaign import get_campaign
from repro.eval import __main__ as cli
from repro.eval.__main__ import main
from repro.report import get_artifact, iter_artifacts, registered_artifacts


def test_list_prints_what_report_list_prints(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert main(["report", "--list"]) == 0
    assert out == capsys.readouterr().out
    for artifact in iter_artifacts():
        assert artifact.name in out


@pytest.mark.parametrize("name", ["fig7", "precision"])
def test_artifact_name_prints_what_report_prints(name, capsys):
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert main(["report", name]) == 0
    assert out == capsys.readouterr().out
    assert get_artifact(name).reproduces in out


def test_fast_subset_of_artifacts(capsys):
    assert main(["fig7", "precision"]) == 0
    out = capsys.readouterr().out
    assert "compute density" in out and "RMSE" in out


def test_no_names_prints_every_artifact(monkeypatch):
    forwarded = []

    def fake_report_main(argv):
        forwarded.append(argv)
        return 0

    monkeypatch.setattr(cli, "report_main", fake_report_main)
    assert main([]) == 0
    assert main(["-q"]) == 0
    assert forwarded == [
        list(registered_artifacts()),
        ["-q", *registered_artifacts()],
    ]


def test_rejects_unknown_artifact(capsys):
    assert main(["does-not-exist"]) == 2
    assert "registered artifacts" in capsys.readouterr().err


def test_old_system_name_points_at_system_scaling(capsys):
    assert main(["system"]) != 0
    assert "system-scaling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--parallel", "2"], ["--no-memoize"], ["--no-batch"], ["--quick"]]
)
def test_bare_parser_has_no_execution_flags(flags, capsys):
    with pytest.raises(SystemExit):
        main(["fig7", *flags])
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "run", "conv-tiled"],
        ["campaign", "run", "conv-geometry-sweep"],
        ["submit", "scenario", "conv-tiled"],
    ],
)
def test_subcommands_have_no_parallel_flag(argv, capsys):
    with pytest.raises(SystemExit):
        main([*argv, "--parallel", "2"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_list(capsys):
    from repro.scenarios import registered_scenarios

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in registered_scenarios():
        assert name in out


def test_scenario_run(capsys):
    assert main(["scenario", "run", "matmul-tiled", "--tiles", "2"]) == 0
    out = capsys.readouterr().out
    assert "matmul-tiled" in out
    assert "verified against the golden model: ok" in out


def test_scenario_run_engine_override(capsys):
    assert main(
        ["scenario", "run", "conv-tiled", "--tiles", "1", "--engine", "scalar"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine scalar" in out


def test_scenario_run_unknown_name_fails_cleanly(capsys):
    assert main(["scenario", "run", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "registered scenarios" in err


def test_epilog_is_generated_from_the_registries():
    """Satellite: the CLI help can never drift from the registries."""
    from repro.campaign import registered_campaigns
    from repro.cluster.engine import available_engines
    from repro.eval.__main__ import _epilog
    from repro.scenarios import registered_scenarios

    epilog = _epilog()
    for name in registered_artifacts():
        assert name in epilog
    for name in available_engines():
        assert name in epilog
    for name in registered_scenarios():
        assert name in epilog
    for name in registered_campaigns():
        assert name in epilog


def test_campaign_list(capsys):
    from repro.campaign import registered_campaigns

    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in registered_campaigns():
        assert name in out


def test_campaign_run_report_and_resume(tmp_path, capsys):
    store = str(tmp_path / "dnn.jsonl")
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 executed" in out
    assert "plateau" in out or "points analysed" in out

    # Acceptance: rerunning the same command skips every completed point.
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "4 resumed from the store, 0 executed" in out

    assert main(
        ["campaign", "report", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "points analysed" in out


def test_campaign_report_without_store_fails_cleanly(tmp_path, capsys):
    store = str(tmp_path / "missing.jsonl")
    assert main(
        ["campaign", "report", "dnn-scaling", "--quick", "--store", store]
    ) == 1
    out = capsys.readouterr().out
    assert "run the campaign" in out


def test_campaign_unknown_name_fails_cleanly(capsys):
    assert main(["campaign", "run", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "registered campaigns" in err


def test_campaign_run_with_cache_dir_serves_fresh_stores(tmp_path, capsys):
    """Acceptance: a warm global cache eliminates re-simulation even
    into a brand-new store, and the summary says so explicitly."""
    cache = str(tmp_path / "cache")
    cold = ["campaign", "run", "dnn-scaling", "--quick", "--cache-dir", cache]
    assert main(cold + ["--store", str(tmp_path / "a.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "0 from the global cache, 4 executed" in out

    assert main(cold + ["--store", str(tmp_path / "b.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 from the global cache, 0 executed" in out


def test_campaign_summary_without_cache_is_unchanged(tmp_path, capsys):
    """The no-cache summary line stays byte-compatible (no cache clause)."""
    store = str(tmp_path / "dnn.jsonl")
    assert main(["campaign", "run", "dnn-scaling", "--quick", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 executed" in out
    assert "global cache" not in out


def test_campaign_sharded_run_and_merge(tmp_path, capsys):
    # Shard membership follows the point-id hash (int(id, 16) % 2).
    points = get_campaign("dnn-scaling").for_quick().expand()
    sizes = [sum(int(p.id, 16) % 2 == index for p in points) for index in range(2)]
    assert sum(sizes) == 4 and all(sizes)  # two non-empty shards
    shards = []
    for index in range(2):
        store = str(tmp_path / f"shard{index}.jsonl")
        shards.append(store)
        assert main(
            ["campaign", "run", "dnn-scaling", "--quick",
             "--shard", f"{index}/2", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert f"[shard {index}/2]: {sizes[index]} points" in out

    merged = str(tmp_path / "merged.jsonl")
    assert main(["campaign", "merge", "--output", merged] + shards) == 0
    out = capsys.readouterr().out
    assert f"merged 2 store(s) -> {merged} (4 points)" in out
    first = open(merged, "rb").read()

    # Merging in the opposite order is byte-identical.
    assert main(["campaign", "merge", "--output", merged] + shards[::-1]) == 0
    capsys.readouterr()
    assert open(merged, "rb").read() == first

    # The merged store resumes a full run completely.
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--store", merged]
    ) == 0
    out = capsys.readouterr().out
    assert "4 resumed from the store, 0 executed" in out


def test_campaign_merge_missing_input_fails_cleanly(tmp_path, capsys):
    assert main(
        ["campaign", "merge", "--output", str(tmp_path / "m.jsonl"),
         str(tmp_path / "ghost.jsonl")]
    ) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_campaign_invalid_shard_selector_fails_cleanly(tmp_path, capsys):
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--shard", "4/2",
         "--store", str(tmp_path / "s.jsonl")]
    ) == 2
    err = capsys.readouterr().err
    assert "shard index" in err
