from __future__ import annotations

import copy
import json

import pytest

from paptrack import harness
from paptrack.cli import main
from paptrack.harness import (
    ExperimentConfig,
    MetricConfig,
    compare,
    config_from_dict,
    config_to_dict,
    recompute_cost_evaluations,
    replay_dump,
    run_experiment,
    run_single,
    sign_test_pvalue,
    sweep_rho,
)
from paptrack.metrics import report_to_json
from paptrack.perception import QueryAssemblyPolicy
from paptrack.world import ConfigError, ScenarioConfig, SensorConfig


def small_config(seeds=(1, 2), mode="ab_compare", **policy_kwargs) -> ExperimentConfig:
    cfg = ExperimentConfig(
        seeds=list(seeds),
        mode=mode,
        scenario=ScenarioConfig(frame_count=40, dt=0.1, class_counts={"car": 3, "pedestrian": 2}),
        sensor=SensorConfig(position_noise_sigma=0.3, miss_probability=0.1, clutter_rate=1.0),
        policy=QueryAssemblyPolicy(n_queries=128, rho=0.8, **policy_kwargs),
        metrics=MetricConfig(n_recall_points=10),
        rho_values=[0.0, 0.5, 1.0],
    )
    return cfg


def strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["counters"].pop("wall_seconds")
    out["counters"].pop("fps")
    return out


# ---------------------------------------------------------------------------
# pairing and determinism


def test_arms_share_identical_measurement_streams():
    cfg = small_config(seeds=(3, 4))
    arms = run_experiment(cfg)
    for rb, rp in zip(arms["baseline"], arms["pap"]):
        assert rb["config_echo"]["run"]["seed"] == rp["config_echo"]["run"]["seed"]
        assert rb["measurement_hash"] == rp["measurement_hash"]


def test_distinct_seeds_produce_distinct_streams():
    cfg = small_config(seeds=(3, 4))
    a = run_single(cfg, 3, rho=0.0, arm="baseline")
    b = run_single(cfg, 4, rho=0.0, arm="baseline")
    assert a["measurement_hash"] != b["measurement_hash"]


def test_run_single_is_deterministic():
    cfg = small_config()
    a = run_single(cfg, 5, rho=0.8, arm="pap")
    b = run_single(cfg, 5, rho=0.8, arm="pap")
    assert strip_timing(a) == strip_timing(b)


# ---------------------------------------------------------------------------
# config (de)serialization


def test_config_round_trip():
    cfg = small_config()
    doc = json.loads(json.dumps(config_to_dict(cfg)))
    back = config_from_dict(doc)
    assert config_to_dict(back) == config_to_dict(cfg)


def test_config_rejects_unknown_top_level_key():
    doc = config_to_dict(small_config())
    doc["experimental_flag"] = True
    with pytest.raises(ConfigError, match="experimental_flag"):
        config_from_dict(doc)


def test_config_rejects_unknown_nested_key():
    doc = config_to_dict(small_config())
    doc["sensor"]["fog_density"] = 0.5
    with pytest.raises(ConfigError, match="fog_density"):
        config_from_dict(doc)


def test_config_requires_matching_schema_version():
    doc = config_to_dict(small_config())
    doc["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict(doc)
    doc.pop("schema_version")
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict(doc)


def test_config_validation_failures():
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(seeds=[]).validate()
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(mode="turbo").validate()
    with pytest.raises(ConfigError, match="rho"):
        ExperimentConfig(rho_values=[1.5]).validate()
    with pytest.raises(ConfigError, match="embedding_dim"):
        ExperimentConfig(embedding_dim=2).validate()
    with pytest.raises(ConfigError, match="match_distance"):
        ExperimentConfig(metrics=MetricConfig(match_distance=0.0)).validate()
    with pytest.raises(ConfigError, match="n_recall_points"):
        ExperimentConfig(metrics=MetricConfig(n_recall_points=0)).validate()


# ---------------------------------------------------------------------------
# compare


def _report_with(amota, fps, seed=1, ids=0):
    return {
        "aggregate": {"amota": amota, "amotp": 1.0, "recall": 0.5, "ids": ids},
        "counters": {"fps": fps, "wall_seconds": 1.0, "query_refinements": 0, "cost_evaluations": 0},
        "config_echo": {"run": {"seed": seed}},
    }


def test_compare_relative_delta_reference_fixture():
    # accuracy 0.359 -> 0.395 is a +10.0% relative improvement,
    # throughput 14 -> 16 frames/s is +14.3%
    summary = compare([_report_with(0.359, 14.0)], [_report_with(0.395, 16.0)])
    assert summary["metrics"]["amota"]["relative_delta"] == pytest.approx(0.100, abs=0.002)
    assert summary["counters"]["fps"]["relative_delta"] == pytest.approx(0.143, abs=0.002)


def test_compare_identical_reports_gives_zero_deltas():
    a = [_report_with(0.5, 10.0, seed=1), _report_with(0.7, 12.0, seed=2)]
    summary = compare(a, copy.deepcopy(a))
    for st in list(summary["metrics"].values()) + list(summary["counters"].values()):
        assert st["delta"] == 0.0
        assert st["relative_delta"] in (0.0, None)


def test_compare_requires_matching_seed_sets():
    with pytest.raises(ValueError, match="seed"):
        compare([_report_with(0.5, 10.0, seed=1)], [_report_with(0.5, 10.0, seed=2)])


def test_sign_test_reference_values():
    # 20 wins out of 20: p = 0.5^20
    assert sign_test_pvalue(list(range(20)), [x + 1 for x in range(20)]) == pytest.approx(0.5**20)
    # all ties: no evidence
    assert sign_test_pvalue([1, 2], [1, 2]) == 1.0
    # balanced wins/losses: p > 0.5
    assert sign_test_pvalue([0, 1], [1, 0]) > 0.5


# ---------------------------------------------------------------------------
# sweep


def test_sweep_has_one_sorted_row_per_rho_and_zero_matches_baseline():
    cfg = small_config(seeds=(7,), mode="rho_sweep")
    rows = sweep_rho(cfg, [1.0, 0.0, 0.5])
    assert [row["rho"] for row in rows] == [0.0, 0.5, 1.0]
    baseline = run_single(cfg, 7, rho=0.0, arm="baseline")
    assert rows[0]["mean_amota"] == pytest.approx(baseline["aggregate"]["amota"], abs=1e-12)
    assert rows[0]["per_seed_ids"] == [baseline["aggregate"]["ids"]]


def test_sweep_rejects_rho_outside_unit_interval():
    with pytest.raises(ConfigError, match="rho"):
        sweep_rho(small_config(), [0.5, 2.0])


# ---------------------------------------------------------------------------
# dump / replay


def test_dump_replay_reproduces_report_byte_for_byte(tmp_path):
    cfg = small_config(seeds=(9,))
    dump = tmp_path / "dump.jsonl"
    report = run_single(cfg, 9, rho=0.8, arm="pap", dump_path=dump)
    replayed = replay_dump(dump)
    assert report_to_json(replayed) == report_to_json(report)


def test_dump_has_one_frame_record_per_frame(tmp_path):
    cfg = small_config(seeds=(9,))
    dump = tmp_path / "dump.jsonl"
    run_single(cfg, 9, rho=0.8, arm="pap", dump_path=dump)
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert records[0]["type"] == "header"
    assert records[-1]["type"] == "footer"
    frames = [r for r in records if r["type"] == "frame"]
    assert len(frames) == cfg.scenario.frame_count
    assert [r["frame"] for r in frames] == list(range(cfg.scenario.frame_count))


def test_cost_evaluation_counter_matches_independent_recount(tmp_path):
    cfg = small_config(seeds=(9,))
    dump = tmp_path / "dump.jsonl"
    report = run_single(cfg, 9, rho=0.8, arm="pap", dump_path=dump)
    recount = recompute_cost_evaluations(dump)
    assert recount == report["per_frame_cost_evaluations"]
    assert sum(recount) == report["counters"]["cost_evaluations"]


def test_replay_rejects_truncated_dump(tmp_path):
    cfg = small_config(seeds=(9,))
    dump = tmp_path / "dump.jsonl"
    run_single(cfg, 9, rho=0.8, arm="pap", dump_path=dump)
    lines = dump.read_text().splitlines()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="footer"):
        replay_dump(truncated)


# ---------------------------------------------------------------------------
# reduced query budget mode


def test_reduced_mode_total_cost_never_exceeds_baseline_per_frame():
    cfg = small_config(seeds=(11,), mode="ab_compare")
    cfg.policy.mode = "reduced"
    base = run_single(cfg, 11, rho=0.0, arm="baseline")
    pap = run_single(cfg, 11, rho=cfg.policy.rho, arm="pap")
    for b, p in zip(base["per_frame_cost_evaluations"], pap["per_frame_cost_evaluations"]):
        assert p <= b


# ---------------------------------------------------------------------------
# experiment outputs on disk


def test_run_experiment_writes_reports_and_comparison(tmp_path):
    cfg = small_config(seeds=(1, 2))
    run_experiment(cfg, out_dir=tmp_path)
    for arm in ("baseline", "pap"):
        for seed in (1, 2):
            assert (tmp_path / f"report_{arm}_seed{seed}.json").exists()
    assert (tmp_path / "comparison.json").exists()
    assert (tmp_path / "comparison.csv").exists()
    summary = json.loads((tmp_path / "comparison.json").read_text())
    assert set(summary) == {"metrics", "counters", "per_seed"}


# ---------------------------------------------------------------------------
# CLI


def write_cli_config(tmp_path, seeds=(1,), **overrides):
    cfg = small_config(seeds=seeds)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    doc = config_to_dict(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_outputs(directory, pattern="*") -> dict:
    """Output files' records by name, with the wall-clock counters removed."""
    out = {}
    for path in sorted(directory.glob(pattern)):
        if path.suffix == ".jsonl":
            records = [json.loads(line) for line in path.read_text().splitlines()]
        elif path.suffix == ".json":
            records = [json.loads(path.read_text())]
        else:
            records = [path.read_text()]
        for rec in records:
            if isinstance(rec, dict) and "counters" in rec and "wall_seconds" in rec["counters"]:
                rec["counters"].pop("wall_seconds")
                rec["counters"].pop("fps")
        out[path.name] = records
    return out


def test_cli_run_success(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report_baseline_seed1.json").exists()
    assert (out / "report_pap_seed1.json").exists()


def test_cli_generate_and_replay_chain(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out = tmp_path / "dumps"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-debug"]) == 0
    dump = out / "dump_pap_seed1.jsonl"
    assert dump.exists()
    replay_out = tmp_path / "replayed"
    assert main(["replay", str(dump), "--out", str(replay_out)]) == 0
    replayed = json.loads((replay_out / "replayed_report.json").read_text())
    original = json.loads((out / "report_pap_seed1.json").read_text())
    assert replayed == original


def test_cli_dump_debug_follows_the_configured_mode(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, mode="rho_sweep", rho_values=[0.0, 0.8])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-debug"]) == 0
    assert (out / "sweep.csv").exists()
    assert [row["rho"] for row in json.loads((out / "sweep.json").read_text())] == [0.0, 0.8]
    assert sorted(p.name for p in out.glob("dump_*.jsonl")) == ["dump_rho=0.0_seed1.jsonl", "dump_rho=0.8_seed1.jsonl"]
    assert not list(out.glob("report_*"))


def test_cli_dump_debug_output_independent_of_jobs(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, seeds=(1, 2))
    serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
    assert main(["run", "--config", str(cfg_path), "--out", str(serial), "--dump-debug"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(parallel), "--dump-debug", "--jobs", "2"]) == 0
    assert sorted(p.name for p in serial.iterdir()) == sorted(p.name for p in parallel.iterdir())
    assert (parallel / "comparison.csv").exists()
    assert len(list(parallel.glob("dump_*_seed*.jsonl"))) == 4
    assert read_outputs(serial, "*_seed*") == read_outputs(parallel, "*_seed*")


def test_cli_sweep_equals_run_in_rho_sweep_mode(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, rho_values=[0.0, 1.0])
    swept = tmp_path / "swept"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(swept)]) == 0
    sweep_cfg = write_cli_config(tmp_path, mode="rho_sweep", rho_values=[0.0, 1.0])
    ran = tmp_path / "ran"
    assert main(["run", "--config", str(sweep_cfg), "--out", str(ran)]) == 0
    assert sorted(p.name for p in swept.iterdir()) == ["sweep.csv", "sweep.json"]
    assert read_outputs(swept) == read_outputs(ran)


def test_cli_compare_directories(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    cmp_out = tmp_path / "cmp"
    assert main(["compare", str(out), str(out), "--out", str(cmp_out)]) == 0
    summary = json.loads((cmp_out / "comparison.json").read_text())
    # a directory compared against itself pairs baseline with pap reports too,
    # but the seed sets match so the call must succeed
    assert "metrics" in summary


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "mode": "turbo"}))
    assert main(["run", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert main(["run", "--config", str(notjson)]) == 2
    assert main(["run"]) == 2  # --config missing
    doc = config_to_dict(small_config(seeds=(1,)))
    doc["policy"]["n_queries"] = 0
    bad.write_text(json.dumps(doc))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    doc = config_to_dict(small_config(seeds=(1,)))
    doc["embedding_dim"] = 2
    bad.write_text(json.dumps(doc))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_cli_program_fault_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(harness, "run_single", fault)
    cfg_path = write_cli_config(tmp_path)
    with pytest.raises(ValueError, match="internal fault"):
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err


def test_cli_missing_file_exits_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3
    assert main(["replay", str(tmp_path / "absent.jsonl")]) == 3
