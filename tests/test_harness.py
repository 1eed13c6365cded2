from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paptrack import harness
from paptrack.cli import main
from paptrack.harness import (
    ExperimentConfig,
    MetricConfig,
    compare,
    config_from_dict,
    config_to_dict,
    load_config,
    measurement_hash,
    replay_dump,
    run_experiment,
    run_single,
    sign_test_pvalue,
    sweep_rho,
)
from paptrack.metrics import report_to_json
from paptrack.perception import PerceptionParams, QueryAssemblyPolicy
from paptrack.prediction import predict_and_store
from paptrack.rng import stream
from paptrack.world import (
    ConfigError,
    ScenarioConfig,
    SensorConfig,
    box_dtype,
    generate_scenario,
    scenario_ground_truth,
    save_scenario,
    scenario_to_dict,
    sense,
)

from oracles import measurement_hash_oracle, recompute_cost_evaluations
from tables import scene

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("config", ["standard_suite", "standard_suite_reduced"])
def test_measurement_hash_equals_the_per_frame_oracle(config):
    cfg = load_config(ROOT / "configs" / f"{config}.json")
    seed = cfg.seeds[0]
    scenario = generate_scenario(cfg.scenario, seed)
    measured = sense(scenario_ground_truth(scenario), scenario.ego[:, 0:2], cfg.sensor, stream(seed, "sensor"))
    n = scenario.frame_count
    gaps = measured[(measured["frame"] > 0) & (measured["frame"] % 7 != 3) & (measured["frame"] != n - 1)]  # frames without measurements
    for table in (measured, gaps, measured[:0]):
        assert measurement_hash(table, n) == measurement_hash_oracle(table, n)
    assert run_single(cfg, seed, arm="baseline")["measurement_hash"] == measurement_hash_oracle(measured, n)


def test_run_without_measurements_hashes_as_the_per_frame_oracle():
    cfg = small_config(seeds=(1,))
    cfg.scenario = dataclasses.replace(cfg.scenario, frame_count=30, class_counts={})
    cfg.sensor = dataclasses.replace(cfg.sensor, clutter_rate=0.0)
    report = run_single(cfg, 1, arm="pap")
    assert report["measurement_hash"] == measurement_hash_oracle(np.zeros(0, box_dtype), 30)


def test_run_that_raises_closes_its_dump_after_the_frames_before_it(tmp_path, monkeypatch):
    perceive = harness.perceive

    def failing(measurements, bank, tracks, policy, params, half_extent, rng, frame, dt):
        if frame == 5:
            raise RuntimeError("frame 5")
        return perceive(measurements, bank, tracks, policy, params, half_extent, rng, frame, dt)

    monkeypatch.setattr(harness, "perceive", failing)
    dump = tmp_path / "dump.jsonl"
    cfg = small_config(seeds=(1,))
    cfg.policy = dataclasses.replace(cfg.policy, n_queries=2)  # records of a few hundred bytes, which a file buffers
    with pytest.raises(RuntimeError, match="frame 5"):
        run_single(cfg, 1, arm="pap", dump_path=dump)
    records = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert [r["type"] for r in records] == ["header"] + ["frame"] * 5
    assert [r["frame"] for r in records[1:]] == list(range(5))


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
    with pytest.raises(ConfigError, match="match_distance"):
        ExperimentConfig(metrics=MetricConfig(match_distance=0.0)).validate()
    with pytest.raises(ConfigError, match="n_recall_points"):
        ExperimentConfig(metrics=MetricConfig(n_recall_points=0)).validate()
    doc = config_to_dict(ExperimentConfig())
    doc["perception"]["velocity_window"] = 0
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['velocity_window'\] in perception"):
        config_from_dict(doc)
    for params, msg in (
        (PerceptionParams(gate_threshold=0.0), "gate_threshold"),
        (PerceptionParams(gate_threshold=-1.0), "gate_threshold"),
        (PerceptionParams(alpha=2.0), "alpha"),
        (PerceptionParams(alpha=-0.1), "alpha"),
    ):
        with pytest.raises(ConfigError, match=msg):
            ExperimentConfig(perception=params).validate()


# ---------------------------------------------------------------------------
# compare


def _report_with(amota, fps, seed=1, ids=0):
    return {
        "aggregate": {"amota": amota, "amotp": 1.0, "recall": 0.5, "ids": ids},
        "counters": {"fps": fps, "wall_seconds": 1.0, "cost_evaluations": 0},
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


def test_sign_test_equals_scipy_binomtest():
    from scipy.stats import binomtest  # an independent oracle

    for n in range(1, 41):
        for wins in range(n + 1):
            pap = [1] * wins + [-1] * (n - wins) + [0, 0]  # two ties, which are dropped
            expected = binomtest(wins, n, 0.5, alternative="greater").pvalue
            assert sign_test_pvalue([0] * (n + 2), pap) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def cli_import_modules() -> set[str]:
    """The modules a fresh interpreter holds after ``from paptrack import cli``."""
    code = "import sys; from paptrack import cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse", "concurrent.futures.process"])
def test_cli_import_does_not_load(cli_import_modules, module):
    assert module not in cli_import_modules


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


def test_dump_frame_record_writes_each_fact_once(tmp_path):
    """A frame record holds its matches alone, which determine the unmatched rows, and no forecasts: each
    predicted query is the step-1 point of a track the frame before fed."""
    cfg = small_config(seeds=(9,))
    dump = tmp_path / "dump.jsonl"
    run_single(cfg, 9, rho=0.8, arm="pap", dump_path=dump)
    frames = [r for r in map(json.loads, dump.read_text().splitlines()) if r["type"] == "frame"]
    keys = {"type", "frame", "measurements", "gt", "queries", "assignment", "detections", "tracks"}
    assert all(set(r) == keys and list(r["assignment"]) == ["matches"] for r in frames)
    fed = set()
    for r in frames:
        queries, measurements = ([match[i] for match in r["assignment"]["matches"]] for i in (0, 1))
        assert len(set(queries)) == len(queries) and set(queries) <= set(range(len(r["queries"])))
        assert len(set(measurements)) == len(measurements) and set(measurements) <= set(range(len(r["measurements"])))
        assert {q["source_track_id"] for q in r["queries"] if q["provenance"] == "predicted"} <= fed
        fed = {t["id"] for t in r["tracks"] if t["status"] in ("confirmed", "coasting")}
    assert any(q["provenance"] == "predicted" for r in frames for q in r["queries"])


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
# degenerate inputs


@pytest.mark.parametrize(
    "scenario, sensor, policy",
    [
        ({"class_counts": {}}, {"clutter_rate": 0.0}, {}),  # every frame empty
        ({"class_counts": {}}, {"clutter_rate": 3.0}, {}),  # clutter only
        ({}, {}, {"n_queries": 1}),
        ({}, {}, {"rho": 1.0, "mode": "fixed"}),
        ({}, {}, {"rho": 1.0, "mode": "reduced"}),
    ],
    ids=["empty_frames", "clutter_only", "one_query", "rho_one_fixed", "rho_one_reduced"],
)
def test_degenerate_inputs_run_and_replay(tmp_path, scenario, sensor, policy):
    cfg = small_config(seeds=(1,))
    cfg.scenario = dataclasses.replace(cfg.scenario, frame_count=30, **scenario)
    cfg.sensor = dataclasses.replace(cfg.sensor, **sensor)
    cfg.policy = dataclasses.replace(cfg.policy, **policy)
    dump = tmp_path / "dump.jsonl"
    report = run_single(cfg, 1, arm="pap", dump_path=dump)
    agg = report["aggregate"]
    assert all(0.0 <= agg[k] <= 1.0 for k in ("amota", "amotp", "recall"))
    assert agg["ids"] >= 0
    for metrics in report["per_class"].values():
        assert all(0.0 <= metrics[k] <= 1.0 for k in ("amota", "amotp", "recall"))
    assert report_to_json(replay_dump(dump)) == report_to_json(report)


# hand-made scenes of agents that cross, as `tables.scene` takes them
CROSSINGS = {
    # two cars cross at the origin at t = 3 s; two pedestrians walk side by side 0.5 m apart
    "two_cars": [
        ("car", (-6.0, 0.0), (2.0, 0.0)),
        ("car", (0.0, -6.0), (0.0, 2.0)),
        ("pedestrian", (-3.0, 5.0), (1.0, 0.0)),
        ("pedestrian", (-3.0, 5.5), (1.0, 0.0)),
    ],
    # three cars meet at the origin at t = 3 s from 120 degrees apart; two pedestrians spawn 0.2 m apart
    # on parallel paths
    "three_way": [
        *(("car", (-6.0 * math.cos(a), -6.0 * math.sin(a)), (2.0 * math.cos(a), 2.0 * math.sin(a))) for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)),
        ("pedestrian", (-3.0, 5.0), (1.0, 0.0)),
        ("pedestrian", (-3.0, 5.2), (1.0, 0.0)),
    ],
}


def crossing_config(tmp_path, name: str) -> ExperimentConfig:
    """The standard suite on the 60-frame scene `CROSSINGS[name]`, read from a scenario file."""
    cfg = config_from_dict(json.loads((ROOT / "configs" / "standard_suite.json").read_text()))
    path = tmp_path / "scenario.json"
    save_scenario(scene(*CROSSINGS[name], frame_count=60, dt=cfg.scenario.dt), path)
    cfg.scenario_path = str(path)
    return cfg


def test_crossing_same_class_agents_closed_loop_switches_no_more_ids(tmp_path):
    cfg = crossing_config(tmp_path, "two_cars")
    ids = {"baseline": 0, "pap": 0}
    for seed in range(1, 6):
        for arm, rho in (("baseline", 0.0), ("pap", cfg.policy.rho)):
            dump = tmp_path / f"dump_{arm}_seed{seed}.jsonl"
            report = run_single(cfg, seed, rho=rho, arm=arm, dump_path=dump)
            assert report_to_json(replay_dump(dump)) == report_to_json(report)
            ids[arm] += report["aggregate"]["ids"]
    assert ids["pap"] <= ids["baseline"]


def test_scenario_file_run_echoes_only_the_generator_setting_it_reads(tmp_path):
    cfg = crossing_config(tmp_path, "two_cars")
    report = run_single(cfg, 1)
    assert report["counters"]["frames"] == 60
    assert report["config_echo"]["scenario_path"] == cfg.scenario_path
    assert report["config_echo"]["scenario"] == {"world_half_extent": cfg.scenario.world_half_extent}


def test_three_way_crossing_and_near_coincident_spawns_replay_to_their_reports(tmp_path):
    cfg = crossing_config(tmp_path, "three_way")
    for seed in (1, 2):
        for arm, rho in (("baseline", 0.0), ("pap", cfg.policy.rho)):
            dump = tmp_path / f"dump_{arm}_seed{seed}.jsonl"
            report = run_single(cfg, seed, rho=rho, arm=arm, dump_path=dump)
            assert report_to_json(replay_dump(dump)) == report_to_json(report)


@pytest.fixture
def banked_frames(monkeypatch):
    """The frames in which run_single calls predict_and_store, in call order."""
    frames = []

    def counting(tracks, bank, frame, *args):
        frames.append(frame)
        return predict_and_store(tracks, bank, frame, *args)

    monkeypatch.setattr(harness, "predict_and_store", counting)
    return frames


def test_run_single_forecasts_only_when_a_banked_query_can_be_taken(banked_frames):
    cfg = small_config(seeds=(1,))
    run_single(cfg, 1, rho=0.0, arm="baseline")
    assert banked_frames == []

    # floor(0.8 * 1) = 0: the one query is always random, so this pap arm is the baseline
    cfg.policy.n_queries = 1
    one_query = run_single(cfg, 1, rho=0.8, arm="pap")
    assert banked_frames == []
    one_baseline = run_single(cfg, 1, rho=0.0, arm="baseline")
    assert one_query["config_echo"].pop("run") == {"seed": 1, "rho": 0.8, "arm": "pap"}
    one_baseline["config_echo"].pop("run")
    assert strip_timing(one_query) == strip_timing(one_baseline)
    assert banked_frames == []

    cfg.policy.n_queries = 128
    run_single(cfg, 1, rho=0.8, arm="pap")
    assert banked_frames == list(range(cfg.scenario.frame_count))


@pytest.mark.parametrize("rho", [1.5, -0.1, math.nan])
def test_run_single_refuses_a_bad_arm_rho_before_writing_a_dump(tmp_path, rho):
    dump = tmp_path / "dump.jsonl"
    with pytest.raises(ConfigError, match="rho must be in"):
        run_single(small_config(seeds=(1,)), 1, rho=rho, dump_path=dump)
    assert not dump.exists()


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
    """`generate` writes a scenario file that a run reads back to the same reports, whose dumps replay to them."""
    cfg_path = write_cli_config(tmp_path, seeds=(3,))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "scn")]) == 0
    scenario = str(tmp_path / "scn" / "scenario_seed3.json")
    from_file = tmp_path / "from_file.json"
    from_file.write_text(json.dumps({**json.loads(cfg_path.read_text()), "scenario_path": scenario}))
    generated, read_back = tmp_path / "generated", tmp_path / "read_back"
    assert main(["run", "--config", str(cfg_path), "--out", str(generated)]) == 0
    assert main(["run", "--config", str(from_file), "--out", str(read_back), "--dump-debug"]) == 0
    for arm in ("baseline", "pap"):
        want, got = (json.loads((d / f"report_{arm}_seed3.json").read_text()) for d in (generated, read_back))
        echo = want.pop("config_echo")
        # a file run echoes, of the generator's settings, only the one it reads
        assert got.pop("config_echo") == {**echo, "scenario_path": scenario, "scenario": {"world_half_extent": echo["scenario"]["world_half_extent"]}}
        assert strip_timing(got) == strip_timing(want)
        assert main(["replay", str(read_back / f"dump_{arm}_seed3.jsonl"), "--out", str(tmp_path / arm)]) == 0
        replayed = json.loads((tmp_path / arm / "replayed_report.json").read_text())
        assert replayed == json.loads((read_back / f"report_{arm}_seed3.json").read_text())


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


def test_cli_run_jobs_caps_workers_at_the_seed_count_and_rejects_below_1(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records `max_workers` and runs the jobs in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg_path = write_cli_config(tmp_path, seeds=(1, 2))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", "64"]) == 0
    assert pools == [2, 2]  # one pool per arm, one worker per seed
    for jobs in ("0", "-3"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / f"out{jobs}"), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"config error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / f"out{jobs}").exists()
    assert pools == [2, 2]


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


def _set(section, **values):
    def edit(doc):
        (doc if section is None else doc[section]).update(values)
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(None, policy=5), "policy must be an object, got int"),
        (_set("policy", n_queries="x"), "policy.n_queries must be an integer, got 'x'"),
        (_set("policy", n_queries=True), "policy.n_queries must be an integer, got True"),
        (_set(None, rho_values=5), "config.rho_values must be a list, got 5"),
        (lambda doc: [doc], "config must be an object, got list"),
        (_set(None, seeds=["a"]), "seeds must be integers, got ['a']"),
        (_set(None, seeds=[1, 1, 2]), "seeds must be distinct, got 1 more than once in [1, 1, 2]"),
        (_set("scenario", frame_count=10.5), "scenario.frame_count must be an integer, got 10.5"),
        (_set("scenario", class_counts=[1]), "scenario.class_counts must be an object, got [1]"),
        (_set("scenario", class_counts={"car": 1.5}), "class_counts['car'] must be an integer >= 0, got 1.5"),
        (_set("scenario", speed_range=[0.3]), "scenario.speed_range must be a list of 2 numbers, got [0.3]"),
        (_set(None, scenario_path=0), "scenario_path must be a string or null, got 0"),  # not stdin
        (_set(None, bank_capacity=4), "unknown key(s) ['bank_capacity'] in config"),
        (_set(None, predictor={"horizon": 6}), "unknown key(s) ['predictor'] in config"),
        (_set("sensor", score_near=0.9), "unknown key(s) ['score_near'] in sensor"),
        (_set(None, embedding_dim=16), "unknown key(s) ['embedding_dim'] in config"),
        (_set("scenario", explicit_agents=[]), "unknown key(s) ['explicit_agents'] in scenario"),
        (_set("perception", confirm_threshold=0), "confirm_threshold must be >= 1"),
        (_set("perception", max_misses=-1), "max_misses must be >= 0"),
        (_set("perception", predicted_priority_eps=-1e-6), "unknown key(s) ['predicted_priority_eps'] in perception"),
    ],
    ids=["policy_int", "n_queries_str", "n_queries_bool", "rho_values_int", "top_level_list", "seed_str", "seed_repeated",
         "frame_count_float", "class_counts_list", "class_count_float", "speed_range_short", "scenario_path_int", "bank_capacity",
         "predictor", "sensor_score_near", "embedding_dim", "explicit_agents", "confirm_threshold_0",
         "max_misses_negative", "predicted_priority_eps"],
)
def test_cli_malformed_config_exits_2_naming_the_field(tmp_path, capsys, edit, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edit(config_to_dict(small_config(seeds=(1,))))))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_program_fault_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(harness, "run_single", fault)
    cfg_path = write_cli_config(tmp_path)
    with pytest.raises(ValueError, match="internal fault"):
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err


def test_cli_truncated_dump_exits_4(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-debug"]) == 0
    lines = (out / "dump_pap_seed1.jsonl").read_text().splitlines()
    headless = tmp_path / "headless.jsonl"
    headless.write_text("\n".join(lines[1:]) + "\n")
    assert main(["replay", str(headless)]) == 4
    footless = tmp_path / "footless.jsonl"
    footless.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["replay", str(footless)]) == 4
    err = capsys.readouterr().err
    assert err.count("input error:") == 2 and "line 1 is a frame record out of place" in err and "missing header or footer" in err
    assert "Traceback" not in err


def test_cli_dump_line_that_is_not_json_exits_4(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-debug"]) == 0
    lines = (out / "dump_pap_seed1.jsonl").read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "line 4 is not JSON" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "record, problem",
    [("[]", "line 2 is not a header, frame or footer record"), ('{"frame": 3}', "line 2 is not a header, frame or footer record"),
     ('{"type": "frame", "frame": 3}', "line 2 is a frame record without a field")],
    ids=["list", "untyped_object", "frame_without_gt"],
)
def test_cli_dump_line_that_is_not_a_record_exits_4(tmp_path, capsys, record, problem):
    header = {"type": "header", "config_echo": {}}
    footer = {"type": "footer", "counters": {}, "measurement_hash": "", "per_frame_cost_evaluations": []}
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([json.dumps(header), record, json.dumps(footer)]) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and problem in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def suite_dump_lines(tmp_path_factory):
    """The lines of a 20-frame dump of the shipped suite's first seed."""
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "standard_suite.json").read_text())
    cfg = config_from_dict(doc)
    cfg.scenario = dataclasses.replace(cfg.scenario, frame_count=20)
    dump = tmp_path_factory.mktemp("suite") / "dump.jsonl"
    run_single(cfg, 1, dump_path=dump)
    return dump.read_text().splitlines()


@pytest.mark.parametrize(
    "side, field, value, problem",
    [
        ("detections", "confidence", "high", "confidence 'high' is not a finite number in [0, 1]"),
        ("detections", "confidence", None, "confidence None is not a finite number in [0, 1]"),
        ("detections", "confidence", float("nan"), "confidence nan is not a finite number in [0, 1]"),
        ("detections", "confidence", 1.5, "confidence 1.5 is not a finite number in [0, 1]"),
        ("detections", "center", [1.0], "detection center [1.0] is not 2 finite numbers"),
        ("gt", "center", [1.0, float("inf")], "gt box center [1.0, inf] is not 2 finite numbers"),
        ("detections", "class", "ufo", "detection class 'ufo' is not one of car,"),
        ("gt", "class", "ufo", "gt box class 'ufo' is not one of car,"),
        ("detections", "track_id", "7", "detection track_id '7' is not a non-negative integer"),
        ("gt", "id", 2.0, "gt box id 2.0 is not a non-negative integer"),
        (None, "frame", "3", "frame '3' is not a non-negative integer"),
    ],
    ids=["confidence_str", "confidence_null", "confidence_nan", "confidence_above_1", "detection_center_short",
         "gt_center_inf", "detection_class", "gt_class", "track_id_str", "gt_id_float", "frame_str"],
)
def test_cli_dump_field_value_replay_cannot_evaluate_exits_4(tmp_path, capsys, suite_dump_lines, side, field, value, problem):
    lines = list(suite_dump_lines)
    lineno = next(n for n, line in enumerate(lines, start=1) if '"detections": [{' in line and '"gt": [{' in line)
    rec = json.loads(lines[lineno - 1])
    (rec if side is None else rec[side][0])[field] = value
    lines[lineno - 1] = json.dumps(rec)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line {lineno}: " in err and problem in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "section, field, value, problem",
    [
        ("metrics", "match_distance", "2", "header metrics match_distance '2' is not a finite number > 0"),
        ("metrics", "match_distance", -1.0, "header metrics match_distance -1.0 is not a finite number > 0"),
        ("metrics", "match_distance", 0, "header metrics match_distance 0 is not a finite number > 0"),
        ("metrics", "n_recall_points", 40.0, "header metrics n_recall_points 40.0 is not an integer >= 1"),
        ("metrics", "n_recall_points", True, "header metrics n_recall_points True is not an integer >= 1"),
        ("config_echo", "metrics", [1], "header config_echo metrics [1] is not an object"),
        (None, "config_echo", [], "header config_echo [] is not an object"),
    ],
    ids=["match_distance_str", "match_distance_negative", "match_distance_zero", "recall_points_float",
         "recall_points_bool", "metrics_list", "config_echo_list"],
)
def test_cli_dump_header_metric_setting_replay_cannot_use_exits_4(tmp_path, capsys, suite_dump_lines, section, field, value, problem):
    lines = list(suite_dump_lines)
    header = json.loads(lines[0])
    target = {None: header, "config_echo": header["config_echo"], "metrics": header["config_echo"]["metrics"]}[section]
    target[field] = value
    lines[0] = json.dumps(header)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "line 1: " in err and problem in err
    assert len(err.strip().splitlines()) == 1


def _counters(footer, **values):
    footer["counters"].update(values)
    return footer


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda footer: footer | {"counters": [1]}, "footer counters [1] is not an object"),
        (lambda footer: _counters(footer, frames="x"), "footer counters frames 'x' is not a non-negative integer"),
        (lambda footer: _counters(footer, wall_seconds=-1.0), "footer counters wall_seconds -1.0 is not a finite number >= 0"),
        (lambda footer: _counters(footer, cost_evaluations=None), "footer counters cost_evaluations None is not a non-negative integer"),
        (lambda footer: footer | {"measurement_hash": 7}, "footer measurement_hash 7 is not a sha256 hex digest"),
        (lambda footer: footer | {"per_frame_cost_evaluations": "12"}, "footer per_frame_cost_evaluations '12' is not a list of non-negative integers"),
        (lambda footer: footer | {"per_frame_cost_evaluations": [3, 1.5]}, "footer per_frame_cost_evaluations [3, 1.5] is not a list of non-negative"),
    ],
    ids=["counters_list", "frames_str", "wall_seconds_negative", "cost_evaluations_null", "hash_int", "per_frame_str", "per_frame_float"],
)
def test_cli_dump_footer_field_replay_cannot_copy_exits_4(tmp_path, capsys, suite_dump_lines, edit, problem):
    lines = list(suite_dump_lines)
    lines[-1] = json.dumps(edit(json.loads(lines[-1])))
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line {len(lines)}: " in err and problem in err
    assert len(err.strip().splitlines()) == 1


def _second_footer(lines):
    footer = json.loads(lines[-1])
    footer["counters"]["cost_evaluations"] += 999
    return [*lines, json.dumps(footer)]


def _second_header(lines):
    header = json.loads(lines[0])
    header["config_echo"]["metrics"]["n_recall_points"] = 10
    return [lines[0], json.dumps(header), *lines[1:]]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_second_footer, "line 23 is a footer record out of place"),
        (_second_header, "line 2 is a header record out of place"),
        (lambda lines: lines[:6] + lines[5:], "line 7: frame 4 is out of order: frame 5 is due"),  # frame 4 twice
        (lambda lines: lines[:-2] + lines[-1:], "line 21: footer counters frames 20 is not the dump's 19 frame records"),
    ],
    ids=["second_footer", "second_header", "repeated_frame", "frame_dropped"],
)
def test_cli_dump_that_is_not_one_run_exits_4(tmp_path, capsys, suite_dump_lines, edit, problem):
    """Only the shape a run writes replays: one header, then frames 0, 1, 2, ... in order, then one footer."""
    lines = edit(list(suite_dump_lines))
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(broken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and problem in err
    assert len(err.strip().splitlines()) == 1


def test_replay_header_without_metric_settings_uses_the_defaults(tmp_path, suite_dump_lines):
    lines = list(suite_dump_lines)
    header = json.loads(lines[0])
    assert header["config_echo"]["metrics"] == {"match_distance": 2.0, "n_recall_points": 40}
    del header["config_echo"]["metrics"]
    lines[0] = json.dumps(header)
    dump = tmp_path / "dump.jsonl"
    dump.write_text("\n".join(lines) + "\n")
    dump_with_settings = tmp_path / "dump_with_settings.jsonl"
    dump_with_settings.write_text("\n".join(suite_dump_lines) + "\n")
    assert replay_dump(dump)["per_class"] == replay_dump(dump_with_settings)["per_class"]


def test_cli_compare_mismatched_seed_sets_exits_4(tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", str(write_cli_config(tmp_path, seeds=(1,))), "--out", str(one)]) == 0
    assert main(["run", "--config", str(write_cli_config(tmp_path, seeds=(2,))), "--out", str(two)]) == 0
    assert main(["compare", str(one), str(two)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "seed sets" in err


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda text: text[:100], "is not JSON"),
        (lambda text: json.dumps(_without(json.loads(text), "config_echo")), "lacks a field compare reads: KeyError 'config_echo'"),
        (lambda text: json.dumps(_without(json.loads(text), "aggregate")), "lacks a field compare reads: KeyError 'aggregate'"),
        (lambda text: "[]", "lacks a field compare reads: TypeError"),
        (lambda text: json.dumps(_aggregate(json.loads(text), amota="high")), "aggregate.amota 'high' is not a finite number"),
        (lambda text: json.dumps(_run_seed(json.loads(text), [1])), "config_echo.run.seed [1] is not an integer"),
    ],
    ids=["truncated", "no-config-echo", "no-aggregate", "not-an-object", "amota-string", "seed-list"],
)
def test_cli_compare_on_bad_report_exits_4_naming_it(tmp_path, capsys, edit, problem):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cli_config(tmp_path)), "--out", str(out)]) == 0
    bad = out / "report_pap_seed1.json"
    bad.write_text(edit(bad.read_text()))
    assert main(["compare", str(out), str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: report {bad} ") and problem in err


def _without(doc, name):
    doc.pop(name)
    return doc


def _aggregate(doc, **values):
    doc["aggregate"].update(values)
    return doc


def _run_seed(doc, seed):
    doc["config_echo"]["run"]["seed"] = seed
    return doc


def _with_value(rows, i, j, value):
    rows[i][j] = value
    return rows


def _agent(doc, **fields):
    doc["agents"][0].update(fields)
    return doc


def _agent_without(doc, name):
    doc["agents"][0].pop(name)
    return doc


def _repeat_id(doc, k):
    """Agent `k` takes agent 0's id; the metrics would merge the two into one ground-truth track."""
    doc["agents"][k]["id"] = doc["agents"][0]["id"]
    return doc


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda doc: json.dumps(doc)[:200], "is not JSON"),
        (lambda doc: _without(doc, "agents"), "lacks field 'agents'"),
        (lambda doc: _agent_without(doc, "states"), "agent 0 lacks field 'states'"),
        (lambda doc: _agent(doc, **{"class": "dragon"}), "unknown class 'dragon'"),
        (lambda doc: _agent(doc, states=doc["agents"][0]["states"][:-1]), "agent 0 field 'states' is not valid"),
        (lambda doc: _agent(doc, despawn=doc["frame_count"] + 1), "0 <= spawn < despawn <= frame_count"),
        (lambda doc: _agent(doc, spawn=doc["agents"][0]["despawn"]), "0 <= spawn < despawn <= frame_count"),
        (lambda doc: _repeat_id(doc, 3), "agent 3 field 'id' repeats agent 0's id 1"),
    ],
    ids=["truncated", "no-agents", "agent-without-states", "unknown-class", "short-states", "despawn-past-end", "empty-lifespan",
         "repeated-id"],
)
def test_cli_run_on_bad_scenario_file_exits_4(tmp_path, capsys, edit, problem):
    cfg = small_config(seeds=(1,))
    edited = edit(scenario_to_dict(generate_scenario(cfg.scenario, 1)))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    cfg_path = write_cli_config(tmp_path, scenario_path=str(scenario))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error: scenario file") and problem in err


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda doc: doc | {"dt": math.nan}, "field 'dt' is not valid: must be a finite number > 0, got nan"),
        (lambda doc: doc | {"dt": 0}, "field 'dt' is not valid: must be a finite number > 0, got 0"),
        (lambda doc: _agent(doc, states=_with_value(doc["agents"][0]["states"], 2, 1, math.inf)), "agent 0 field 'states' is not valid: holds a non-finite value"),
        (lambda doc: doc | {"ego": _with_value(doc["ego"], 5, 0, math.nan)}, "field 'ego' is not valid: holds a non-finite value"),
        # a value of the wrong JSON type is refused, never rounded or converted
        (lambda doc: doc | {"frame_count": 20.9}, "field 'frame_count' is not valid: must be an integer, got 20.9"),
        (lambda doc: doc | {"frame_count": True}, "field 'frame_count' is not valid: must be an integer, got True"),
        (lambda doc: doc | {"seed": "7"}, "field 'seed' is not valid: must be an integer, got '7'"),
        (lambda doc: doc | {"scenario_id": 3}, "field 'scenario_id' is not valid: must be a string, got 3"),
        (lambda doc: doc | {"dt": "0.1"}, "field 'dt' is not valid: must be a finite number > 0, got '0.1'"),
        (lambda doc: _agent(doc, spawn=0.6), "agent 0 field 'spawn' is not valid: must be an integer, got 0.6"),
        (lambda doc: _agent(doc, despawn=20.0), "agent 0 field 'despawn' is not valid: must be an integer, got 20.0"),
        (lambda doc: _agent(doc, id=True), "agent 0 field 'id' is not valid: must be an integer, got True"),
        (lambda doc: _agent(doc, **{"class": 0}), "agent 0 field 'class' is not valid: must be a string, got 0"),
        (lambda doc: _agent(doc, turn_rate="0.1"), "agent 0 field 'turn_rate' is not valid: must be a finite number, got '0.1'"),
        (lambda doc: _agent(doc, turn_rate=math.inf), "agent 0 field 'turn_rate' is not valid: must be a finite number, got inf"),
        (lambda doc: _agent(doc, states=_with_value(doc["agents"][0]["states"], 2, 1, "1.0")), "agent 0 field 'states' is not valid: must hold only numbers"),
        (lambda doc: doc | {"ego": _with_value(doc["ego"], 5, 0, None)}, "field 'ego' is not valid: must hold only numbers"),
    ],
    ids=["dt-nan", "dt-zero", "states-inf", "ego-nan", "frame_count-float", "frame_count-bool", "seed-str", "scenario_id-int", "dt-str",
         "spawn-float", "despawn-float", "id-bool", "class-int", "turn_rate-str", "turn_rate-inf", "states-str", "ego-null"],
)
def test_cli_run_on_non_finite_or_non_positive_scenario_value_exits_4(tmp_path, capsys, edit, problem):
    doc = edit(scenario_to_dict(generate_scenario(ScenarioConfig(frame_count=20, class_counts={"car": 2}), 1)))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))  # json writes NaN and Infinity as such
    cfg_path = write_cli_config(tmp_path, scenario_path=str(scenario))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: scenario file {scenario} ") and problem in err
    assert not list(tmp_path.glob("out/report_*"))


def test_cli_generate_takes_only_the_flags_it_uses(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    for extra in (["--jobs", "2"], ["--dump-debug"]):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "scn"), *extra])
        assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["generate", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "scn")]) == 0
    assert [p.name for p in (tmp_path / "scn").iterdir()] == ["scenario_seed3.json"]


def test_cli_missing_file_exits_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3
    assert main(["replay", str(tmp_path / "absent.jsonl")]) == 3


# ---------------------------------------------------------------------------
# artefacts of the schema-1 format that still carried `bank_capacity`, `embedding_dim`, `predictor`,
# `scenario.explicit_agents`, `counters.query_refinements` and the sensor's `score_near`, `score_far`
# and `clutter_score_range`: the config `tests/data/v1_bank_capacity/config.json` run in ab_compare
# mode with --dump-debug, before those keys were removed


OLD = Path(__file__).resolve().parent / "data" / "v1_bank_capacity"


def test_old_dump_still_replays_to_its_report(tmp_path, capsys):
    dump = OLD / "dump_pap_seed1.jsonl"
    lines = dump.read_text().splitlines()
    assert "bank_capacity" in json.loads(lines[0])["config_echo"]
    assert "query_refinements" in json.loads(lines[-1])["counters"]
    assert main(["replay", str(dump), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "replayed_report.json").read_text()) == json.loads((OLD / "report_pap_seed1.json").read_text())


def test_compare_accepts_old_reports_against_new_ones(tmp_path, capsys):
    assert main(["run", "--config", str(OLD / "config.json"), "--out", str(tmp_path / "refused")]) == 2
    assert "unknown key(s) ['bank_capacity', 'embedding_dim', 'predictor'] in config" in capsys.readouterr().err
    doc = json.loads((OLD / "config.json").read_text())
    del doc["bank_capacity"], doc["predictor"], doc["embedding_dim"]
    doc["mode"] = "pap"
    path, new = tmp_path / "config.json", tmp_path / "new"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(new)]) == 0

    # the new report is the old one without the removed keys (and with this run's mode)
    old, now = (json.loads((d / "report_pap_seed1.json").read_text()) for d in (OLD, new))
    del old["config_echo"]["bank_capacity"], old["config_echo"]["embedding_dim"], old["config_echo"]["predictor"]
    del old["config_echo"]["scenario"]["explicit_agents"]
    del old["config_echo"]["perception"]["velocity_window"], old["config_echo"]["perception"]["predicted_priority_eps"]
    del old["counters"]["query_refinements"]
    for key in ("score_near", "score_far", "clutter_score_range"):
        del old["config_echo"]["sensor"][key]
    old["config_echo"]["mode"] = "pap"
    # the old run stored each query center as `center / scale` and blended it back in multiplied by
    # `scale`, which is inexact in the last bit, so the pap arm's AMOTP may differ there, and nothing else
    assert set(now["per_class"]) == set(old["per_class"])
    for new_metrics, old_metrics in [(now["aggregate"], old["aggregate"])] + [(now["per_class"][c], old["per_class"][c]) for c in now["per_class"]]:
        assert abs(new_metrics.pop("amotp") - old_metrics.pop("amotp")) <= 1e-15
    assert strip_timing(now) == strip_timing(old)

    assert main(["compare", str(OLD / "baseline"), str(new), "--out", str(tmp_path / "cmp")]) == 0
    summary = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert set(summary["counters"]) == {"fps", "wall_seconds", "cost_evaluations"}
    assert [row["seed"] for row in summary["per_seed"]] == [1, 2]


SAME_REPORTS_REPORT = {"aggregate": {"amota": 0.5, "ids": 3}, "per_class": {"car": {"ids": 1}}, "per_frame_cost_evaluations": [4, 5]}
# (an edit of a copy of SAME_REPORTS_REPORT, the one path at which it then differs)
SAME_REPORTS_EDITS = [
    (lambda r: r["per_class"]["car"].update(ids=2), "per_class.car.ids"),
    (lambda r: r["per_frame_cost_evaluations"].__setitem__(1, 6), "per_frame_cost_evaluations[1]"),
    (lambda r: r["per_frame_cost_evaluations"].append(7), "per_frame_cost_evaluations[2]"),
    (lambda r: r["aggregate"].pop("ids"), "aggregate.ids"),
    (lambda r: r.update(aggregate=[]), "aggregate"),
]


def test_same_reports_names_the_first_path_at_which_two_reports_differ():
    from same_reports import differences

    report = SAME_REPORTS_REPORT
    for edit, path in SAME_REPORTS_EDITS:
        other = copy.deepcopy(report)
        edit(other)
        assert list(differences(report, other)) == [path]
        assert list(differences(other, report)) == [path]


def test_same_reports_names_every_path_at_which_two_reports_differ():
    from same_reports import differences

    report, every = SAME_REPORTS_REPORT, copy.deepcopy(SAME_REPORTS_REPORT)
    for edit, _ in SAME_REPORTS_EDITS[:4]:
        edit(every)
    assert list(differences(report, every)) == ["aggregate.ids", "per_class.car.ids", "per_frame_cost_evaluations[1]", "per_frame_cost_evaluations[2]"]
    assert list(differences(report, copy.deepcopy(report))) == []
