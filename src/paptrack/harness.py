"""Experiment orchestration: paired baseline-vs-closed-loop runs.

A run is fully determined by (config, seed).  Baseline and closed-loop
arms of the same seed consume identical scenario and sensor randomness
(verified by a measurement-stream hash); only query assembly differs, so
per-seed deltas are attributable to query recycling alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import binomtest

from paptrack.metrics import GtBox, Hypothesis, build_report, evaluate_run, report_to_json
from paptrack.perception import PerceptionParams, QueryAssemblyPolicy, perceive
from paptrack.prediction import COASTING, CONFIRMED, PredictorConfig, forecast, predict_and_store
from paptrack.queries import CodecConfig, QueryBank
from paptrack.rng import stream
from paptrack.world import (
    CLASS_INDEX,
    ConfigError,
    Scenario,
    ScenarioConfig,
    SensorConfig,
    generate_scenario,
    load_scenario,
    sense,
)

SCHEMA_VERSION = 1

MODES = ("baseline", "pap", "ab_compare", "rho_sweep")


@dataclass
class MetricConfig:
    match_distance: float = 2.0
    n_recall_points: int = 40


@dataclass
class ExperimentConfig:
    seeds: list[int] = field(default_factory=lambda: [1])
    mode: str = "ab_compare"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    scenario_path: str | None = None
    sensor: SensorConfig = field(default_factory=SensorConfig)
    policy: QueryAssemblyPolicy = field(default_factory=QueryAssemblyPolicy)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    perception: PerceptionParams = field(default_factory=PerceptionParams)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    embedding_dim: int = 16
    bank_capacity: int = 4
    rho_values: list[float] = field(default_factory=lambda: [0.0, 0.5, 0.8, 1.0])

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if any(not 0.0 <= r <= 1.0 for r in self.rho_values):
            raise ConfigError("rho_values must lie in [0, 1]")
        if self.embedding_dim < 3:
            raise ConfigError("embedding_dim must be >= 3 (2 center slots + tail)")
        if self.metrics.match_distance <= 0:
            raise ConfigError("metrics.match_distance must be positive")
        if self.metrics.n_recall_points < 1:
            raise ConfigError("metrics.n_recall_points must be >= 1")
        self.scenario.validate()
        self.sensor.validate()
        self.policy.validate()
        self.predictor.validate()

    def codec(self) -> CodecConfig:
        return CodecConfig(dim=self.embedding_dim, scale=1.0 / self.scenario.world_half_extent)


# ---------------------------------------------------------------------------
# strict config (de)serialization


def _from_mapping(cls, doc: dict, path: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    kwargs = {}
    for name, value in doc.items():
        default = fields[name].default
        if isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    sub = {
        "scenario": (ScenarioConfig, "scenario"),
        "sensor": (SensorConfig, "sensor"),
        "policy": (QueryAssemblyPolicy, "policy"),
        "predictor": (PredictorConfig, "predictor"),
        "perception": (PerceptionParams, "perception"),
        "metrics": (MetricConfig, "metrics"),
    }
    for key, (cls, name) in sub.items():
        if key in doc:
            doc[key] = _from_mapping(cls, doc[key], name)
    cfg = _from_mapping(ExperimentConfig, doc, "config")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return config_from_dict(json.load(f))


# ---------------------------------------------------------------------------
# single run


def scenario_ground_truth(scenario: Scenario) -> list[GtBox]:
    gt = []
    for frame in range(scenario.frame_count):
        for agent in scenario.live_agents(frame):
            state = agent.state_at(frame)
            gt.append(GtBox(frame=frame, gt_id=agent.agent_id, cls=agent.cls, center=state[0:2].copy()))
    return gt


def _hash_measurements(hasher, frame: int, measurements) -> None:
    hasher.update(np.int64(frame).tobytes())
    for m in measurements:
        hasher.update(np.asarray(m.center, dtype=np.float64).tobytes())
        hasher.update(np.int64(CLASS_INDEX[m.cls]).tobytes())


def run_single(
    cfg: ExperimentConfig,
    seed: int,
    rho: float | None = None,
    arm: str = "pap",
    dump_path=None,
) -> dict:
    """Execute the full per-frame loop for one seed and build its report."""
    cfg.validate()
    if cfg.scenario_path is not None:
        scenario = load_scenario(cfg.scenario_path)
    else:
        scenario = generate_scenario(cfg.scenario, seed)
    codec = cfg.codec()
    effective_rho = cfg.policy.rho if rho is None else rho
    policy = QueryAssemblyPolicy(n_queries=cfg.policy.n_queries, rho=effective_rho, mode=cfg.policy.mode)
    predictor = dataclasses.replace(cfg.predictor, dt=scenario.dt)
    params = cfg.perception
    bank = QueryBank(capacity=cfg.bank_capacity)
    tracks = []
    id_gen = itertools.count(1).__next__
    sensor_rng = stream(seed, "sensor")
    query_rng = stream(seed, "queries")
    hasher = hashlib.sha256()

    config_echo = config_to_dict(cfg)
    config_echo["run"] = {"seed": int(seed), "rho": float(effective_rho), "arm": arm}

    dump_file = open(dump_path, "w", encoding="utf-8") if dump_path is not None else None
    if dump_file is not None:
        dump_file.write(json.dumps({"type": "header", "schema_version": SCHEMA_VERSION, "config_echo": config_echo}, sort_keys=True) + "\n")

    gt = scenario_ground_truth(scenario)
    gt_by_frame: dict[int, list[GtBox]] = {}
    for g in gt:
        gt_by_frame.setdefault(g.frame, []).append(g)

    detections: list[Hypothesis] = []
    counters = {"frames": scenario.frame_count, "query_refinements": 0, "cost_evaluations": 0}
    per_frame_cost_evals: list[int] = []

    t0 = time.perf_counter()
    for frame in range(scenario.frame_count):
        measurements = sense(scenario, frame, cfg.sensor, sensor_rng)
        _hash_measurements(hasher, frame, measurements)
        result = perceive(
            measurements,
            bank,
            tracks,
            policy,
            params,
            codec,
            cfg.scenario.world_half_extent,
            query_rng,
            frame,
            scenario.dt,
            id_gen,
        )
        tracks = result.tracks
        predict_and_store(tracks, bank, frame, predictor, codec)
        for d in result.detections:
            detections.append(Hypothesis(frame=d.frame, track_id=d.track_id, cls=d.cls, center=d.center, confidence=d.confidence))
        counters["query_refinements"] += result.stats["query_refinements"]
        counters["cost_evaluations"] += result.stats["cost_evaluations"]
        per_frame_cost_evals.append(result.stats["cost_evaluations"])
        if dump_file is not None:
            dump_file.write(json.dumps(_frame_record(frame, measurements, gt_by_frame.get(frame, []), result, tracks, predictor, codec), sort_keys=True) + "\n")
    counters["wall_seconds"] = time.perf_counter() - t0

    per_class = evaluate_run(
        gt, detections, n_recall_points=cfg.metrics.n_recall_points, match_distance=cfg.metrics.match_distance
    )
    report = build_report(per_class, counters, config_echo)
    report["measurement_hash"] = hasher.hexdigest()
    report["per_frame_cost_evaluations"] = per_frame_cost_evals
    if dump_file is not None:
        dump_file.write(
            json.dumps(
                {
                    "type": "footer",
                    "counters": report["counters"],
                    "measurement_hash": report["measurement_hash"],
                    "per_frame_cost_evaluations": per_frame_cost_evals,
                },
                sort_keys=True,
            )
            + "\n"
        )
        dump_file.close()
    return report


def _frame_record(frame, measurements, gt, result, tracks, predictor, codec) -> dict:
    from paptrack.queries import decode_reference

    forecasts = []
    for t in sorted(tracks, key=lambda tr: tr.track_id):
        if t.status in (CONFIRMED, COASTING):
            f = forecast(t, predictor)
            forecasts.append({"track_id": t.track_id, "points": f.points.tolist()})
    return {
        "type": "frame",
        "frame": frame,
        "measurements": [{"center": m.center.tolist(), "class": m.cls} for m in measurements],
        "gt": [{"id": g.gt_id, "class": g.cls, "center": g.center.tolist()} for g in gt],
        "queries": [
            {
                "provenance": q.provenance,
                "source_track_id": q.source_track_id,
                "class": q.cls,
                "center": decode_reference(q, codec).tolist(),
            }
            for q in result.queries
        ],
        "assignment": {
            "matches": [[qi, mj, cost] for qi, mj, cost in result.assignment.matches],
            "unmatched_queries": result.assignment.unmatched_queries,
            "unmatched_measurements": result.assignment.unmatched_measurements,
        },
        "detections": [
            {"track_id": d.track_id, "class": d.cls, "center": d.center.tolist(), "confidence": d.confidence}
            for d in result.detections
        ],
        "forecasts": forecasts,
        "tracks": [
            {"id": t.track_id, "status": t.status, "center": t.center.tolist()} for t in tracks if t.frames
        ],
    }


# ---------------------------------------------------------------------------
# replay


def replay_dump(path) -> dict:
    """Rebuild a run's report from its frame-by-frame debug dump."""
    header = None
    footer = None
    gt: list[GtBox] = []
    hyps: list[Hypothesis] = []
    n_frames = 0
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "header":
                header = rec
            elif rec["type"] == "footer":
                footer = rec
            elif rec["type"] == "frame":
                n_frames += 1
                frame = rec["frame"]
                for g in rec["gt"]:
                    gt.append(GtBox(frame=frame, gt_id=g["id"], cls=g["class"], center=np.array(g["center"])))
                for d in rec["detections"]:
                    hyps.append(
                        Hypothesis(
                            frame=frame,
                            track_id=d["track_id"],
                            cls=d["class"],
                            center=np.array(d["center"]),
                            confidence=d["confidence"],
                        )
                    )
    if header is None or footer is None:
        raise ValueError(f"dump {path} is missing header or footer")
    echo = header["config_echo"]
    mcfg = echo.get("metrics", {})
    per_class = evaluate_run(
        gt,
        hyps,
        n_recall_points=mcfg.get("n_recall_points", 40),
        match_distance=mcfg.get("match_distance", 2.0),
    )
    report = build_report(per_class, footer["counters"], echo)
    report["counters"] = footer["counters"]  # wall time is not re-measured on replay
    report["measurement_hash"] = footer["measurement_hash"]
    report["per_frame_cost_evaluations"] = footer["per_frame_cost_evaluations"]
    return report


def recompute_cost_evaluations(path) -> list[int]:
    """Independent per-frame recount of class-compatible (query, measurement) pairs."""
    per_frame = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] != "frame":
                continue
            n = 0
            for q in rec["queries"]:
                for m in rec["measurements"]:
                    if q["class"] is None or q["class"] == m["class"]:
                        n += 1
            per_frame.append(n)
    return per_frame


# ---------------------------------------------------------------------------
# experiment-level drivers


def _run_job(args):
    cfg, seed, rho, arm, dump_path = args
    return run_single(cfg, seed, rho=rho, arm=arm, dump_path=dump_path)


def _run_arm(cfg: ExperimentConfig, rho: float, arm: str, jobs: int = 1, dump_dir=None) -> list[dict]:
    tasks = [
        (cfg, seed, rho, arm, None if dump_dir is None else Path(dump_dir) / f"dump_{arm}_seed{seed}.jsonl")
        for seed in cfg.seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_run_job, tasks))
    return [_run_job(t) for t in tasks]


def run_experiment(cfg: ExperimentConfig, out_dir=None, jobs: int = 1, dump_debug: bool = False) -> dict[str, list[dict]]:
    """Run the configured experiment; returns reports per arm, writes JSON if out_dir set.

    With `dump_debug`, every run also writes ``dump_{arm}_seed{seed}.jsonl``
    into `out_dir`, which is then required.
    """
    cfg.validate()
    if dump_debug and out_dir is None:
        raise ValueError("dump_debug requires out_dir")
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    dump_dir = out if dump_debug else None
    arms: dict[str, list[dict]] = {}
    if cfg.mode == "baseline":
        arms["baseline"] = _run_arm(cfg, 0.0, "baseline", jobs, dump_dir)
    elif cfg.mode == "pap":
        arms["pap"] = _run_arm(cfg, cfg.policy.rho, "pap", jobs, dump_dir)
    elif cfg.mode == "ab_compare":
        arms["baseline"] = _run_arm(cfg, 0.0, "baseline", jobs, dump_dir)
        arms["pap"] = _run_arm(cfg, cfg.policy.rho, "pap", jobs, dump_dir)
    elif cfg.mode == "rho_sweep":
        arms["sweep"] = sweep_rho(cfg, cfg.rho_values, jobs, dump_dir)
    if out is not None:
        for arm, reports in arms.items():
            if arm == "sweep":
                _write_sweep_csv(out / "sweep.csv", reports)
                (out / "sweep.json").write_text(json.dumps(reports, indent=2, sort_keys=True), encoding="utf-8")
                continue
            for report in reports:
                seed = report["config_echo"]["run"]["seed"]
                (out / f"report_{arm}_seed{seed}.json").write_text(report_to_json(report), encoding="utf-8")
        if "baseline" in arms and "pap" in arms:
            summary = compare(arms["baseline"], arms["pap"])
            (out / "comparison.json").write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
            _write_comparison_csv(out / "comparison.csv", summary)
    return arms


COMPARE_METRICS = ("amota", "amotp", "recall", "ids")
COMPARE_COUNTERS = ("fps", "wall_seconds", "query_refinements", "cost_evaluations")


def _paired(baseline_reports, pap_reports):
    def key(r):
        return r["config_echo"]["run"]["seed"]

    base = sorted(baseline_reports, key=key)
    pap = sorted(pap_reports, key=key)
    if [key(r) for r in base] != [key(r) for r in pap]:
        raise ValueError("baseline and pap arms must cover identical seed sets")
    return base, pap


def _delta_stats(base_vals, pap_vals):
    base = np.asarray(base_vals, dtype=float)
    pap = np.asarray(pap_vals, dtype=float)
    delta = float(pap.mean() - base.mean())
    rel = float(delta / abs(base.mean())) if base.mean() != 0 else None
    return {
        "baseline_mean": float(base.mean()),
        "baseline_std": float(base.std()),
        "pap_mean": float(pap.mean()),
        "pap_std": float(pap.std()),
        "delta": delta,
        "relative_delta": rel,
    }


def compare(baseline_reports: list[dict], pap_reports: list[dict]) -> dict:
    """Paired per-seed comparison of the two arms."""
    base, pap = _paired(baseline_reports, pap_reports)
    summary: dict = {"metrics": {}, "counters": {}, "per_seed": []}
    for metric in COMPARE_METRICS:
        summary["metrics"][metric] = _delta_stats(
            [r["aggregate"][metric] for r in base], [r["aggregate"][metric] for r in pap]
        )
    for counter in COMPARE_COUNTERS:
        summary["counters"][counter] = _delta_stats(
            [r["counters"][counter] for r in base], [r["counters"][counter] for r in pap]
        )
    for rb, rp in zip(base, pap):
        summary["per_seed"].append(
            {
                "seed": rb["config_echo"]["run"]["seed"],
                "baseline": {m: rb["aggregate"][m] for m in COMPARE_METRICS},
                "pap": {m: rp["aggregate"][m] for m in COMPARE_METRICS},
            }
        )
    return summary


def sign_test_pvalue(baseline_vals, pap_vals, alternative: str = "greater") -> float:
    """One-sided paired sign test (ties dropped): is pap > baseline?"""
    wins = sum(1 for b, p in zip(baseline_vals, pap_vals) if p > b)
    losses = sum(1 for b, p in zip(baseline_vals, pap_vals) if p < b)
    n = wins + losses
    if n == 0:
        return 1.0
    return float(binomtest(wins, n, 0.5, alternative=alternative).pvalue)


def sweep_rho(cfg: ExperimentConfig, rho_values, jobs: int = 1, dump_dir=None) -> list[dict]:
    """One comparable row per rho, identical seeds throughout."""
    if any(not 0.0 <= r <= 1.0 for r in rho_values):
        raise ConfigError("rho_values must lie in [0, 1]")
    rows = []
    for rho in sorted(rho_values):
        reports = _run_arm(cfg, rho, f"rho={rho}", jobs, dump_dir)
        row = {"rho": float(rho), "seeds": [int(s) for s in cfg.seeds]}
        for metric in COMPARE_METRICS:
            vals = [r["aggregate"][metric] for r in reports]
            row[f"mean_{metric}"] = float(np.mean(vals))
            row[f"per_seed_{metric}"] = vals
        rows.append(row)
    return rows


def _write_sweep_csv(path, rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["rho"] + [f"mean_{m}" for m in COMPARE_METRICS])
        for row in rows:
            w.writerow([row["rho"]] + [row[f"mean_{m}"] for m in COMPARE_METRICS])


def _write_comparison_csv(path, summary) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["metric", "baseline_mean", "baseline_std", "pap_mean", "pap_std", "delta", "relative_delta"])
        for group in ("metrics", "counters"):
            for name, st in summary[group].items():
                w.writerow(
                    [
                        name,
                        st["baseline_mean"],
                        st["baseline_std"],
                        st["pap_mean"],
                        st["pap_std"],
                        st["delta"],
                        st["relative_delta"] if st["relative_delta"] is not None else "",
                    ]
                )
