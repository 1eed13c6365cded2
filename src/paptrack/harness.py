"""Experiment orchestration: paired baseline-vs-closed-loop runs.

A run is fully determined by (config, seed).  Baseline and closed-loop
arms of the same seed consume identical scenario and sensor randomness
(verified by a measurement-stream hash); only query assembly differs, so
per-seed deltas are attributable to query recycling alone.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from paptrack.metrics import DEFAULT_MATCH_DISTANCE, DEFAULT_RECALL_POINTS, build_report, evaluate_run, report_to_json
from paptrack.perception import STATUS_NAMES, PerceptionParams, QueryAssemblyPolicy, perceive, track_dtype
from paptrack.prediction import PredictorConfig, fed_tracks, forecast, predict_and_store
from paptrack.queries import ANY_CLASS, PROVENANCE_NAMES, QueryBank
from paptrack.rng import stream
from paptrack.world import (
    CLASS_INDEX,
    CLASSES,
    VALUE_KINDS,
    ConfigError,
    InputError,
    ScenarioConfig,
    SensorConfig,
    box_dtype,
    generate_scenario,
    is_finite_number,
    load_scenario,
    raw_rows,
    read_json,
    read_json_lines,
    scenario_ground_truth,
    sense,
)

SCHEMA_VERSION = 1

MODES = ("baseline", "pap", "ab_compare", "rho_sweep")


@dataclass
class MetricConfig:
    match_distance: float = DEFAULT_MATCH_DISTANCE
    n_recall_points: int = DEFAULT_RECALL_POINTS


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
    rho_values: list[float] = field(default_factory=lambda: [0.0, 0.5, 0.8, 1.0])

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if not all(map(VALUE_KINDS["seed"][1], self.seeds)):
            raise ConfigError(f"seeds must be integers, got {self.seeds!r}")
        negative = [seed for seed in self.seeds if seed < 0]
        if negative:  # the RNG streams take only non-negative seeds
            raise ConfigError(f"seeds must be >= 0, got {negative[0]} in {self.seeds!r}")
        repeated = [seed for seed in self.seeds if self.seeds.count(seed) > 1]
        if repeated:  # a run writes one report per seed and arm, so a repeat would count twice in the means
            raise ConfigError(f"seeds must be distinct, got {repeated[0]} more than once in {self.seeds!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not isinstance(self.scenario_path, (str, type(None))):
            raise ConfigError(f"scenario_path must be a string or null, got {self.scenario_path!r}")
        if not all(is_finite_number(r) and 0.0 <= r <= 1.0 for r in self.rho_values):
            raise ConfigError("rho_values must lie in [0, 1]")
        if self.metrics.match_distance <= 0:
            raise ConfigError("metrics.match_distance must be positive")
        if self.metrics.n_recall_points < 1:
            raise ConfigError("metrics.n_recall_points must be >= 1")
        self.scenario.validate()
        self.sensor.validate()
        self.policy.validate()
        self.predictor.validate()
        self.perception.validate()


# ---------------------------------------------------------------------------
# strict config (de)serialization


# the type of a config field's default -> the kind of value the field takes
_CONFIG_KINDS = {int: "integer", float: "number", tuple: "range", str: "string", list: "list", dict: "object"}


def _from_mapping(cls, doc: dict, path: str):
    """`cls` built from the JSON object `doc`, a section (a field whose default is a dataclass) from its own object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    kwargs = {}
    for name, value in doc.items():
        f = fields[name]
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            kwargs[name] = _from_mapping(type(default), value, name if path == "config" else f"{path}.{name}")
            continue
        if default is not None:  # scenario_path and explicit_agents, which `validate` checks
            words, valid = VALUE_KINDS[_CONFIG_KINDS[type(default)]]
            if not valid(value):
                raise ConfigError(f"{path}.{name} must be {words}, got {value!r}")
        kwargs[name] = tuple(value) if isinstance(default, tuple) else value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be an object, got {type(doc).__name__}")
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if not (VALUE_KINDS["integer"][1](version) and version == SCHEMA_VERSION):  # nor true or 1.0
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    cfg = _from_mapping(ExperimentConfig, doc, "config")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def load_config(path) -> ExperimentConfig:
    """Read a config file; one that is not JSON or not a valid config raises `ConfigError`."""
    return config_from_dict(read_json(path, f"config file {path}", ConfigError))


# ---------------------------------------------------------------------------
# single run


# the report fields a dump's footer carries, which replay does not recompute
_FOOTER_KEYS = ("counters", "measurement_hash", "per_frame_cost_evaluations")


def measurement_hash(measured: np.ndarray, frame_count: int) -> str:
    """sha256 hex digest of a run's frame-sorted measurement table.

    The digest is of one int64 word buffer: frame by frame, the frame
    number, then each of its measurements' center x and y bits and class
    code.
    """
    rows = np.empty((len(measured), 3), np.int64)
    rows[:, :2] = measured["center"].view(np.int64)
    rows[:, 2] = measured["cls"]
    frames = np.arange(frame_count)
    words = np.insert(rows.ravel(), 3 * np.searchsorted(measured["frame"], frames), frames)
    return hashlib.sha256(words).hexdigest()


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
    effective_rho = cfg.policy.rho if rho is None else rho
    policy = QueryAssemblyPolicy(n_queries=cfg.policy.n_queries, rho=effective_rho, mode=cfg.policy.mode)
    params = cfg.perception
    bank = QueryBank()
    reads_bank = policy.banked_share > 0  # else assemble_queries never reads the bank
    tracks = np.zeros(0, track_dtype(params.velocity_window))
    sensor_rng = stream(seed, "sensor")
    query_rng = stream(seed, "queries")

    config_echo = config_to_dict(cfg)
    config_echo["run"] = {"seed": int(seed), "rho": float(effective_rho), "arm": arm}

    gt = scenario_ground_truth(scenario)
    gt_bounds = np.searchsorted(gt["frame"], np.arange(scenario.frame_count + 1)).tolist()  # frame f is gt[bounds[f]:bounds[f + 1]]

    detections = []  # one box table per frame
    counters = {"frames": scenario.frame_count, "cost_evaluations": 0}
    per_frame_cost_evals: list[int] = []

    # closed on every exit path, so that a frame that raises leaves the records before it whole
    with open(dump_path, "w", encoding="utf-8") if dump_path is not None else contextlib.nullcontext() as dump_file:
        if dump_file is not None:
            dump_file.write(json.dumps({"type": "header", "schema_version": SCHEMA_VERSION, "config_echo": config_echo}, sort_keys=True) + "\n")

        # The frame loop makes no reference cycles, so the cyclic collector is paused while it runs, as
        # timeit does: a full collection scans every object of the process (tens of ms in a large one),
        # and would charge that to whichever run it happened to start in.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            measured = sense(gt, scenario.ego[:, 0:2], cfg.sensor, sensor_rng)  # the whole run's measurements, sorted by frame
            digest = measurement_hash(measured, scenario.frame_count)
            measured_bounds = np.searchsorted(measured["frame"], np.arange(scenario.frame_count + 1)).tolist()
            for frame in range(scenario.frame_count):
                truth = gt[gt_bounds[frame] : gt_bounds[frame + 1]]
                measurements = measured[measured_bounds[frame] : measured_bounds[frame + 1]]
                result = perceive(
                    measurements,
                    bank,
                    tracks,
                    policy,
                    params,
                    cfg.scenario.world_half_extent,
                    query_rng,
                    frame,
                    scenario.dt,
                )
                tracks = result.tracks
                if reads_bank:
                    predict_and_store(tracks, bank, frame, scenario.dt)
                detections.append(result.detections)
                counters["cost_evaluations"] += result.stats["cost_evaluations"]
                per_frame_cost_evals.append(result.stats["cost_evaluations"])
                if dump_file is not None:
                    dump_file.write(json.dumps(_frame_record(frame, measurements, truth, result, tracks, cfg.predictor.horizon, scenario.dt), sort_keys=True) + "\n")
            counters["wall_seconds"] = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()

        detections = np.concatenate([raw_rows(table) for table in detections]).view(box_dtype)
        per_class = evaluate_run(
            gt, detections, n_recall_points=cfg.metrics.n_recall_points, match_distance=cfg.metrics.match_distance
        )
        report = build_report(per_class, counters, config_echo)
        report["measurement_hash"] = digest
        report["per_frame_cost_evaluations"] = per_frame_cost_evals
        if dump_file is not None:
            dump_file.write(json.dumps({"type": "footer", **{k: report[k] for k in _FOOTER_KEYS}}, sort_keys=True) + "\n")
    return report


def _frame_record(frame, measurements, gt, result, tracks, horizon, dt) -> dict:
    queries, detections = result.queries, result.detections
    live, fed = fed_tracks(tracks)
    return {
        "type": "frame",
        "frame": frame,
        "measurements": [
            {"center": c, "class": CLASSES[k]} for c, k in zip(measurements["center"].tolist(), measurements["cls"].tolist())
        ],
        "gt": [
            {"id": i, "class": CLASSES[k], "center": c} for i, k, c in zip(gt["id"].tolist(), gt["cls"].tolist(), gt["center"].tolist())
        ],
        "queries": [
            {
                "provenance": PROVENANCE_NAMES[provenance],
                "source_track_id": source if source >= 0 else None,
                "class": CLASSES[cls] if cls != ANY_CLASS else None,
                "center": center,
            }
            for provenance, source, cls, center in zip(
                queries["provenance"].tolist(),
                queries["source_track_id"].tolist(),
                queries["cls"].tolist(),
                queries["center"].tolist(),
            )
        ],
        "assignment": {
            "matches": result.assignment.matches.tolist(),
            "unmatched_queries": result.assignment.unmatched_queries.tolist(),
            "unmatched_measurements": result.assignment.unmatched_measurements.tolist(),
        },
        "detections": [
            {"track_id": i, "class": CLASSES[k], "center": c, "confidence": score}
            for i, k, c, score in zip(
                detections["id"].tolist(), detections["cls"].tolist(), detections["center"].tolist(), detections["score"].tolist()
            )
        ],
        "forecasts": [
            {"track_id": row + 1, "points": points}
            for row, points in zip(live.tolist(), forecast(fed, horizon, dt).tolist())
        ],
        "tracks": [
            {"id": row + 1, "status": STATUS_NAMES[code], "center": center}
            for row, (code, center) in enumerate(zip(tracks["status"].tolist(), tracks["centers"][:, -1].tolist()))
        ],
    }


# ---------------------------------------------------------------------------
# replay


# field -> the kind of value a dump record must hold there; the fields replay evaluates
_DUMP_FIELDS = {
    "config_echo": "object",
    "metrics": "object",
    "match_distance": "positive",
    "n_recall_points": "count",
    "frame": "id",
    "id": "id",
    "track_id": "id",
    "class": "class",
    "center": "pair",
    "confidence": "unit",
    "counters": "object",
    "frames": "id",
    "cost_evaluations": "id",
    "wall_seconds": "non-negative",
    "measurement_hash": "digest",
    "per_frame_cost_evaluations": "ids",
}


def _check_fields(rec: dict, names: tuple[str, ...], where: str) -> None:
    for name in names:
        words, valid = VALUE_KINDS[_DUMP_FIELDS[name]]
        if not valid(rec[name]):
            raise InputError(f"{where} {name} {rec[name]!r} is not {words}")


def replay_dump(path) -> dict:
    """Rebuild a run's report from its frame-by-frame debug dump.

    A line that is not JSON, not a header, frame or footer record, lacks
    a field read here, or holds a metric setting, frame number, id, class,
    center, confidence or footer field that cannot be evaluated or copied
    into the report is an `InputError` naming the line.
    """
    echo = None
    footer = None
    gt, hyps = [], []  # box table rows
    for lineno, rec in read_json_lines(path, f"dump {path}", InputError):
        kind = rec.get("type") if isinstance(rec, dict) else None
        if kind not in ("header", "frame", "footer"):
            raise InputError(f"dump {path} line {lineno} is not a header, frame or footer record")
        where = f"dump {path} line {lineno}:"
        try:
            if kind == "header":
                _check_fields(rec, ("config_echo",), f"{where} header")
                echo = rec["config_echo"]
                _check_fields({"metrics": {}, **echo}, ("metrics",), f"{where} header config_echo")
                metric_settings = {**dataclasses.asdict(MetricConfig()), **echo.get("metrics", {})}
                _check_fields(metric_settings, ("n_recall_points", "match_distance"), f"{where} header metrics")
            elif kind == "footer":
                _check_fields(rec, _FOOTER_KEYS, f"{where} footer")
                _check_fields(rec["counters"], ("frames", "wall_seconds", "cost_evaluations"), f"{where} footer counters")
                footer = {k: rec[k] for k in _FOOTER_KEYS}
            else:
                _check_fields(rec, ("frame",), where)
                frame = rec["frame"]
                for g in rec["gt"]:
                    _check_fields(g, ("id", "class", "center"), f"{where} gt box")
                    gt.append((frame, g["id"], CLASS_INDEX[g["class"]], g["center"], 0.0))
                for d in rec["detections"]:
                    _check_fields(d, ("track_id", "class", "center", "confidence"), f"{where} detection")
                    hyps.append((frame, d["track_id"], CLASS_INDEX[d["class"]], d["center"], d["confidence"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"dump {path} line {lineno} is a {kind} record without a field replay reads: {exc!r}") from exc
    if echo is None or footer is None:
        raise InputError(f"dump {path} is missing header or footer")
    per_class = evaluate_run(
        np.array(gt, dtype=box_dtype),
        np.array(hyps, dtype=box_dtype),
        n_recall_points=metric_settings["n_recall_points"],
        match_distance=metric_settings["match_distance"],
    )
    report = build_report(per_class, footer["counters"], echo)
    report.update(footer)  # wall time is not re-measured on replay
    return report


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
        from concurrent.futures import ProcessPoolExecutor  # here, as a serial run never needs it

        # a forked pool starts all its workers at the first submit: no more than there are seeds
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as ex:
            return list(ex.map(_run_job, tasks))
    return [_run_job(t) for t in tasks]


def run_experiment(cfg: ExperimentConfig, out_dir=None, jobs: int = 1, dump_debug: bool = False) -> dict[str, list[dict]]:
    """Run the configured experiment; returns reports per arm, writes JSON if out_dir set.

    With `dump_debug`, every run also writes ``dump_{arm}_seed{seed}.jsonl``
    into `out_dir`, which is then required.
    """
    cfg.validate()
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
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
COMPARE_COUNTERS = ("fps", "wall_seconds", "cost_evaluations")


def _paired(baseline_reports, pap_reports):
    def key(r):
        return r["config_echo"]["run"]["seed"]

    base = sorted(baseline_reports, key=key)
    pap = sorted(pap_reports, key=key)
    if [key(r) for r in base] != [key(r) for r in pap]:
        raise InputError("baseline and pap arms must cover identical seed sets")
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


def sign_test_pvalue(baseline_vals, pap_vals) -> float:
    """One-sided paired sign test (ties dropped): is pap > baseline?

    The exact binomial tail P(X >= wins) for X ~ Binomial(wins + losses, 1/2).
    """
    wins = sum(1 for b, p in zip(baseline_vals, pap_vals) if p > b)
    losses = sum(1 for b, p in zip(baseline_vals, pap_vals) if p < b)
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


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
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["rho"] + [f"mean_{m}" for m in COMPARE_METRICS])
        for row in rows:
            w.writerow([row["rho"]] + [row[f"mean_{m}"] for m in COMPARE_METRICS])


def _write_comparison_csv(path, summary) -> None:
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
