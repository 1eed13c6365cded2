"""Property tests of the closed loop on small random configs.

Each case runs `run_single` on at most 30 frames and checks invariants of
the track lifecycle, the compute bound and the dump that must hold for any
config, or compares the two query-budget modes on the same frames.  The
cases are explicit corners, the degenerate configs (no agents, clutter
only, every agent missed so frames are empty or all clutter, one query,
rho = 1 with an empty bank, no misses allowed) and one pinned AMOTP
example, then configs drawn by `np.random.default_rng(case)`, so that a
case changes only when its draws do, not with constants elsewhere in the
code.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from paptrack.harness import ExperimentConfig, MetricConfig, replay_dump, run_single
from paptrack.metrics import report_to_json
from paptrack.perception import PerceptionParams, QueryAssemblyPolicy, assemble_queries, gate_costs, perceive, track_dtype
from paptrack.prediction import predict_and_store
from paptrack.queries import PREDICTED, QueryBank
from paptrack.rng import stream
from paptrack.world import CLASSES, ScenarioConfig, SensorConfig, generate_scenario

from tables import sense_frame


def config(frames=30, agents=None, clutter=1.0, miss=0.1, n_queries=16, rho=0.8, mode="fixed", max_misses=3):
    """A small config on a 30 m square; `agents` maps class names to counts (default: two cars and a pedestrian)."""
    return ExperimentConfig(
        seeds=[1],
        scenario=ScenarioConfig(
            frame_count=frames, world_half_extent=15.0, class_counts={"car": 2, "pedestrian": 1} if agents is None else agents
        ),
        sensor=SensorConfig(clutter_rate=clutter, miss_probability=miss),
        policy=QueryAssemblyPolicy(n_queries=n_queries, rho=rho, mode=mode),
        perception=PerceptionParams(max_misses=max_misses),
        metrics=MetricConfig(n_recall_points=10),
    )


CORNERS = {
    # one frame of four cars and seven random queries: AMOTP, a mean distance in meters, is ~1.08
    "one_frame_amotp": (config(frames=1, agents={"car": 4}, clutter=0.0, miss=0.0, n_queries=7, rho=0.0, max_misses=0), 0),
    "no_agents": (config(agents={}), 1),
    "all_missed_clutter_only": (config(miss=1.0), 2),
    "all_missed_empty_frames": (config(miss=1.0, clutter=0.0), 3),
    "one_query": (config(n_queries=1, rho=1.0), 4),
    "one_query_reduced": (config(n_queries=1, rho=1.0, mode="reduced"), 5),
    "rho_one_empty_bank": (config(rho=1.0), 6),
    "rho_one_reduced": (config(rho=1.0, mode="reduced"), 7),
    "rho_zero": (config(rho=0.0), 8),
    "no_misses_allowed": (config(max_misses=0), 9),
}


def drawn(case: int) -> tuple[ExperimentConfig, int]:
    """Case `case`'s config and scenario seed, drawn over the ranges every knob is tested on."""
    rng = np.random.default_rng(case)
    names = rng.choice(CLASSES, size=int(rng.integers(0, 5))).tolist()  # up to 4 agents
    cfg = config(
        frames=int(rng.integers(1, 31)),
        agents={c: names.count(c) for c in CLASSES if c in names},
        clutter=float(rng.uniform(0.0, 3.0)),
        miss=float(rng.choice([0.0, 0.1, 1.0])),
        n_queries=int(rng.integers(1, 33)),
        rho=float(rng.uniform(0.0, 1.0)),
        mode=str(rng.choice(["fixed", "reduced"])),
        max_misses=int(rng.integers(0, 4)),
    )
    return cfg, int(rng.integers(0, 10_001))


def cases(n_drawn: int) -> list:
    """The corners, then `n_drawn` drawn cases, as pytest params of (cfg, seed)."""
    return [pytest.param(*case, id=name) for name, case in CORNERS.items()] + [
        pytest.param(*drawn(case), id=f"case{case}") for case in range(n_drawn)
    ]


@pytest.mark.parametrize("cfg, seed", cases(60))
def test_track_lifecycle_invariants(cfg, seed):
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.jsonl"
        report = run_single(cfg, seed, arm="pap", dump_path=dump)
        assert report_to_json(replay_dump(dump)) == report_to_json(report)
        frames = [rec for rec in map(json.loads, dump.read_text().splitlines()) if rec["type"] == "frame"]

    ended: dict[int, list[float]] = {}  # terminated track id -> its last center
    for rec, cost_evaluations in zip(frames, report["per_frame_cost_evaluations"], strict=True):
        tracks = rec["tracks"]
        assert [t["id"] for t in tracks] == list(range(1, len(tracks) + 1))
        for t in tracks:
            if t["id"] in ended:
                assert t["status"] == "terminated" and t["center"] == ended[t["id"]]
            elif t["status"] == "terminated":
                ended[t["id"]] = t["center"]
        assert cost_evaluations <= len(rec["queries"]) * len(rec["measurements"])

    for metrics in [report["aggregate"], *report["per_class"].values()]:
        assert all(0.0 <= metrics[k] <= 1.0 for k in ("amota", "recall"))
        assert 0.0 <= metrics["amotp"] <= cfg.metrics.match_distance  # matched pairs lie within the match gate


@pytest.mark.parametrize("cfg, seed", cases(40))
def test_reduced_mode_never_makes_more_cost_evaluations_than_fixed_on_the_same_frame(cfg, seed):
    """Given the same bank, measurements and query stream, reduced mode evaluates no more costs than fixed mode.

    A fixed-mode loop runs, and each frame is assembled and gated once more
    in reduced mode from the same inputs.  Reduced mode offers the same
    banked queries and fewer random ones, and a random query is evaluated
    against every measurement, so it makes exactly that many times fewer
    evaluations.  Two separate runs of the two modes are not compared: their
    tracks, and so their banks, differ, and then reduced mode can cost more
    in a frame or in a whole run.
    """
    fixed = dataclasses.replace(cfg.policy, mode="fixed")
    reduced = dataclasses.replace(cfg.policy, mode="reduced")
    params, half_extent = cfg.perception, cfg.scenario.world_half_extent
    scenario = generate_scenario(cfg.scenario, seed)
    bank, tracks = QueryBank(), np.zeros(0, track_dtype)
    sensor_rng, query_rng = stream(seed, "sensor"), stream(seed, "queries")
    for frame in range(scenario.frame_count):
        measurements = sense_frame(scenario, frame, cfg.sensor, sensor_rng)
        queries = assemble_queries(bank, frame, reduced, half_extent, copy.deepcopy(query_rng))
        _costs, evaluations = gate_costs(queries, measurements, params.gate_threshold)
        result = perceive(measurements, bank, tracks, fixed, params, half_extent, query_rng, frame, scenario.dt)
        dropped = result.stats["n_queries"] - len(queries)
        assert dropped >= 0 and result.stats["n_predicted"] == np.count_nonzero(queries["provenance"] == PREDICTED)
        assert result.stats["cost_evaluations"] - evaluations == dropped * len(measurements)
        tracks = result.tracks
        predict_and_store(tracks, bank, frame, scenario.dt)
