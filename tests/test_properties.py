"""Property tests of the closed loop on small random configs.

Each example runs `run_single` on at most 30 frames and checks invariants
of the track lifecycle, the compute bound and the dump that must hold for
any config, degenerate ones included (no agents, clutter only, every agent
missed so frames are empty or all clutter, one query, rho = 1 with an
empty bank, no misses allowed), or compares the two query-budget modes on
the same frames.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paptrack.harness import ExperimentConfig, MetricConfig, replay_dump, run_single
from paptrack.metrics import report_to_json
from paptrack.perception import PerceptionParams, QueryAssemblyPolicy, assemble_queries, gate_costs, perceive, track_dtype
from paptrack.prediction import predict_and_store
from paptrack.queries import PREDICTED, QueryBank
from paptrack.rng import stream
from paptrack.world import CLASSES, ScenarioConfig, SensorConfig, generate_scenario

from tables import sense_frame

configs = st.builds(
    lambda frames, agents, clutter, miss, n_queries, rho, mode, window, max_misses: ExperimentConfig(
        seeds=[1],
        scenario=ScenarioConfig(frame_count=frames, world_half_extent=15.0, class_counts=agents),
        sensor=SensorConfig(clutter_rate=clutter, miss_probability=miss),
        policy=QueryAssemblyPolicy(n_queries=n_queries, rho=rho, mode=mode),
        perception=PerceptionParams(velocity_window=window, max_misses=max_misses),
        metrics=MetricConfig(n_recall_points=10),
    ),
    frames=st.integers(1, 30),
    agents=st.lists(st.sampled_from(CLASSES), max_size=4).map(lambda names: {c: names.count(c) for c in set(names)}),
    clutter=st.floats(0.0, 3.0),
    miss=st.sampled_from([0.0, 0.1, 1.0]),
    n_queries=st.integers(1, 32),
    rho=st.floats(0.0, 1.0),
    mode=st.sampled_from(["fixed", "reduced"]),
    window=st.integers(1, 5),
    max_misses=st.integers(0, 3),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=configs, seed=st.integers(0, 10_000))
# one frame of four cars and seven random queries: AMOTP, a mean distance in meters, is ~1.08
@example(
    cfg=ExperimentConfig(
        seeds=[1],
        scenario=ScenarioConfig(frame_count=1, world_half_extent=15.0, class_counts={"car": 4}),
        sensor=SensorConfig(clutter_rate=0.0, miss_probability=0.0),
        policy=QueryAssemblyPolicy(n_queries=7, rho=0.0),
        perception=PerceptionParams(velocity_window=1, max_misses=0),
        metrics=MetricConfig(n_recall_points=10),
    ),
    seed=0,
)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=configs, seed=st.integers(0, 10_000))
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
    codec, params, half_extent = cfg.codec(), cfg.perception, cfg.scenario.world_half_extent
    scenario = generate_scenario(cfg.scenario, seed)
    bank, tracks = QueryBank(dim=codec.dim), np.zeros(0, track_dtype(params.velocity_window))
    sensor_rng, query_rng = stream(seed, "sensor"), stream(seed, "queries")
    for frame in range(scenario.frame_count):
        measurements = sense_frame(scenario, frame, cfg.sensor, sensor_rng)
        queries = assemble_queries(bank, frame, reduced, codec, half_extent, copy.deepcopy(query_rng))
        _costs, evaluations = gate_costs(queries, measurements, params.gate_threshold, codec)
        result = perceive(measurements, bank, tracks, fixed, params, codec, half_extent, query_rng, frame, scenario.dt)
        dropped = result.stats["n_queries"] - len(queries)
        assert dropped >= 0 and result.stats["n_predicted"] == np.count_nonzero(queries["provenance"] == PREDICTED)
        assert result.stats["cost_evaluations"] - evaluations == dropped * len(measurements)
        tracks = result.tracks
        predict_and_store(tracks, bank, frame, codec, scenario.dt)
