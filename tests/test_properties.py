"""Property tests of the closed loop on small random configs.

Each example runs one dumped `run_single` on at most 30 frames and checks
invariants of the track lifecycle, the compute bound and the dump that
must hold for any config, degenerate ones included (no agents, clutter
only, every agent missed so frames are empty or all clutter, one query,
rho = 1 with an empty bank, no misses allowed).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from paptrack.harness import ExperimentConfig, MetricConfig, replay_dump, run_single
from paptrack.metrics import report_to_json
from paptrack.perception import PerceptionParams, QueryAssemblyPolicy
from paptrack.prediction import CONSTANT_TURN, CONSTANT_VELOCITY, PredictorConfig
from paptrack.world import CLASSES, ScenarioConfig, SensorConfig

configs = st.builds(
    lambda frames, agents, clutter, miss, n_queries, rho, mode, window, max_misses, model: ExperimentConfig(
        seeds=[1],
        scenario=ScenarioConfig(frame_count=frames, world_half_extent=15.0, class_counts=agents),
        sensor=SensorConfig(clutter_rate=clutter, miss_probability=miss),
        policy=QueryAssemblyPolicy(n_queries=n_queries, rho=rho, mode=mode),
        predictor=PredictorConfig(model=model),
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
    model=st.sampled_from([CONSTANT_VELOCITY, CONSTANT_TURN]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=configs, seed=st.integers(0, 10_000))
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
        assert all(0.0 <= metrics[k] <= 1.0 for k in ("amota", "amotp", "recall"))
