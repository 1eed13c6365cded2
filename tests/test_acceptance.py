"""Acceptance gate: eight end-to-end criteria on the shipped standard suite.

Each test prints a single ``[criterion N] PASS/FAIL`` line with pytest's
output capture suspended, so it shows in a plain ``pytest -q`` run, and
asserts the same condition.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path

import numpy as np
import pytest

from paptrack.harness import compare, load_config, run_single, sign_test_pvalue
from paptrack.metrics import amota_amotp, evaluate_run
from paptrack.perception import associate, gated_costs
from paptrack.queries import embed_center
from paptrack.world import generate_scenario

from oracles import amota_amotp_oracle, brute_force_assignment
from tables import boxes, scene, sense_frame

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_CAPSYS = None


@pytest.fixture(autouse=True)
def _criterion_output(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    with _CAPSYS.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _warm_kernels() -> None:
    xy = np.zeros((2, 2))
    cls = np.zeros(2, dtype=np.int64)
    gated_costs(xy, cls, xy, cls, 1.0)


def _run_suite(config_name: str):
    """Run both arms for every seed, interleaved per seed for fair timing."""
    cfg = load_config(CONFIG_DIR / config_name)
    _warm_kernels()
    baseline, pap = [], []
    t0 = time.perf_counter()
    for seed in cfg.seeds:
        baseline.append(run_single(cfg, seed, rho=0.0, arm="baseline"))
        pap.append(run_single(cfg, seed, rho=cfg.policy.rho, arm="pap"))
    elapsed = time.perf_counter() - t0
    return cfg, baseline, pap, elapsed


@pytest.fixture(scope="module")
def standard_suite():
    return _run_suite("standard_suite.json")


@pytest.fixture(scope="module")
def reduced_suite():
    return _run_suite("standard_suite_reduced.json")


def test_criterion_1_directional_benefit(standard_suite):
    _cfg, baseline, pap, elapsed = standard_suite
    base_amota = [r["aggregate"]["amota"] for r in baseline]
    pap_amota = [r["aggregate"]["amota"] for r in pap]
    base_ids = [r["aggregate"]["ids"] for r in baseline]
    pap_ids = [r["aggregate"]["ids"] for r in pap]
    base_recall = [r["aggregate"]["recall"] for r in baseline]
    pap_recall = [r["aggregate"]["recall"] for r in pap]
    p = sign_test_pvalue(base_amota, pap_amota)
    ok = (
        float(np.mean(pap_amota)) > float(np.mean(base_amota))
        and float(np.mean(pap_ids)) <= float(np.mean(base_ids))
        and float(np.mean(pap_recall)) >= float(np.mean(base_recall))
        and p < 0.05
        and elapsed < 120.0
    )
    criterion(
        1,
        "closed loop beats baseline on the 20-seed suite",
        ok,
        f"amota {np.mean(base_amota):.3f}->{np.mean(pap_amota):.3f}, "
        f"ids {np.mean(base_ids):.1f}->{np.mean(pap_ids):.1f}, "
        f"recall {np.mean(base_recall):.3f}->{np.mean(pap_recall):.3f}, "
        f"sign-test p={p:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_compute_reduction(reduced_suite):
    _cfg, baseline, pap, _elapsed = reduced_suite
    every_frame_ok = all(
        p <= b
        for rb, rp in zip(baseline, pap)
        for b, p in zip(rb["per_frame_cost_evaluations"], rp["per_frame_cost_evaluations"])
    )
    faster = sum(
        1
        for rb, rp in zip(baseline, pap)
        if rp["counters"]["wall_seconds"] < rb["counters"]["wall_seconds"]
    )
    ok = every_frame_ok and faster >= 15
    criterion(
        2,
        "reduced query budget never costs more and is usually faster",
        ok,
        f"per-frame cost bound holds={every_frame_ok}, wall time lower in {faster}/20 seeds",
    )


def test_criterion_3_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    all_ok = True
    n_cases = 0
    for _ in range(50):
        n_obj = int(rng.integers(1, 6))
        n_frames = int(rng.integers(3, 21))
        gt_boxes, hyps = [], []
        oracle_gt, oracle_hyps = [], []
        for f in range(n_frames):
            for g in range(n_obj):
                c = rng.uniform(-20, 20, 2)
                gt_boxes.append((f, g, "car", c, 0.0))
                oracle_gt.append((f, g, c))
                if rng.random() < 0.8:
                    hc = c + rng.normal(0, 0.8, 2)
                    tid = int(rng.integers(0, n_obj + 2))
                    conf = round(float(rng.uniform(0.1, 1.0)), 1)
                    hyps.append((f, tid, "car", hc, conf))
                    oracle_hyps.append((f, tid, hc, conf))
        m = amota_amotp(boxes(*gt_boxes), boxes(*hyps), n_recall_points=8)
        o = amota_amotp_oracle(oracle_gt, oracle_hyps, 8, 2.0)
        n_cases += 1
        if not (
            abs(m["amota"] - o["amota"]) < 1e-9
            and abs(m["amotp"] - o["amotp"]) < 1e-9
            and abs(m["recall"] - o["recall"]) < 1e-12
            and m["ids"] == o["ids"]
        ):
            all_ok = False

    # hand-traced switch sequence: one takeover -> exactly one switch
    gt_boxes, hyps = [], []
    for f, tid in enumerate([7, 7, 9, 9]):
        gt_boxes.append((f, 1, "car", np.array([0.0, float(f)]), 0.0))
        hyps.append((f, tid, "car", np.array([0.0, float(f)]), 0.9))
    hand = amota_amotp(boxes(*gt_boxes), boxes(*hyps))
    hand_ok = hand["ids"] == 1 and hand["recall"] == 1.0
    elapsed = time.perf_counter() - t0
    ok = all_ok and hand_ok and elapsed < 10.0
    criterion(3, "metrics match the brute-force reference", ok, f"{n_cases} random cases + hand trace, {elapsed:.1f}s")


def test_criterion_4_perfect_tracker_identities(standard_suite):
    cfg, *_ = standard_suite
    ok = True
    for seed in cfg.seeds:
        scenario = generate_scenario(cfg.scenario, seed)
        gt, hyps = [], []
        for frame in range(scenario.frame_count):
            for agent in (a for a in scenario.agents if a.spawn <= frame < a.despawn):
                c = agent.states[frame - agent.spawn, 0:2]
                gt.append((frame, agent.agent_id, agent.cls, c.copy(), 0.0))
                hyps.append((frame, 1000 + agent.agent_id, agent.cls, c.copy(), 0.9))
        per_class = evaluate_run(boxes(*gt), boxes(*hyps), n_recall_points=cfg.metrics.n_recall_points)
        for m in per_class.values():
            if not (abs(m["amota"] - 1.0) < 1e-12 and m["amotp"] == 0.0 and m["ids"] == 0):
                ok = False
    criterion(4, "oracle hypotheses score perfectly on every suite scenario", ok, f"{len(cfg.seeds)} scenarios")


def test_criterion_5_assignment_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    n = 0
    for _ in range(1000):
        nq = int(rng.integers(1, 7))
        nm = int(rng.integers(1, 7))
        costs = rng.uniform(0, 10, size=(nq, nm))
        costs[rng.random(size=(nq, nm)) < 0.15] = np.inf
        a = associate(costs)
        total = a.matches["cost"].sum()
        oracle_total, oracle_pairs = brute_force_assignment(costs)
        n += 1
        if len(a.matches) != len(oracle_pairs) or abs(total - oracle_total) > 1e-9:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    criterion(5, "assignment equals the exhaustive optimum", ok, f"{n} random matrices, {elapsed:.1f}s")


def test_criterion_6_round_trip_and_loop_closure():
    rng = np.random.default_rng(6)
    centers = rng.uniform(-30, 30, size=(10_000, 2))
    max_err = 0.0
    for c in centers:
        (q,) = embed_center(c)
        max_err = max(max_err, float(np.max(np.abs(q.center - c))))
    round_trip_ok = max_err < 1e-9

    # noise-free single-agent closed loop over 10 frames
    from paptrack.perception import PerceptionParams, QueryAssemblyPolicy, perceive, track_dtype
    from paptrack.prediction import predict_and_store
    from paptrack.queries import QueryBank
    from paptrack.rng import stream
    from paptrack.world import SensorConfig

    scenario = scene(("car", (-2.0, 1.0), (1.5, -0.5)), frame_count=10)
    sensor = SensorConfig(position_noise_sigma=0.0, miss_probability=0.0, clutter_rate=0.0)
    params = PerceptionParams()
    bank = QueryBank()
    tracks = np.zeros(0, track_dtype)
    detections = []  # one box table per frame
    sensor_rng = stream(6, "sensor")
    query_rng = stream(6, "queries")
    for frame in range(10):
        ms = sense_frame(scenario, frame, sensor, sensor_rng)
        result = perceive(
            ms, bank, tracks, QueryAssemblyPolicy(n_queries=300, rho=0.8), params,
            10.0, query_rng, frame, 0.1,
        )
        tracks = result.tracks
        detections.append(result.detections)
        predict_and_store(tracks, bank, frame, 0.1)
    detections = np.concatenate(detections)
    agent = scenario.agents[0]
    # a single track detected in every frame (matched, never coasted) implies zero ID switches
    detected = list(zip(detections["frame"].tolist(), detections["id"].tolist()))
    loop_ok = len(tracks) == 1 and detected == [(frame, 1) for frame in range(10)]
    loop_err = 0.0
    if loop_ok:
        for d in detections:
            loop_err = max(loop_err, float(np.max(np.abs(d["center"] - agent.states[d["frame"] - agent.spawn, 0:2]))))
        loop_ok = loop_err < 1e-9

    ok = round_trip_ok and loop_ok
    criterion(
        6,
        "query center round trip and noise-free loop closure at 1e-9",
        ok,
        f"round-trip err {max_err:.1e}, loop err {loop_err:.1e}, single track={loop_ok}",
    )


def test_criterion_7_determinism(standard_suite):
    cfg, baseline, pap, _elapsed = standard_suite

    def strip(report):
        out = copy.deepcopy(report)
        out["counters"].pop("wall_seconds")
        out["counters"].pop("fps")
        return out

    again = run_single(cfg, cfg.seeds[0], rho=cfg.policy.rho, arm="pap")
    repeat_ok = strip(again) == strip(pap[0])
    hash_ok = all(rb["measurement_hash"] == rp["measurement_hash"] for rb, rp in zip(baseline, pap))
    ok = repeat_ok and hash_ok
    criterion(7, "byte-identical reruns and shared paired measurement streams", ok)


def test_criterion_8_reference_percentage_fixtures():
    def report(amota, fps, seed=1):
        return {
            "aggregate": {"amota": amota, "amotp": 1.0, "recall": 0.5, "ids": 0},
            "counters": {"fps": fps, "wall_seconds": 1.0, "cost_evaluations": 0},
            "config_echo": {"run": {"seed": seed}},
        }

    summary = compare([report(0.359, 14.0)], [report(0.395, 16.0)])
    amota_rel = summary["metrics"]["amota"]["relative_delta"]
    fps_rel = summary["counters"]["fps"]["relative_delta"]
    ok = abs(amota_rel - 0.100) <= 0.002 and abs(fps_rel - 0.143) <= 0.002
    criterion(8, "comparison arithmetic reproduces the reference deltas", ok, f"amota {amota_rel:+.1%}, fps {fps_rel:+.1%}")
