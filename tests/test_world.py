from __future__ import annotations

import json

import numpy as np
import pytest

from paptrack.harness import config_from_dict
from paptrack.rng import stream
from paptrack.world import (
    ConfigError,
    ScenarioConfig,
    SensorConfig,
    generate_scenario,
    integrate_states,
    scenario_from_dict,
    scenario_ground_truth,
    scenario_to_dict,
    sense,
)

from oracles import integrate_states_oracle, reintegrate, sense_oracle
from tables import sense_frame
from test_golden import CROWD, ROOT


def single_car_config(frame_count=10, dt=0.5):
    return ScenarioConfig(
        frame_count=frame_count,
        dt=dt,
        world_half_extent=30.0,
        explicit_agents=[{"class": "car", "start": [0.0, 0.0], "velocity": [1.0, 0.0]}],
    )


def test_constant_velocity_kinematics_exact():
    scn = generate_scenario(single_car_config(), seed=7)
    car = scn.agents[0]
    for k in range(10):
        assert car.states[k, 0] == pytest.approx(0.5 * k, abs=0)
        assert car.states[k, 1] == 0.0


def test_same_seed_same_config_is_byte_identical():
    a = json.dumps(scenario_to_dict(generate_scenario(single_car_config(), 7)), sort_keys=True)
    b = json.dumps(scenario_to_dict(generate_scenario(single_car_config(), 7)), sort_keys=True)
    assert a == b


def test_mixed_scenario_reintegration_oracle():
    cfg = ScenarioConfig(
        frame_count=100,
        dt=0.1,
        class_counts={"car": 6, "pedestrian": 6, "bicycle": 4, "bus": 2, "truck": 2},
    )
    scn = generate_scenario(cfg, seed=42)
    assert sum(1 for _ in scn.agents) == 20
    for agent in scn.agents:
        n = agent.despawn - agent.spawn
        expected = reintegrate(agent.states[0, 0:2], agent.states[0, 2:4], n, cfg.dt, agent.turn_rate)
        assert np.max(np.abs(expected - agent.states[:, 0:2])) < 1e-9
        # per-frame displacement equals stored velocity * dt
        disp = agent.states[1:, 0:2] - agent.states[:-1, 0:2]
        assert np.max(np.abs(disp - agent.states[:-1, 2:4] * cfg.dt)) < 1e-9


def test_integrate_states_equals_numpy_loop_byte_for_byte():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        dt = float(rng.choice([0.05, 0.1, 0.2, rng.uniform(0.01, 0.5)]))
        turn_rate = 0.0 if rng.random() < 0.5 else float(rng.uniform(-1.0, 1.0))
        x0, v0 = rng.uniform(-30.0, 30.0, 2), rng.uniform(-15.0, 15.0, 2)
        got = integrate_states(x0, v0, n, dt, turn_rate)
        want = integrate_states_oracle(x0, v0, n, dt, turn_rate)
        assert got.shape == want.shape == (n, 5)
        assert got.tobytes() == want.tobytes()


def test_agent_speed_respects_class_cap():
    cfg = ScenarioConfig(frame_count=50, dt=0.1, speed_range=(0.5, 500.0))
    scn = generate_scenario(cfg, seed=3)
    from paptrack.world import CLASS_MAX_SPEED

    for agent in scn.agents:
        speeds = np.hypot(agent.states[:, 2], agent.states[:, 3])
        assert np.all(speeds <= CLASS_MAX_SPEED[agent.cls] + 1e-9)


def test_lifespans_within_bounds():
    cfg = ScenarioConfig(frame_count=100, dt=0.1, partial_lifespan_fraction=1.0)
    scn = generate_scenario(cfg, seed=11)
    for agent in scn.agents:
        assert 0 <= agent.spawn < agent.despawn <= 100
        assert agent.states.shape == (agent.despawn - agent.spawn, 5)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"frame_count": 0}, "frame_count"),
        ({"dt": -0.1}, "dt"),
        ({"dt": 1.0, "frame_count": 50}, "20 seconds"),
        ({"world_half_extent": -5.0}, "world_half_extent"),
        ({"class_counts": {"dragon": 1}}, "class_counts"),
        ({"turn_fraction": 1.5}, "turn_fraction"),
    ],
)
def test_invalid_config_names_field(kwargs, field):
    cfg = ScenarioConfig(**kwargs)
    with pytest.raises(ConfigError, match=field):
        generate_scenario(cfg, seed=1)


def noise_free_sensor():
    return SensorConfig(position_noise_sigma=0.0, miss_probability=0.0, clutter_rate=0.0)


def test_sense_noise_free_returns_exact_centers():
    cfg = ScenarioConfig(
        frame_count=5,
        dt=0.1,
        explicit_agents=[
            {"class": "car", "start": [0.0, 0.0], "velocity": [1.0, 0.0]},
            {"class": "pedestrian", "start": [5.0, 5.0], "velocity": [0.0, 1.0]},
            {"class": "bus", "start": [-10.0, 2.0], "velocity": [0.5, 0.0]},
        ],
    )
    scn = generate_scenario(cfg, seed=1)
    meas = sense_frame(scn, 2, noise_free_sensor(), stream(1, "sensor"))
    assert len(meas) == 3
    for m, agent in zip(meas, scn.agents):
        assert np.allclose(m["center"], agent.states[2, 0:2], atol=0)
        assert m["id"] == agent.agent_id


def test_sense_total_occlusion_is_empty():
    scn = generate_scenario(single_car_config(), seed=1)
    sensor = SensorConfig(miss_probability=1.0, clutter_rate=0.0)
    assert len(sense_frame(scn, 0, sensor, stream(1, "sensor"))) == 0


def test_sense_monte_carlo_matches_configured_noise():
    scn = generate_scenario(single_car_config(frame_count=1, dt=0.1), seed=5)
    sensor = SensorConfig(position_noise_sigma=0.5, miss_probability=0.1, clutter_rate=0.0)
    rng = stream(5, "sensor")
    centers = []
    n_miss = 0
    n_trials = 10_000
    for _ in range(n_trials):
        meas = sense_frame(scn, 0, sensor, rng)
        if len(meas) == 0:
            n_miss += 1
        else:
            centers.append(meas["center"][0])
    assert abs(n_miss / n_trials - 0.1) < 0.01
    centers = np.array(centers)
    std = centers.std(axis=0)
    assert np.all(np.abs(std - 0.5) < 0.05 * 0.5)


def test_clutter_never_carries_agent_id():
    scn = generate_scenario(single_car_config(), seed=9)
    sensor = SensorConfig(position_noise_sigma=0.0, miss_probability=0.0, clutter_rate=5.0)
    rng = stream(9, "sensor")
    seen_clutter = False
    for frame in range(10):
        meas = sense_frame(scn, frame, sensor, rng)
        # no misses: the car comes first, then clutter only
        assert meas["id"][0] == scn.agents[0].agent_id
        assert (meas["id"][1:] == -1).all()
        seen_clutter |= len(meas) > 1
    assert seen_clutter


def test_sense_deterministic_given_stream():
    scn = generate_scenario(single_car_config(), seed=2)
    sensor = SensorConfig()
    a = sense_frame(scn, 0, sensor, stream(2, "sensor"))
    b = sense_frame(scn, 0, sensor, stream(2, "sensor"))
    assert len(a) == len(b)
    assert np.array_equal(a, b)  # every column, score included


@pytest.mark.parametrize("clutter_rate", [0.0, 0.5, 8.0, 50.0])
@pytest.mark.parametrize("miss_probability", [0.0, 1.0])
def test_sense_equals_per_box_clutter_oracle_byte_for_byte(clutter_rate, miss_probability):
    sensor = SensorConfig(miss_probability=miss_probability, clutter_rate=clutter_rate)
    for seed in (1, 2, 3):
        scn = generate_scenario(ScenarioConfig(frame_count=30, dt=0.1, ego_speed=1.5), seed)
        got_rng, want_rng = stream(seed, "sensor"), stream(seed, "sensor")
        for frame in (0, 1, 7, 18, 29):
            got, want = sense_frame(scn, frame, sensor, got_rng), sense_oracle(scn, frame, sensor, want_rng)
            assert got.dtype == want.dtype and len(got) == len(want)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


# (shipped config, overrides of its sections, a check that the case is what its name says)
WHOLE_RUNS = {
    "standard_suite": ("standard_suite", {}, None),
    "standard_suite_reduced": ("standard_suite_reduced", {}, None),
    "crowd": ("standard_suite", CROWD, None),
    # frames without agents still draw their clutter
    "no_agents": ("standard_suite", {"scenario": {"class_counts": {}}}, lambda got, gt: len(got) and (got["id"] == -1).all()),
    "all_missed": ("standard_suite", {"sensor": {"miss_probability": 1.0}}, lambda got, gt: len(got) and (got["id"] == -1).all()),
    "no_clutter": ("standard_suite", {"sensor": {"clutter_rate": 0.0}}, lambda got, gt: len(got) and (got["id"] != -1).all()),
    # the ego drives away from the agents, which leave the detection range
    "out_of_range": (
        "standard_suite",
        {"scenario": {"ego_speed": 2.0}, "sensor": {"detection_range": 20.0, "miss_probability": 0.0, "clutter_rate": 0.0}},
        lambda got, gt: 0 < len(got) < len(gt),
    ),
}


@pytest.mark.parametrize("case", WHOLE_RUNS)
def test_sense_of_a_run_equals_the_per_frame_oracle_byte_for_byte(case):
    """One `sense` call over a run makes the measurements and the draws of the oracle run frame by frame."""
    config, overrides, check = WHOLE_RUNS[case]
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text(encoding="utf-8"))
    for section, values in overrides.items():
        doc[section].update(values)
    cfg = config_from_dict(doc)
    for seed in (1, 2):
        scn = generate_scenario(cfg.scenario, seed)
        gt = scenario_ground_truth(scn)
        got_rng, want_rng = stream(seed, "sensor"), stream(seed, "sensor")
        got = sense(gt, scn.ego[:, 0:2], cfg.sensor, got_rng)
        want = np.concatenate([sense_oracle(scn, frame, cfg.sensor, want_rng) for frame in range(scn.frame_count)])
        assert got.dtype == want.dtype and len(got) == len(want)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()  # the next draw
        assert check is None or check(got, gt)


def test_sense_rejects_truth_out_of_frame_order_or_range():
    scn = generate_scenario(single_car_config(frame_count=3), seed=1)
    gt = scenario_ground_truth(scn)  # frames 0, 1 and 2
    late = gt.copy()
    late["frame"][-1] = 3  # past the ego track's last frame
    for truth in (gt[::-1], late):
        with pytest.raises(ValueError, match="sorted by frame"):
            sense(truth, scn.ego[:, 0:2], SensorConfig(), stream(1, "sensor"))


def test_scenario_json_round_trip_lossless():
    cfg = ScenarioConfig(frame_count=40, dt=0.1)
    scn = generate_scenario(cfg, seed=13)
    doc = json.loads(json.dumps(scenario_to_dict(scn)))
    back = scenario_from_dict(doc)
    assert back.scenario_id == scn.scenario_id
    assert back.frame_count == scn.frame_count
    assert back.dt == scn.dt
    assert back.seed == scn.seed
    assert np.array_equal(back.ego, scn.ego)
    for a, b in zip(scn.agents, back.agents):
        assert (a.agent_id, a.cls, a.spawn, a.despawn) == (b.agent_id, b.cls, b.spawn, b.despawn)
        assert (a.model, a.turn_rate) == (b.model, b.turn_rate)
        assert np.array_equal(a.states, b.states)
    assert any(a.turn_rate != 0.0 for a in back.agents)  # the turning fields were exercised


def test_scenario_schema_keys():
    doc = scenario_to_dict(generate_scenario(single_car_config(), 7))
    assert set(doc) == {"scenario_id", "dt", "frame_count", "seed", "agents", "ego"}
    assert set(doc["agents"][0]) == {"id", "class", "states", "spawn", "despawn", "model", "turn_rate"}
