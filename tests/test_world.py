from __future__ import annotations

import json

import numpy as np
import pytest

from paptrack.rng import stream
from paptrack.world import (
    ConfigError,
    Measurement,
    ScenarioConfig,
    SensorConfig,
    generate_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sense,
)

from oracles import reintegrate


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
        assert car.state_at(k)[0] == pytest.approx(0.5 * k, abs=0)
        assert car.state_at(k)[1] == 0.0


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
    meas = sense(scn, 2, noise_free_sensor(), stream(1, "sensor"))
    assert len(meas) == 3
    for m, agent in zip(meas, scn.agents):
        assert np.allclose(m.center, agent.state_at(2)[0:2], atol=0)
        assert m.agent_id == agent.agent_id


def test_sense_total_occlusion_is_empty():
    scn = generate_scenario(single_car_config(), seed=1)
    sensor = SensorConfig(miss_probability=1.0, clutter_rate=0.0)
    assert sense(scn, 0, sensor, stream(1, "sensor")) == []


def test_sense_frame_out_of_range():
    scn = generate_scenario(single_car_config(), seed=1)
    with pytest.raises(IndexError):
        sense(scn, 10, noise_free_sensor(), stream(1, "sensor"))


def test_sense_monte_carlo_matches_configured_noise():
    scn = generate_scenario(single_car_config(frame_count=1, dt=0.1), seed=5)
    sensor = SensorConfig(position_noise_sigma=0.5, miss_probability=0.1, clutter_rate=0.0)
    rng = stream(5, "sensor")
    centers = []
    n_miss = 0
    n_trials = 10_000
    for _ in range(n_trials):
        meas = sense(scn, 0, sensor, rng)
        if not meas:
            n_miss += 1
        else:
            centers.append(meas[0].center)
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
        for m in sense(scn, frame, sensor, rng):
            if m.is_clutter:
                seen_clutter = True
                assert m.agent_id is None
            else:
                assert m.agent_id is not None
    assert seen_clutter


def test_sense_deterministic_given_stream():
    scn = generate_scenario(single_car_config(), seed=2)
    sensor = SensorConfig()
    a = sense(scn, 0, sensor, stream(2, "sensor"))
    b = sense(scn, 0, sensor, stream(2, "sensor"))
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.center, mb.center)
        assert (ma.cls, ma.score, ma.agent_id) == (mb.cls, mb.score, mb.agent_id)


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
