"""Deterministic synthetic BEV world and its noisy sensor.

Scenarios are generated from a root seed: agents follow exact kinematic
models (constant velocity or constant turn-rate, forward-Euler with
rotated velocity), so ground truth can be re-integrated independently to
machine precision.  The sensor adds Gaussian position noise, Bernoulli
misses and Poisson clutter, all drawn from a dedicated stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from paptrack.rng import stream

CLASSES = ("car", "pedestrian", "bicycle", "bus", "motor", "trailer", "truck")
CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}

# hard per-class speed caps (m/s); generation clips into these
CLASS_MAX_SPEED = {
    "car": 15.0,
    "pedestrian": 2.5,
    "bicycle": 8.0,
    "bus": 12.0,
    "motor": 14.0,
    "trailer": 10.0,
    "truck": 12.0,
}

MAX_SCENARIO_SECONDS = 20.0


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ScenarioConfig:
    frame_count: int = 200
    dt: float = 0.1
    world_half_extent: float = 30.0
    class_counts: dict[str, int] = field(
        default_factory=lambda: {"car": 5, "pedestrian": 4, "bicycle": 2, "bus": 1, "motor": 1, "trailer": 1, "truck": 1}
    )
    speed_range: tuple[float, float] = (0.3, 2.2)
    turn_fraction: float = 0.3
    turn_rate_range: tuple[float, float] = (0.1, 0.6)
    partial_lifespan_fraction: float = 0.25
    spawn_margin: float = 8.0
    ego_speed: float = 0.0
    # explicit agent layout overrides random placement entirely:
    # [{"class", "start", "velocity", "turn_rate"?, "spawn"?, "despawn"?}, ...]
    explicit_agents: list[dict] | None = None

    def validate(self) -> None:
        if self.frame_count < 1:
            raise ConfigError("frame_count must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.frame_count * self.dt > MAX_SCENARIO_SECONDS + 1e-9:
            raise ConfigError("frame_count * dt must not exceed 20 seconds")
        if self.world_half_extent <= 0:
            raise ConfigError("world_half_extent must be positive")
        for cls, n in self.class_counts.items():
            if cls not in CLASSES:
                raise ConfigError(f"class_counts contains unknown class {cls!r}")
            if n < 0:
                raise ConfigError("class_counts values must be >= 0")
        lo, hi = self.speed_range
        if lo < 0 or hi < lo:
            raise ConfigError("speed_range must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.turn_fraction <= 1.0:
            raise ConfigError("turn_fraction must be in [0, 1]")
        if not 0.0 <= self.partial_lifespan_fraction <= 1.0:
            raise ConfigError("partial_lifespan_fraction must be in [0, 1]")


@dataclass
class SensorConfig:
    position_noise_sigma: float = 0.5
    miss_probability: float = 0.1
    clutter_rate: float = 1.0
    detection_range: float = 75.0
    score_near: float = 0.95
    score_far: float = 0.5
    clutter_score_range: tuple[float, float] = (0.1, 0.7)

    def validate(self) -> None:
        if self.position_noise_sigma < 0:
            raise ConfigError("position_noise_sigma must be >= 0")
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ConfigError("miss_probability must be in [0, 1]")
        if self.clutter_rate < 0:
            raise ConfigError("clutter_rate must be >= 0")
        if self.detection_range <= 0:
            raise ConfigError("detection_range must be positive")


@dataclass
class Measurement:
    frame: int
    center: np.ndarray  # (2,) BEV meters
    cls: str
    score: float
    agent_id: int | None = None  # None => clutter

    @property
    def is_clutter(self) -> bool:
        return self.agent_id is None


@dataclass
class AgentTrack:
    """One agent: per-frame kinematic states over [spawn, despawn)."""

    agent_id: int
    cls: str
    spawn: int
    despawn: int
    states: np.ndarray  # (despawn - spawn, 5): x, y, vx, vy, yaw
    model: str = "constant_velocity"
    turn_rate: float = 0.0

    def alive_at(self, frame: int) -> bool:
        return self.spawn <= frame < self.despawn

    def state_at(self, frame: int) -> np.ndarray:
        if not self.alive_at(frame):
            raise IndexError(f"agent {self.agent_id} not alive at frame {frame}")
        return self.states[frame - self.spawn]


@dataclass
class Scenario:
    scenario_id: str
    dt: float
    frame_count: int
    seed: int
    agents: list[AgentTrack]
    ego: np.ndarray  # (frame_count, 3): x, y, yaw

    def live_agents(self, frame: int) -> list[AgentTrack]:
        return [a for a in self.agents if a.alive_at(frame)]


def integrate_states(x0: np.ndarray, v0: np.ndarray, n: int, dt: float, turn_rate: float) -> np.ndarray:
    """Forward-Euler trajectory: p += v*dt, then v rotates by turn_rate*dt.

    This recurrence *is* the ground-truth motion model, so re-integration
    reproduces stored states exactly.
    """
    states = np.empty((n, 5))
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    c, s = np.cos(turn_rate * dt), np.sin(turn_rate * dt)
    for k in range(n):
        states[k, 0:2] = x
        states[k, 2:4] = v
        states[k, 4] = np.arctan2(v[1], v[0])
        x = x + v * dt
        v = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    return states


def generate_scenario(cfg: ScenarioConfig, seed: int) -> Scenario:
    cfg.validate()
    rng = stream(seed, "scenario")
    fc = cfg.frame_count
    agents: list[AgentTrack] = []
    agent_id = 0
    span = cfg.world_half_extent - cfg.spawn_margin
    if span <= 0:
        span = cfg.world_half_extent * 0.5
    if cfg.explicit_agents is not None:
        for spec_agent in cfg.explicit_agents:
            agent_id += 1
            cls = spec_agent["class"]
            if cls not in CLASSES:
                raise ConfigError(f"explicit_agents contains unknown class {cls!r}")
            spawn = int(spec_agent.get("spawn", 0))
            despawn = int(spec_agent.get("despawn", fc))
            if not 0 <= spawn < despawn <= fc:
                raise ConfigError("explicit_agents spawn/despawn must satisfy 0 <= spawn < despawn <= frame_count")
            turn_rate = float(spec_agent.get("turn_rate", 0.0))
            states = integrate_states(
                np.asarray(spec_agent["start"], dtype=float),
                np.asarray(spec_agent["velocity"], dtype=float),
                despawn - spawn,
                cfg.dt,
                turn_rate,
            )
            agents.append(
                AgentTrack(
                    agent_id=agent_id,
                    cls=cls,
                    spawn=spawn,
                    despawn=despawn,
                    states=states,
                    model="constant_turn" if turn_rate != 0.0 else "constant_velocity",
                    turn_rate=turn_rate,
                )
            )
        ego = np.zeros((fc, 3))
        return Scenario(
            scenario_id=f"scn-{seed}",
            dt=cfg.dt,
            frame_count=fc,
            seed=int(seed),
            agents=agents,
            ego=ego,
        )
    for cls in CLASSES:
        for _ in range(cfg.class_counts.get(cls, 0)):
            agent_id += 1
            pos = rng.uniform(-span, span, size=2)
            speed = min(rng.uniform(*cfg.speed_range), CLASS_MAX_SPEED[cls])
            heading = rng.uniform(0.0, 2.0 * np.pi)
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            turning = rng.random() < cfg.turn_fraction
            turn_rate = 0.0
            if turning:
                turn_rate = rng.uniform(*cfg.turn_rate_range) * (1.0 if rng.random() < 0.5 else -1.0)
            spawn, despawn = 0, fc
            if fc >= 4 and rng.random() < cfg.partial_lifespan_fraction:
                if rng.random() < 0.5:
                    spawn = int(rng.integers(1, max(2, fc // 2)))
                else:
                    despawn = int(rng.integers(fc // 2, fc))
            states = integrate_states(pos, vel, despawn - spawn, cfg.dt, turn_rate)
            agents.append(
                AgentTrack(
                    agent_id=agent_id,
                    cls=cls,
                    spawn=spawn,
                    despawn=despawn,
                    states=states,
                    model="constant_turn" if turning else "constant_velocity",
                    turn_rate=turn_rate,
                )
            )
    ego = np.zeros((fc, 3))
    if cfg.ego_speed != 0.0:
        ego[:, 0] = cfg.ego_speed * cfg.dt * np.arange(fc)
    return Scenario(
        scenario_id=f"scn-{seed}",
        dt=cfg.dt,
        frame_count=fc,
        seed=int(seed),
        agents=agents,
        ego=ego,
    )


def sense(scenario: Scenario, frame: int, sensor: SensorConfig, rng: np.random.Generator) -> list[Measurement]:
    """Noisy observation of one frame.

    Output order is deterministic: live agents in id order, then clutter.
    """
    if not 0 <= frame < scenario.frame_count:
        raise IndexError(f"frame {frame} out of range [0, {scenario.frame_count})")
    sensor.validate()
    ego_xy = scenario.ego[frame, 0:2]
    out: list[Measurement] = []
    for agent in scenario.live_agents(frame):
        pos = agent.state_at(frame)[0:2]
        dist = float(np.hypot(*(pos - ego_xy)))
        if dist > sensor.detection_range:
            continue
        if rng.random() < sensor.miss_probability:
            continue
        noise = rng.normal(0.0, sensor.position_noise_sigma, size=2)
        frac = min(dist / sensor.detection_range, 1.0)
        score = sensor.score_near + (sensor.score_far - sensor.score_near) * frac
        out.append(Measurement(frame=frame, center=pos + noise, cls=agent.cls, score=float(score), agent_id=agent.agent_id))
    n_clutter = int(rng.poisson(sensor.clutter_rate))
    for _ in range(n_clutter):
        r = sensor.detection_range * np.sqrt(rng.random())
        theta = rng.random() * 2.0 * np.pi
        center = ego_xy + r * np.array([np.cos(theta), np.sin(theta)])
        cls = CLASSES[int(rng.integers(len(CLASSES)))]
        score = float(rng.uniform(*sensor.clutter_score_range))
        out.append(Measurement(frame=frame, center=center, cls=cls, score=score, agent_id=None))
    return out


# ---------------------------------------------------------------------------
# serialization (normative JSON schema)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "scenario_id": scenario.scenario_id,
        "dt": scenario.dt,
        "frame_count": scenario.frame_count,
        "seed": scenario.seed,
        "agents": [
            {
                "id": a.agent_id,
                "class": a.cls,
                "states": a.states.tolist(),
                "spawn": a.spawn,
                "despawn": a.despawn,
                "model": a.model,
                "turn_rate": a.turn_rate,
            }
            for a in scenario.agents
        ],
        "ego": scenario.ego.tolist(),
    }


def scenario_from_dict(doc: dict) -> Scenario:
    agents = [
        AgentTrack(
            agent_id=int(a["id"]),
            cls=a["class"],
            spawn=int(a["spawn"]),
            despawn=int(a["despawn"]),
            states=np.array(a["states"], dtype=float).reshape(int(a["despawn"]) - int(a["spawn"]), 5),
            model=a["model"],
            turn_rate=float(a["turn_rate"]),
        )
        for a in doc["agents"]
    ]
    return Scenario(
        scenario_id=doc["scenario_id"],
        dt=float(doc["dt"]),
        frame_count=int(doc["frame_count"]),
        seed=int(doc["seed"]),
        agents=agents,
        ego=np.array(doc["ego"], dtype=float).reshape(int(doc["frame_count"]), 3),
    )


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scenario_to_dict(scenario), f)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        return scenario_from_dict(json.load(f))
