"""Deterministic synthetic BEV world and its noisy sensor.

Scenarios are generated from a root seed: agents follow exact kinematic
models (constant velocity or constant turn-rate, forward-Euler with
rotated velocity), so ground truth can be re-integrated independently to
machine precision.  The sensor adds Gaussian position noise, Bernoulli
misses and Poisson clutter, all drawn from a dedicated stream.

Every box of a run is a row of one box table, a structured array of
:data:`box_dtype`: the sensor's measurements, the ground truth and the
tracker's detections alike, from `sense` to the metrics.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
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

# The largest `world_half_extent`, in meters.  Agents and random queries are drawn from a square of
# twice this side, and `rng.uniform` overflows on a span past the largest float (~1.8e308); 1e6 m
# keeps every span, and every squared distance the gate takes, far inside float64.
MAX_HALF_EXTENT = 1e6

# The largest turn rate, in rad/s, either way.  A turning agent draws its rate from `turn_rate_range`
# with `rng.uniform`, which overflows on a span past the largest float; a full turn a second is over
# ten times the fastest rate in use (0.6 rad/s) and past any road user's yaw rate.
MAX_TURN_RATE = 2 * math.pi

# The largest `ego_speed`, in m/s, either way.  The ego drives at it for up to MAX_SCENARIO_SECONDS,
# and the sensor measures from where the ego is: at 5e4 m/s its path stays within MAX_HALF_EXTENT,
# where every distance is far inside float64, while 1e308 m/s puts it at infinity after one frame.
MAX_EGO_SPEED = MAX_HALF_EXTENT / MAX_SCENARIO_SECONDS

# The largest `clutter_rate`, the mean clutter boxes a frame.  The sensor draws each box in a Python
# loop and each is a column of the frame's cost matrix, so a rate of 1e300, which numpy's Poisson
# refuses, or of 1e9, which it would draw, cannot run; 1e2 is 12.5 times the heaviest clutter in use.
MAX_CLUTTER_RATE = 1e2

# The largest `position_noise_sigma`, in meters.  A measurement lands a few sigma from its agent, and the
# gate squares its distance to every query, which overflows past ~1e154 m: at 1e308 m the run reports
# AMOTA 0 after overflow warnings.  1e6 m scatters measurements across the largest world, two million
# times the noise in use (0.5 m), and keeps every squared distance far inside float64.
MAX_NOISE_SIGMA = MAX_HALF_EXTENT

# The largest `detection_range`, in meters.  Clutter is drawn within it of the ego, and the gate squares
# each clutter box's distance to every query, which overflows past ~1e154 m.  1e7 m reaches every agent
# a generated world holds (within 4e6 m of the ego) and keeps every squared distance far inside float64.
MAX_DETECTION_RANGE = 10 * MAX_HALF_EXTENT


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class InputError(ValueError):
    """Malformed input data (a dump, a scenario file or a set of reports); the message names the file or field."""


# ---------------------------------------------------------------------------
# values read from outside JSON: configs, scenario files, dumps and reports


def is_finite_number(value) -> bool:
    """A number a float holds exactly: a finite float, or an integer within ±2^53; never a bool."""
    if isinstance(value, numbers.Integral):
        return _is_int(value, -(2**53), 2**53)
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _is_int(value, low=-(2**63), high=2**63 - 1) -> bool:
    """An integer, never a bool, in [low, high]: by default one that fits an int64 column."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2 and all(map(is_finite_number, value))


# kind -> (the words an error message uses, the test): what a value read from outside JSON must be
VALUE_KINDS = {
    "integer": ("an integer", _is_int),
    "seed": ("an integer", lambda v: _is_int(v, -math.inf, math.inf)),  # a seed is not bounded: it only keys the RNG streams
    "id": ("a non-negative integer", lambda v: _is_int(v, 0)),
    "ids": ("a list of non-negative integers", lambda v: isinstance(v, list) and all(_is_int(x, 0) for x in v)),
    "count": ("an integer >= 1", lambda v: _is_int(v, 1)),
    "number": ("a finite number", is_finite_number),
    "positive": ("a finite number > 0", lambda v: is_finite_number(v) and v > 0),
    "non-negative": ("a finite number >= 0", lambda v: is_finite_number(v) and v >= 0),
    "unit": ("a finite number in [0, 1]", lambda v: is_finite_number(v) and 0 <= v <= 1),
    "pair": ("2 finite numbers", _is_pair),
    "range": ("a list of 2 numbers", _is_pair),  # a config's (lo, hi)
    "class": (f"one of {', '.join(CLASSES)}", lambda v: v in CLASSES),
    "string": ("a string", lambda v: isinstance(v, str)),
    "digest": ("a sha256 hex digest", lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v) is not None),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "objects": ("a list of objects", lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v)),
}


def read_json(path, what: str, error: type[ValueError]):
    """The JSON document in the file `path`; one that is not UTF-8 or not JSON raises `error` naming `what`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past int()'s digit limit
            raise error(f"{what} is not JSON: {exc}") from exc


def read_json_lines(path, what: str, error: type[ValueError]):
    """Each line of the JSON Lines file `path` as (line number, record); a line that is not UTF-8 or not JSON raises `error` naming `what` and the line."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                yield lineno, json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise error(f"{what} line {lineno} is not JSON: {exc}") from exc


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

    def validate(self) -> None:
        if self.frame_count < 1:
            raise ConfigError("frame_count must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.frame_count * self.dt > MAX_SCENARIO_SECONDS + 1e-9:
            raise ConfigError("frame_count * dt must not exceed 20 seconds")
        if not 0 < self.world_half_extent <= MAX_HALF_EXTENT:
            raise ConfigError(f"world_half_extent must be in (0, {MAX_HALF_EXTENT:g}], got {self.world_half_extent!r}")
        for cls, n in self.class_counts.items():
            if cls not in CLASSES:
                raise ConfigError(f"class_counts contains unknown class {cls!r}")
            if not (_is_int(n) and n >= 0):
                raise ConfigError(f"class_counts[{cls!r}] must be an integer >= 0, got {n!r}")
        lo, hi = self.speed_range
        if lo < 0 or hi < lo:
            raise ConfigError("speed_range must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.turn_fraction <= 1.0:
            raise ConfigError("turn_fraction must be in [0, 1]")
        lo, hi = self.turn_rate_range
        if not 0 <= lo <= hi <= MAX_TURN_RATE:  # magnitudes: a turn's sign is drawn apart
            raise ConfigError(f"turn_rate_range must satisfy 0 <= lo <= hi <= {MAX_TURN_RATE:g}, got {list(self.turn_rate_range)!r}")
        # agents start in a square of half side world_half_extent - spawn_margin: this bound keeps it,
        # like the world, within 2 * MAX_HALF_EXTENT, where `rng.uniform` and every distance stay finite
        if not abs(self.spawn_margin) <= MAX_HALF_EXTENT:
            raise ConfigError(f"spawn_margin must be in [-{MAX_HALF_EXTENT:g}, {MAX_HALF_EXTENT:g}], got {self.spawn_margin!r}")
        if not abs(self.ego_speed) <= MAX_EGO_SPEED:
            raise ConfigError(f"ego_speed must be in [-{MAX_EGO_SPEED:g}, {MAX_EGO_SPEED:g}], got {self.ego_speed!r}")
        if not 0.0 <= self.partial_lifespan_fraction <= 1.0:
            raise ConfigError("partial_lifespan_fraction must be in [0, 1]")


@dataclass
class SensorConfig:
    position_noise_sigma: float = 0.5
    miss_probability: float = 0.1
    clutter_rate: float = 1.0
    detection_range: float = 75.0

    def validate(self) -> None:
        if not 0 <= self.position_noise_sigma <= MAX_NOISE_SIGMA:
            raise ConfigError(f"position_noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}], got {self.position_noise_sigma!r}")
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ConfigError("miss_probability must be in [0, 1]")
        if not 0 <= self.clutter_rate <= MAX_CLUTTER_RATE:
            raise ConfigError(f"clutter_rate must be in [0, {MAX_CLUTTER_RATE:g}], got {self.clutter_rate!r}")
        if not 0 < self.detection_range <= MAX_DETECTION_RANGE:
            raise ConfigError(f"detection_range must be in (0, {MAX_DETECTION_RANGE:g}], got {self.detection_range!r}")


# one box: a measurement, a ground-truth box or a detection
box_dtype = np.dtype(
    [
        ("frame", np.int64),
        ("id", np.int64),  # agent id of a measurement (-1 for clutter) or gt box; track id of a detection
        ("cls", np.int64),  # CLASS_INDEX code
        ("center", np.float64, (2,)),  # BEV meters
        ("score", np.float64),  # confidence of a detection; 0 for a measurement or a gt box
    ]
)


@functools.cache
def _row_bytes(itemsize: int) -> np.dtype:
    return np.dtype((np.void, itemsize))


def raw_rows(table: np.ndarray) -> np.ndarray:
    """`table`'s rows as raw bytes, to gather, scatter and join: numpy copies structured rows field by field, several times slower."""
    return table.view(_row_bytes(table.dtype.itemsize))


@dataclass
class AgentTrack:
    """One agent: per-frame kinematic states over [spawn, despawn)."""

    agent_id: int
    cls: str
    spawn: int
    despawn: int
    states: np.ndarray  # (despawn - spawn, 5): x, y, vx, vy, yaw
    turn_rate: float = 0.0


@dataclass
class Scenario:
    scenario_id: str
    dt: float
    frame_count: int
    seed: int
    agents: list[AgentTrack]
    ego: np.ndarray  # (frame_count, 3): x, y, yaw


def integrate_states(x0: np.ndarray, v0: np.ndarray, n: int, dt: float, turn_rate: float) -> np.ndarray:
    """Forward-Euler trajectory: p += v*dt, then v rotates by turn_rate*dt.

    This recurrence *is* the ground-truth motion model, so re-integration
    reproduces stored states exactly.  It steps in Python floats, whose
    arithmetic is numpy's float64 arithmetic; yaw is the heading of each
    velocity.
    """
    c, s = float(np.cos(turn_rate * dt)), float(np.sin(turn_rate * dt))
    x, y = map(float, x0)
    vx, vy = map(float, v0)
    rows = []
    for _ in range(n):
        rows.append((x, y, vx, vy))
        x, y = x + vx * dt, y + vy * dt
        vx, vy = c * vx - s * vy, s * vx + c * vy
    states = np.empty((n, 5))
    states[:, 0:4] = np.array(rows, dtype=float).reshape(n, 4)
    states[:, 4] = np.arctan2(states[:, 3], states[:, 2])
    return states


def generate_scenario(cfg: ScenarioConfig, seed: int) -> Scenario:
    cfg.validate()
    fc = cfg.frame_count
    rng = stream(seed, "scenario")
    span = cfg.world_half_extent - cfg.spawn_margin
    if span <= 0:
        span = cfg.world_half_extent * 0.5
    agents = []
    for cls in CLASSES:
        for _ in range(cfg.class_counts.get(cls, 0)):
            pos = rng.uniform(-span, span, size=2)
            speed = min(rng.uniform(*cfg.speed_range), CLASS_MAX_SPEED[cls])
            heading = rng.uniform(0.0, 2.0 * np.pi)
            turn_rate = 0.0
            if rng.random() < cfg.turn_fraction:
                turn_rate = rng.uniform(*cfg.turn_rate_range) * (1.0 if rng.random() < 0.5 else -1.0)
            spawn, despawn = 0, fc
            if fc >= 4 and rng.random() < cfg.partial_lifespan_fraction:
                if rng.random() < 0.5:
                    spawn = int(rng.integers(1, max(2, fc // 2)))
                else:
                    despawn = int(rng.integers(fc // 2, fc))
            velocity = speed * np.array([np.cos(heading), np.sin(heading)])
            states = integrate_states(pos, velocity, despawn - spawn, cfg.dt, turn_rate)
            agents.append(AgentTrack(agent_id=len(agents) + 1, cls=cls, spawn=spawn, despawn=despawn, states=states, turn_rate=turn_rate))
    ego = np.zeros((fc, 3))
    if cfg.ego_speed != 0.0:
        ego[:, 0] = cfg.ego_speed * cfg.dt * np.arange(fc)
    return Scenario(scenario_id=f"scn-{seed}", dt=cfg.dt, frame_count=fc, seed=int(seed), agents=agents, ego=ego)


def scenario_ground_truth(scenario: Scenario) -> np.ndarray:
    """Every agent's box in every frame it lives, as a box table sorted by frame (agent order within one)."""
    agents = scenario.agents
    if not agents:
        return np.zeros(0, box_dtype)
    lengths = [a.despawn - a.spawn for a in agents]
    gt = np.zeros(sum(lengths), box_dtype)
    gt["frame"] = np.concatenate([np.arange(a.spawn, a.despawn) for a in agents])
    gt["id"] = np.repeat([a.agent_id for a in agents], lengths)
    gt["cls"] = np.repeat([CLASS_INDEX[a.cls] for a in agents], lengths)
    gt["center"] = np.concatenate([a.states[:, 0:2] for a in agents])
    return gt[np.argsort(gt["frame"], kind="stable")]


def sense(truth: np.ndarray, ego_xy: np.ndarray, sensor: SensorConfig, rng: np.random.Generator) -> np.ndarray:
    """Noisy observation of a whole run, as one box table sorted by frame.

    `truth` is the run's ground truth, :func:`scenario_ground_truth`: a box
    table sorted by frame.  `ego_xy` is the ``(frame_count, 2)`` ego
    position of each frame; the run's frames are ``0 .. frame_count - 1``,
    and a frame without truth rows still draws its clutter.  Within a
    frame the order is deterministic: the observed truth rows in their
    order, then clutter (id -1).  Measurements carry no score (0, as
    ground truth).

    The draws are made frame by frame, as a sensor sensing each frame in
    turn would: each in-range truth row's miss draw and, if it is seen,
    its two standard normals, then the frame's Poisson clutter count, then
    each clutter box's four draws.  The geometry runs once over the run.
    """
    sensor.validate()
    frame_count = len(ego_xy)
    frames = truth["frame"]
    if len(frames) and not (frames[0] >= 0 and frames[-1] < frame_count and (np.diff(frames) >= 0).all()):
        raise ValueError(f"truth must be sorted by frame, with frames in [0, {frame_count})")
    pos = truth["center"]
    ego = ego_xy[frames]
    in_range = (~(np.hypot(pos[:, 0] - ego[:, 0], pos[:, 1] - ego[:, 1]) > sensor.detection_range)).nonzero()[0]
    cuts = np.searchsorted(frames[in_range], np.arange(frame_count + 1)).tolist()  # frame f's rows: in_range[cuts[f]:cuts[f + 1]]
    in_range = in_range.tolist()

    noise = np.empty((len(truth), 2))
    seen = []  # the observed truth rows, in order
    n_clutter = [0] * frame_count
    boxes = []  # each clutter box's radius, angle, class and a fourth draw, unread but holding the stream's place
    random, normal, poisson, integers = rng.random, rng.standard_normal, rng.poisson, rng.integers
    miss, rate, n_classes = sensor.miss_probability, sensor.clutter_rate, len(CLASSES)
    for f in range(frame_count):
        for k in in_range[cuts[f] : cuts[f + 1]]:
            if random() < miss:
                continue
            normal(out=noise[k])  # the draws of rng.normal(0.0, sigma, size=2)
            seen.append(k)
        n = n_clutter[f] = int(poisson(rate))
        for _ in range(n):
            boxes.append((random(), random(), integers(n_classes), random()))

    out = np.zeros(len(seen) + len(boxes), box_dtype)
    observed, clutter = out[: len(seen)], out[len(seen) :]
    observed["frame"] = frames[seen]
    observed["id"] = truth["id"][seen]
    observed["cls"] = truth["cls"][seen]
    # rng.normal(0.0, sigma) is 0.0 + sigma * z, elementwise
    observed["center"] = pos[seen] + (0.0 + sensor.position_noise_sigma * noise[seen])
    if boxes:
        boxes = np.array(boxes)
        clutter["frame"] = np.repeat(np.arange(frame_count), n_clutter)
        ego = ego_xy[clutter["frame"]]
        r = sensor.detection_range * np.sqrt(boxes[:, 0])
        theta = boxes[:, 1] * 2.0 * np.pi
        center = clutter["center"]
        center[:, 0] = ego[:, 0] + r * np.cos(theta)
        center[:, 1] = ego[:, 1] + r * np.sin(theta)
        clutter["id"] = -1
        clutter["cls"] = boxes[:, 2]  # a class code, exact as a float
    # each frame's observed rows, then its clutter
    return raw_rows(out)[np.argsort(out["frame"], kind="stable")].view(box_dtype)


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
                "turn_rate": a.turn_rate,
            }
            for a in scenario.agents
        ],
        "ego": scenario.ego.tolist(),
    }


def _read(doc: dict, name: str, kind: str, where: str):
    """`doc[name]`, which must be of `kind`; a missing field, or one of another kind, raises `InputError` naming it."""
    if name not in doc:
        raise InputError(f"{where} lacks field {name!r}")
    words, valid = VALUE_KINDS[kind]
    if not valid(doc[name]):
        raise InputError(f"{where} field {name!r} is not valid: must be {words}, got {doc[name]!r}")
    return doc[name]


def _read_rows(doc: dict, name: str, shape: tuple[int, int], where: str) -> np.ndarray:
    """`doc[name]`, `shape[0]` lists of `shape[1]` numbers, as a float array.

    One that is not a list of numbers, has another shape, holds a
    non-finite number or one that a float does not hold exactly (a bool, or
    an integer past ±2^53, which numpy would convert) raises `InputError`
    naming it.
    """
    value = _read(doc, name, "list", where)
    try:
        rows = np.asarray(value)
        if rows.dtype.kind not in "if":  # a string, a null, or only bools
            raise TypeError(f"must hold only numbers, got {rows.dtype} values")
        if rows.shape != shape:
            raise ValueError(f"must be {shape[0]} lists of {shape[1]} numbers, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("holds a non-finite value")
        inexact = next((x for row in value for x in row if not is_finite_number(x)), None)
        if inexact is not None:
            raise ValueError(f"must hold only numbers that a float holds exactly, not bools or integers past 2^53, got {inexact!r}")
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where} field {name!r} is not valid: {exc}") from exc
    return rows.astype(float)


def scenario_from_dict(doc: dict, source: str = "scenario") -> Scenario:
    """Rebuild a scenario from its JSON document.

    A document that is not an object, lacks a field, holds a value of the
    wrong JSON type (`frame_count`, `seed` and each agent's `id`, `spawn`
    and `despawn` are integers, not bools; `scenario_id` and each agent's
    `class` are strings; `dt`, `turn_rate`, states and ego are
    finite numbers, not bools), an integer other than `seed` outside int64,
    an integer `dt`, `turn_rate`, state or ego value outside ±2^53, a `dt`
    <= 0, a `frame_count` below 1 or an agent `id` below 0, names an
    unknown class, gives two agents the same `id`, gives an agent a
    lifespan outside ``0 <= spawn < despawn <= frame_count`` or states that
    do not fit its lifespan raises `InputError` naming `source` and the
    field.  Every field is taken as it is or refused: nothing is rounded.
    A field not named here, such as the agent `model` of an older file, is
    not read.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{source} is not a JSON object")
    frame_count = _read(doc, "frame_count", "integer", source)
    if frame_count < 1:
        raise InputError(f"{source} field 'frame_count' must be >= 1, got {frame_count}")
    agents, ids = [], {}  # agent id -> the index of the agent that has it
    for k, a in enumerate(_read(doc, "agents", "objects", source)):
        where = f"{source} agent {k}"
        agent_id = _read(a, "id", "integer", where)
        if agent_id < 0:  # a dump's ids are non-negative, so the run's dump would not replay
            raise InputError(f"{where} field 'id' must be >= 0, got {agent_id}")
        if agent_id in ids:  # the metrics would merge the two into one ground-truth track
            raise InputError(f"{where} field 'id' repeats agent {ids[agent_id]}'s id {agent_id}")
        ids[agent_id] = k
        cls = _read(a, "class", "string", where)
        if cls not in CLASSES:
            raise InputError(f"{where} field 'class' names unknown class {cls!r}")
        spawn, despawn = _read(a, "spawn", "integer", where), _read(a, "despawn", "integer", where)
        if not 0 <= spawn < despawn <= frame_count:
            raise InputError(
                f"{where} fields 'spawn' and 'despawn' ({spawn}, {despawn}) must satisfy "
                f"0 <= spawn < despawn <= frame_count ({frame_count})"
            )
        agents.append(
            AgentTrack(
                agent_id=agent_id,
                cls=cls,
                spawn=spawn,
                despawn=despawn,
                states=_read_rows(a, "states", (despawn - spawn, 5), where),
                turn_rate=float(_read(a, "turn_rate", "number", where)),
            )
        )
    return Scenario(
        scenario_id=_read(doc, "scenario_id", "string", source),
        dt=float(_read(doc, "dt", "positive", source)),
        frame_count=frame_count,
        seed=_read(doc, "seed", "seed", source),
        agents=agents,
        ego=_read_rows(doc, "ego", (frame_count, 3), source),
    )


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scenario_to_dict(scenario), f)


def load_scenario(path) -> Scenario:
    """Read a scenario file; one that is not JSON or not a scenario raises `InputError`."""
    return scenario_from_dict(read_json(path, f"scenario file {path}", InputError), f"scenario file {path}")
