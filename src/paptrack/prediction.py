"""Kinematic motion forecasts and their conversion back into queries.

The predictor extrapolates each live track's filtered state over a short
horizon and re-embeds selected horizon points as one table of predicted
queries, which is stored in the time-indexed bank for the next frame's
perception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TERMINATED, Track
from paptrack.queries import PREDICTED, CodecConfig, QueryBank, embed_center
from paptrack.world import CLASS_INDEX, ConfigError

CONSTANT_VELOCITY = "constant_velocity"
CONSTANT_TURN = "constant_turn"


@dataclass
class PredictorConfig:
    horizon: int = 6
    dt: float = 0.1
    feed_step: int = 1  # which horizon step populates the next frame's bank
    feed_all: bool = False
    model: str = CONSTANT_VELOCITY

    def validate(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not 1 <= self.feed_step <= self.horizon:
            raise ConfigError("feed_step must be in [1, horizon]")
        if self.model not in (CONSTANT_VELOCITY, CONSTANT_TURN):
            raise ConfigError(f"unknown predictor model {self.model!r}")


def _estimate_turn_rate(track: Track, dt: float) -> float:
    if len(track.velocities) < 2:
        return 0.0
    v0, v1 = track.velocities[-2], track.velocities[-1]
    if np.hypot(*v0) < 1e-9 or np.hypot(*v1) < 1e-9:
        return 0.0
    a0 = np.arctan2(v0[1], v0[0])
    a1 = np.arctan2(v1[1], v1[0])
    da = (a1 - a0 + np.pi) % (2.0 * np.pi) - np.pi
    span = (track.frames[-1] - track.frames[-2]) * dt
    return float(da / span) if span > 0 else 0.0


def forecast(track: Track, cfg: PredictorConfig) -> np.ndarray:
    """Extrapolate a live track over the configured horizon.

    Returns ``(horizon, 2)`` points; row h-1 is the step-h position.
    """
    cfg.validate()
    if track.status == TERMINATED:
        raise ValueError("cannot forecast a terminated track")
    if not track.frames:
        raise ValueError("track has no state")
    c = track.center
    v = track.velocity
    points = np.empty((cfg.horizon, 2))
    if cfg.model == CONSTANT_TURN:
        omega = _estimate_turn_rate(track, cfg.dt)
        rot_c, rot_s = np.cos(omega * cfg.dt), np.sin(omega * cfg.dt)
        x = np.array(c, dtype=float)
        vv = np.array(v, dtype=float)
        for h in range(cfg.horizon):
            x = x + vv * cfg.dt
            vv = np.array([rot_c * vv[0] - rot_s * vv[1], rot_s * vv[0] + rot_c * vv[1]])
            points[h] = x
    else:
        steps = np.arange(1, cfg.horizon + 1)[:, None]
        points[:] = c[None, :] + steps * cfg.dt * v[None, :]
    return points


def predict_and_store(
    tracks: list[Track],
    bank: QueryBank,
    t: int,
    cfg: PredictorConfig,
    codec: CodecConfig,
) -> QueryBank:
    """Forecast every confirmed/coasting track and bank the resulting queries.

    Each track gives one row per fed horizon step (`feed_step`, or every
    step with `feed_all`), in track-id order.  The row carries the source
    track's tail slot-for-slot, so temporal identity features survive the
    loop, and its class, so it only matches measurements of that class.
    """
    live = sorted((tr for tr in tracks if tr.status in (CONFIRMED, COASTING)), key=lambda tr: tr.track_id)
    steps = np.arange(1, cfg.horizon + 1) if cfg.feed_all else np.array([cfg.feed_step])
    points = np.array([forecast(tr, cfg)[steps - 1] for tr in live]).reshape(-1, 2)
    rows = np.repeat(np.arange(len(live)), len(steps))  # table row -> index into live
    queries = embed_center(
        points,
        np.array([tr.tail for tr in live]).reshape(-1, codec.dim - 2)[rows],
        codec,
        provenance=PREDICTED,
        source_track_id=np.array([tr.track_id for tr in live], dtype=np.int64)[rows],
        horizon_step=np.tile(steps, len(live)),
        cls=np.array([CLASS_INDEX[tr.cls] for tr in live], dtype=np.int64)[rows],
        confidence=np.array([tr.confidence for tr in live], dtype=float)[rows],
    )
    bank.store(t, queries)
    return bank
