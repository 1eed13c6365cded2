"""Kinematic motion forecasts and their conversion back into queries.

The predictor extrapolates each live track's filtered state over a short
horizon and re-embeds selected horizon points as predicted queries, which
are stored in the time-indexed bank for the next frame's perception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TERMINATED, Track
from paptrack.queries import PREDICTED, CodecConfig, Query, QueryBank, embed_center
from paptrack.world import ConfigError

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


@dataclass
class Forecast:
    track_id: int
    points: np.ndarray  # (horizon, 2); row h-1 is the step-h position
    model: str
    confidence: float


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


def forecast(track: Track, cfg: PredictorConfig) -> Forecast:
    """Extrapolate a live track over the configured horizon."""
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
    return Forecast(track_id=track.track_id, points=points, model=cfg.model, confidence=track.confidence)


def queries_from_forecast(
    f: Forecast,
    source_tail: np.ndarray,
    cfg: PredictorConfig,
    codec: CodecConfig,
) -> list[Query]:
    """Embed the selected horizon points as predicted queries.

    The source track's tail is carried slot-for-slot so temporal identity
    features survive the loop.
    """
    steps = range(1, cfg.horizon + 1) if cfg.feed_all else [cfg.feed_step]
    return [
        embed_center(
            f.points[h - 1],
            source_tail,
            codec,
            provenance=PREDICTED,
            source_track_id=f.track_id,
            horizon_step=h,
            confidence=f.confidence,
        )
        for h in steps
    ]


def predict_and_store(
    tracks: list[Track],
    bank: QueryBank,
    t: int,
    cfg: PredictorConfig,
    codec: CodecConfig,
) -> QueryBank:
    """Forecast every confirmed/coasting track and bank the resulting queries."""
    queries: list[Query] = []
    for track in sorted(tracks, key=lambda tr: tr.track_id):
        if track.status not in (CONFIRMED, COASTING):
            continue
        f = forecast(track, cfg)
        qs = queries_from_forecast(f, track.tail, cfg, codec)
        for q in qs:
            q.cls = track.cls
        queries.extend(qs)
    bank.store(t, queries)
    return bank
