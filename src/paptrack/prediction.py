"""Kinematic motion forecasts and their conversion back into queries.

The predictor extrapolates the filtered state of every live row of the
track table over a short horizon in one call, and re-embeds selected
horizon points as one table of predicted queries, which is stored in the
bank for the next frame's perception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TERMINATED, track_confidence
from paptrack.queries import PREDICTED, CodecConfig, QueryBank, embed_center, query_dtype
from paptrack.world import ConfigError, raw_rows

CONSTANT_VELOCITY = "constant_velocity"
CONSTANT_TURN = "constant_turn"


@dataclass
class PredictorConfig:
    horizon: int = 6
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


def _turn_rates(tracks: np.ndarray, dt: float) -> np.ndarray:
    """Heading change per second between each row's last two velocities."""
    v0, v1 = tracks["velocities"][:, -2], tracks["velocities"][:, -1]
    moving = (np.hypot(v0[:, 0], v0[:, 1]) >= 1e-9) & (np.hypot(v1[:, 0], v1[:, 1]) >= 1e-9)
    da = (np.arctan2(v1[:, 1], v1[:, 0]) - np.arctan2(v0[:, 1], v0[:, 0]) + np.pi) % (2.0 * np.pi) - np.pi
    span = (tracks["frames"][:, -1] - tracks["frames"][:, -2]) * dt
    return np.where(moving & (span > 0), da / np.where(span > 0, span, 1.0), 0.0)


def forecast(tracks: np.ndarray, cfg: PredictorConfig, dt: float, steps: np.ndarray | None = None) -> np.ndarray:
    """Extrapolate every row of a track table to horizon `steps` (default 1..horizon), `dt` seconds a step.

    Returns ``(n, len(steps), 2)`` points; ``[i, j]`` is row i's position at step ``steps[j]``.
    """
    cfg.validate()
    if (tracks["status"] == TERMINATED).any():
        raise ValueError("cannot forecast a terminated track")
    steps = np.arange(1, cfg.horizon + 1) if steps is None else np.asarray(steps)
    c, v = tracks["centers"][:, -1], tracks["velocities"][:, -1]
    if cfg.model == CONSTANT_TURN:
        omega = _turn_rates(tracks, dt)
        rot_c, rot_s = np.cos(omega * dt), np.sin(omega * dt)
        points = np.empty((len(tracks), cfg.horizon, 2))
        x = c
        for h in range(cfg.horizon):
            x = x + v * dt
            v = np.stack([rot_c * v[:, 0] - rot_s * v[:, 1], rot_s * v[:, 0] + rot_c * v[:, 1]], axis=1)
            points[:, h] = x
        return points[:, steps - 1]
    return c[:, None, :] + (steps * dt)[None, :, None] * v[:, None, :]


def fed_tracks(tracks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices, ascending, and a table of the rows that are forecast and banked: the confirmed and coasting ones."""
    status = tracks["status"]
    rows = ((status == CONFIRMED) | (status == COASTING)).nonzero()[0]
    return rows, raw_rows(tracks)[rows].view(tracks.dtype)


def predict_and_store(
    tracks: np.ndarray,
    bank: QueryBank,
    t: int,
    cfg: PredictorConfig,
    codec: CodecConfig,
    dt: float,
) -> QueryBank:
    """Forecast every track of :func:`fed_tracks` and bank the resulting queries.

    Each track gives one row per fed horizon step (`feed_step`, or every
    step with `feed_all`), in track-id order.  The row carries zero tail
    slots, its source track's id, which ties it to that track, and its
    class, so it only matches measurements of that class.
    """
    live, fed = fed_tracks(tracks)
    steps = np.arange(1, cfg.horizon + 1) if cfg.feed_all else np.array([cfg.feed_step])
    points = forecast(fed, cfg, dt, steps)
    source, confidence = live + 1, track_confidence(fed["hits"], fed["misses"])
    # row (i, j) is fed track i at steps[j]: one call per step writes a column, with no per-row gathers
    queries = np.empty((len(live), len(steps)), query_dtype(codec.dim))
    tails = np.zeros((len(live), codec.dim - 2))
    for j, step in enumerate(steps.tolist()):
        embed_center(
            points[:, j],
            tails,
            codec,
            provenance=PREDICTED,
            source_track_id=source,
            horizon_step=step,
            cls=fed["cls"],
            confidence=confidence,
            out=queries[:, j],
        )
    bank.store(t, queries.reshape(-1))
    return bank
