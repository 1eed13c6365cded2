"""Constant-velocity motion forecasts and their conversion back into queries.

The predictor extrapolates the filtered state of every live row of the
track table at constant velocity over a short horizon in one call, and
turns each track's step-1 point, its position at the next frame, into the
center of one predicted query; the table of them is stored in the bank for
the next frame's perception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TERMINATED, track_confidence
from paptrack.queries import PREDICTED, QueryBank, embed_center
from paptrack.world import ConfigError, raw_rows


@dataclass
class PredictorConfig:
    horizon: int = 6  # forecast steps a dump records

    def validate(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")


def forecast(tracks: np.ndarray, horizon: int, dt: float) -> np.ndarray:
    """Extrapolate every row of a track table at constant velocity to steps 1..`horizon`, `dt` seconds a step.

    Returns ``(n, horizon, 2)`` points; ``[i, j]`` is row i's position at step j + 1.
    """
    if (tracks["status"] == TERMINATED).any():
        raise ValueError("cannot forecast a terminated track")
    steps = np.arange(1, horizon + 1)
    c, v = tracks["centers"][:, -1], tracks["velocity"]
    return c[:, None, :] + (steps * dt)[None, :, None] * v[:, None, :]


def fed_tracks(tracks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices, ascending, and a table of the rows that are forecast and banked: the confirmed and coasting ones."""
    status = tracks["status"]
    rows = ((status == CONFIRMED) | (status == COASTING)).nonzero()[0]
    return rows, raw_rows(tracks)[rows].view(tracks.dtype)


def predict_and_store(tracks: np.ndarray, bank: QueryBank, t: int, dt: float) -> QueryBank:
    """Forecast every track of :func:`fed_tracks` one step and bank the resulting queries.

    Each track gives one row, in track-id order, centered on its forecast
    point.  The row carries its source track's id, which ties it to that
    track, and its class, so it only matches measurements of that class.
    """
    live, fed = fed_tracks(tracks)
    queries = embed_center(
        forecast(fed, 1, dt)[:, 0],
        provenance=PREDICTED,
        source_track_id=live + 1,
        cls=fed["cls"],
        confidence=track_confidence(fed["hits"], fed["misses"]),
    )
    bank.store(t, queries)
    return bank
