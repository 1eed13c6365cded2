"""Constant-velocity motion forecasts and their conversion back into queries.

One rule, :func:`fed_rows`, picks the rows of the track table that feed
the loop.  Each one's step-1 point at constant velocity, its position at
the next frame, becomes the center of one predicted query; the table of
them is stored in the bank for the next frame's perception.
:func:`forecast` extrapolates rows over a short horizon in one call, for
the debug dump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TERMINATED, track_confidence
from paptrack.queries import PREDICTED, QueryBank, embed_center
from paptrack.world import ConfigError


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


def fed_rows(tracks: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the rows of a track table that are forecast and banked: the confirmed and coasting ones."""
    status = tracks["status"]
    return ((status == CONFIRMED) | (status == COASTING)).nonzero()[0]


def predict_and_store(tracks: np.ndarray, bank: QueryBank, t: int, dt: float) -> QueryBank:
    """Forecast every row of :func:`fed_rows` one step and bank the resulting queries.

    Each track gives one row, in track-id order, centered on its forecast
    point, ``c + dt * v``: the floats of :func:`forecast`'s step 1.  The row
    carries its source track's id, which ties it to that track, and its
    class, so it only matches measurements of that class.
    """
    rows = fed_rows(tracks)
    queries = embed_center(
        tracks["centers"][rows, -1] + dt * tracks["velocity"][rows],
        provenance=PREDICTED,
        source_track_id=rows + 1,
        cls=tracks["cls"][rows],
        confidence=track_confidence(tracks["hits"][rows], tracks["misses"][rows]),
    )
    bank.store(t, queries)
    return bank
