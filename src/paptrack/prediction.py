"""Constant-velocity forecasts of the fed tracks, as the next frame's predicted queries.

One rule, :func:`fed_rows`, picks the rows of the track table that feed
the loop.  Each one's step-1 point at constant velocity, its position at
the next frame, becomes the center of one predicted query; the table of
them is stored in the bank for the next frame's perception.
"""

from __future__ import annotations

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, track_confidence
from paptrack.queries import PREDICTED, QueryBank, embed_center


def fed_rows(tracks: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the rows of a track table that are forecast and banked: the confirmed and coasting ones."""
    status = tracks["status"]
    return ((status == CONFIRMED) | (status == COASTING)).nonzero()[0]


def predict_and_store(tracks: np.ndarray, bank: QueryBank, t: int, dt: float) -> QueryBank:
    """Forecast every row of :func:`fed_rows` one step and bank the resulting queries.

    Each track gives one row, in track-id order, centered on its forecast
    point ``c + dt * v``: its newest center `c` moved at its velocity `v`
    for one step of `dt` seconds.  The row carries its source track's id,
    which ties it to that track, and its class, so it only matches
    measurements of that class.
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
