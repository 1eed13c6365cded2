"""Track and box tables built by hand for tests, their field bytes, and one frame of a scenario's sensor."""

from __future__ import annotations

import numpy as np
from numpy.lib.recfunctions import repack_fields

from paptrack.perception import CONFIRMED, TENTATIVE, track_dtype
from paptrack.world import CLASS_INDEX, box_dtype, scenario_ground_truth, sense


def track_table(*rows: dict, velocity_window: int = 5) -> np.ndarray:
    """A track table with one row per dict in `rows`; row i is track id i + 1.

    A dict may set `cls` (a class name, default "car"), `status` (default
    CONFIRMED), `hits` (default 2), `misses` (default 0), `ever_confirmed`
    (default: status is not TENTATIVE) and `states`, a list of ``(frame,
    center, velocity, coasted)`` oldest first, of which the row keeps the
    last `velocity_window` and the newest state's velocity.  Without
    `states` the row has one state at `frame` (default 0), `center` and
    `velocity` (default zeros), not coasted.  Slots older than the first
    state repeat it, as for a newborn track.
    """
    table = np.zeros(len(rows), track_dtype(velocity_window))
    depth = table.dtype["frames"].shape[0]
    for i, spec in enumerate(rows):
        status = spec.get("status", CONFIRMED)
        table["status"][i] = status
        table["cls"][i] = CLASS_INDEX[spec.get("cls", "car")]
        table["hits"][i] = spec.get("hits", 2)
        table["misses"][i] = spec.get("misses", 0)
        table["ever_confirmed"][i] = spec.get("ever_confirmed", status != TENTATIVE)
        states = spec.get("states", [(spec.get("frame", 0), spec.get("center", (0.0, 0.0)), spec.get("velocity", (0.0, 0.0)), False)])
        states = ([states[0]] * depth + list(states))[-depth:]
        frames, centers, velocities, coasted = zip(*states)
        table["frames"][i], table["centers"][i], table["velocity"][i], table["coasted"][i] = frames, centers, velocities[-1], coasted
    return table


def field_bytes(table: np.ndarray) -> bytes:
    """The bytes of `table`'s fields, without the padding of an aligned row type, which numpy leaves unset in a copy."""
    return repack_fields(table).tobytes()


def centers(tracks: np.ndarray) -> np.ndarray:
    """Each row's newest center, ``(n, 2)``."""
    return tracks["centers"][:, -1]


def boxes(*rows) -> np.ndarray:
    """A box table with one row per ``(frame, id, class name, center, score)``."""
    return np.array([(frame, id_, CLASS_INDEX[cls], center, score) for frame, id_, cls, center, score in rows], dtype=box_dtype)


def sense_frame(scenario, frame: int, sensor, rng) -> np.ndarray:
    """`world.sense` of one frame of `scenario`, making that frame's draws only.

    The frame's ground-truth rows are sensed as a one-frame run at the
    frame's ego position, and the measurements given their frame back.
    """
    gt = scenario_ground_truth(scenario)
    truth = gt[gt["frame"] == frame]
    truth["frame"] = 0
    out = sense(truth, scenario.ego[frame : frame + 1, 0:2], sensor, rng)
    out["frame"] = frame
    return out
