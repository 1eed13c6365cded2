"""Hot numeric kernels: gated query/measurement cost matrices.

The gating kernel runs once per frame over every (query, measurement)
pair.  It is a single vectorised numpy pass; ``tests/oracles.py`` holds a
pair-by-pair loop that it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from paptrack.queries import ANY_CLASS

# read by perfbench/run.py:environment(), which stamps it on every result
USE_NUMBA = False


def gated_costs(
    q_xy: np.ndarray,
    q_cls: np.ndarray,
    m_xy: np.ndarray,
    m_cls: np.ndarray,
    gate: float,
) -> tuple[np.ndarray, int]:
    """Euclidean cost matrix with class and distance gating.

    Entries for class-incompatible pairs or pairs farther apart than
    `gate` are ``+inf``.  Returns ``(costs, n_evaluations)`` where
    `n_evaluations` counts the class-compatible pairs for which a distance
    was actually computed (the per-frame compute-cost proxy).
    """
    q_xy = np.ascontiguousarray(q_xy, dtype=np.float64)
    m_xy = np.ascontiguousarray(m_xy, dtype=np.float64)
    q_cls = np.ascontiguousarray(q_cls, dtype=np.int64)
    m_cls = np.ascontiguousarray(m_cls, dtype=np.int64)
    nq, nm = q_xy.shape[0], m_xy.shape[0]
    if nq == 0 or nm == 0:
        return np.full((nq, nm), np.inf), 0
    compat = q_cls[:, None] == m_cls[None, :]
    compat |= (q_cls == ANY_CLASS)[:, None]
    dx = q_xy[:, 0:1] - m_xy[None, :, 0]
    dy = q_xy[:, 1:2] - m_xy[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    dist = np.sqrt(dx, out=dx)  # sqrt(dx * dx + dy * dy), computed in place
    return np.where(compat & (dist <= float(gate)), dist, np.inf), int(np.count_nonzero(compat))
