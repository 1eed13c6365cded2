"""Hot numeric kernels: gated query/measurement cost matrices.

The gating kernel runs once per frame over every (query, measurement)
pair.  It is a single vectorised numpy pass; ``tests/oracles.py`` holds a
pair-by-pair loop that it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

# read by perfbench/run.py:environment(), which stamps it on every result
USE_NUMBA = False

# class code -1 on a query means "matches any measurement class"
ANY_CLASS = -1


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
    costs = np.full((nq, nm), np.inf)
    if nq == 0 or nm == 0:
        return costs, 0
    compat = (q_cls[:, None] == ANY_CLASS) | (q_cls[:, None] == m_cls[None, :])
    dx = q_xy[:, 0:1] - m_xy[None, :, 0]
    dy = q_xy[:, 1:2] - m_xy[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    np.copyto(costs, dist, where=compat & (dist <= float(gate)))
    return costs, int(compat.sum())
