"""Independent reference implementations used as test oracles.

These deliberately share no code with the package: assignment is solved
by exhaustive permutation, the recall sweep is re-derived straight from
the metric formula, trajectories are re-integrated step by step, and the
gate kernel is recomputed pair by pair.
"""

from __future__ import annotations

import itertools

import numpy as np

CONTINUITY_EPS = 1e-9
ANY_CLASS = -1


def gated_costs_loop(q_xy, q_cls, m_xy, m_cls, gate):
    """Gated cost matrix one (query, measurement) pair at a time.

    Returns ``(costs, n_evaluations)`` with the same arithmetic as the
    vectorised kernel, so the two must agree bit for bit.
    """
    nq, nm = q_xy.shape[0], m_xy.shape[0]
    costs = np.full((nq, nm), np.inf)
    n_eval = 0
    for i in range(nq):
        for j in range(nm):
            if q_cls[i] != ANY_CLASS and q_cls[i] != m_cls[j]:
                continue
            n_eval += 1
            dx = q_xy[i, 0] - m_xy[j, 0]
            dy = q_xy[i, 1] - m_xy[j, 1]
            d = np.sqrt(dx * dx + dy * dy)
            if d <= gate:
                costs[i, j] = d
    return costs, n_eval


def brute_force_assignment(costs: np.ndarray):
    """Max-cardinality, then min-total-cost matching over finite entries.

    Returns (total_cost, matches) with matches as sorted (row, col) pairs.
    """
    nq, nm = costs.shape
    best = None
    rows = list(range(nq))
    cols = list(range(nm))
    max_k = min(nq, nm)
    for k in range(max_k, -1, -1):
        for rsub in itertools.combinations(rows, k):
            for csub in itertools.permutations(cols, k):
                total = 0.0
                ok = True
                for r, c in zip(rsub, csub):
                    if not np.isfinite(costs[r, c]):
                        ok = False
                        break
                    total += costs[r, c]
                if not ok:
                    continue
                pairs = tuple(sorted(zip(rsub, csub)))
                cand = (total, pairs)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return best
    return (0.0, ())


def match_frame_oracle(gt, hyps, match_distance, prev_matches):
    """Frame matching by exhaustive search, mirroring the CLEAR-MOT rules."""
    ng, nh = len(gt), len(hyps)
    costs = np.full((ng, nh), np.inf)
    dists = np.zeros((ng, nh))
    for i, (gid, gxy) in enumerate(gt):
        for j, (tid, hxy) in enumerate(hyps):
            d = float(np.hypot(gxy[0] - hxy[0], gxy[1] - hxy[1]))
            dists[i, j] = d
            if d <= match_distance:
                costs[i, j] = max(d - CONTINUITY_EPS, 0.0) if prev_matches.get(gid) == tid else d
    _, pairs = brute_force_assignment(costs)
    tp = len(pairs)
    ids = 0
    tp_dist = 0.0
    for i, j in pairs:
        gid = gt[i][0]
        tid = hyps[j][0]
        tp_dist += dists[i, j]
        if gid in prev_matches and prev_matches[gid] != tid:
            ids += 1
        prev_matches[gid] = tid
    return tp, nh - tp, ng - tp, ids, tp_dist


def amota_amotp_oracle(gt_boxes, hyps, n_recall_points, match_distance):
    """Recall-sweep metrics recomputed directly from the formula.

    gt_boxes: (frame, gt_id, xy); hyps: (frame, track_id, xy, confidence).
    """
    P = len(gt_boxes)
    assert P > 0
    if not hyps:
        return {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}
    frames = sorted({f for f, *_ in gt_boxes} | {f for f, *_ in hyps})
    points = []
    for thr in sorted({h[3] for h in hyps}, reverse=True):
        kept = [h for h in hyps if h[3] >= thr]
        prev = {}
        tp = fp = fn = ids = 0
        dist_sum = 0.0
        for f in frames:
            g = [(gid, xy) for fr, gid, xy in gt_boxes if fr == f]
            hy = [(tid, xy) for fr, tid, xy, _c in kept if fr == f]
            dtp, dfp, dfn, dids, dd = match_frame_oracle(g, hy, match_distance, prev)
            tp += dtp
            fp += dfp
            fn += dfn
            ids += dids
            dist_sum += dd
        points.append(
            {
                "thr": thr,
                "recall": tp / P,
                "ids": ids,
                "fp": fp,
                "fn": fn,
                "mean_dist": dist_sum / tp if tp else 0.0,
            }
        )
    motar_vals = []
    amotp_vals = []
    for i in range(1, n_recall_points + 1):
        r = i / n_recall_points
        feasible = [p for p in points if p["recall"] >= r - 1e-12]
        if not feasible:
            motar_vals.append(0.0)
            continue
        op = min(feasible, key=lambda p: (p["recall"], -p["thr"]))
        raw = 1.0 - (op["ids"] + op["fp"] + op["fn"] - (1.0 - r) * P) / (r * P)
        motar_vals.append(max(0.0, min(1.0, raw)))
        amotp_vals.append(op["mean_dist"])
    best = max(points, key=lambda p: (p["recall"], -p["thr"]))
    return {
        "amota": float(np.mean(motar_vals)),
        "amotp": float(np.mean(amotp_vals)) if amotp_vals else 0.0,
        "recall": float(best["recall"]),
        "ids": int(best["ids"]),
    }


def reintegrate(start, velocity, n, dt, turn_rate=0.0):
    """Step-by-step trajectory re-integration (positions only)."""
    out = np.empty((n, 2))
    x = np.array(start, dtype=float)
    v = np.array(velocity, dtype=float)
    c, s = np.cos(turn_rate * dt), np.sin(turn_rate * dt)
    for k in range(n):
        out[k] = x
        x = x + v * dt
        v = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    return out
