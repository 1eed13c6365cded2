"""Independent reference implementations used as test oracles.

These deliberately share no code with the package: assignment is solved
by exhaustive permutation, the recall sweep is re-derived straight from
the metric formula, trajectories are re-integrated step by step, and the
gate kernel is recomputed pair by pair.  `amota_amotp_loop_oracle` is the
evaluation the package used before it matched all thresholds in one pass:
one full CLEAR-MOT pass per threshold, pair by pair.
`integrate_states_oracle` is the numpy loop the scenario generator used
before it stepped in Python floats.  `continue_deferred_oracle` is the
track update as it was when deferred matches searched every row of the
track table, and `sense_oracle` the sensor as it was when clutter was
drawn one box at a time.  `associate_full_oracle` is the assignment as it
was when the solver saw every row of the cost matrix.  `measurement_hash_oracle` hashes a run's
measurements frame by frame, as the frame loop once did.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
from scipy.optimize import linear_sum_assignment

from paptrack.world import CLASS_INDEX, CLASSES, box_dtype

CONTINUITY_EPS = 1e-9
NO_MATCH = np.iinfo(np.int64).min  # prev[g, t] of a gt row never matched at level t
ANY_CLASS = -1
PREDICTED = 1  # query provenance code
TENTATIVE, CONFIRMED, COASTING, TERMINATED = range(4)  # track status codes
MATCH_DTYPE = np.dtype([("query", np.intp), ("measurement", np.intp), ("cost", np.float64)])  # one match of an assignment


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


def associate_full_oracle(costs: np.ndarray) -> np.ndarray:
    """`perception.associate`'s matches, from a solve over every row of `costs`.

    Returns the matches as ``(query, measurement, cost)`` rows of
    `MATCH_DTYPE`, in query order.  Each non-finite cost is a sentinel above
    the total of any matching of finite costs, taken from the whole matrix.
    """
    nq, nm = costs.shape
    finite = np.isfinite(costs)
    if not finite.any():
        return np.zeros(0, MATCH_DTYPE)
    top = costs[finite].max()
    rows, cols = linear_sum_assignment(np.where(finite, costs, (top + 1.0) * (min(nq, nm) + 1)))
    keep = finite[rows, cols]
    rows, cols = rows[keep], cols[keep]
    matches = np.empty(len(rows), MATCH_DTYPE)
    matches["query"], matches["measurement"], matches["cost"] = rows, cols, costs[rows, cols]
    return matches


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


def _match_frame_loop(gt, hyps, match_distance, prev_matches):
    """One frame's (tp, fp, fn, ids, matched distances) at one threshold.

    `gt` is (gt_id, center) pairs, `hyps` is (track_id, center) pairs;
    `prev_matches` maps gt_id -> track id of its most recent match and is
    updated in place.
    """
    ng, nh = len(gt), len(hyps)
    if ng == 0 or nh == 0:
        return 0, nh, ng, 0, []
    costs = np.full((ng, nh), np.inf)
    top = -np.inf  # the largest candidate distance
    for i, (gid, gxy) in enumerate(gt):
        for j, (tid, hxy) in enumerate(hyps):
            d = float(np.hypot(gxy[0] - hxy[0], gxy[1] - hxy[1]))
            if d <= match_distance:
                top = max(top, d)
                c = d
                if prev_matches.get(gid) == tid:
                    c = max(d - CONTINUITY_EPS, 0.0)
                costs[i, j] = c
    finite = np.isfinite(costs)
    if not finite.any():
        return 0, nh, ng, 0, []
    # a non-candidate costs more than any matching of candidates, and no more than that needs
    rows, cols = linear_sum_assignment(np.where(finite, costs, (top + 1.0) * (min(ng, nh) + 1)))
    tp = ids = 0
    distances = []
    for i, j in zip(rows, cols):
        if not finite[i, j]:
            continue
        gid, gxy = gt[i]
        tid, hxy = hyps[j]
        tp += 1
        distances.append(float(np.hypot(gxy[0] - hxy[0], gxy[1] - hxy[1])))
        if gid in prev_matches and prev_matches[gid] != tid:
            ids += 1
        prev_matches[gid] = tid
    return tp, nh - tp, ng - tp, ids, distances


def _accumulate_loop(gt_by_frame, hyp_by_frame, match_distance):
    """Totals (tp, fp, fn, ids, sum of matched distances) over all frames."""
    prev = {}
    tp = fp = fn = ids = 0
    dist_sum = 0.0
    for frame in sorted(set(gt_by_frame) | set(hyp_by_frame)):
        f_tp, f_fp, f_fn, f_ids, distances = _match_frame_loop(
            gt_by_frame.get(frame, []), hyp_by_frame.get(frame, []), match_distance, prev
        )
        tp += f_tp
        fp += f_fp
        fn += f_fn
        ids += f_ids
        dist_sum += sum(distances)
    return tp, fp, fn, ids, dist_sum


def switches_oracle(g, tid, levels, prev):
    """ID switches at every level of pairs that are all matched, one pair and one level at a time.

    Pair k (gt row `g[k]`, track `tid[k]`, the pairs in frame order) is
    matched at every level from `levels[k]` up.  There it is a switch when
    its gt row's previous match at that level is another track; then it
    becomes that previous match.  `prev` is updated in place.
    """
    n_levels = prev.shape[1]
    ids = np.zeros(n_levels, dtype=np.int64)
    for row, track, low in zip(g.tolist(), tid.tolist(), levels.tolist()):
        for t in range(low, n_levels):
            before = int(prev[row, t])
            if before != NO_MATCH and before != track:
                ids[t] += 1
            prev[row, t] = track
    return ids


def amota_amotp_loop_oracle(gt, hyps, n_recall_points=40, match_distance=2.0):
    """`metrics.amota_amotp` by one CLEAR-MOT pass over all frames per threshold.

    Takes the same box tables, reads them one row at a time, and must give
    the same result bit for bit.
    """
    gt_count = len(gt)
    if gt_count == 0:
        return None
    gt_by_frame = {}
    for g in gt:
        gt_by_frame.setdefault(int(g["frame"]), []).append((int(g["id"]), g["center"]))
    if len(hyps) == 0:
        return {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}
    operating_points = []
    for thr in sorted({float(h["score"]) for h in hyps}, reverse=True):
        hyp_by_frame = {}
        for h in hyps:
            if h["score"] >= thr:
                hyp_by_frame.setdefault(int(h["frame"]), []).append((int(h["id"]), h["center"]))
        tp, fp, fn, ids, dist_sum = _accumulate_loop(gt_by_frame, hyp_by_frame, match_distance)
        operating_points.append(
            {"threshold": thr, "fp": fp, "fn": fn, "ids": ids, "recall": tp / gt_count,
             "mean_dist": dist_sum / tp if tp > 0 else 0.0}
        )
    motar_values = []
    amotp_values = []
    for i in range(1, n_recall_points + 1):
        target = i / n_recall_points
        achieved = [op for op in operating_points if op["recall"] >= target - 1e-12]
        if not achieved:
            motar_values.append(0.0)
            continue
        op = min(achieved, key=lambda o: (o["recall"], -o["threshold"]))
        value = 1.0 - (op["ids"] + op["fp"] + op["fn"] - (1.0 - target) * gt_count) / (target * gt_count)
        motar_values.append(max(0.0, min(1.0, value)))
        amotp_values.append(op["mean_dist"])
    best = max(operating_points, key=lambda o: (o["recall"], -o["threshold"]))
    return {
        "amota": float(np.mean(motar_values)),
        "amotp": float(np.mean(amotp_values)) if amotp_values else 0.0,
        "recall": float(best["recall"]),
        "ids": int(best["ids"]),
    }


def recompute_cost_evaluations(path) -> list[int]:
    """Independent per-frame recount of class-compatible (query, measurement) pairs in a dump."""
    per_frame = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] != "frame":
                continue
            n = 0
            for q in rec["queries"]:
                for m in rec["measurements"]:
                    if q["class"] is None or q["class"] == m["class"]:
                        n += 1
            per_frame.append(n)
    return per_frame


def integrate_states_oracle(x0, v0, n, dt, turn_rate):
    """`world.integrate_states` as a loop of numpy steps: ``(n, 5)`` states x, y, vx, vy, yaw."""
    states = np.empty((n, 5))
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    c, s = np.cos(turn_rate * dt), np.sin(turn_rate * dt)
    for k in range(n):
        states[k, 0:2] = x
        states[k, 2:4] = v
        states[k, 4] = np.arctan2(v[1], v[0])
        x = x + v * dt
        v = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    return states


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


def forecast_oracle(centers, velocities, horizon, dt):
    """One track's ``(horizon, 2)`` constant-velocity forecast from its state history, oldest first."""
    c = centers[-1]
    v = velocities[-1]
    steps = np.arange(1, horizon + 1)[:, None]
    return c[None, :] + steps * dt * v[None, :]


def continue_deferred_oracle(tracks, assignment, queries, measurements, frame, params, dt):
    """`perception.update_tracks` with the deferred search over every row of the table.

    Each deferred match gets a distance to every row, and the rows that are
    terminated, already updated this frame or out of the gate are masked to
    +inf before the argmin.
    """
    if len(tracks) and tracks["frames"][:, -1].max() >= frame:
        raise ValueError("track state frames must be strictly increasing")
    nq, nm = len(queries), len(measurements)
    if not all(0 <= qi < nq and 0 <= mj < nm for qi, mj, _cost in assignment.matches):
        raise ValueError("assignment references out-of-range indices")
    pairs = np.array([(qi, mj) for qi, mj, _cost in assignment.matches], dtype=np.intp).reshape(-1, 2)
    n = len(tracks)
    raw = np.dtype((np.void, tracks.dtype.itemsize))
    matched = np.asarray(queries)[pairs[:, 0]]
    m_xy = measurements["center"][pairs[:, 1]]
    live = tracks["status"] != TERMINATED

    first, deferred = {}, []
    is_live = live.tolist()
    predicted = (matched["provenance"] == PREDICTED).tolist()
    for i, row in enumerate((matched["source_track_id"] - 1).tolist()):
        if predicted[i] and 0 <= row < n and is_live[row] and row not in first:
            first[row] = i
        else:
            deferred.append(i)
    hit_rows = np.array(list(first), dtype=np.intp)
    by_prediction = list(first.values())
    xy = matched["center"]
    if not np.isfinite(xy).all():
        raise ValueError("non-finite query centers")
    q_xy = xy[by_prediction]
    hit_centers = (1.0 - params.alpha) * q_xy + params.alpha * m_xy[by_prediction]

    free = live.copy()
    free[hit_rows] = False
    diff = tracks["centers"][None, :, -1] - m_xy[deferred][:, None, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    d[~(free & (d <= params.gate_threshold))] = np.inf
    continued, born = [], []
    for k, i in enumerate(deferred):
        j = int(d[k].argmin()) if n else 0
        if n and d[k, j] < np.inf:
            d[:, j] = np.inf
            continued.append((j, i))
        else:
            born.append(i)
    if continued:
        more_rows, snapped = np.array(continued).T
        hit_rows = np.concatenate([hit_rows, more_rows])
        hit_centers = np.concatenate([hit_centers, m_xy[snapped]])

    idle = free
    idle[hit_rows] = False
    idle_rows = idle.nonzero()[0]
    coasting = tracks["misses"][idle_rows] < params.max_misses
    rows = np.concatenate([hit_rows, idle_rows[coasting], idle_rows[~coasting]])
    h, c = len(hit_rows), len(hit_rows) + int(np.count_nonzero(coasting))
    sub = tracks.view(raw)[rows].view(tracks.dtype)

    ref = (np.arange(h), np.argmax(~sub["coasted"][:h], axis=1))
    span = (frame - sub["frames"][ref]) * dt
    moved = hit_centers - sub["centers"][ref]
    hit_velocities = moved / span[:, None] if dt > 0 else np.zeros_like(moved)

    sub["hits"][:h] += 1
    sub["misses"][:h] = 0
    sub["ever_confirmed"][:h] |= sub["hits"][:h] >= params.confirm_threshold
    sub["status"][:h] = np.where(sub["ever_confirmed"][:h], CONFIRMED, TENTATIVE)
    sub["hits"][h:] = 0
    sub["misses"][h:] += 1
    sub["status"][h:c] = COASTING
    sub["status"][c:] = TERMINATED

    coast_v = sub["velocity"][h:c]
    centers = np.concatenate([hit_centers, sub["centers"][h:c, -1] + coast_v * dt])
    sub["velocity"][:c] = np.concatenate([hit_velocities, coast_v])
    for name, value in (("frames", frame), ("centers", centers), ("coasted", np.arange(c) >= h)):
        history = sub[name]
        history[:c, :-1] = history[:c, 1:]
        history[:c, -1] = value
    tracks.view(raw)[rows] = sub.view(raw)

    if not born:
        return tracks
    tracks = np.concatenate([tracks.view(raw), np.zeros(len(born), raw)]).view(tracks.dtype)
    newborn = tracks[n:]
    newborn["cls"] = measurements["cls"][pairs[born, 1]]
    newborn["hits"] = 1
    newborn["ever_confirmed"] = 1 >= params.confirm_threshold
    newborn["status"] = np.where(newborn["ever_confirmed"], CONFIRMED, TENTATIVE)
    newborn["frames"] = frame
    newborn["centers"] = m_xy[born, None, :]
    return tracks


def sense_oracle(scenario, frame, sensor, rng):
    """`world.sense` with the clutter boxes drawn and written one box at a time.

    Makes the same generator calls in the same order, so it leaves the
    generator in the same state.
    """
    if not 0 <= frame < scenario.frame_count:
        raise IndexError(f"frame {frame} out of range [0, {scenario.frame_count})")
    ego_xy = scenario.ego[frame, 0:2]
    live = [agent for agent in scenario.agents if agent.spawn <= frame < agent.despawn]
    pos = np.array([agent.states[frame - agent.spawn, 0:2] for agent in live], dtype=float).reshape(-1, 2)
    seen, draws = [], []
    for i, dist in enumerate(np.hypot(pos[:, 0] - ego_xy[0], pos[:, 1] - ego_xy[1]).tolist()):
        if dist > sensor.detection_range:
            continue
        if rng.random() < sensor.miss_probability:
            continue
        draws.append(rng.standard_normal(2))
        seen.append(i)
    out = np.zeros(len(seen) + int(rng.poisson(sensor.clutter_rate)), box_dtype)
    out["frame"] = frame
    observed, clutter = out[: len(seen)], out[len(seen) :]
    observed["id"] = [live[i].agent_id for i in seen]
    observed["cls"] = [CLASS_INDEX[live[i].cls] for i in seen]
    observed["center"] = pos[seen] + (0.0 + sensor.position_noise_sigma * np.array(draws, dtype=float).reshape(-1, 2))
    clutter["id"] = -1
    for box in clutter:
        r = sensor.detection_range * np.sqrt(rng.random())
        theta = rng.random() * 2.0 * np.pi
        box["center"] = ego_xy + r * np.array([np.cos(theta), np.sin(theta)])
        box["cls"] = rng.integers(len(CLASSES))
        rng.random()  # the unread fourth draw
    return out


_HASH_ROW = np.dtype([("center", np.float64, (2,)), ("cls", np.int64)])  # packed: 24 bytes a measurement


def measurement_hash_oracle(measured, frame_count):
    """sha256 hex digest of a frame-sorted measurement table, fed one frame at a time.

    Each frame feeds its number, then each measurement's center and class
    code, in one `update`.
    """
    hasher = hashlib.sha256()
    bounds = np.searchsorted(measured["frame"], np.arange(frame_count + 1)).tolist()
    for frame in range(frame_count):
        measurements = measured[bounds[frame] : bounds[frame + 1]]
        rows = np.empty(len(measurements), _HASH_ROW)
        rows["center"] = measurements["center"]
        rows["cls"] = measurements["cls"]
        hasher.update(np.int64(frame).tobytes() + rows.tobytes())
    return hasher.hexdigest()
