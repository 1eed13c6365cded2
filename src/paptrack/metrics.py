"""Tracking evaluation: per-class AMOTA / AMOTP / Recall / IDS.

Frame events follow the CLEAR-MOT protocol with a center-distance gate
(default 2.0 m) and globally optimal per-frame matching that prefers
continuing the previous match on equal cost.  AMOTA is the mean of
recall-normalized MOTA over a sweep of recall targets:

    MOTAR(r) = clamp01(1 - (IDS_r + FP_r + FN_r - (1-r) * P) / (r * P))

AMOTP is the mean matched-center distance averaged over the achieved
recall points; IDS is reported at the best-recall operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from paptrack.world import CLASSES

DEFAULT_MATCH_DISTANCE = 2.0
DEFAULT_RECALL_POINTS = 40

_BIG = 1e12
_CONTINUITY_EPS = 1e-9


@dataclass
class FrameEvents:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    ids: int = 0
    tp_distances: list[float] = field(default_factory=list)


@dataclass
class GtBox:
    frame: int
    gt_id: int
    cls: str
    center: np.ndarray


@dataclass
class Hypothesis:
    frame: int
    track_id: int
    cls: str
    center: np.ndarray
    confidence: float


def match_frame(
    gt: list[tuple[int, np.ndarray]],
    hyps: list[tuple[int, np.ndarray]],
    match_distance: float,
    prev_matches: dict[int, int],
) -> FrameEvents:
    """CLEAR-MOT events for one frame (single class).

    `gt` is (gt_id, center) pairs, `hyps` is (track_id, center) pairs.
    `prev_matches` maps gt_id -> track id of its most recent match; it is
    updated in place and also drives both tie continuity and ID-switch
    counting.
    """
    if match_distance <= 0:
        raise ValueError("match_distance must be positive")
    events = FrameEvents()
    ng, nh = len(gt), len(hyps)
    if ng == 0 or nh == 0:
        events.fp = nh
        events.fn = ng
        return events
    costs = np.full((ng, nh), np.inf)
    for i, (gid, gxy) in enumerate(gt):
        for j, (tid, hxy) in enumerate(hyps):
            d = float(np.hypot(gxy[0] - hxy[0], gxy[1] - hxy[1]))
            if d <= match_distance:
                c = d
                if prev_matches.get(gid) == tid:
                    c = max(d - _CONTINUITY_EPS, 0.0)
                costs[i, j] = c
    finite = np.isfinite(costs)
    if not finite.any():
        events.fp = nh
        events.fn = ng
        return events
    rows, cols = linear_sum_assignment(np.where(finite, costs, _BIG))
    for i, j in zip(rows, cols):
        if not finite[i, j]:
            continue
        gid, gxy = gt[i]
        tid, hxy = hyps[j]
        events.tp += 1
        events.tp_distances.append(float(np.hypot(gxy[0] - hxy[0], gxy[1] - hxy[1])))
        if gid in prev_matches and prev_matches[gid] != tid:
            events.ids += 1
        prev_matches[gid] = tid
    events.fp = nh - events.tp
    events.fn = ng - events.tp
    return events


def motar(ids: int, fp: int, fn: int, gt_count: int, recall: float) -> float:
    """Recall-normalized MOTA, clamped into [0, 1]."""
    if gt_count <= 0:
        raise ValueError("gt_count must be positive")
    if not 0.0 < recall <= 1.0:
        raise ValueError("recall must be in (0, 1]")
    value = 1.0 - (ids + fp + fn - (1.0 - recall) * gt_count) / (recall * gt_count)
    return max(0.0, min(1.0, value))


def _accumulate(
    gt_by_frame: dict[int, list[tuple[int, np.ndarray]]],
    hyp_by_frame: dict[int, list[tuple[int, np.ndarray]]],
    match_distance: float,
) -> tuple[int, int, int, int, float]:
    """Totals (tp, fp, fn, ids, sum of matched distances) over all frames."""
    prev: dict[int, int] = {}
    tp = fp = fn = ids = 0
    dist_sum = 0.0
    for frame in sorted(set(gt_by_frame) | set(hyp_by_frame)):
        ev = match_frame(gt_by_frame.get(frame, []), hyp_by_frame.get(frame, []), match_distance, prev)
        tp += ev.tp
        fp += ev.fp
        fn += ev.fn
        ids += ev.ids
        dist_sum += sum(ev.tp_distances)
    return tp, fp, fn, ids, dist_sum


def amota_amotp(
    gt: list[GtBox],
    hyps: list[Hypothesis],
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict | None:
    """Recall-sweep metrics for one class; None when the class has no GT."""
    if n_recall_points < 1:
        raise ValueError("n_recall_points must be >= 1")
    gt_count = len(gt)
    if gt_count == 0:
        return None
    gt_by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
    for g in gt:
        gt_by_frame.setdefault(g.frame, []).append((g.gt_id, g.center))
    if not hyps:
        return {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}

    thresholds = sorted({h.confidence for h in hyps}, reverse=True)
    operating_points = []
    for thr in thresholds:
        hyp_by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
        for h in hyps:
            if h.confidence >= thr:
                hyp_by_frame.setdefault(h.frame, []).append((h.track_id, h.center))
        tp, fp, fn, ids, dist_sum = _accumulate(gt_by_frame, hyp_by_frame, match_distance)
        recall = tp / gt_count
        mean_dist = dist_sum / tp if tp > 0 else 0.0
        operating_points.append(
            {"threshold": thr, "tp": tp, "fp": fp, "fn": fn, "ids": ids, "recall": recall, "mean_dist": mean_dist}
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
        motar_values.append(motar(op["ids"], op["fp"], op["fn"], gt_count, target))
        amotp_values.append(op["mean_dist"])

    best = max(operating_points, key=lambda o: (o["recall"], -o["threshold"]))
    return {
        "amota": float(np.mean(motar_values)),
        "amotp": float(np.mean(amotp_values)) if amotp_values else 0.0,
        "recall": float(best["recall"]),
        "ids": int(best["ids"]),
    }


def evaluate_run(
    gt: list[GtBox],
    hyps: list[Hypothesis],
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict[str, dict]:
    """Per-class recall-sweep metrics; classes with no GT are omitted."""
    per_class: dict[str, dict] = {}
    for cls in CLASSES:
        result = amota_amotp(
            [g for g in gt if g.cls == cls],
            [h for h in hyps if h.cls == cls],
            n_recall_points=n_recall_points,
            match_distance=match_distance,
        )
        if result is not None:
            per_class[cls] = result
    return per_class


def build_report(per_class: dict[str, dict], counters: dict, config_echo: dict) -> dict:
    """Assemble the normative report: per-class metrics, aggregate, counters."""
    if per_class:
        aggregate = {
            "amota": float(np.mean([m["amota"] for m in per_class.values()])),
            "amotp": float(np.mean([m["amotp"] for m in per_class.values()])),
            "recall": float(np.mean([m["recall"] for m in per_class.values()])),
            # per-class switch counts add up, matching the benchmark convention
            "ids": int(sum(m["ids"] for m in per_class.values())),
        }
    else:
        aggregate = {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}
    frames = counters.get("frames", 0)
    wall = counters.get("wall_seconds", 0.0)
    out_counters = {
        "frames": int(frames),
        "wall_seconds": float(wall),
        "fps": float(frames / wall) if wall > 0 else 0.0,
        "query_refinements": int(counters.get("query_refinements", 0)),
        "cost_evaluations": int(counters.get("cost_evaluations", 0)),
    }
    return {
        "per_class": {cls: dict(per_class[cls]) for cls in sorted(per_class)},
        "aggregate": aggregate,
        "counters": out_counters,
        "config_echo": config_echo,
    }


def report_to_json(report: dict) -> str:
    import json

    return json.dumps(report, indent=2, sort_keys=True)


def report_to_csv_rows(report: dict) -> list[tuple[str, str, float]]:
    """One row per (class, metric), aggregate last."""
    rows: list[tuple[str, str, float]] = []
    for cls in sorted(report["per_class"]):
        for metric in ("amota", "amotp", "recall", "ids"):
            rows.append((cls, metric, report["per_class"][cls][metric]))
    for metric in ("amota", "amotp", "recall", "ids"):
        rows.append(("aggregate", metric, report["aggregate"][metric]))
    return rows
