"""Tracking evaluation: per-class AMOTA / AMOTP / Recall / IDS.

Frame events follow the CLEAR-MOT protocol with a center-distance gate
(default 2.0 m) and globally optimal per-frame matching that prefers
continuing the previous match on equal cost.  AMOTA is the mean of
recall-normalized MOTA over a sweep of recall targets:

    MOTAR(r) = clamp01(1 - (IDS_r + FP_r + FN_r - (1-r) * P) / (r * P))

AMOTP is the mean matched-center distance averaged over the achieved
recall points; IDS is reported at the best-recall operating point.

Ground truth and hypotheses are box tables (`world.box_dtype`): a gt
box's `id` is its agent id, a hypothesis's `id` is its track id and its
`score` is its confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from paptrack.world import CLASSES

DEFAULT_MATCH_DISTANCE = 2.0
DEFAULT_RECALL_POINTS = 40

_BIG = 1e12
_CONTINUITY_EPS = 1e-9


# no match yet: prev[g, t] of a gt id g never matched at threshold level t
NO_MATCH = np.iinfo(np.int64).min


@dataclass
class FrameEvents:
    """One frame's CLEAR-MOT events at every threshold level, each a length-T array.

    `dist` is the sum of the matched distances, added up from 0 in gt order.
    """

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    ids: np.ndarray
    dist: np.ndarray


def match_frame(
    gt_rows: np.ndarray,
    gt_xy: np.ndarray,
    hyp_ids: np.ndarray,
    hyp_xy: np.ndarray,
    hyp_levels: np.ndarray,
    match_distance: float,
    prev: np.ndarray,
) -> FrameEvents:
    """CLEAR-MOT events for one frame (single class) at every confidence threshold.

    Threshold level t keeps the hypotheses whose level is at most t.
    `gt_rows` are the gt boxes' rows in `prev`, a ``(n_gt_ids, T)`` table
    of the track id each gt id was last matched to at each level (NO_MATCH
    before its first match); it is updated in place and drives both tie
    continuity and ID-switch counting.  Each level gets the globally
    optimal matching of gt boxes to kept hypotheses within `match_distance`
    that prefers continuing the previous match on equal cost.
    """
    if match_distance <= 0:
        raise ValueError("match_distance must be positive")
    n_levels = prev.shape[1]
    tp = np.zeros(n_levels, dtype=np.int64)
    ids = np.zeros(n_levels, dtype=np.int64)
    dist = np.zeros(n_levels)
    d = np.hypot(gt_xy[:, None, 0] - hyp_xy[:, 0], gt_xy[:, None, 1] - hyp_xy[:, 1])
    candidate = d <= match_distance
    rows, cols = candidate.nonzero()  # in gt order
    if len(rows) == np.count_nonzero(candidate.any(axis=0)) == np.count_nonzero(candidate.any(axis=1)):
        # no gt and no hypothesis has two candidates, so the optimal matching at a level takes
        # every candidate whose hypothesis is kept, and continuity cannot change it
        for i, j in zip(rows.tolist(), cols.tolist()):
            level, tid = hyp_levels[j], hyp_ids[j]
            last = prev[gt_rows[i], level:]
            tp[level:] += 1
            dist[level:] += d[i, j]
            ids[level:] += (last != NO_MATCH) & (last != tid)
            last[:] = tid
    else:
        for t in range(n_levels):
            kept = np.flatnonzero(hyp_levels <= t)
            cand, dk = candidate[:, kept], d[:, kept]
            if not cand.any():
                continue
            costs = np.where(cand, dk, _BIG)
            continuing = cand & (prev[gt_rows, t][:, None] == hyp_ids[kept])
            costs[continuing] = np.maximum(dk[continuing] - _CONTINUITY_EPS, 0.0)
            frame_dist = 0.0
            for i, j in zip(*linear_sum_assignment(costs)):
                if not cand[i, j]:
                    continue
                g, tid = gt_rows[i], hyp_ids[kept[j]]
                tp[t] += 1
                frame_dist += dk[i, j]
                if prev[g, t] != NO_MATCH and prev[g, t] != tid:
                    ids[t] += 1
                prev[g, t] = tid
            dist[t] = frame_dist
    present = np.cumsum(np.bincount(hyp_levels, minlength=n_levels))
    return FrameEvents(tp=tp, fp=present - tp, fn=len(gt_rows) - tp, ids=ids, dist=dist)


def motar(ids: int, fp: int, fn: int, gt_count: int, recall: float) -> float:
    """Recall-normalized MOTA, clamped into [0, 1]."""
    if gt_count <= 0:
        raise ValueError("gt_count must be positive")
    if not 0.0 < recall <= 1.0:
        raise ValueError("recall must be in (0, 1]")
    value = 1.0 - (ids + fp + fn - (1.0 - recall) * gt_count) / (recall * gt_count)
    return max(0.0, min(1.0, value))


def _frame_slices(frames: np.ndarray, every_frame: np.ndarray) -> list[slice]:
    """The slice of the sorted `frames` that holds each of `every_frame`."""
    starts = np.searchsorted(frames, every_frame, side="left").tolist()
    ends = np.searchsorted(frames, every_frame, side="right").tolist()
    return [slice(a, b) for a, b in zip(starts, ends)]


def amota_amotp(
    gt: np.ndarray,
    hyps: np.ndarray,
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict | None:
    """Recall-sweep metrics for one class's box tables; None when the class has no GT.

    Every distinct confidence is a threshold.  The frames are matched once,
    in frame order, for all thresholds together (see `match_frame`).
    """
    if n_recall_points < 1:
        raise ValueError("n_recall_points must be >= 1")
    gt_count = len(gt)
    if gt_count == 0:
        return None
    if len(hyps) == 0:
        return {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}

    # boxes sorted by frame, in input order within a frame
    gt = gt[np.argsort(gt["frame"], kind="stable")]
    hyps = hyps[np.argsort(hyps["frame"], kind="stable")]
    confidences, inverse = np.unique(hyps["score"], return_inverse=True)
    thresholds = confidences[::-1].tolist()  # high to low
    n_levels = len(thresholds)
    hyp_levels = n_levels - 1 - inverse  # the index of each hypothesis's confidence in thresholds
    gt_frames, hyp_frames = gt["frame"], hyps["frame"]
    gt_rows = np.unique(gt["id"], return_inverse=True)[1]
    gt_xy, hyp_ids, hyp_xy = gt["center"], hyps["id"], hyps["center"]

    prev = np.full((gt_rows.max() + 1, n_levels), NO_MATCH, dtype=np.int64)
    tp, fp, fn, ids = (np.zeros(n_levels, dtype=np.int64) for _ in range(4))
    dist_sum = np.zeros(n_levels)
    every_frame = np.union1d(gt_frames, hyp_frames)
    for g, h in zip(_frame_slices(gt_frames, every_frame), _frame_slices(hyp_frames, every_frame)):
        ev = match_frame(gt_rows[g], gt_xy[g], hyp_ids[h], hyp_xy[h], hyp_levels[h], match_distance, prev)
        tp += ev.tp
        fp += ev.fp
        fn += ev.fn
        ids += ev.ids
        dist_sum += ev.dist

    operating_points = [
        {"threshold": thr, "tp": n_tp, "fp": n_fp, "fn": n_fn, "ids": n_ids, "recall": n_tp / gt_count,
         "mean_dist": d / n_tp if n_tp > 0 else 0.0}
        for thr, n_tp, n_fp, n_fn, n_ids, d in zip(thresholds, tp.tolist(), fp.tolist(), fn.tolist(), ids.tolist(), dist_sum.tolist())
    ]

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
    gt: np.ndarray,
    hyps: np.ndarray,
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict[str, dict]:
    """Per-class recall-sweep metrics of two box tables; classes with no GT are omitted."""
    # each table sorted by class, in input order within a class
    gt = gt[np.argsort(gt["cls"], kind="stable")]
    hyps = hyps[np.argsort(hyps["cls"], kind="stable")]
    codes = np.arange(len(CLASSES) + 1)
    gt_bounds = np.searchsorted(gt["cls"], codes).tolist()
    hyp_bounds = np.searchsorted(hyps["cls"], codes).tolist()
    per_class: dict[str, dict] = {}
    for code, cls in enumerate(CLASSES):
        result = amota_amotp(
            gt[gt_bounds[code] : gt_bounds[code + 1]],
            hyps[hyp_bounds[code] : hyp_bounds[code + 1]],
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
