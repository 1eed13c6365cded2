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

`amota_amotp` evaluates every confidence threshold in one pass over a
class's frames, a chunk of frames at a time.  A chunk closes before its
(gt box x hypothesis) pairs, the pairs `gated_pairs` allocates, pass
`CHUNK_PAIRS`; a frame whose own pairs pass it is a chunk of its own.
`gated_pairs` joins a chunk's gt boxes and hypotheses into the candidate
pairs within the gate.  A frame in which a gt box or a hypothesis has two
candidates is ambiguous and is a segment of its own; the frames between
ambiguous ones are one segment, and `match_frame` returns a segment's
events.  An unambiguous segment matches every kept candidate, so its
events are counted in bulk.  There ID switches come from carrying each gt
row's previous match forward level by level; a gt row that meets one track
only, and has no other track as its previous match at any level, switches
at no level, so in a segment with more than `STEADY_SPLIT` (pair x level)
entries only the other rows are carried forward.  An ambiguous frame
solves one assignment per threshold.  Matched distances are summed from 0
in gt order within a frame and added to the total frame by frame, as a
per-threshold pass adds them, so the results equal that pass bit for bit.

Recall does not fall as the threshold falls: each level's matching has
the most pairs of the nested set of hypotheses it keeps.  So the
operating point of a recall target is the first level that reaches it,
found by bisection (`operating_levels`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from paptrack.kernels import linear_sum_assignment
from paptrack.world import CLASSES

DEFAULT_MATCH_DISTANCE = 2.0
DEFAULT_RECALL_POINTS = 40

_CONTINUITY_EPS = 1e-9


# no match yet: prev[g, t] of a gt id g never matched at threshold level t
NO_MATCH = np.iinfo(np.int64).min

# (gt box x hypothesis) pairs of the frames joined at once: bounds every temporary of an evaluation
CHUNK_PAIRS = 1 << 13

# (pair x level) entries of a switch forward fill above which steady rows skip it: below, the
# dozen numpy calls that find them cost more than they save
STEADY_SPLIT = 1 << 11


@dataclass
class SegmentEvents:
    """One segment's CLEAR-MOT events at every threshold level.

    `tp`, `fp`, `fn` and `ids` are the segment's totals, each a length-T
    array.  `dist` has one length-T row per frame of the segment that has a
    candidate pair, in frame order: the frame's matched distances, added up
    from 0 in gt order.
    """

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    ids: np.ndarray
    dist: np.ndarray


def gated_pairs(
    gt_frames: np.ndarray,
    gt_xy: np.ndarray,
    hyp_frames: np.ndarray,
    hyp_xy: np.ndarray,
    match_distance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (gt box, hypothesis) pair of one frame whose centers are within `match_distance`.

    Both tables are sorted by frame.  Returns the candidate pairs' gt
    indices, hypothesis indices and center distances, in gt order and, for
    one gt box, in hypothesis order.
    """
    if match_distance <= 0:
        raise ValueError("match_distance must be positive")
    first = np.searchsorted(hyp_frames, gt_frames, side="left")
    counts = np.searchsorted(hyp_frames, gt_frames, side="right") - first
    gt_idx = np.repeat(np.arange(len(gt_frames)), counts)
    hyp_idx = np.arange(len(gt_idx)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    d = np.hypot(gt_xy[gt_idx, 0] - hyp_xy[hyp_idx, 0], gt_xy[gt_idx, 1] - hyp_xy[hyp_idx, 1])
    inside = d <= match_distance
    return gt_idx[inside], hyp_idx[inside], d[inside]


def match_frame(
    gt_frames: np.ndarray,
    gt_rows: np.ndarray,
    hyp_ids: np.ndarray,
    hyp_levels: np.ndarray,
    pair_gt: np.ndarray,
    pair_hyp: np.ndarray,
    pair_dist: np.ndarray,
    prev: np.ndarray,
) -> SegmentEvents:
    """CLEAR-MOT events for one segment of a class's frames at every confidence threshold.

    A segment is a run of frames in which no gt box and no hypothesis has
    two candidates, or one frame.  Its gt boxes (`gt_frames`, sorted, and
    `gt_rows`, their rows in `prev`) and hypotheses (`hyp_ids`,
    `hyp_levels`) are joined by the candidate pairs of `gated_pairs`.
    Threshold level t keeps the hypotheses whose level is at most t.
    `prev` is a ``(n_gt_ids, T)`` table of the track id each gt id was last
    matched to at each level (NO_MATCH before its first match); it is
    updated in place and drives both tie continuity and ID-switch counting.
    Each frame gets, at each level, the globally optimal matching of gt
    boxes to kept hypotheses that prefers continuing the previous match on
    equal cost.  Where no box has two candidates, that matching takes every
    kept candidate and continuity cannot change it, so such frames are
    matched together without a solver.
    """
    n_levels = prev.shape[1]
    present = np.cumsum(np.bincount(hyp_levels, minlength=n_levels))
    if len(pair_gt) == 0:
        tp, ids = np.zeros(n_levels, dtype=np.int64), np.zeros(n_levels, dtype=np.int64)
        dist = np.zeros((0, n_levels))
    elif np.bincount(pair_gt).max() > 1 or np.bincount(pair_hyp).max() > 1:
        if gt_frames[0] != gt_frames[-1]:
            raise ValueError("a segment with a box of two candidates must be one frame")
        tp, ids, dist = _solve_frame(gt_rows, hyp_ids, hyp_levels, pair_gt, pair_hyp, pair_dist, prev)
    else:
        tp, ids, dist = _take_candidates(gt_frames, gt_rows, hyp_ids, hyp_levels, pair_gt, pair_hyp, pair_dist, prev)
    return SegmentEvents(tp=tp, fp=present - tp, fn=len(gt_rows) - tp, ids=ids, dist=dist)


def _solve_frame(gt_rows, hyp_ids, hyp_levels, pair_gt, pair_hyp, pair_dist, prev):
    """One frame's tp, ids and ``(1, T)`` dist, one assignment per threshold level."""
    n_levels = prev.shape[1]
    candidate = np.zeros((len(gt_rows), len(hyp_ids)), dtype=bool)
    candidate[pair_gt, pair_hyp] = True
    d = np.zeros(candidate.shape)
    d[pair_gt, pair_hyp] = pair_dist
    block = prev[gt_rows]  # the gt boxes' previous matches, as this frame finds them
    # a level that keeps no more hypotheses than the one below it and finds the same previous
    # matches poses the same assignment problem: it takes that level's matching
    solve = np.bincount(hyp_levels, minlength=n_levels) > 0
    solve[1:] |= (block[:, 1:] != block[:, :-1]).any(axis=0)
    solve[0] = True
    levels = np.flatnonzero(solve)
    levels = levels[levels >= hyp_levels[pair_hyp].min()]  # below, no kept hypothesis has a candidate
    level_of, kept = np.nonzero(hyp_levels <= levels[:, None])
    bounds = np.searchsorted(level_of, np.arange(len(levels) + 1))
    # each level's sentinel for a non-candidate: (its largest candidate distance + 1) x (min(rows, kept
    # columns) + 1), above the total of any matching of candidates and no larger, as in
    # `perception.associate`: near a far larger one (1e12, say), float64 steps are ~1e-4 wide and swamp
    # the continuity hair.  Level k keeps bounds[k + 1] - bounds[k] columns.
    top = np.where(hyp_levels[pair_hyp] <= levels[:, None], pair_dist, -np.inf).max(axis=1)
    sentinel = (top + 1.0) * (np.minimum(bounds[1:] - bounds[:-1], len(gt_rows)) + 1)
    # each level's costs: the gated distance, less a hair where it continues the previous match
    costs = np.where(
        candidate,
        np.where(block[:, levels].T[:, :, None] == hyp_ids, np.maximum(d - _CONTINUITY_EPS, 0.0), d),
        sentinel[:, None, None],
    )
    bounds = bounds.tolist()
    rows, cols = [], []
    for k in range(len(levels)):
        kept_k = kept[bounds[k] : bounds[k + 1]]
        r, c = linear_sum_assignment(costs[k][:, kept_k])
        c = kept_k[c]
        hit = candidate[r, c]
        rows.append(r[hit])
        cols.append(c[hit])
    n_matched = [len(r) for r in rows]
    level = np.repeat(levels, n_matched)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    tp = np.bincount(level, minlength=n_levels)
    # each level's distances in gt order (the solver's row order), added up from 0
    rank = np.arange(len(level)) - np.searchsorted(level, level)
    padded = np.zeros((n_levels, max(n_matched)))
    padded[level, rank] = d[rows, cols]
    dist = np.cumsum(padded, axis=1)[None, :, -1]
    # each match meets its gt id's previous match, or its earlier match at the same level
    g, tid = gt_rows[rows], hyp_ids[cols]
    order = np.lexsort((g, level))
    g, tid, level, before = g[order], tid[order], level[order], block[rows[order], level[order]]
    again = (g[1:] == g[:-1]) & (level[1:] == level[:-1])
    before[1:][again] = tid[:-1][again]
    ids = np.bincount(level[(before != NO_MATCH) & (before != tid)], minlength=n_levels)
    last = np.concatenate((~again, [True]))
    prev[g[last], level[last]] = tid[last]
    source = np.maximum.accumulate(np.where(solve, np.arange(n_levels), 0))
    prev[gt_rows] = prev[gt_rows][:, source]
    return tp[source], ids[source], dist[:, source]


def _take_candidates(gt_frames, gt_rows, hyp_ids, hyp_levels, pair_gt, pair_hyp, pair_dist, prev):
    """tp, ids and per-frame dist of frames whose every kept candidate is matched.

    Each pair is kept, and matched, from its hypothesis's level up.
    """
    levels = hyp_levels[pair_hyp]
    tp = np.cumsum(np.bincount(levels, minlength=prev.shape[1]))
    dist = _frame_sums(gt_frames[pair_gt], levels, pair_dist, prev.shape[1])
    ids = _switches(gt_rows[pair_gt], hyp_ids[pair_hyp], levels, prev)
    return tp, ids, dist


def _frame_sums(frame, levels, gap, n_levels):
    """Each frame's matched distances at every level, added up from 0 in pair order.

    The pairs are laid out by (frame, rank, level): a running sum over the
    levels keeps each pair from its own level up, and one over the ranks
    adds up a frame.  Both are `np.cumsum`, which is sequential; `np.sum`
    is pairwise and would round differently.
    """
    row = np.concatenate(([0], np.cumsum(frame[1:] != frame[:-1])))
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    padded = np.zeros((row[-1] + 1, rank.max() + 1, n_levels))
    padded[row, rank, levels] = gap
    np.cumsum(padded, axis=2, out=padded)
    np.cumsum(padded, axis=1, out=padded)
    return padded[:, -1].copy()


def _switches(g, tid, levels, prev):
    """ID switches at every level of pairs of gt row `g` and track `tid`, in frame order; updates `prev`.

    A steady gt row meets one track only, and its `prev` holds only NO_MATCH
    or that track: it switches at no level, and takes the track from the
    lowest level of its pairs up.  Above `STEADY_SPLIT` (pair x level)
    entries, steady rows are set apart and only the other rows go to
    `_forward_fill`; below it, every row does.
    """
    n_levels = prev.shape[1]
    order = np.argsort(g, kind="stable")
    g, tid, levels = g[order], tid[order], levels[order]
    if len(g) * n_levels <= STEADY_SPLIT:
        return _forward_fill(g, tid, levels, prev)
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    rows, row_tid = g[starts], tid[starts]
    seed = prev[rows]
    steady = (row_tid == np.maximum.reduceat(tid, starts)) & (row_tid == np.minimum.reduceat(tid, starts))
    steady &= ((seed == NO_MATCH) | (seed == row_tid[:, None])).all(axis=1)
    if steady.any():
        low = np.minimum.reduceat(levels, starts)[steady]
        prev[rows[steady]] = np.where(np.arange(n_levels) >= low[:, None], row_tid[steady, None], seed[steady])
        if steady.all():
            return np.zeros(n_levels, dtype=np.int64)
        rest = np.repeat(~steady, np.diff(starts, append=len(g)))
        g, tid, levels = g[rest], tid[rest], levels[rest]
    return _forward_fill(g, tid, levels, prev)


def _forward_fill(g, tid, levels, prev):
    """`_switches` of pairs sorted by gt row, each row's pairs in frame order.

    Each gt row's pairs follow a seed row that holds its `prev`; forward-filling
    the last row that holds a match gives each pair the match before it.
    """
    every_level = np.arange(prev.shape[1])
    kept = levels[:, None] <= every_level
    new = g[1:] != g[:-1]
    head, tail = np.concatenate(([True], new)), np.concatenate((new, [True]))
    at = np.arange(len(g)) + np.concatenate(([1], np.cumsum(new) + 1))
    n_rows = at[-1] + 1
    matched = np.empty((n_rows, len(every_level)), dtype=np.int64)
    matched[at[head] - 1] = prev[g[head]]
    matched[at] = tid[:, None]
    last = np.broadcast_to(np.arange(n_rows, dtype=np.int32)[:, None], matched.shape).copy()
    last[at] *= kept
    np.maximum.accumulate(last, axis=0, out=last)
    before = matched[last[at - 1], every_level]
    prev[g[head]] = matched[last[at[tail]], every_level]
    return (kept & (before != NO_MATCH) & (before != tid[:, None])).sum(axis=0)


def motar(ids: int, fp: int, fn: int, gt_count: int, recall: float) -> float:
    """Recall-normalized MOTA, clamped into [0, 1]."""
    if gt_count <= 0:
        raise ValueError("gt_count must be positive")
    if not 0.0 < recall <= 1.0:
        raise ValueError("recall must be in (0, 1]")
    value = 1.0 - (ids + fp + fn - (1.0 - recall) * gt_count) / (recall * gt_count)
    return max(0.0, min(1.0, value))


def _segments(gt_frames, gt_xy, hyp_frames, hyp_xy, match_distance):
    """Cut a class's frame-sorted boxes into the segments of `match_frame`, in frame order.

    Yields each segment's gt slice, hypothesis slice and candidate pairs
    (indices into the slices).  The frames of a chunk have at most
    `CHUNK_PAIRS` (gt box x hypothesis) pairs, unless it is one frame; a
    frame in which a gt box or a hypothesis has two candidates is a segment
    of its own, and the frames of a chunk between two such frames are one
    segment.
    """
    every_frame = np.union1d(gt_frames, hyp_frames)
    gt_bounds = np.searchsorted(gt_frames, every_frame).tolist() + [len(gt_frames)]
    hyp_bounds = np.searchsorted(hyp_frames, every_frame).tolist() + [len(hyp_frames)]
    pairs_to = np.cumsum(np.diff(gt_bounds) * np.diff(hyp_bounds)).tolist()  # the pairs of frames 0..f
    b = 0
    while b < len(every_frame):
        a = b
        b = max(a + 1, bisect.bisect_right(pairs_to, (pairs_to[a - 1] if a else 0) + CHUNK_PAIRS, lo=a))
        g0, h0 = gt_bounds[a], hyp_bounds[a]
        gf, hf = gt_frames[g0 : gt_bounds[b]], hyp_frames[h0 : hyp_bounds[b]]
        pair_gt, pair_hyp, pair_dist = gated_pairs(gf, gt_xy[g0 : gt_bounds[b]], hf, hyp_xy[h0 : hyp_bounds[b]], match_distance)
        ambiguous = np.union1d(
            gf[np.bincount(pair_gt, minlength=len(gf)) > 1], hf[np.bincount(pair_hyp, minlength=len(hf)) > 1]
        )
        at = a + np.searchsorted(every_frame[a:b], ambiguous)
        cuts = np.unique(np.concatenate([[a, b], at, at + 1])).tolist()
        pair_bounds = np.searchsorted(pair_gt, [gt_bounds[c] - g0 for c in cuts]).tolist()
        for k, (s, e) in enumerate(zip(cuts, cuts[1:])):
            p = slice(pair_bounds[k], pair_bounds[k + 1])
            yield (
                slice(gt_bounds[s], gt_bounds[e]),
                slice(hyp_bounds[s], hyp_bounds[e]),
                (pair_gt[p] - (gt_bounds[s] - g0), pair_hyp[p] - (hyp_bounds[s] - h0), pair_dist[p]),
            )


def level_totals(
    gt: np.ndarray, hyps: np.ndarray, match_distance: float = DEFAULT_MATCH_DISTANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """tp, fp, fn, ids and the sum of matched distances of one class's box tables, at every threshold level.

    Every distinct confidence is a threshold, and level t is the t-th
    highest: it keeps the hypotheses of that confidence or more.  Both
    tables are non-empty.  The frames are matched once, in frame order, for
    all thresholds together (see `match_frame`).
    """
    # boxes sorted by frame, in input order within a frame
    gt = gt[np.argsort(gt["frame"], kind="stable")]
    hyps = hyps[np.argsort(hyps["frame"], kind="stable")]
    confidences, inverse = np.unique(hyps["score"], return_inverse=True)
    n_levels = len(confidences)
    hyp_levels = n_levels - 1 - inverse  # high confidence first
    gt_frames, hyp_frames = gt["frame"], hyps["frame"]
    gt_rows = np.unique(gt["id"], return_inverse=True)[1]
    gt_xy, hyp_ids, hyp_xy = gt["center"], hyps["id"], hyps["center"]

    prev = np.full((gt_rows.max() + 1, n_levels), NO_MATCH, dtype=np.int64)
    tp, fp, fn, ids = (np.zeros(n_levels, dtype=np.int64) for _ in range(4))
    dist_sum = np.zeros(n_levels)
    for g, h, pairs in _segments(gt_frames, gt_xy, hyp_frames, hyp_xy, match_distance):
        ev = match_frame(gt_frames[g], gt_rows[g], hyp_ids[h], hyp_levels[h], *pairs, prev)
        tp += ev.tp
        fp += ev.fp
        fn += ev.fn
        ids += ev.ids
        # the frame sums join the running total one frame at a time, in frame order
        dist_sum = np.cumsum(np.concatenate([dist_sum[None], ev.dist]), axis=0)[-1]
    return tp, fp, fn, ids, dist_sum


def operating_levels(recall: list[float], n_recall_points: int) -> list[int]:
    """The operating level of each recall target i / n_recall_points, i = 1..n_recall_points.

    `recall` is each level's recall, which does not fall from one level to
    the next.  A target's level is the first whose recall reaches it (to
    within 1e-12), which has the lowest recall that does and, of equal
    recalls, the highest threshold; `len(recall)` where none does.
    """
    return [bisect.bisect_left(recall, i / n_recall_points - 1e-12) for i in range(1, n_recall_points + 1)]


def amota_amotp(
    gt: np.ndarray,
    hyps: np.ndarray,
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict | None:
    """Recall-sweep metrics for one class's box tables; None when the class has no GT."""
    if n_recall_points < 1:
        raise ValueError("n_recall_points must be >= 1")
    gt_count = len(gt)
    if gt_count == 0:
        return None
    if len(hyps) == 0:
        return {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}

    tp, fp, fn, ids, dist_sum = (a.tolist() for a in level_totals(gt, hyps, match_distance))
    recall = [n_tp / gt_count for n_tp in tp]
    motar_values = []
    amotp_values = []
    for i, t in enumerate(operating_levels(recall, n_recall_points), start=1):
        if t == len(recall):
            motar_values.append(0.0)
            continue
        motar_values.append(motar(ids[t], fp[t], fn[t], gt_count, i / n_recall_points))
        amotp_values.append(dist_sum[t] / tp[t] if tp[t] > 0 else 0.0)

    # IDS and recall at the best-recall operating point: the lowest threshold, as recall does not fall
    return {
        "amota": float(np.mean(motar_values)),
        "amotp": float(np.mean(amotp_values)) if amotp_values else 0.0,
        "recall": float(recall[-1]),
        "ids": int(ids[-1]),
    }


def evaluate_run(
    gt: np.ndarray,
    hyps: np.ndarray,
    n_recall_points: int = DEFAULT_RECALL_POINTS,
    match_distance: float = DEFAULT_MATCH_DISTANCE,
) -> dict[str, dict]:
    """Per-class recall-sweep metrics of two box tables; classes with no GT are omitted."""
    # each table's rows by class, in input order within a class; only one class's rows are copied at a time
    gt_order = np.argsort(gt["cls"], kind="stable")
    hyp_order = np.argsort(hyps["cls"], kind="stable")
    codes = np.arange(len(CLASSES) + 1)
    gt_bounds = np.searchsorted(gt["cls"][gt_order], codes).tolist()
    hyp_bounds = np.searchsorted(hyps["cls"][hyp_order], codes).tolist()
    per_class: dict[str, dict] = {}
    for code, cls in enumerate(CLASSES):
        result = amota_amotp(
            gt[gt_order[gt_bounds[code] : gt_bounds[code + 1]]],
            hyps[hyp_order[hyp_bounds[code] : hyp_bounds[code + 1]]],
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
