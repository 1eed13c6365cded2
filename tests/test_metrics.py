from __future__ import annotations

import json

import numpy as np
import pytest

from paptrack import metrics
from paptrack.metrics import (
    NO_MATCH,
    _switches,
    amota_amotp,
    build_report,
    evaluate_run,
    gated_pairs,
    level_totals,
    match_frame,
    motar,
    operating_levels,
    report_to_json,
)

from oracles import amota_amotp_loop_oracle, amota_amotp_oracle, switches_oracle
from tables import boxes


def xy(x, y):
    return np.array([float(x), float(y)])


# ---------------------------------------------------------------------------
# match_frame


def match_segment(frames, prev, match_distance=2.0):
    """match_frame on one segment: a list of (gt, hyps) frames, numbered from 0.

    `gt` is (gt_id, center) tuples and `hyps` is (track_id, center[, level])
    tuples; gt id g is row g of `prev`.
    """
    gt = [(f, g, c) for f, (frame_gt, _) in enumerate(frames) for g, c in frame_gt]
    hyps = [(f, *h) for f, (_, frame_hyps) in enumerate(frames) for h in frame_hyps]
    gt_frames = np.array([f for f, _, _ in gt], dtype=np.int64)
    gt_xy = np.array([c for _, _, c in gt], dtype=float).reshape(-1, 2)
    hyp_frames = np.array([h[0] for h in hyps], dtype=np.int64)
    hyp_xy = np.array([h[2] for h in hyps], dtype=float).reshape(-1, 2)
    return match_frame(
        gt_frames,
        np.array([g for _, g, _ in gt], dtype=np.intp),
        np.array([h[1] for h in hyps], dtype=np.int64),
        np.array([h[3] if len(h) > 3 else 0 for h in hyps], dtype=np.intp),
        *gated_pairs(gt_frames, gt_xy, hyp_frames, hyp_xy, match_distance),
        prev,
    )


def match(gt, hyps, prev, match_distance=2.0):
    """match_frame on one frame, a segment of one."""
    return match_segment([(gt, hyps)], prev, match_distance)


def unmatched(n_ids=3, n_levels=1):
    return np.full((n_ids, n_levels), NO_MATCH, dtype=np.int64)


def events(ev):
    return (ev.tp.tolist(), ev.fp.tolist(), ev.fn.tolist(), ev.ids.tolist())


def test_match_frame_perfect_overlap():
    prev = unmatched()
    ev = match([(1, xy(0, 0)), (2, xy(5, 5))], [(10, xy(0, 0)), (11, xy(5, 5))], prev)
    assert events(ev) == ([2], [0], [0], [0])
    assert ev.dist.tolist() == [[0.0]]
    assert prev[:, 0].tolist() == [NO_MATCH, 10, 11]


def test_match_frame_beyond_gate_is_fp_plus_fn():
    ev = match([(1, xy(0, 0))], [(10, xy(0, 2.5))], unmatched())
    assert events(ev) == ([0], [1], [1], [0])


def test_match_frame_empty_sides():
    ev = match([], [(10, xy(0, 0))], unmatched())
    assert events(ev)[:3] == ([0], [1], [0])
    ev = match([(1, xy(0, 0))], [], unmatched())
    assert events(ev)[:3] == ([0], [0], [1])


def test_match_frame_counts_identity_switch():
    prev = unmatched()
    match([(1, xy(0, 0))], [(7, xy(0, 0))], prev)
    ev = match([(1, xy(0, 0))], [(9, xy(0, 0))], prev)
    assert ev.ids.tolist() == [1]
    assert prev[1, 0] == 9
    # switching back counts again
    ev = match([(1, xy(0, 0))], [(7, xy(0, 0))], prev)
    assert ev.ids.tolist() == [1]


def test_match_frame_prefers_continuing_previous_match_on_tie():
    prev = unmatched()
    prev[1, 0] = 7
    # two hypotheses equidistant from the single ground truth
    ev = match([(1, xy(0, 0))], [(9, xy(1.0, 0)), (7, xy(-1.0, 0))], prev)
    assert ev.ids.tolist() == [0]
    assert prev[1, 0] == 7


def test_match_frame_keeps_a_tied_previous_match_beside_boxes_without_candidates():
    """A gt box equidistant from its previous track and another keeps the previous one, whatever else the frame holds.

    Beside the tie, 0-7 gt boxes and 0-7 hypotheses have no candidate, and
    rows and columns are shuffled.  Their entries are the solver's sentinel;
    one far above the costs (1e12, say) has float64 steps ~1e-4 wide, which
    swamp the 1e-9 continuity hair.  Points lie on a 1/8 m grid, where the
    two distances of a tie are equal.
    """
    rng = np.random.default_rng(27)
    lost = 0
    for _ in range(3000):
        center = rng.integers(-80, 81, size=2) / 8
        offsets = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]) * rng.integers(1, 16) / 8
        near = center + offsets[rng.choice(4, size=2, replace=False)]
        gt = [(0, center)] + [(g, xy(100.0 * g, 100.0)) for g in range(1, int(rng.integers(0, 8)) + 1)]
        hyps = [(7, near[0]), (9, near[1])] + [(20 + j, xy(-100.0 * j, -100.0)) for j in range(int(rng.integers(0, 8)))]
        prev = unmatched(n_ids=8)
        prev[0, 0] = 7
        ev = match([gt[i] for i in rng.permutation(len(gt))], [hyps[j] for j in rng.permutation(len(hyps))], prev)
        assert ev.tp.tolist() == [1]
        lost += int(prev[0, 0] != 7)
    assert lost == 0


def test_match_frame_hand_traced_switch_sequence():
    # gt 1 is followed by track 7 for two frames, then track 9 takes over,
    # then 9 keeps it: exactly one switch.
    prev = unmatched()
    total_ids = 0
    script = [(7, 0.0), (7, 0.1), (9, 0.0), (9, 0.1)]
    for tid, off in script:
        ev = match([(1, xy(off, 0))], [(tid, xy(off, 0))], prev)
        total_ids += int(ev.ids[0])
    assert total_ids == 1


def test_match_frame_rejects_bad_gate():
    with pytest.raises(ValueError, match="match_distance"):
        match([], [], unmatched(), match_distance=0.0)


def test_match_frame_keeps_one_matching_per_threshold_level():
    # three levels; a hypothesis of level l is kept at levels l and above
    prev = unmatched(n_levels=3)
    # gt 1 has two candidates once track 7 (level 2) is kept: the solver picks the nearer one
    first = [(1, xy(0, 0))], [(9, xy(1.5, 0), 0), (7, xy(0.5, 0), 2)]
    ev = match(*first, prev)
    assert events(ev) == ([1, 1, 1], [0, 0, 1], [0, 0, 0], [0, 0, 0])
    assert ev.dist.tolist() == [[1.5, 1.5, 0.5]]
    assert prev[1].tolist() == [9, 9, 7]
    # one candidate each: track 7 continues gt 1 only at the level that matched it before
    second = [(1, xy(0, 0)), (2, xy(10, 0))], [(7, xy(0, 0.2), 0), (8, xy(10, 1.0), 1)]
    ev = match(*second, prev)
    assert events(ev) == ([1, 2, 2], [0, 0, 0], [1, 0, 0], [1, 1, 0])
    assert ev.dist.tolist() == [[0.2, 0.2 + 1.0, 0.2 + 1.0]]
    assert prev[1:].tolist() == [[7, 7, 7], [NO_MATCH, 8, 8]]

    # each level equals a one-level call on the hypotheses it keeps
    for level in range(3):
        prev_one = unmatched()
        for gt, hyps in (first, second):
            kept = [(tid, c) for tid, c, lv in hyps if lv <= level]
            match(gt, kept, prev_one)
        assert prev_one[:, 0].tolist() == prev[:, level].tolist()


def test_match_frame_sums_each_frame_from_zero_in_gt_order():
    # twelve matches a frame, drawn so that numpy's pairwise sum rounds differently from the running sum
    rng = np.random.default_rng(4)
    gt = [(g, xy(10 * g, 0)) for g in range(12)]
    hyps = [(100 + g, c + rng.uniform(-1.0, 1.0, 2)) for g, c in gt]
    gaps = [float(np.hypot(*(h - c))) for (_, c), (_, h) in zip(gt, hyps)]
    expected = 0.0
    for gap in gaps:
        expected += gap
    ev = match(gt, hyps, unmatched(n_ids=12))
    assert ev.dist.tolist() == [[expected]]
    # the same frame made ambiguous by a farther second candidate for gt 0
    ev = match(gt, hyps + [(99, xy(0, 1.9))], unmatched(n_ids=12))
    assert events(ev)[0] == [12]
    assert ev.dist.tolist() == [[expected]]


def test_match_frame_segment_equals_its_frames_one_at_a_time():
    # two levels; gt 1 is followed by track 7, missed, then taken by track 9 (a switch at each
    # level); gt 2 is followed by track 5, kept at level 1 until frame 4 keeps it at level 0 too;
    # frame 2 holds gt only and frame 3 hypotheses only
    frames = [
        ([(1, xy(0, 0)), (2, xy(10, 0))], [(7, xy(0, 0.5), 0), (5, xy(10, 1.5), 1)]),
        ([(1, xy(0, 1)), (2, xy(10, 1))], [(5, xy(10, 1.25), 1)]),
        ([(1, xy(0, 2))], []),
        ([], [(6, xy(50, 50), 0)]),
        ([(1, xy(0, 3)), (2, xy(10, 3))], [(9, xy(0, 3.25), 0), (5, xy(10, 3), 0)]),
    ]
    prev = unmatched(n_levels=2)
    ev = match_segment(frames, prev)
    assert events(ev) == ([3, 5], [1, 1], [4, 2], [1, 1])
    assert ev.dist.tolist() == [[0.5, 0.5 + 1.5], [0.0, 0.25], [0.25, 0.25 + 0.0]]  # frames 0, 1 and 4
    # the same as one call per frame
    prev_one, totals, rows = unmatched(n_levels=2), np.zeros((4, 2), dtype=np.int64), []
    for frame in frames:
        one = match(*frame, prev_one)
        totals += np.array(events(one))
        rows += one.dist.tolist()
    assert totals.tolist() == list(events(ev))
    assert rows == ev.dist.tolist()
    assert prev.tolist() == prev_one.tolist() == [[NO_MATCH] * 2, [9, 9], [5, 5]]
    # a second candidate for gt 1 in frame 4 makes the frames no segment
    ambiguous = frames[:4] + [(frames[4][0], frames[4][1] + [(8, xy(0.5, 3), 1)])]
    with pytest.raises(ValueError, match="one frame"):
        match_segment(ambiguous, unmatched(n_levels=2))


# ---------------------------------------------------------------------------
# motar


def test_motar_perfect_is_one():
    assert motar(ids=0, fp=0, fn=0, gt_count=100, recall=1.0) == 1.0


def test_motar_hand_computed_fixture():
    # 1 - (2 + 10 + 20 - (1-0.8)*100) / (0.8*100) = 1 - 12/80 = 0.85
    assert motar(ids=2, fp=10, fn=20, gt_count=100, recall=0.8) == pytest.approx(0.85, abs=1e-12)


def test_motar_clamped_to_unit_interval():
    assert motar(ids=0, fp=500, fn=0, gt_count=10, recall=0.5) == 0.0
    assert motar(ids=0, fp=0, fn=0, gt_count=10, recall=0.5) == 1.0


def test_motar_input_validation():
    with pytest.raises(ValueError, match="gt_count"):
        motar(0, 0, 0, 0, 0.5)
    with pytest.raises(ValueError, match="recall"):
        motar(0, 0, 0, 10, 0.0)


# ---------------------------------------------------------------------------
# amota_amotp


def perfect_case(n_frames=10, n_ids=3):
    gt, hyps = [], []
    for f in range(n_frames):
        for g in range(n_ids):
            c = xy(10 * g, f)
            gt.append((f, g, "car", c, 0.0))
            hyps.append((f, 100 + g, "car", c.copy(), 0.9))
    return boxes(*gt), boxes(*hyps)


def test_perfect_tracking_scores_one():
    gt, hyps = perfect_case()
    m = amota_amotp(gt, hyps)
    assert m["amota"] == pytest.approx(1.0, abs=1e-12)
    assert m["amotp"] == pytest.approx(0.0, abs=1e-12)
    assert m["recall"] == 1.0
    assert m["ids"] == 0


def test_no_hypotheses_scores_zero():
    gt, _ = perfect_case()
    m = amota_amotp(gt, boxes())
    assert m == {"amota": 0.0, "amotp": 0.0, "recall": 0.0, "ids": 0}


def test_no_ground_truth_returns_none():
    _, hyps = perfect_case()
    assert amota_amotp(boxes(), hyps) is None


def test_amotp_reflects_constant_offset():
    gt, hyps = perfect_case()
    hyps["center"] += np.array([0.6, 0.8])  # distance exactly 1.0
    m = amota_amotp(gt, hyps)
    assert m["amotp"] == pytest.approx(1.0, abs=1e-9)
    assert m["recall"] == 1.0


def test_half_recall_hand_case_matches_formula():
    # 2 gt per frame, only one ever hypothesized, clean -> recall 0.5.
    # For targets r <= 0.5: motar = 1 - (FN - (1-r)P)/(rP) with FN = P/2.
    n_frames = 8
    gt, hyps = [], []
    for f in range(n_frames):
        gt.append((f, 1, "car", xy(0, f), 0.0))
        gt.append((f, 2, "car", xy(50, f), 0.0))
        hyps.append((f, 9, "car", xy(0, f), 0.8))
    m = amota_amotp(boxes(*gt), boxes(*hyps), n_recall_points=4)
    P = 2 * n_frames
    expected = []
    for r in (0.25, 0.5, 0.75, 1.0):
        if r <= 0.5:
            expected.append(max(0.0, min(1.0, 1.0 - (P / 2 - (1 - r) * P) / (r * P))))
        else:
            expected.append(0.0)
    assert m["amota"] == pytest.approx(float(np.mean(expected)), abs=1e-12)
    assert m["recall"] == 0.5


def test_amota_matches_independent_oracle_on_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(5):
        gt_boxes, hyps = [], []
        oracle_gt, oracle_hyps = [], []
        for f in range(6):
            for g in range(3):
                c = rng.uniform(-20, 20, 2)
                gt_boxes.append((f, g, "car", c, 0.0))
                oracle_gt.append((f, g, c))
                if rng.random() < 0.85:
                    hc = c + rng.normal(0, 0.7, 2)
                    tid = int(rng.integers(0, 4))
                    conf = round(float(rng.uniform(0.3, 1.0)), 2)
                    hyps.append((f, tid, "car", hc, conf))
                    oracle_hyps.append((f, tid, hc, conf))
        m = amota_amotp(boxes(*gt_boxes), boxes(*hyps), n_recall_points=10)
        o = amota_amotp_oracle(oracle_gt, oracle_hyps, 10, 2.0)
        assert m["amota"] == pytest.approx(o["amota"], abs=1e-9)
        assert m["amotp"] == pytest.approx(o["amotp"], abs=1e-9)
        assert m["recall"] == pytest.approx(o["recall"], abs=1e-12)
        assert m["ids"] == o["ids"]


def random_class_case(rng):
    """GT boxes and hypotheses of one class that stress the matching rules.

    Frames mix spread and dense layouts (two candidates per gt), points on
    a 0.5 m grid with hypotheses mirrored about a gt (exactly equidistant,
    so continuity breaks the tie), track ids from a small pool (switches),
    confidences rounded to 1 decimal (many ties), and frames with gt only
    or hypotheses only.
    """
    gt, hyps = [], []
    for frame in rng.permutation(int(rng.integers(1, 10))).tolist():
        layout = rng.random()
        n_gt = 0 if layout < 0.1 else int(rng.integers(1, 6))
        extent = 30.0 if layout < 0.4 else 3.0
        for gid in rng.choice(8, n_gt, replace=False).tolist():
            c = np.round(rng.uniform(-extent, extent, 2) * 2) / 2
            gt.append((frame, gid, "car", c, 0.0))
            if layout > 0.9:
                continue  # gt only
            offsets = []
            if rng.random() < 0.8:
                offsets.append(rng.normal(0, 0.8, 2))
            if rng.random() < 0.4:
                offsets.append(rng.normal(0, 1.2, 2))
            if rng.random() < 0.3:
                v = np.round(rng.uniform(-1.5, 1.5, 2) * 2) / 2
                offsets += [v, -v]
            for off in offsets:
                hyps.append((frame, int(rng.integers(0, 6)), "car", c + off, round(float(rng.uniform(0.05, 1.0)), 1)))
        for _ in range(int(rng.poisson(1.0 if n_gt else 2.0))):  # clutter
            hyps.append((frame, int(rng.integers(0, 9)), "car", rng.uniform(-extent, extent, 2), round(float(rng.random()), 1)))
    return boxes(*gt), boxes(*hyps)


def test_amota_equals_per_threshold_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    for case in range(300):
        gt, hyps = random_class_case(rng)
        n_recall_points = int(rng.integers(1, 41))
        got = amota_amotp(gt, hyps, n_recall_points=n_recall_points)
        want = amota_amotp_loop_oracle(gt, hyps, n_recall_points=n_recall_points)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), case


def test_recall_never_falls_and_bisection_finds_the_min_recall_operating_points():
    rng = np.random.default_rng(11)
    for case in range(300):
        gt, hyps = random_class_case(rng)
        if len(gt) == 0 or len(hyps) == 0:
            continue
        tp = level_totals(gt, hyps)[0]
        recall = (tp / len(gt)).tolist()
        assert all(a <= b for a, b in zip(recall, recall[1:])), case
        thresholds = np.unique(hyps["score"])[::-1].tolist()  # level t's threshold, high to low
        for n in (int(rng.integers(1, 41)), 40):
            want = []
            for i in range(1, n + 1):  # the selection of the per-threshold pass: lowest recall, then highest threshold
                achieved = [t for t in range(len(recall)) if recall[t] >= i / n - 1e-12]
                want.append(min(achieved, key=lambda t: (recall[t], -thresholds[t])) if achieved else len(recall))
            assert operating_levels(recall, n) == want, case


def steady_row_case(rng):
    """Pairs of a bulk-matched segment, in frame order, and a `prev` that differs by level.

    Most gt rows meet one track; their `prev` is NO_MATCH throughout,
    NO_MATCH at low levels and the track at high ones, the track
    throughout, or one of those with another track at one level.  Some rows
    meet two tracks.
    """
    n_rows, n_levels = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    prev = np.full((n_rows + 2, n_levels), NO_MATCH, dtype=np.int64)  # two rows no pair meets
    pairs = []
    for row in range(n_rows):
        tracks = [100 + row] if rng.random() < 0.7 else [100 + row, 200 + row]
        pairs += [(row, int(rng.choice(tracks)), int(rng.integers(0, n_levels))) for _ in range(int(rng.integers(1, 6)))]
        pattern = rng.random()
        if pattern < 0.75:
            prev[row, int(rng.integers(0, n_levels + 1)) :] = 100 + row  # from some level up; none or all at the ends
        if pattern > 0.5:
            prev[row, int(rng.integers(0, n_levels))] = 300 + row  # another track at one level
    g, tid, levels = rng.permutation(pairs).T  # the rows' pairs interleave, in frame order
    return g, tid, levels, prev


@pytest.mark.parametrize("split", [0, 1 << 62], ids=["steady-rows-set-apart", "every-row-filled"])
def test_steady_rows_switch_as_the_full_forward_fill_does(monkeypatch, split):
    monkeypatch.setattr(metrics, "STEADY_SPLIT", split)
    rng = np.random.default_rng(23)
    for case in range(500):
        g, tid, levels, prev = steady_row_case(rng)
        want_prev = prev.copy()
        want = switches_oracle(g, tid, levels, want_prev)
        assert _switches(g, tid, levels, prev).tolist() == want.tolist(), case
        assert np.array_equal(prev, want_prev), case


def long_class_case(rng):
    """GT boxes and hypotheses of one class over 20-120 frames, cut into many segments.

    gt ids persist and move smoothly on a 0.5 m grid, 12 m apart, so most
    frames are unambiguous.  A few frames are made ambiguous: always the
    first, second and last frame, plus a few at random.  There a gt box
    gets two extra hypotheses mirrored about it (exactly equidistant, so
    continuity breaks the tie), or a second gt box arrives beside it.
    Frame numbers have gaps; gt id 0 leaves for a few frames around an
    ambiguous frame and returns; some frames hold hypotheses only; track
    ids switch now and then; and some cases put every hypothesis at one
    confidence.  A frame has 0 to ~130 (gt box x hypothesis) pairs, so
    chunk budgets from 1 to 1000 pairs put chunk edges all through a case.
    """
    n_frames = int(rng.integers(20, 121))
    frames = (np.cumsum(rng.choice([1, 1, 1, 2, 5], n_frames)) + int(rng.integers(0, 3))).tolist()
    ambiguous = {0, 1, n_frames - 1} | set(rng.choice(n_frames, 5).tolist())
    hyp_only = set(rng.choice(n_frames, 2).tolist()) - ambiguous
    leave = int(rng.choice(sorted(ambiguous - {0, n_frames - 1})))
    away = range(leave - int(rng.integers(0, 3)), leave + int(rng.integers(1, 4)))
    n_ids = int(rng.integers(2, 11))
    origin = np.stack([12.0 * np.arange(n_ids), rng.uniform(-5, 5, n_ids)], axis=1)
    velocity = rng.uniform(-0.5, 0.5, (n_ids, 2))
    tids = list(range(100, 100 + n_ids))
    one_confidence = rng.random() < 0.25

    def confidence():
        return 0.5 if one_confidence else round(float(rng.uniform(0.05, 1.0)), 1)

    gt, hyps = [], []
    for i, frame in enumerate(frames):
        if i in hyp_only:
            for _ in range(2):
                hyps.append((frame, int(rng.integers(0, 200)), "car", rng.uniform(-20, 140, 2), confidence()))
            continue
        present = [g for g in range(n_ids) if not (g == 0 and i in away)]
        for g in present:
            c = np.round((origin[g] + velocity[g] * i) * 2) / 2
            gt.append((frame, g, "car", c, 0.0))
            if rng.random() < 0.03:
                tids[g] = int(rng.integers(100, 100 + 2 * n_ids))
            if rng.random() < 0.85:
                hyps.append((frame, tids[g], "car", c + rng.normal(0, 0.4, 2), confidence()))
        if i in ambiguous:
            g = int(rng.choice(present))
            c = np.round((origin[g] + velocity[g] * i) * 2) / 2
            if rng.random() < 0.7:
                v = np.round(rng.uniform(-1.5, 1.5, 2) * 2) / 2
                hyps.append((frame, int(rng.integers(100, 100 + 2 * n_ids)), "car", c + v, confidence()))
                hyps.append((frame, tids[g], "car", c - v, confidence()))
            else:
                gt.append((frame, n_ids, "car", c + np.round(rng.uniform(-1.0, 1.0, 2) * 2) / 2, 0.0))
        for _ in range(int(rng.poisson(0.5))):
            hyps.append((frame, int(rng.integers(0, 200)), "car", rng.uniform(-20, 140, 2), confidence()))
    return boxes(*gt), boxes(*hyps)


def frame_pairs(gt_frames, hyp_frames):
    """(gt box x hypothesis) pairs of each frame that has a box, in frame order; both inputs sorted."""
    frames = np.union1d(gt_frames, hyp_frames)
    return (np.searchsorted(gt_frames, frames, "right") - np.searchsorted(gt_frames, frames)) * (
        np.searchsorted(hyp_frames, frames, "right") - np.searchsorted(hyp_frames, frames)
    )


@pytest.fixture(scope="module")
def long_cases():
    """60 `long_class_case`s, each with its loop-oracle result."""
    rng = np.random.default_rng(5)
    cases = [long_class_case(rng) for _ in range(60)]
    return [(gt, hyps, json.dumps(amota_amotp_loop_oracle(gt, hyps), sort_keys=True)) for gt, hyps in cases]


@pytest.mark.parametrize("budget", [1, 7, 64, 1000, metrics.CHUNK_PAIRS])
def test_amota_equals_loop_oracle_across_segments_and_chunks(monkeypatch, long_cases, budget):
    chunks = []  # each joined chunk's frame count, (gt box x hypothesis) pairs and first frame's pairs
    join = metrics.gated_pairs

    def recording(gt_frames, gt_xy, hyp_frames, hyp_xy, match_distance):
        per_frame = frame_pairs(gt_frames, hyp_frames)
        chunks.append((len(per_frame), int(per_frame.sum()), int(per_frame[0])))
        return join(gt_frames, gt_xy, hyp_frames, hyp_xy, match_distance)

    monkeypatch.setattr(metrics, "CHUNK_PAIRS", budget)
    monkeypatch.setattr(metrics, "gated_pairs", recording)
    crowded_frames = 0  # frames whose own pairs pass the budget
    for case, (gt, hyps, want) in enumerate(long_cases):
        chunks.clear()
        assert json.dumps(amota_amotp(gt, hyps), sort_keys=True) == want, case
        # a chunk stays within the budget unless it is one frame, and closes only before a frame that would pass it
        assert all(pairs <= budget or n_frames == 1 for n_frames, pairs, _ in chunks), case
        assert all(pairs + first > budget for (_, pairs, _), (_, _, first) in zip(chunks, chunks[1:])), case
        own = frame_pairs(np.sort(gt["frame"]), np.sort(hyps["frame"]))
        assert sum(n_frames for n_frames, _, _ in chunks) == len(own), case
        assert sum(pairs > budget for _, pairs, _ in chunks) == (own > budget).sum(), case
        crowded_frames += int((own > budget).sum())
    if budget in (1, 7, 64):  # the cases reach 130 pairs a frame
        assert crowded_frames > 0


def test_result_invariant_to_input_order_and_track_relabeling():
    gt, hyps = perfect_case()
    hyps["center"] += np.array([0.3, 0.0])
    base = amota_amotp(gt, hyps)
    rng = np.random.default_rng(0)
    gt2 = gt.copy()
    hyps2 = hyps.copy()
    hyps2["id"] += 1000
    rng.shuffle(gt2)
    rng.shuffle(hyps2)
    again = amota_amotp(gt2, hyps2)
    assert again == base


def test_added_false_positives_never_raise_amota():
    gt, hyps = perfect_case()
    base = amota_amotp(gt, hyps)
    noisy = np.concatenate([hyps, boxes(*[(f, 999, "car", xy(200, 200), 0.95) for f in range(10)])])
    worse = amota_amotp(gt, noisy)
    assert worse["amota"] <= base["amota"] + 1e-12


# ---------------------------------------------------------------------------
# evaluate_run / report


def test_absent_classes_are_omitted():
    gt, hyps = perfect_case()
    per_class = evaluate_run(gt, hyps)
    assert set(per_class) == {"car"}


def test_hypotheses_never_match_across_classes():
    gt = boxes((0, 1, "car", xy(0, 0), 0.0))
    hyps = boxes((0, 5, "pedestrian", xy(0, 0), 0.9))
    per_class = evaluate_run(gt, hyps)
    assert per_class["car"]["recall"] == 0.0


def test_aggregate_means_metrics_and_sums_switches():
    per_class = {
        "car": {"amota": 0.8, "amotp": 1.0, "recall": 0.9, "ids": 10},
        "bus": {"amota": 0.4, "amotp": 2.0, "recall": 0.5, "ids": 3},
    }
    report = build_report(per_class, {"frames": 100, "wall_seconds": 2.0}, {})
    agg = report["aggregate"]
    assert agg["amota"] == pytest.approx(0.6)
    assert agg["amotp"] == pytest.approx(1.5)
    assert agg["recall"] == pytest.approx(0.7)
    assert agg["ids"] == 13
    assert report["counters"]["fps"] == pytest.approx(50.0)


def test_report_json_round_trip_and_key_set():
    gt, hyps = perfect_case()
    report = build_report(evaluate_run(gt, hyps), {"frames": 10, "wall_seconds": 0.5, "cost_evaluations": 11}, {"seed": 1})
    doc = json.loads(report_to_json(report))
    assert doc == report
    assert set(doc) == {"per_class", "aggregate", "counters", "config_echo"}
    assert set(doc["counters"]) == {"frames", "wall_seconds", "fps", "cost_evaluations"}
    for m in doc["per_class"].values():
        assert set(m) == {"amota", "amotp", "recall", "ids"}

