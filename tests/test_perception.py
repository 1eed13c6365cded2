from __future__ import annotations

import math

import numpy as np
import pytest

from paptrack.perception import (
    COASTING,
    CONFIRMED,
    PREDICTED_PRIORITY_EPS,
    TENTATIVE,
    TERMINATED,
    Assignment,
    PerceptionParams,
    QueryAssemblyPolicy,
    apply_predicted_priority,
    assemble_queries,
    associate,
    gate_costs,
    match_dtype,
    perceive,
    update_tracks,
)
from paptrack.prediction import predict_and_store
from paptrack.queries import PREDICTED, RANDOM, QueryBank, embed_center, query_dtype
from paptrack.rng import stream
from paptrack.world import CLASS_INDEX

from oracles import associate_full_oracle, brute_force_assignment, continue_deferred_oracle
from tables import boxes, centers, field_bytes, scene, sense_frame, track_table

HALF_EXTENT = 30.0


def predicted_query(track_id, center=(0.0, 0.0), cls="car", confidence=1.0):
    """A 1-row table holding one predicted query."""
    return embed_center(
        np.asarray(center, dtype=float),
        provenance=PREDICTED,
        source_track_id=track_id,
        cls=CLASS_INDEX[cls],
        confidence=confidence,
    )


def table(rows):
    """One query table from a list of tables (an empty list gives an empty table)."""
    return np.concatenate([np.empty(0, query_dtype), *rows])


def assignment_of(matches):
    """An assignment of the given ``(query, measurement, cost)`` matches."""
    return Assignment(np.array(matches, match_dtype))


def pairs(assignment):
    """The (query, measurement) pairs of an assignment's matches, in order."""
    return list(zip(assignment.matches["query"].tolist(), assignment.matches["measurement"].tolist()))


def meas(center, cls="car", frame=0):
    """One measurement row of an agent-less box table, for `boxes`."""
    return (frame, -1, cls, np.asarray(center, dtype=float), 0.9)


# ---------------------------------------------------------------------------
# assemble_queries


def test_first_frame_is_all_random():
    bank = QueryBank()
    bank.store(0, predicted_query(1))  # ignored: frame 0 never consults the bank
    qs = assemble_queries(bank, 0, QueryAssemblyPolicy(n_queries=12, rho=1.0), HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 12
    assert all(q.provenance == RANDOM for q in qs)


def test_rho_zero_is_all_random_regardless_of_bank():
    bank = QueryBank()
    bank.store(4, table([predicted_query(i) for i in range(6)]))
    qs = assemble_queries(bank, 5, QueryAssemblyPolicy(n_queries=10, rho=0.0), HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 10
    assert all(q.provenance == RANDOM for q in qs)


@pytest.mark.parametrize("n_banked, n_predicted", [(8, 5), (3, 3)])
def test_replacement_count_is_min_of_bank_and_rho_slots(n_banked, n_predicted):
    bank = QueryBank()
    bank.store(4, table([predicted_query(i) for i in range(n_banked)]))
    qs = assemble_queries(bank, 5, QueryAssemblyPolicy(n_queries=10, rho=0.5), HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 10
    assert sum(q.provenance == PREDICTED for q in qs) == n_predicted


def test_predicted_ordered_by_confidence_then_track_id():
    bank = QueryBank()
    bank.store(0, table([predicted_query(3, confidence=0.5), predicted_query(1, confidence=0.9), predicted_query(2, confidence=0.9)]))
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=4, rho=0.5), HALF_EXTENT, stream(0, "queries"))
    chosen = [q.source_track_id for q in qs if q.provenance == PREDICTED]
    assert chosen == [1, 2]


def test_output_cardinality_fixed_for_any_bank_state():
    policy = QueryAssemblyPolicy(n_queries=7, rho=0.8)
    rng = stream(1, "queries")
    for n_banked in range(0, 12):
        bank = QueryBank()
        bank.store(9, table([predicted_query(i) for i in range(n_banked)]))
        assert len(assemble_queries(bank, 10, policy, HALF_EXTENT, rng)) == 7


def test_reduced_mode_shrinks_total():
    bank = QueryBank()
    bank.store(0, table([predicted_query(i) for i in range(4)]))
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=20, rho=0.8, mode="reduced"), HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 8  # 4 predicted + (20 - floor(0.8 * 20)) random
    assert np.all(qs["provenance"][:4] == PREDICTED) and np.all(qs["provenance"][4:] == RANDOM)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, 1.0])
def test_reduced_mode_draws_the_random_share_whatever_the_bank_holds(rho):
    policy = QueryAssemblyPolicy(n_queries=10, rho=rho, mode="reduced")
    share = math.floor(rho * 10)
    rng = stream(1, "queries")
    for n_banked in range(0, 13):
        bank = QueryBank()
        bank.store(9, table([predicted_query(i) for i in range(n_banked)]))
        qs = assemble_queries(bank, 10, policy, HALF_EXTENT, rng)
        assert np.count_nonzero(qs["provenance"] == RANDOM) == 10 - share
        assert np.count_nonzero(qs["provenance"] == PREDICTED) == min(n_banked, share)
        # frame 0 never reads a bank: all N queries are random
        first = assemble_queries(bank, 0, policy, HALF_EXTENT, rng)
        assert len(first) == 10 and np.all(first["provenance"] == RANDOM)


def test_assembled_table_is_the_chosen_banked_rows_then_random_rows():
    bank = QueryBank()
    banked = table([predicted_query(i, center=(i, -i), confidence=1.0 - 0.1 * i) for i in range(6)])
    bank.store(0, banked)
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=8, rho=0.5), HALF_EXTENT, stream(0, "queries"))
    assert type(qs) is np.ndarray and qs.dtype == banked.dtype
    assert qs[:4].tobytes() == banked[:4].tobytes()
    assert np.all(qs["provenance"][4:] == RANDOM)


# ---------------------------------------------------------------------------
# gate_costs


def test_gate_cost_is_euclidean_distance():
    costs, n_eval = gate_costs(predicted_query(1, (0.0, 0.0)), boxes(meas((3.0, 4.0))), 10.0)
    assert costs[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert n_eval == 1


def test_gate_excludes_beyond_threshold():
    costs, _ = gate_costs(predicted_query(1, (0.0, 0.0)), boxes(meas((3.0, 4.0))), 4.0)
    assert np.isinf(costs[0, 0])


def test_gate_class_locking():
    q = predicted_query(1, (0.0, 0.0), cls="car")
    costs, n_eval = gate_costs(q, boxes(meas((1.0, 0.0), cls="pedestrian")), 10.0)
    assert np.isinf(costs[0, 0])
    assert n_eval == 0  # class-incompatible pairs are never evaluated


def test_gate_rejects_non_finite_query_centers():
    q = predicted_query(1)
    q["center"] = [np.nan, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        gate_costs(q, boxes(meas((0.0, 0.0))), 3.0)


def test_random_queries_match_any_class():
    rng = stream(3, "queries")
    qs = assemble_queries(QueryBank(), 0, QueryAssemblyPolicy(n_queries=1, rho=0.0), HALF_EXTENT, rng)
    center = qs[0].center
    costs, _ = gate_costs(qs, boxes(meas(center + [0.5, 0.0], cls="trailer")), 2.0)
    assert np.isfinite(costs[0, 0])


def test_gate_matrix_matches_recomputed_distances():
    rng = np.random.default_rng(5)
    qs = table([predicted_query(i, rng.uniform(-10, 10, 2)) for i in range(5)])
    ms = boxes(*[meas(rng.uniform(-10, 10, 2)) for _ in range(5)])
    costs, _ = gate_costs(qs, ms, 50.0)
    for i, q in enumerate(qs):
        for j, m in enumerate(ms):
            expected = np.linalg.norm(q.center - m["center"])
            assert costs[i, j] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# associate


def test_associate_diagonal_optimum():
    a = associate(np.array([[1.0, 10.0], [10.0, 1.0]]))
    assert pairs(a) == [(0, 0), (1, 1)]
    assert a.matches["cost"].sum() == pytest.approx(2.0)


def test_associate_beats_greedy():
    a = associate(np.array([[1.0, 2.0], [2.0, 100.0]]))
    assert pairs(a) == [(0, 1), (1, 0)]
    assert a.matches["cost"].sum() == pytest.approx(4.0)


def test_associate_respects_sentinels():
    costs = np.array([[np.inf, 3.0], [np.inf, np.inf]])
    a = associate(costs)
    assert pairs(a) == [(0, 1)]


def test_associate_no_double_assignment():
    rng = np.random.default_rng(2)
    costs = rng.uniform(0, 10, size=(6, 4))
    a = associate(costs)
    qs, ms = a.matches["query"].tolist(), a.matches["measurement"].tolist()
    assert len(set(qs)) == len(qs) == 4 and set(qs) <= set(range(6))  # every measurement matched, no query twice
    assert sorted(ms) == list(range(4))


def test_associate_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        nq = int(rng.integers(1, 7))
        nm = int(rng.integers(1, 7))
        costs = rng.uniform(0, 10, size=(nq, nm))
        costs[rng.random(size=(nq, nm)) < 0.2] = np.inf
        a = associate(costs)
        total = a.matches["cost"].sum()
        oracle_total, oracle_pairs = brute_force_assignment(costs)
        assert len(a.matches) == len(oracle_pairs)
        assert total == pytest.approx(oracle_total, abs=1e-9)


ASSOCIATE_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1)]  # then drawn shapes


def drawn_costs(case: int, discrete: bool) -> np.ndarray:
    """Cost matrix `case`, with inf and NaN entries, all-inf rows and all-inf columns.

    Uniform costs, on up to 60 × 12, almost never tie; discrete costs (0,
    0.5, 1 or 1.5), on up to 6 × 6 for the brute force, tie often.
    """
    rng = np.random.default_rng([case, discrete])
    if case < len(ASSOCIATE_SHAPES):
        nq, nm = ASSOCIATE_SHAPES[case]
    else:
        nq, nm = int(rng.integers(1, 7 if discrete else 61)), int(rng.integers(1, 7 if discrete else 13))
    costs = rng.integers(0, 4, size=(nq, nm)) * 0.5 if discrete else rng.uniform(0, 10, size=(nq, nm))
    costs[rng.random((nq, nm)) < rng.uniform(0.0, 0.9)] = np.inf
    costs[rng.random((nq, nm)) < 0.05] = np.nan
    costs[rng.random(nq) < 0.3] = np.inf
    costs[:, rng.random(nm) < 0.2] = np.inf
    return costs


def check_matching(matches, costs):
    """`matches` pair each row and each column at most once, at a finite cost that is the matrix's own."""
    q, m = matches["query"], matches["measurement"]
    assert len(set(q.tolist())) == len(q) and len(set(m.tolist())) == len(m)
    assert np.isfinite(costs[q, m]).all() and matches["cost"].tobytes() == costs[q, m].tobytes()


@pytest.mark.parametrize("case", range(200))
def test_associate_equals_the_full_matrix_oracle_byte_for_byte(case):
    """Without ties, solving only the rows with a finite cost finds the full-matrix solve's matches."""
    costs = drawn_costs(case, discrete=False)
    a = associate(costs)
    assert a.matches.dtype == match_dtype
    assert a.matches.tobytes() == associate_full_oracle(costs).tobytes()
    check_matching(a.matches, costs)


@pytest.mark.parametrize("case", range(200))
def test_associate_under_ties_has_the_full_matrix_oracles_size_and_total(case):
    """Of equally good matchings the two solves may pick different ones, of the same size and the same, least, total."""
    costs = drawn_costs(case, discrete=True)
    a, full = associate(costs), associate_full_oracle(costs)
    best_total, best_pairs = brute_force_assignment(costs)
    check_matching(a.matches, costs)
    assert len(a.matches) == len(full) == len(best_pairs)
    assert a.matches["cost"].sum() == full["cost"].sum() == best_total  # halves: every sum is exact


# ---------------------------------------------------------------------------
# update_tracks


def make_track(center=(1.0, 0.0), cls="car", frame=0, hits=2):
    """A 1-row table: track 1 with one state."""
    status = CONFIRMED if hits >= 2 else TENTATIVE
    return track_table(dict(center=center, cls=cls, frame=frame, hits=hits, status=status))


def run_update(tracks, queries, measurements, frame=1, alpha=0.7):
    params = PerceptionParams(alpha=alpha)
    costs, _ = gate_costs(queries, measurements, params.gate_threshold)
    assignment = associate(apply_predicted_priority(costs, queries))
    return update_tracks(tracks, assignment, queries, measurements, frame, params, 0.1)


def test_matched_predicted_query_blends_centers():
    tracks = run_update(make_track(center=(1.0, 0.0)), predicted_query(1, (1.0, 0.0)), boxes(meas((2.0, 0.0), frame=1)))
    assert np.allclose(centers(tracks)[0], [1.7, 0.0], atol=1e-12)
    assert tracks["hits"][0] == 3


def test_alpha_one_snaps_to_measurement():
    tracks = run_update(make_track(center=(1.0, 0.0)), predicted_query(1, (1.0, 0.0)), boxes(meas((2.0, 0.0), frame=1)), alpha=1.0)
    assert np.allclose(centers(tracks)[0], [2.0, 0.0], atol=0)


def test_unmatched_random_query_is_discarded():
    tracks = run_update(track_table(), predicted_query(1, (0.0, 0.0)), boxes())
    assert len(tracks) == 0


def test_matched_random_query_births_tentative_track():
    rng = stream(0, "queries")
    qs = assemble_queries(QueryBank(), 0, QueryAssemblyPolicy(n_queries=50, rho=0.0), 5.0, rng)
    ms = boxes(meas((0.0, 0.0), frame=0))
    tracks = run_update(track_table(), qs, ms, frame=0)
    assert len(tracks) == 1
    assert tracks["status"][0] == TENTATIVE
    assert np.array_equal(centers(tracks)[0], ms["center"][0])


def test_unmatched_track_coasts_then_terminates():
    tracks = track_table(dict(center=(0.0, 0.0), velocity=(1.0, 0.0)))
    params = PerceptionParams(max_misses=2)
    for frame in range(1, 5):
        costs, _ = gate_costs(table([]), boxes(), params.gate_threshold)
        assignment = associate(costs)
        tracks = update_tracks(tracks, assignment, table([]), boxes(), frame, params, 0.1)
        if tracks["status"][0] == TERMINATED:
            break
    assert tracks["status"][0] == TERMINATED
    assert tracks["misses"][0] == 3
    # coasted states advanced by dead reckoning and flagged
    assert tracks["frames"][0, -3:].tolist() == [0, 1, 2]
    assert tracks["coasted"][0, -3:].tolist() == [False, True, True]
    assert np.allclose(tracks["centers"][0, -2], [0.1, 0.0])


def test_terminated_tracks_stay_terminated():
    track = track_table(dict(center=(0.0, 0.0), status=TERMINATED))
    before = track.copy()
    tracks = run_update(track, predicted_query(1, (0.0, 0.0)), boxes(meas((0.0, 0.0), frame=1)))
    assert tracks["status"][0] == TERMINATED
    assert field_bytes(tracks[:1]) == field_bytes(before)  # no state appended
    assert len(tracks) == 2  # the measurement birthed a fresh track instead


def test_track_ids_never_reused():
    params = PerceptionParams()
    tracks = track_table()
    for frame in range(5):
        ms = boxes(meas((float(10 * frame), 0.0), frame=frame))
        rng = stream(frame, "queries")
        qs = assemble_queries(QueryBank(), frame, QueryAssemblyPolicy(n_queries=200, rho=0.0), HALF_EXTENT, rng)
        costs, _ = gate_costs(qs, ms, params.gate_threshold)
        assignment = associate(costs)
        before = tracks.copy()
        tracks = update_tracks(tracks, assignment, qs, ms, frame, params, 0.1)
        # a row is never removed or given to another track: each old row keeps its class, and either
        # appends a state to its own history, shifted by one, or keeps that history and its velocity as
        # they were
        assert len(tracks) >= len(before)
        old = tracks[: len(before)]
        assert np.array_equal(old["cls"], before["cls"])
        shifted = old["frames"][:, -1] == frame
        for name in ("frames", "centers", "coasted"):
            assert np.array_equal(old[name][shifted, :-1], before[name][shifted, 1:])
            assert np.array_equal(old[name][~shifted], before[name][~shifted])
        assert np.array_equal(old["velocity"][~shifted], before["velocity"][~shifted])
    assert len(tracks) > 1


def test_deferred_match_continues_nearest_free_track_lowest_id_on_ties():
    # three live tracks; tracks 1 and 3 are equally near the measurement, track 2 is nearer but
    # already updated by its own predicted query
    tracks = track_table(
        dict(center=(-1.0, 0.0)), dict(center=(0.5, 0.0)), dict(center=(1.0, 0.0)), dict(center=(0.0, 0.0), status=TERMINATED)
    )
    qs = table([predicted_query(2, (0.5, 0.0)), embed_center(np.zeros(2))])
    ms = boxes(meas((0.5, 0.1), frame=1), meas((0.0, 0.0), frame=1))
    params = PerceptionParams()
    out = update_tracks(tracks, assignment_of([(0, 0, 0.1), (1, 1, 0.0)]), qs, ms, 1, params, 0.1)
    assert len(out) == 4  # no birth: the random match continued track 1
    assert out["frames"][:, -1].tolist() == [1, 1, 1, 0]
    assert out["coasted"][:, -1].tolist() == [False, False, True, False]
    assert out["status"].tolist() == [CONFIRMED, CONFIRMED, COASTING, TERMINATED]
    assert np.array_equal(centers(out)[0], [0.0, 0.0])  # snapped to the measurement


def random_query(center):
    return embed_center(np.asarray(center, dtype=float))


def update_case(rows, queries, points, params=PerceptionParams(), classes=None):
    """(tracks, queries, measurements, matches, params): query i is matched to measurement i at frame 3.

    Measurement i has class ``classes[i]``, by default "car".
    """
    ms = boxes(*[meas(xy, cls, frame=3) for xy, cls in zip(points, classes or ["car"] * len(points))])
    return track_table(*rows), table(queries), ms, [(i, i, 0.0) for i in range(len(queries))], params


LIVE = (TENTATIVE, CONFIRMED, COASTING)
TWO_CLASSES = ("car", "pedestrian")


def drawn_update_case(case: int):
    """Case `case`: a track table of up to 10 rows and one frame's matches (some of stale or repeated predicted queries).

    Drawn by `np.random.default_rng(case)`, so a case changes only when its
    draws do.  Points lie on a half-meter grid, where distances tie exactly.
    Each row, measurement and predicted query is a car or a pedestrian,
    drawn after everything else, so that the geometry is that of the
    cases drawn when all were cars.
    """
    rng = np.random.default_rng(case)

    def point():
        return tuple(0.5 * k for k in rng.integers(-4, 5, size=2).tolist())

    rows = []
    for _ in range(int(rng.integers(0, 11))):
        frames = sorted(set(rng.integers(0, 3, size=int(rng.integers(1, 4))).tolist()))
        states = [(f, point(), point(), bool(rng.integers(2))) for f in frames]
        status = int(rng.choice(LIVE + (TERMINATED,)))
        rows.append(dict(states=states, status=status, hits=int(rng.integers(0, 4)), misses=int(rng.integers(0, 5))))
    points = [point() for _ in range(int(rng.integers(0, 9)))]
    queries = []  # (source track id, or None for a random query; center)
    for _ in points:
        source = int(rng.integers(1, len(rows) + 3)) if rng.integers(2) else None
        queries.append((source, point()))
    params = PerceptionParams(
        gate_threshold=float(rng.choice([1.0, 1.5, 3.0])),
        max_misses=int(rng.integers(0, 4)),
        confirm_threshold=int(rng.integers(1, 4)),
    )
    for row in rows:
        row["cls"] = TWO_CLASSES[rng.integers(2)]
    classes = [TWO_CLASSES[rng.integers(2)] for _ in points]
    queries = [
        random_query(xy) if source is None else predicted_query(source, xy, TWO_CLASSES[rng.integers(2)])
        for source, xy in queries
    ]
    return update_case(rows, queries, points, params, classes)


def test_drawn_update_cases_match_across_classes():
    """Most drawn cases hold a matched measurement and a live row of different classes, which a class lock must tell apart."""
    mixed = 0
    for case in range(300):
        tracks, _, measurements, _, _ = drawn_update_case(case)
        live = set(tracks["cls"][np.isin(tracks["status"], LIVE)].tolist())
        mixed += any(m != r for m in set(measurements["cls"].tolist()) for r in live)
    assert mixed >= 200  # 229 of 300


def test_drawn_and_corner_update_cases_hit_rows_with_coasted_oldest_states():
    """Many cases update a row whose oldest state is coasted, whose velocity reference is then not that state.

    Counted apart: a row whose reference is a newer, non-coasted state, and
    a row of only coasted states, whose reference is its oldest.
    """
    past_oldest = every_coasted = 0
    for tracks, queries, measurements, matches, params in [*UPDATE_CORNERS.values(), *map(drawn_update_case, range(300))]:
        n = len(tracks)
        out = update_tracks(tracks.copy(), assignment_of(matches), queries, measurements, 3, params, 0.1)
        hit = (out["frames"][:n, -1] == 3) & ~out["coasted"][:n, -1]
        coasted = tracks["coasted"][hit]
        past_oldest += bool((coasted[:, 0] & ~coasted.all(axis=1)).any())
        every_coasted += bool(coasted.all(axis=1).any())
    assert past_oldest >= 50  # 72 of 306
    assert every_coasted >= 100  # 139 of 306


UPDATE_CORNERS = {
    # terminated rows nearer to the deferred match than any live row
    "terminated_rows_nearest": update_case(
        [dict(center=(0.0, 0.0), status=TERMINATED)] * 8 + [dict(center=(2.0, 0.0)), dict(center=(1.5, 0.5))],
        [random_query((0.0, 0.0))],
        [(0.0, 0.0)],
    ),
    # the nearest row was just hit by its own predicted query
    "nearest_row_just_hit": update_case(
        [dict(center=(0.0, 0.0)), dict(center=(1.5, 0.0))],
        [predicted_query(1, (0.0, 0.0)), random_query((0.0, 0.0))],
        [(0.0, 0.0), (0.5, 0.0)],
    ),
    # exact ties between live rows with gaps in id: the lowest free id wins each time
    "ties_lowest_free_id": update_case(
        [dict(center=(0.0, 0.0), status=TERMINATED), dict(center=(-1.0, 0.0)), dict(center=(0.0, 0.0), status=TERMINATED),
         dict(center=(0.5, 0.5), status=TERMINATED), dict(center=(1.0, 0.0), status=COASTING, misses=1), dict(center=(0.0, 1.0))],
        [random_query((0.0, 0.0)), random_query((0.0, 0.0)), random_query((0.0, 0.0))],
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
    ),
    # no live rows: every deferred match is born
    "no_live_rows": update_case([], [random_query((0.0, 0.0)), predicted_query(3, (1.0, 1.0))], [(0.0, 0.0), (1.0, 1.0)]),
    # no deferred matches: hits, a coasting row and a row that terminates
    "no_deferred_matches": update_case(
        [dict(center=(0.0, 0.0)), dict(center=(1.0, 0.0), misses=1), dict(center=(2.0, 0.0), misses=3), dict(center=(3.0, 0.0))],
        [predicted_query(1, (0.0, 0.0)), predicted_query(4, (3.0, 0.0))],
        [(0.5, 0.0), (3.0, 0.5)],
    ),
    "every_row_terminated": update_case(
        [dict(center=(0.0, 0.0), status=TERMINATED)] * 4, [random_query((0.0, 0.0)), predicted_query(2, (0.0, 0.0))], [(0.0, 0.0), (0.5, 0.0)]
    ),
    # hit rows whose oldest states are coasted: the velocity reference is row 1's newest state and
    # row 2's oldest, as every state of row 2 is coasted
    "coasted_velocity_references": update_case(
        [dict(states=[(0, (0.0, 0.0), (1.0, 0.0), True), (1, (0.1, 0.0), (1.0, 0.0), True), (2, (0.5, 0.0), (4.0, 0.0), False)]),
         dict(states=[(1, (0.0, 2.0), (0.0, 1.0), True), (2, (0.0, 2.1), (0.0, 1.0), True)], status=COASTING, misses=2)],
        [predicted_query(1, (0.5, 0.0)), predicted_query(2, (0.0, 2.0))],
        [(1.0, 0.0), (0.0, 2.5)],
    ),
}


@pytest.mark.parametrize(
    "case",
    [pytest.param(case, id=name) for name, case in UPDATE_CORNERS.items()]
    + [pytest.param(drawn_update_case(case), id=f"case{case}") for case in range(300)],
)
def test_update_tracks_equals_all_rows_oracle_byte_for_byte(case):
    tracks, queries, measurements, matches, params = case
    assignment = assignment_of(matches)
    want = continue_deferred_oracle(tracks.copy(), assignment, queries, measurements, 3, params, 0.1)
    got = update_tracks(tracks.copy(), assignment, queries, measurements, 3, params, 0.1)
    assert got.dtype == want.dtype and len(got) == len(want)
    assert field_bytes(got) == field_bytes(want)


def test_associate_returns_matches_in_query_order():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nq, nm = (int(k) for k in rng.integers(1, 12, size=2))
        costs = rng.uniform(0, 10, size=(nq, nm))
        costs[rng.random(size=(nq, nm)) < 0.3] = np.inf
        rows = associate(costs).matches["query"].tolist()
        assert rows == sorted(set(rows))


# ---------------------------------------------------------------------------
# closed loop / perceive


def close_loop_noise_free(n_frames=10, velocity=(1.0, 0.0), dt=0.1):
    """Single agent, exact sensor, recycled queries; returns the track table and every detection."""
    from paptrack.world import SensorConfig

    scenario = scene(("car", (0.0, 0.0), velocity), frame_count=n_frames, dt=dt)
    sensor = SensorConfig(position_noise_sigma=0.0, miss_probability=0.0, clutter_rate=0.0)
    sensor_rng = stream(21, "sensor")
    query_rng = stream(21, "queries")
    bank = QueryBank()
    tracks = track_table()
    detections = []  # one box table per frame
    policy = QueryAssemblyPolicy(n_queries=300, rho=0.8)
    params = PerceptionParams()
    for frame in range(n_frames):
        ms = sense_frame(scenario, frame, sensor, sensor_rng)
        result = perceive(ms, bank, tracks, policy, params, 10.0, query_rng, frame, dt)
        tracks = result.tracks
        detections.append(result.detections)
        predict_and_store(tracks, bank, frame, dt)
    return scenario, tracks, np.concatenate(detections)


def test_noise_free_closed_loop_tracks_ground_truth():
    scenario, tracks, detections = close_loop_noise_free()
    assert len(tracks) == 1  # no duplicate births
    assert tracks["ever_confirmed"][0]
    # one detection of the track in every frame: each frame was matched, none coasted
    assert list(zip(detections["frame"].tolist(), detections["id"].tolist())) == [(frame, 1) for frame in range(10)]
    agent = scenario.agents[0]
    for d in detections:
        assert np.max(np.abs(d["center"] - agent.states[d["frame"] - agent.spawn, 0:2])) < 1e-9


def test_perceive_empty_inputs():
    result = perceive(
        boxes(), QueryBank(), track_table(), QueryAssemblyPolicy(n_queries=5, rho=0.5), PerceptionParams(), HALF_EXTENT,
        stream(0, "queries"), 0, 0.1,
    )
    assert len(result.tracks) == 0
    assert len(result.detections) == 0


def test_perceive_equals_manual_composition():
    bank = QueryBank()
    bank.store(0, predicted_query(1, (1.0, 0.0)))
    track = make_track(center=(1.0, 0.0))
    ms = boxes(meas((1.2, 0.0), frame=1), meas((5.0, 5.0), cls="pedestrian", frame=1))
    policy = QueryAssemblyPolicy(n_queries=6, rho=0.5)
    params = PerceptionParams()
    result = perceive(ms, bank, track.copy(), policy, params, HALF_EXTENT, stream(9, "queries"), 1, 0.1)

    # manual composition with an identical query stream
    qs = assemble_queries(bank, 1, policy, HALF_EXTENT, stream(9, "queries"))
    costs, _ = gate_costs(qs, ms, params.gate_threshold)
    assignment = associate(apply_predicted_priority(costs, qs))
    manual_tracks = update_tracks(track.copy(), assignment, qs, ms, 1, params, 0.1)

    assert pairs(result.assignment) == pairs(assignment)
    assert len(result.tracks) == len(manual_tracks)
    assert np.array_equal(result.tracks["status"], manual_tracks["status"])
    assert np.array_equal(centers(result.tracks), centers(manual_tracks))
    assert field_bytes(result.tracks) == field_bytes(manual_tracks)


def full_matrix_priority(costs, queries, eps):
    """The priority adjustment written over the whole matrix: every finite cost of a predicted row, less eps, clamped at 0."""
    out = costs.copy()
    where = (queries["provenance"] == PREDICTED)[:, None] & np.isfinite(costs)
    np.copyto(out, np.maximum(costs - eps, 0.0), where=where)
    return out


@pytest.mark.parametrize(
    "predicted_rows",
    [[], [0, 1, 2], [3, 7, 8], [1, 4, 9], list(range(10))],
    ids=["none", "head", "not-head", "scattered", "all"],
)
def test_predicted_priority_equals_the_full_matrix_formula_bit_for_bit(predicted_rows):
    eps = PREDICTED_PRIORITY_EPS
    rng = np.random.default_rng(7)
    costs = rng.uniform(0.0, 3.0, size=(10, 6))
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, 0] = [0.0, 5e-7, 1e-6, 2e-6, np.inf, 0.0, 3e-7, 1e-6, 0.5, np.inf]  # below, at and above eps
    queries = np.zeros(10, query_dtype)
    queries["provenance"] = RANDOM
    queries["provenance"][predicted_rows] = PREDICTED
    before = costs.copy()
    adjusted = apply_predicted_priority(costs, queries)
    assert adjusted is costs  # edited in place: the gate's matrix is fresh and read by nothing else
    assert adjusted.tobytes() == full_matrix_priority(before, queries, eps).tobytes()
    assert adjusted.min() >= 0.0 and np.array_equal(np.isinf(adjusted), np.isinf(before))


def test_predicted_priority_wins_cost_ties():
    # a predicted and a random query at the same center
    q_pred = predicted_query(1, (0.0, 0.0))
    q_rand = embed_center(np.zeros(2))
    ms = boxes(meas((1.0, 0.0), frame=1))
    params = PerceptionParams()
    qs = table([q_rand, q_pred])
    costs, _ = gate_costs(qs, ms, params.gate_threshold)
    assignment = associate(apply_predicted_priority(costs, qs))
    assert pairs(assignment) == [(1, 0)]


def test_predicted_priority_wins_ties_beside_measurements_without_a_candidate():
    # 256 queries x 13 measurements, as a suite frame: some measurements have no candidate, so the
    # solver takes non-finite entries, and the predicted query 0 ties a random query for measurement j
    queries = np.zeros(256, query_dtype)
    queries["provenance"] = RANDOM
    queries["provenance"][0] = PREDICTED
    rng = np.random.default_rng(0)
    for case in range(300):
        costs = np.full((256, 13), np.inf)
        for col in range(13):
            if rng.random() < 0.3:
                continue  # a measurement without a candidate
            rows = rng.choice(np.arange(2, 256), int(rng.integers(1, 30)), replace=False)
            costs[rows, col] = rng.uniform(0.0, 3.0, len(rows))
        j, rival = int(rng.integers(13)), int(rng.integers(1, 256))
        costs[:, j] = np.inf
        costs[[0, rival], j] = rng.uniform(0.0, 3.0)  # measurement j's only candidates, at one cost
        matches = associate(apply_predicted_priority(costs, queries)).matches
        assert matches["query"][matches["measurement"] == j].tolist() == [0], case
