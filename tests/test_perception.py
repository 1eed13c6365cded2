from __future__ import annotations

import itertools

import numpy as np
import pytest

from paptrack.perception import (
    CONFIRMED,
    TERMINATED,
    PerceptionParams,
    QueryAssemblyPolicy,
    Track,
    apply_predicted_priority,
    assemble_queries,
    associate,
    gate_costs,
    perceive,
    update_tracks,
)
from paptrack.prediction import PredictorConfig, predict_and_store
from paptrack.queries import PREDICTED, RANDOM, CodecConfig, QueryBank, decode_reference, embed_center
from paptrack.rng import stream
from paptrack.world import Measurement

from oracles import brute_force_assignment

CODEC = CodecConfig(dim=16, scale=1.0 / 30.0)
HALF_EXTENT = 30.0


def predicted_query(track_id, center=(0.0, 0.0), cls="car", confidence=1.0):
    return embed_center(
        np.asarray(center, dtype=float),
        np.zeros(14),
        CODEC,
        provenance=PREDICTED,
        source_track_id=track_id,
        horizon_step=1,
        cls=cls,
        confidence=confidence,
    )


def meas(center, cls="car", frame=0):
    return Measurement(frame=frame, center=np.asarray(center, dtype=float), cls=cls, score=0.9)


# ---------------------------------------------------------------------------
# assemble_queries


def test_first_frame_is_all_random():
    bank = QueryBank()
    bank.store(0, [predicted_query(1)])  # ignored: frame 0 never consults the bank
    qs = assemble_queries(bank, 0, QueryAssemblyPolicy(n_queries=12, rho=1.0), CODEC, HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 12
    assert all(q.provenance == RANDOM for q in qs)


def test_rho_zero_is_all_random_regardless_of_bank():
    bank = QueryBank()
    bank.store(4, [predicted_query(i) for i in range(6)])
    qs = assemble_queries(bank, 5, QueryAssemblyPolicy(n_queries=10, rho=0.0), CODEC, HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 10
    assert all(q.provenance == RANDOM for q in qs)


@pytest.mark.parametrize("n_banked, n_predicted", [(8, 5), (3, 3)])
def test_replacement_count_is_min_of_bank_and_rho_slots(n_banked, n_predicted):
    bank = QueryBank()
    bank.store(4, [predicted_query(i) for i in range(n_banked)])
    qs = assemble_queries(bank, 5, QueryAssemblyPolicy(n_queries=10, rho=0.5), CODEC, HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 10
    assert sum(q.provenance == PREDICTED for q in qs) == n_predicted


def test_predicted_ordered_by_confidence_then_track_id():
    bank = QueryBank()
    bank.store(0, [predicted_query(3, confidence=0.5), predicted_query(1, confidence=0.9), predicted_query(2, confidence=0.9)])
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=4, rho=0.5), CODEC, HALF_EXTENT, stream(0, "queries"))
    chosen = [q.source_track_id for q in qs if q.provenance == PREDICTED]
    assert chosen == [1, 2]


def test_output_cardinality_fixed_for_any_bank_state():
    policy = QueryAssemblyPolicy(n_queries=7, rho=0.8)
    rng = stream(1, "queries")
    for n_banked in range(0, 12):
        bank = QueryBank()
        bank.store(9, [predicted_query(i) for i in range(n_banked)])
        assert len(assemble_queries(bank, 10, policy, CODEC, HALF_EXTENT, rng)) == 7


def test_reduced_mode_shrinks_total():
    bank = QueryBank()
    bank.store(0, [predicted_query(i) for i in range(4)])
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=20, rho=0.8, mode="reduced"), CODEC, HALF_EXTENT, stream(0, "queries"))
    assert len(qs) == 16  # 4 predicted + (20 - 2*4) random
    assert sum(q.provenance == PREDICTED for q in qs) == 4


# ---------------------------------------------------------------------------
# gate_costs


def test_gate_cost_is_euclidean_distance():
    costs, n_eval = gate_costs([predicted_query(1, (0.0, 0.0))], [meas((3.0, 4.0))], 10.0, CODEC)
    assert costs[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert n_eval == 1


def test_gate_excludes_beyond_threshold():
    costs, _ = gate_costs([predicted_query(1, (0.0, 0.0))], [meas((3.0, 4.0))], 4.0, CODEC)
    assert np.isinf(costs[0, 0])


def test_gate_class_locking():
    q = predicted_query(1, (0.0, 0.0), cls="car")
    costs, n_eval = gate_costs([q], [meas((1.0, 0.0), cls="pedestrian")], 10.0, CODEC)
    assert np.isinf(costs[0, 0])
    assert n_eval == 0  # class-incompatible pairs are never evaluated


def test_random_queries_match_any_class():
    rng = stream(3, "queries")
    qs = assemble_queries(QueryBank(), 0, QueryAssemblyPolicy(n_queries=1, rho=0.0), CODEC, HALF_EXTENT, rng)
    center = decode_reference(qs[0], CODEC)
    costs, _ = gate_costs(qs, [meas(center + [0.5, 0.0], cls="trailer")], 2.0, CODEC)
    assert np.isfinite(costs[0, 0])


def test_gate_matrix_matches_recomputed_distances():
    rng = np.random.default_rng(5)
    qs = [predicted_query(i, rng.uniform(-10, 10, 2)) for i in range(5)]
    ms = [meas(rng.uniform(-10, 10, 2)) for _ in range(5)]
    costs, _ = gate_costs(qs, ms, 50.0, CODEC)
    for i, q in enumerate(qs):
        for j, m in enumerate(ms):
            expected = np.linalg.norm(decode_reference(q, CODEC) - m.center)
            assert costs[i, j] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# associate


def test_associate_diagonal_optimum():
    a = associate(np.array([[1.0, 10.0], [10.0, 1.0]]))
    assert [(m[0], m[1]) for m in a.matches] == [(0, 0), (1, 1)]
    assert sum(m[2] for m in a.matches) == pytest.approx(2.0)


def test_associate_beats_greedy():
    a = associate(np.array([[1.0, 2.0], [2.0, 100.0]]))
    assert [(m[0], m[1]) for m in a.matches] == [(0, 1), (1, 0)]
    assert sum(m[2] for m in a.matches) == pytest.approx(4.0)


def test_associate_respects_sentinels():
    costs = np.array([[np.inf, 3.0], [np.inf, np.inf]])
    a = associate(costs)
    assert [(m[0], m[1]) for m in a.matches] == [(0, 1)]
    assert a.unmatched_queries == [1]
    assert a.unmatched_measurements == [0]


def test_associate_no_double_assignment():
    rng = np.random.default_rng(2)
    costs = rng.uniform(0, 10, size=(6, 4))
    a = associate(costs)
    qs = [m[0] for m in a.matches] + a.unmatched_queries
    ms = [m[1] for m in a.matches] + a.unmatched_measurements
    assert sorted(qs) == list(range(6))
    assert sorted(ms) == list(range(4))


def test_associate_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        nq = int(rng.integers(1, 7))
        nm = int(rng.integers(1, 7))
        costs = rng.uniform(0, 10, size=(nq, nm))
        costs[rng.random(size=(nq, nm)) < 0.2] = np.inf
        a = associate(costs)
        total = sum(m[2] for m in a.matches)
        oracle_total, oracle_pairs = brute_force_assignment(costs)
        assert len(a.matches) == len(oracle_pairs)
        assert total == pytest.approx(oracle_total, abs=1e-9)


# ---------------------------------------------------------------------------
# update_tracks


def make_track(track_id=1, center=(1.0, 0.0), cls="car", frame=0, hits=2):
    t = Track(track_id=track_id, cls=cls, tail=np.arange(14, dtype=float))
    t.append_state(frame, np.asarray(center, dtype=float), np.zeros(2), coasted=False)
    t.hits = hits
    if hits >= 2:
        t.ever_confirmed = True
        t.status = CONFIRMED
    return t


def run_update(tracks, queries, measurements, frame=1, alpha=0.7):
    params = PerceptionParams(alpha=alpha)
    costs, _ = gate_costs(queries, measurements, params.gate_threshold, CODEC)
    assignment = associate(apply_predicted_priority(costs, queries, params.predicted_priority_eps))
    ids = itertools.count(100).__next__
    return update_tracks(tracks, assignment, queries, measurements, frame, params, 0.1, CODEC, ids)


def test_matched_predicted_query_blends_centers():
    track = make_track(center=(1.0, 0.0))
    tracks = run_update([track], [predicted_query(1, (1.0, 0.0))], [meas((2.0, 0.0), frame=1)])
    assert np.allclose(tracks[0].center, [1.7, 0.0], atol=1e-12)
    assert tracks[0].hits == 3


def test_alpha_one_snaps_to_measurement():
    track = make_track(center=(1.0, 0.0))
    tracks = run_update([track], [predicted_query(1, (1.0, 0.0))], [meas((2.0, 0.0), frame=1)], alpha=1.0)
    assert np.allclose(tracks[0].center, [2.0, 0.0], atol=0)


def test_unmatched_random_query_is_discarded():
    tracks = run_update([], [predicted_query(1, (0.0, 0.0))] , [])
    assert tracks == []


def test_matched_random_query_births_tentative_track():
    rng = stream(0, "queries")
    qs = assemble_queries(QueryBank(), 0, QueryAssemblyPolicy(n_queries=50, rho=0.0), CODEC, 5.0, rng)
    m = meas((0.0, 0.0), frame=0)
    tracks = run_update([], qs, [m], frame=0)
    assert len(tracks) == 1
    assert tracks[0].status == "tentative"
    assert np.array_equal(tracks[0].center, m.center)


def test_unmatched_track_coasts_then_terminates():
    track = make_track(center=(0.0, 0.0))
    track.velocities[-1] = np.array([1.0, 0.0])
    params = PerceptionParams(max_misses=2)
    ids = itertools.count(100).__next__
    for frame in range(1, 5):
        costs, _ = gate_costs([], [], params.gate_threshold, CODEC)
        assignment = associate(costs)
        update_tracks([track], assignment, [], [], frame, params, 0.1, CODEC, ids)
        if track.status == TERMINATED:
            break
    assert track.status == TERMINATED
    assert track.misses == 3
    # coasted states advanced by dead reckoning and flagged
    assert track.coasted[1:] == [True, True]
    assert np.allclose(track.centers[1], [0.1, 0.0])


def test_terminated_tracks_stay_terminated():
    track = make_track(center=(0.0, 0.0))
    track.status = TERMINATED
    tracks = run_update([track], [predicted_query(1, (0.0, 0.0))], [meas((0.0, 0.0), frame=1)])
    assert track.status == TERMINATED
    assert len(track.frames) == 1  # no state appended
    assert len(tracks) == 2  # the measurement birthed a fresh track instead


def test_track_ids_never_reused():
    ids = itertools.count(100).__next__
    params = PerceptionParams()
    seen = set()
    tracks = []
    for frame in range(5):
        ms = [meas((float(10 * frame), 0.0), frame=frame)]
        rng = stream(frame, "queries")
        qs = assemble_queries(QueryBank(), frame, QueryAssemblyPolicy(n_queries=200, rho=0.0), CODEC, HALF_EXTENT, rng)
        costs, _ = gate_costs(qs, ms, params.gate_threshold, CODEC)
        assignment = associate(costs)
        tracks = update_tracks(tracks, assignment, qs, ms, frame, params, 0.1, CODEC, ids)
        for t in tracks:
            seen.add(t.track_id)
    assert len(seen) == len({t.track_id for t in tracks} | seen)


# ---------------------------------------------------------------------------
# closed loop / perceive


def close_loop_noise_free(n_frames=10, velocity=(1.0, 0.0), dt=0.1):
    """Single agent, exact sensor, recycled queries; returns the track list."""
    from paptrack.world import ScenarioConfig, SensorConfig, generate_scenario, sense

    cfg = ScenarioConfig(
        frame_count=n_frames,
        dt=dt,
        world_half_extent=10.0,
        explicit_agents=[{"class": "car", "start": [0.0, 0.0], "velocity": list(velocity)}],
    )
    scenario = generate_scenario(cfg, seed=21)
    sensor = SensorConfig(position_noise_sigma=0.0, miss_probability=0.0, clutter_rate=0.0)
    codec = CodecConfig(dim=16, scale=1.0 / 10.0)
    sensor_rng = stream(21, "sensor")
    query_rng = stream(21, "queries")
    bank = QueryBank()
    tracks = []
    ids = itertools.count(1).__next__
    policy = QueryAssemblyPolicy(n_queries=300, rho=0.8)
    params = PerceptionParams()
    predictor = PredictorConfig(dt=dt)
    for frame in range(n_frames):
        ms = sense(scenario, frame, sensor, sensor_rng)
        result = perceive(ms, bank, tracks, policy, params, codec, 10.0, query_rng, frame, dt, ids)
        tracks = result.tracks
        predict_and_store(tracks, bank, frame, predictor, codec)
    return scenario, tracks


def test_noise_free_closed_loop_tracks_ground_truth():
    scenario, tracks = close_loop_noise_free()
    confirmed = [t for t in tracks if t.ever_confirmed]
    assert len(confirmed) == 1
    assert len(tracks) == 1  # no duplicate births
    track = confirmed[0]
    agent = scenario.agents[0]
    for frame, center, coasted in zip(track.frames, track.centers, track.coasted):
        assert not coasted
        assert np.max(np.abs(center - agent.state_at(frame)[0:2])) < 1e-9


def test_perceive_empty_inputs():
    result = perceive(
        [], QueryBank(), [], QueryAssemblyPolicy(n_queries=5, rho=0.5), PerceptionParams(), CODEC, HALF_EXTENT,
        stream(0, "queries"), 0, 0.1, itertools.count(1).__next__,
    )
    assert result.tracks == []
    assert result.detections == []


def test_perceive_equals_manual_composition():
    import copy

    bank = QueryBank()
    bank.store(0, [predicted_query(1, (1.0, 0.0))])
    track = make_track(center=(1.0, 0.0))
    ms = [meas((1.2, 0.0), frame=1), meas((5.0, 5.0), cls="pedestrian", frame=1)]
    policy = QueryAssemblyPolicy(n_queries=6, rho=0.5)
    params = PerceptionParams()
    ids_a = itertools.count(100).__next__
    result = perceive(ms, bank, [copy.deepcopy(track)], policy, params, CODEC, HALF_EXTENT, stream(9, "queries"), 1, 0.1, ids_a)

    # manual composition with an identical query stream
    qs = assemble_queries(bank, 1, policy, CODEC, HALF_EXTENT, stream(9, "queries"))
    costs, _ = gate_costs(qs, ms, params.gate_threshold, CODEC)
    assignment = associate(apply_predicted_priority(costs, qs, params.predicted_priority_eps))
    ids_b = itertools.count(100).__next__
    manual_tracks = update_tracks([copy.deepcopy(track)], assignment, qs, ms, 1, params, 0.1, CODEC, ids_b)

    assert [(m[0], m[1]) for m in result.assignment.matches] == [(m[0], m[1]) for m in assignment.matches]
    assert len(result.tracks) == len(manual_tracks)
    for ta, tb in zip(sorted(result.tracks, key=lambda t: t.track_id), sorted(manual_tracks, key=lambda t: t.track_id)):
        assert ta.track_id == tb.track_id
        assert ta.status == tb.status
        assert np.array_equal(ta.center, tb.center)


def test_predicted_priority_wins_cost_ties():
    # a predicted and a random query at the same decoded center
    q_pred = predicted_query(1, (0.0, 0.0))
    q_rand = embed_center(np.zeros(2), np.zeros(14), CODEC)
    ms = [meas((1.0, 0.0), frame=1)]
    params = PerceptionParams()
    costs, _ = gate_costs([q_rand, q_pred], ms, params.gate_threshold, CODEC)
    assignment = associate(apply_predicted_priority(costs, [q_rand, q_pred], params.predicted_priority_eps))
    assert [(m[0], m[1]) for m in assignment.matches] == [(1, 0)]
