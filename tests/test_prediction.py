from __future__ import annotations

import numpy as np
import pytest

from paptrack.perception import CONFIRMED, TENTATIVE, TERMINATED, Track
from paptrack.prediction import (
    CONSTANT_TURN,
    CONSTANT_VELOCITY,
    Forecast,
    PredictorConfig,
    forecast,
    predict_and_store,
    queries_from_forecast,
)
from paptrack.queries import PREDICTED, CodecConfig, QueryBank, decode_reference

CODEC = CodecConfig(dim=16, scale=1.0 / 30.0)


def make_track(track_id=1, center=(0.0, 0.0), velocity=(1.0, 0.0), frame=0, status=CONFIRMED):
    t = Track(track_id=track_id, cls="car", tail=np.full(14, float(track_id)))
    t.append_state(frame, np.asarray(center, dtype=float), np.asarray(velocity, dtype=float), coasted=False)
    t.hits = 3
    t.ever_confirmed = True
    t.status = status
    return t


def test_constant_velocity_extrapolation_exact():
    track = make_track(center=(0.0, 0.0), velocity=(10.0, 0.0))
    f = forecast(track, PredictorConfig(horizon=3, dt=0.1))
    assert np.allclose(f.points, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], atol=0)


def test_zero_velocity_stays_put():
    track = make_track(velocity=(0.0, 0.0))
    f = forecast(track, PredictorConfig(horizon=6, dt=0.1))
    assert np.array_equal(f.points, np.zeros((6, 2)))


def test_forecast_rejects_terminated_track():
    track = make_track(status=TERMINATED)
    with pytest.raises(ValueError, match="terminated"):
        forecast(track, PredictorConfig())


def test_constant_turn_traces_circular_arc():
    # A body turning at constant rate omega with speed s moves on a circle of
    # radius s/omega.  Forward-Euler with per-step velocity rotation gives a
    # polygonal arc: step h lands at the analytic sum of rotated chords.
    omega = 0.5
    dt = 0.1
    speed = 2.0
    track = make_track(center=(0.0, 0.0), velocity=(speed, 0.0), frame=1)
    # give the track a velocity history that implies the turn rate
    prev_v = np.array([speed * np.cos(-omega * dt), speed * np.sin(-omega * dt)])
    track.frames.insert(0, 0)
    track.centers.insert(0, np.array([-prev_v[0] * dt, -prev_v[1] * dt]))
    track.velocities.insert(0, prev_v)
    track.coasted.insert(0, False)

    cfg = PredictorConfig(horizon=8, dt=dt, model=CONSTANT_TURN)
    f = forecast(track, cfg)

    # analytic chord sum: x_h = sum_{j=0}^{h-1} R(j*omega*dt) v0 dt
    v0 = np.array([speed, 0.0])
    x = np.zeros(2)
    for h in range(8):
        ang = h * omega * dt
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        x = x + rot @ v0 * dt
        assert np.max(np.abs(f.points[h] - x)) < 1e-9

    # sanity: the turning forecast bends away from the straight-line tangent
    straight = forecast(track, PredictorConfig(horizon=8, dt=dt, model=CONSTANT_VELOCITY))
    assert np.linalg.norm(f.points[-1] - straight.points[-1]) > 0.01


def test_constant_turn_error_grows_with_horizon_against_true_circle():
    omega = 0.8
    dt = 0.1
    speed = 3.0
    radius = speed / omega
    track = make_track(center=(0.0, 0.0), velocity=(speed, 0.0), frame=1)
    prev_v = np.array([speed * np.cos(-omega * dt), speed * np.sin(-omega * dt)])
    track.frames.insert(0, 0)
    track.centers.insert(0, np.array([0.0, 0.0]) - prev_v * dt)
    track.velocities.insert(0, prev_v)
    track.coasted.insert(0, False)

    f = forecast(track, PredictorConfig(horizon=10, dt=dt, model=CONSTANT_TURN))
    errors = []
    for h in range(1, 11):
        theta = omega * h * dt
        true_point = np.array([radius * np.sin(theta), radius * (1.0 - np.cos(theta))])
        errors.append(np.linalg.norm(f.points[h - 1] - true_point))
    # discretization error of the polygonal arc is monotone in horizon
    assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))
    # first-order Euler error bound: ~ 0.5 * speed * omega * T * dt = 0.12 at T=1s
    assert errors[-1] < 0.5 * speed * omega * 1.0 * dt * 1.05


def test_queries_from_forecast_round_trip():
    f = Forecast(track_id=9, points=np.array([[1.5, -2.0]]), model=CONSTANT_VELOCITY, confidence=0.75)
    tail = np.arange(14, dtype=float)
    (q,) = queries_from_forecast(f, tail, PredictorConfig(horizon=1), CODEC)
    assert q.provenance == PREDICTED
    assert q.source_track_id == 9
    assert q.horizon_step == 1
    assert q.confidence == 0.75
    assert np.max(np.abs(decode_reference(q, CODEC) - [1.5, -2.0])) < 1e-9


def test_tail_carried_slot_for_slot():
    tail = np.linspace(-3.0, 3.0, 14)
    f = Forecast(track_id=1, points=np.array([[0.0, 0.0]]), model=CONSTANT_VELOCITY, confidence=1.0)
    (q,) = queries_from_forecast(f, tail, PredictorConfig(horizon=1), CODEC)
    assert np.array_equal(q.tail, tail)


def test_feed_all_emits_one_query_per_horizon_step():
    track = make_track(velocity=(2.0, 1.0))
    cfg = PredictorConfig(horizon=6, feed_all=True)
    f = forecast(track, cfg)
    qs = queries_from_forecast(f, track.tail, cfg, CODEC)
    assert [q.horizon_step for q in qs] == [1, 2, 3, 4, 5, 6]
    for q in qs:
        assert np.max(np.abs(decode_reference(q, CODEC) - f.points[q.horizon_step - 1])) < 1e-9


def test_feed_step_selects_single_horizon_point():
    track = make_track(velocity=(1.0, 0.0))
    cfg = PredictorConfig(horizon=6, feed_step=3, dt=0.1)
    f = forecast(track, cfg)
    qs = queries_from_forecast(f, track.tail, cfg, CODEC)
    assert len(qs) == 1
    assert qs[0].horizon_step == 3
    assert np.max(np.abs(decode_reference(qs[0], CODEC) - [0.3, 0.0])) < 1e-9


def test_predict_and_store_empty_track_list():
    bank = QueryBank()
    predict_and_store([], bank, 5, PredictorConfig(), CODEC)
    assert bank.fetch(5) == []
    assert 5 in bank.entries  # the slot exists, holding no queries


def test_predict_and_store_only_confirmed_and_coasting_feed_bank():
    bank = QueryBank()
    tracks = [
        make_track(track_id=2, status=CONFIRMED),
        make_track(track_id=1, status=TENTATIVE),
        make_track(track_id=3, status="coasting"),
    ]
    predict_and_store(tracks, bank, 0, PredictorConfig(), CODEC)
    qs = bank.fetch(0)
    assert [q.source_track_id for q in qs] == [2, 3]  # sorted by track id
    assert all(q.cls == "car" for q in qs)


def test_bank_closure_decoded_center_is_dead_reckoned_position():
    dt = 0.1
    track = make_track(center=(4.0, -1.0), velocity=(2.0, 3.0))
    bank = QueryBank()
    predict_and_store([track], bank, 7, PredictorConfig(horizon=6, dt=dt), CODEC)
    (q,) = bank.fetch(7)
    expected = np.array([4.0, -1.0]) + dt * np.array([2.0, 3.0])
    assert np.max(np.abs(decode_reference(q, CODEC) - expected)) < 1e-9


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"horizon": 0}, "horizon"),
        ({"feed_step": 7}, "feed_step"),
        ({"model": "oracle"}, "model"),
    ],
)
def test_predictor_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        PredictorConfig(**kwargs).validate()
