from __future__ import annotations

import numpy as np
import pytest

from paptrack.harness import _frame_record
from paptrack.perception import COASTING, CONFIRMED, TENTATIVE, TERMINATED, Assignment, FrameResult, match_dtype
from paptrack.prediction import (
    CONSTANT_TURN,
    CONSTANT_VELOCITY,
    PredictorConfig,
    forecast,
    predict_and_store,
)
from paptrack.queries import PREDICTED, CodecConfig, QueryBank, decode_reference, query_dtype
from paptrack.world import CLASS_INDEX, box_dtype

from oracles import forecast_oracle
from tables import track_table

CODEC = CodecConfig(dim=16, scale=1.0 / 30.0)
DT = 0.1


def track_row(center=(0.0, 0.0), velocity=(1.0, 0.0), frame=0, status=CONFIRMED, **more):
    """One row of `track_table`; the row's place sets its id."""
    row = dict(center=center, velocity=velocity, frame=frame, status=status, hits=3, ever_confirmed=True)
    return row | more


def make_track(**kwargs):
    """A 1-row table: track 1."""
    return track_table(track_row(**kwargs))


def test_constant_velocity_extrapolation_exact():
    track = make_track(center=(0.0, 0.0), velocity=(10.0, 0.0))
    (f,) = forecast(track, PredictorConfig(horizon=3), 0.1)
    assert np.allclose(f, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], atol=0)


def test_zero_velocity_stays_put():
    track = make_track(velocity=(0.0, 0.0))
    f = forecast(track, PredictorConfig(horizon=6), 0.1)
    assert np.array_equal(f, np.zeros((1, 6, 2)))


def test_forecast_rejects_terminated_track():
    track = make_track(status=TERMINATED)
    with pytest.raises(ValueError, match="terminated"):
        forecast(track, PredictorConfig(), DT)


def test_constant_turn_traces_circular_arc():
    # A body turning at constant rate omega with speed s moves on a circle of
    # radius s/omega.  Forward-Euler with per-step velocity rotation gives a
    # polygonal arc: step h lands at the analytic sum of rotated chords.
    omega = 0.5
    dt = 0.1
    speed = 2.0
    # give the track a velocity history that implies the turn rate
    prev_v = np.array([speed * np.cos(-omega * dt), speed * np.sin(-omega * dt)])
    track = track_table(
        track_row(states=[(0, np.array([-prev_v[0] * dt, -prev_v[1] * dt]), prev_v, False), (1, (0.0, 0.0), (speed, 0.0), False)])
    )

    cfg = PredictorConfig(horizon=8, model=CONSTANT_TURN)
    (f,) = forecast(track, cfg, dt)

    # analytic chord sum: x_h = sum_{j=0}^{h-1} R(j*omega*dt) v0 dt
    v0 = np.array([speed, 0.0])
    x = np.zeros(2)
    for h in range(8):
        ang = h * omega * dt
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        x = x + rot @ v0 * dt
        assert np.max(np.abs(f[h] - x)) < 1e-9

    # sanity: the turning forecast bends away from the straight-line tangent
    (straight,) = forecast(track, PredictorConfig(horizon=8, model=CONSTANT_VELOCITY), dt)
    assert np.linalg.norm(f[-1] - straight[-1]) > 0.01


def test_constant_turn_error_grows_with_horizon_against_true_circle():
    omega = 0.8
    dt = 0.1
    speed = 3.0
    radius = speed / omega
    prev_v = np.array([speed * np.cos(-omega * dt), speed * np.sin(-omega * dt)])
    track = track_table(track_row(states=[(0, np.array([0.0, 0.0]) - prev_v * dt, prev_v, False), (1, (0.0, 0.0), (speed, 0.0), False)]))

    (f,) = forecast(track, PredictorConfig(horizon=10, model=CONSTANT_TURN), dt)
    errors = []
    for h in range(1, 11):
        theta = omega * h * dt
        true_point = np.array([radius * np.sin(theta), radius * (1.0 - np.cos(theta))])
        errors.append(np.linalg.norm(f[h - 1] - true_point))
    # discretization error of the polygonal arc is monotone in horizon
    assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))
    # first-order Euler error bound: ~ 0.5 * speed * omega * T * dt = 0.12 at T=1s
    assert errors[-1] < 0.5 * speed * omega * 1.0 * dt * 1.05


def test_batched_forecast_equals_per_track_oracle_bit_for_bit():
    rng = np.random.default_rng(12)
    rows = []
    for i in range(300):
        n = int(rng.integers(1, 5))  # 1 state: a newborn
        frames = np.cumsum(rng.integers(1, 3, size=n)) + int(rng.integers(0, 50))
        still = rng.random(size=(n, 1)) < 0.15  # zero velocities take the no-turn branch
        velocities = np.where(still, 0.0, rng.normal(0.0, 3.0, size=(n, 2)))
        if n == 1:
            velocities[:] = 0.0
        states = [(f, rng.uniform(-30, 30, 2), v, False) for f, v in zip(frames.tolist(), velocities)]
        rows.append(track_row(status=COASTING if i % 3 else CONFIRMED, states=states))
    tracks = track_table(*rows)
    for model in (CONSTANT_VELOCITY, CONSTANT_TURN):
        for horizon, dt in ((6, 0.1), (3, 0.05)):
            points = forecast(tracks, PredictorConfig(horizon=horizon, model=model), dt)
            assert points.shape == (len(rows), horizon, 2)
            for row, spec in enumerate(rows):
                frames, centers, velocities, _ = zip(*spec["states"])
                expected = forecast_oracle(frames, centers, velocities, horizon, dt, model == CONSTANT_TURN)
                assert points[row].tobytes() == expected.tobytes()


def test_forecast_of_chosen_steps_is_those_columns_of_the_full_forecast_bit_for_bit():
    rng = np.random.default_rng(13)
    rows = [
        track_row(states=[(f, rng.uniform(-30, 30, 2), rng.normal(0.0, 3.0, 2), False) for f in (3, 4, 6)]) for _ in range(20)
    ]
    tracks = track_table(*rows)
    for model in (CONSTANT_VELOCITY, CONSTANT_TURN):
        cfg = PredictorConfig(horizon=6, model=model)
        full = forecast(tracks, cfg, DT)
        for steps in ([1], [4], [6, 2], np.arange(1, 7)):
            chosen = forecast(tracks, cfg, DT, np.asarray(steps))
            assert chosen.shape == (len(rows), len(steps), 2)
            assert chosen.tobytes() == np.ascontiguousarray(full[:, np.asarray(steps) - 1]).tobytes()


def banked(tracks, cfg, t=0):
    """The table predict_and_store banks for `tracks` at frame `t`."""
    return predict_and_store(tracks, QueryBank(), t, cfg, CODEC, DT).fetch(t)


def test_predict_and_store_row_round_trip():
    # track 9 after eight tentative tracks, which feed no queries; confidence 3 / (3 + 1 + 1)
    tracks = track_table(*[track_row(status=TENTATIVE)] * 8, track_row(center=(1.5, -2.0), velocity=(0.0, 0.0), misses=1))
    (q,) = banked(tracks, PredictorConfig(horizon=1))
    assert q.provenance == PREDICTED
    assert q.source_track_id == 9
    assert q.horizon_step == 1
    assert q.confidence == 0.6
    assert np.max(np.abs(decode_reference(q, CODEC) - [1.5, -2.0])) < 1e-9
    assert np.array_equal(q["embedding"][2:], np.zeros(14))  # the source track id ties it to its track, not a tail


def test_feed_all_emits_one_query_per_horizon_step():
    track = make_track(velocity=(2.0, 1.0))
    cfg = PredictorConfig(horizon=6, feed_all=True)
    (f,) = forecast(track, cfg, DT)
    qs = banked(track, cfg)
    assert qs["horizon_step"].tolist() == [1, 2, 3, 4, 5, 6]
    assert np.max(np.abs(decode_reference(qs, CODEC) - f[qs["horizon_step"] - 1])) < 1e-9


def test_feed_all_rows_are_grouped_by_track():
    cfg = PredictorConfig(horizon=3, feed_all=True)
    # tracks 2 and 4 feed the bank; the tentative tracks 1 and 3 do not
    tracks = track_table(
        track_row(status=TENTATIVE), track_row(velocity=(0.0, 1.0)),
        track_row(status=TENTATIVE), track_row(velocity=(1.0, 0.0)),
    )
    qs = banked(tracks, cfg)
    assert qs["source_track_id"].tolist() == [2, 2, 2, 4, 4, 4]
    assert qs["horizon_step"].tolist() == [1, 2, 3, 1, 2, 3]
    for track_id in (2, 4):
        rows = qs[qs["source_track_id"] == track_id]
        track = tracks[[track_id - 1]]
        assert np.max(np.abs(decode_reference(rows, CODEC) - forecast(track, cfg, DT)[0])) < 1e-9
        assert np.array_equal(rows["embedding"][:, 2:], np.zeros((3, 14)))


def test_feed_step_selects_single_horizon_point():
    track = make_track(velocity=(1.0, 0.0))
    cfg = PredictorConfig(horizon=6, feed_step=3)
    qs = banked(track, cfg)
    assert len(qs) == 1
    assert qs[0].horizon_step == 3
    assert np.max(np.abs(decode_reference(qs[0], CODEC) - [0.3, 0.0])) < 1e-9


def test_predict_and_store_empty_track_list():
    bank = QueryBank()
    bank.store(4, banked(make_track(), PredictorConfig()))
    predict_and_store(track_table(), bank, 5, PredictorConfig(), CODEC, DT)
    assert len(bank.fetch(5)) == 0
    assert bank.t == 5  # frame 5's empty table replaced frame 4's
    assert len(bank.fetch(4)) == 0


def test_predict_and_store_only_confirmed_and_coasting_feed_bank():
    bank = QueryBank()
    tracks = track_table(
        track_row(status=TENTATIVE),
        track_row(status=CONFIRMED),
        track_row(status=COASTING),
        track_row(status=TERMINATED),
    )
    predict_and_store(tracks, bank, 0, PredictorConfig(), CODEC, DT)
    qs = bank.fetch(0)
    assert qs["source_track_id"].tolist() == [2, 3]  # sorted by track id
    assert all(q.cls == CLASS_INDEX["car"] for q in qs)


def test_dump_forecasts_are_the_banked_queries():
    """The dump's forecasts and the bank follow one feed rule: the same tracks, the same points."""
    codec = CodecConfig(dim=16, scale=1.0 / 32.0)  # a power of two: a center encodes and decodes exactly
    cfg = PredictorConfig(horizon=3, feed_all=True)
    tracks = track_table(
        track_row(center=(1.0, 2.0), velocity=(0.5, 0.0), status=TENTATIVE),
        track_row(center=(-3.0, 4.0), velocity=(0.0, 1.5), status=CONFIRMED),
        track_row(center=(5.0, -6.0), velocity=(-1.0, 0.25), status=TERMINATED),
        track_row(center=(7.0, 8.0), velocity=(0.75, -0.5), status=COASTING, misses=1),
        track_row(center=(0.0, 0.0), velocity=(2.0, 2.0), status=CONFIRMED),
    )
    banked = predict_and_store(tracks, QueryBank(), 0, cfg, codec, DT).fetch(0)
    none = np.zeros(0, box_dtype)
    result = FrameResult(tracks, none, np.zeros(0, query_dtype(16)), Assignment(np.zeros(0, match_dtype), np.arange(0), np.arange(0)), {})
    forecasts = _frame_record(0, none, none, result, tracks, cfg, codec, DT)["forecasts"]
    assert [f["track_id"] for f in forecasts] == [2, 4, 5]
    # the bank holds each fed track's steps in track-id order, then step order
    assert banked["source_track_id"].tolist() == [f["track_id"] for f in forecasts for _ in range(cfg.horizon)]
    assert banked["horizon_step"].tolist() == [1, 2, 3] * len(forecasts)
    points = np.array([f["points"] for f in forecasts]).reshape(-1, 2)
    assert np.array_equal(points, decode_reference(banked, codec))


def test_bank_closure_decoded_center_is_dead_reckoned_position():
    dt = 0.1
    track = make_track(center=(4.0, -1.0), velocity=(2.0, 3.0))
    bank = QueryBank()
    predict_and_store(track, bank, 7, PredictorConfig(horizon=6), CODEC, dt)
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
