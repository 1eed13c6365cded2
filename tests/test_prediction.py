from __future__ import annotations

import numpy as np
import pytest

from paptrack.harness import _frame_record
from paptrack.perception import COASTING, CONFIRMED, TENTATIVE, TERMINATED, Assignment, FrameResult, match_dtype
from paptrack.prediction import PredictorConfig, forecast, predict_and_store
from paptrack.queries import PREDICTED, QueryBank, query_dtype
from paptrack.world import CLASS_INDEX, box_dtype

from oracles import forecast_oracle
from tables import track_table

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
    (f,) = forecast(track, 3, 0.1)
    assert np.allclose(f, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], atol=0)


def test_zero_velocity_stays_put():
    track = make_track(velocity=(0.0, 0.0))
    f = forecast(track, 6, 0.1)
    assert np.array_equal(f, np.zeros((1, 6, 2)))


def test_forecast_rejects_terminated_track():
    track = make_track(status=TERMINATED)
    with pytest.raises(ValueError, match="terminated"):
        forecast(track, 6, DT)


def test_batched_forecast_equals_per_track_oracle_bit_for_bit():
    rng = np.random.default_rng(12)
    rows = []
    for i in range(300):
        n = int(rng.integers(1, 5))  # 1 state: a newborn
        frames = np.cumsum(rng.integers(1, 3, size=n)) + int(rng.integers(0, 50))
        still = rng.random(size=(n, 1)) < 0.15
        velocities = np.where(still, 0.0, rng.normal(0.0, 3.0, size=(n, 2)))
        if n == 1:
            velocities[:] = 0.0
        states = [(f, rng.uniform(-30, 30, 2), v, False) for f, v in zip(frames.tolist(), velocities)]
        rows.append(track_row(status=COASTING if i % 3 else CONFIRMED, states=states))
    tracks = track_table(*rows)
    for horizon, dt in ((6, 0.1), (3, 0.05)):
        points = forecast(tracks, horizon, dt)
        assert points.shape == (len(rows), horizon, 2)
        for row, spec in enumerate(rows):
            _, centers, velocities, _ = zip(*spec["states"])
            assert points[row].tobytes() == forecast_oracle(centers, velocities, horizon, dt).tobytes()


def test_forecast_of_chosen_steps_is_those_columns_of_the_full_forecast_bit_for_bit():
    """The banked point, step 1, is the first point a dump's forecast records."""
    rng = np.random.default_rng(13)
    rows = [
        track_row(states=[(f, rng.uniform(-30, 30, 2), rng.normal(0.0, 3.0, 2), False) for f in (3, 4, 6)]) for _ in range(20)
    ]
    tracks = track_table(*rows)
    one = forecast(tracks, 1, DT)
    assert one.shape == (len(rows), 1, 2)
    assert one.tobytes() == np.ascontiguousarray(forecast(tracks, 6, DT)[:, :1]).tobytes()


def banked(tracks, t=0):
    """The table predict_and_store banks for `tracks` at frame `t`."""
    return predict_and_store(tracks, QueryBank(), t, DT).fetch(t)


def test_predict_and_store_row_round_trip():
    # track 9 after eight tentative tracks, which feed no queries; confidence 3 / (3 + 1 + 1)
    tracks = track_table(*[track_row(status=TENTATIVE)] * 8, track_row(center=(1.5, -2.0), velocity=(0.0, 0.0), misses=1))
    (q,) = banked(tracks)
    assert q.provenance == PREDICTED
    assert q.source_track_id == 9
    assert q.confidence == 0.6
    assert q.center.tolist() == [1.5, -2.0]


def test_predict_and_store_empty_track_list():
    bank = QueryBank()
    bank.store(4, banked(make_track()))
    predict_and_store(track_table(), bank, 5, DT)
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
    predict_and_store(tracks, bank, 0, DT)
    qs = bank.fetch(0)
    assert qs["source_track_id"].tolist() == [2, 3]  # sorted by track id
    assert all(q.cls == CLASS_INDEX["car"] for q in qs)


def test_dump_forecasts_are_the_banked_queries():
    """The dump's forecasts and the bank follow one feed rule: the same tracks, and the bank holds step 1."""
    horizon = 3
    tracks = track_table(
        track_row(center=(1.0, 2.0), velocity=(0.5, 0.0), status=TENTATIVE),
        track_row(center=(-3.0, 4.0), velocity=(0.0, 1.5), status=CONFIRMED),
        track_row(center=(5.0, -6.0), velocity=(-1.0, 0.25), status=TERMINATED),
        track_row(center=(7.0, 8.0), velocity=(0.75, -0.5), status=COASTING, misses=1),
        track_row(center=(0.0, 0.0), velocity=(2.0, 2.0), status=CONFIRMED),
    )
    banked = predict_and_store(tracks, QueryBank(), 0, DT).fetch(0)
    none = np.zeros(0, box_dtype)
    result = FrameResult(tracks, none, np.zeros(0, query_dtype), Assignment(np.zeros(0, match_dtype), np.arange(0), np.arange(0)), {})
    forecasts = _frame_record(0, none, none, result, tracks, horizon, DT)["forecasts"]
    assert [f["track_id"] for f in forecasts] == [2, 4, 5]
    assert all(len(f["points"]) == horizon for f in forecasts)
    # the bank holds each fed track's step-1 point, in track-id order
    assert banked["source_track_id"].tolist() == [f["track_id"] for f in forecasts]
    assert np.array_equal([f["points"][0] for f in forecasts], banked["center"])


def test_bank_closure_decoded_center_is_dead_reckoned_position():
    dt = 0.1
    track = make_track(center=(4.0, -1.0), velocity=(2.0, 3.0))
    bank = QueryBank()
    predict_and_store(track, bank, 7, dt)
    (q,) = bank.fetch(7)
    expected = np.array([4.0, -1.0]) + dt * np.array([2.0, 3.0])
    assert np.max(np.abs(q.center - expected)) < 1e-9


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"horizon": 0}, "horizon"),
    ],
)
def test_predictor_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        PredictorConfig(**kwargs).validate()
