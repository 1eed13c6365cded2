from __future__ import annotations

import numpy as np

from paptrack.perception import COASTING, CONFIRMED, TENTATIVE, TERMINATED
from paptrack.prediction import predict_and_store
from paptrack.queries import PREDICTED, QueryBank
from paptrack.world import CLASS_INDEX

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
    """A track banks its newest center moved one step of `dt` at its velocity."""
    track = make_track(center=(0.0, 0.0), velocity=(10.0, 0.0))
    points = [predict_and_store(track, QueryBank(), 0, dt).fetch(0)["center"][0] for dt in (0.1, 0.2, 0.3)]
    assert np.allclose(points, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], atol=0)


def test_zero_velocity_stays_put():
    track = make_track(center=(2.5, -4.0), velocity=(0.0, 0.0))
    assert predict_and_store(track, QueryBank(), 0, DT).fetch(0)["center"].tolist() == [[2.5, -4.0]]


def test_banked_centers_equal_per_track_oracle_bit_for_bit():
    """Each banked center is the step-1 point of a one-track forecast from the track's history."""
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
    for dt in (0.1, 0.05):
        points = predict_and_store(tracks, QueryBank(), 0, dt).fetch(0)["center"]
        assert len(points) == len(rows)
        for row, spec in enumerate(rows):
            _, centers, velocities, _ = zip(*spec["states"])
            assert points[row].tobytes() == forecast_oracle(centers, velocities, 1, dt)[0].tobytes()


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


def test_bank_closure_decoded_center_is_dead_reckoned_position():
    dt = 0.1
    track = make_track(center=(4.0, -1.0), velocity=(2.0, 3.0))
    bank = QueryBank()
    predict_and_store(track, bank, 7, dt)
    (q,) = bank.fetch(7)
    expected = np.array([4.0, -1.0]) + dt * np.array([2.0, 3.0])
    assert np.max(np.abs(q.center - expected)) < 1e-9
