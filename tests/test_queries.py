from __future__ import annotations

import copy

import numpy as np
import pytest

from paptrack.perception import COASTING, CONFIRMED, TENTATIVE, QueryAssemblyPolicy, assemble_queries
from paptrack.prediction import fed_rows, predict_and_store
from paptrack.queries import (
    ANY_CLASS,
    PREDICTED,
    RANDOM,
    QueryBank,
    embed_center,
    query_dtype,
)
from paptrack.rng import stream

from oracles import forecast_oracle
from tables import field_bytes, track_table


def zeros(n: int) -> np.ndarray:
    """An all-zero query table."""
    return np.zeros(n, dtype=query_dtype)


def test_round_trip_identity():
    q = embed_center(np.array([3.0, -4.0]))
    assert q["center"].tolist() == [[3.0, -4.0]]


def test_query_centers_are_exactly_the_drawn_and_forecast_points():
    """A query carries its center as it was given, bit for bit: assembly's random draws and the predictor's step-1 points."""
    rng = np.random.default_rng(3)
    tracks = track_table(
        *[
            dict(center=rng.uniform(-30, 30, 2), velocity=rng.normal(0.0, 3.0, 2), status=(TENTATIVE, CONFIRMED, COASTING)[i % 3])
            for i in range(60)
        ]
    )
    fed = tracks[fed_rows(tracks)]
    bank = predict_and_store(tracks, QueryBank(), 0, 0.1)
    forecasts = [forecast_oracle(row["centers"], [row["velocity"]], 1, 0.1)[0] for row in fed]
    assert bank.fetch(0)["center"].tobytes() == np.array(forecasts).tobytes()

    query_rng = stream(4, "queries")
    drawn = copy.deepcopy(query_rng).uniform(-30.0, 30.0, size=(256 - 20, 2))
    qs = assemble_queries(bank, 1, QueryAssemblyPolicy(n_queries=256, rho=20 / 256), 30.0, query_rng)
    assert np.all(qs["provenance"][:20] == PREDICTED) and np.all(qs["provenance"][20:] == RANDOM)
    assert qs["center"][20:].tobytes() == drawn.tobytes()


def test_batched_embed_matches_row_by_row_bit_for_bit():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-30, 30, size=(50, 2))
    table = embed_center(centers, provenance=PREDICTED, source_track_id=np.arange(50), confidence=0.5)
    assert len(table) == 50
    assert type(table) is np.ndarray and table.dtype == query_dtype
    for i in range(50):
        row = embed_center(centers[i], provenance=PREDICTED, source_track_id=i, confidence=0.5)
        assert field_bytes(table[i : i + 1]) == field_bytes(row)
        assert table[i].provenance == PREDICTED and table[i].source_track_id == i


def test_random_rows_default_to_sentinels():
    (q,) = embed_center(np.zeros(2))
    assert q.provenance == RANDOM
    assert q.source_track_id == -1
    assert q.cls == ANY_CLASS
    assert q.confidence == 1.0


def test_embed_rejects_bad_center_shape():
    with pytest.raises(ValueError, match="centers have shape"):
        embed_center(np.zeros(3))


def test_predicted_provenance_requires_source_track():
    with pytest.raises(ValueError, match="source_track_id"):
        embed_center(np.zeros(2), provenance=PREDICTED)


def test_confidence_outside_unit_interval_is_rejected():
    with pytest.raises(ValueError, match="confidence"):
        embed_center(np.zeros((2, 2)), confidence=[0.5, 1.5])


def test_embed_into_out_writes_those_rows_only_and_a_rejected_call_writes_none():
    rng = np.random.default_rng(2)
    centers = rng.uniform(-30, 30, size=(3, 2))
    table = zeros(5)
    out = embed_center(centers, provenance=PREDICTED, source_track_id=[1, 2, 3], out=table[2:])
    assert out.base is table
    assert field_bytes(table[2:]) == field_bytes(embed_center(centers, provenance=PREDICTED, source_track_id=[1, 2, 3]))
    assert table[:2].tobytes() == zeros(2).tobytes()
    before = table.tobytes()
    with pytest.raises(ValueError, match="confidence"):
        embed_center(centers, confidence=[0.5, 1.5, 0.5], out=table[2:])
    with pytest.raises(ValueError, match="source_track_id"):
        embed_center(centers, provenance=PREDICTED, out=table[2:])
    assert table.tobytes() == before


def _predicted(*track_ids: int, confidence: float = 1.0) -> np.ndarray:
    n = len(track_ids)
    return embed_center(np.zeros((n, 2)), provenance=PREDICTED, source_track_id=list(track_ids), confidence=confidence)


def test_bank_store_then_fetch_round_trip():
    bank = QueryBank()
    qs = _predicted(1, 2)
    bank.store(5, qs)
    assert np.array_equal(bank.fetch(5), qs)


def test_bank_fetch_absent_is_empty():
    empty = QueryBank().fetch(99)
    assert len(empty) == 0
    assert empty.dtype == query_dtype


def test_bank_holds_only_the_latest_frame():
    bank = QueryBank()
    for t in (1, 2, 3, 4):
        bank.store(t, _predicted(t))
    for t in (1, 2, 3, 5):
        assert len(bank.fetch(t)) == 0
    assert bank.fetch(4)["source_track_id"].tolist() == [4]


def test_bank_rejects_random_provenance():
    bank = QueryBank()
    with pytest.raises(ValueError, match="predicted"):
        bank.store(0, embed_center(np.zeros(2), provenance=RANDOM))


def test_bank_rejects_a_table_of_another_dtype():
    bank = QueryBank()
    other = np.zeros(1, [("embedding", np.float64, (16,)), ("provenance", np.int8)])
    other["provenance"] = PREDICTED
    with pytest.raises(ValueError, match="dtype"):
        bank.store(0, other)
    assert bank.t is None and len(bank.fetch(0)) == 0


def test_bank_fetch_is_idempotent_and_read_only():
    bank = QueryBank()
    stored = _predicted(7)
    bank.store(3, stored)
    first = bank.fetch(3)
    second = bank.fetch(3)
    assert np.array_equal(first, second)
    with pytest.raises(ValueError, match="read-only"):
        first["source_track_id"][0] = 8  # a fetched table cannot be written
    assert stored.flags.writeable  # the caller's table is left writeable
    assert bank.fetch(3)["source_track_id"][0] == 7
