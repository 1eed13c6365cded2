from __future__ import annotations

import numpy as np
import pytest

from paptrack.queries import (
    ANY_CLASS,
    PREDICTED,
    RANDOM,
    CodecConfig,
    QueryBank,
    decode_reference,
    embed_center,
    query_dtype,
)

CODEC = CodecConfig(dim=16, scale=1.0 / 30.0)


def zeros(n: int, dim: int = 16) -> np.ndarray:
    """An all-zero query table, built without the codec."""
    return np.zeros(n, dtype=query_dtype(dim))


def test_round_trip_identity():
    q = embed_center(np.array([3.0, -4.0]), np.zeros(14), CODEC)
    assert np.max(np.abs(decode_reference(q, CODEC) - [3.0, -4.0])) < 1e-9


def test_zero_embedding_decodes_to_origin():
    q = zeros(1)
    assert np.array_equal(decode_reference(q, CODEC), [[0.0, 0.0]])
    assert np.array_equal(decode_reference(q[0], CODEC), [0.0, 0.0])


def test_zero_center_zero_tail_is_all_zeros():
    q = embed_center(np.zeros(2), np.zeros(14), CODEC)
    assert np.array_equal(q["embedding"], np.zeros((1, 16)))


def test_round_trip_against_matrix_inverse_oracle():
    rng = np.random.default_rng(0)
    A = CODEC.scale * np.eye(2)
    A_inv = np.linalg.inv(A)
    for _ in range(100):
        center = rng.uniform(-30, 30, size=2)
        (q,) = embed_center(center, rng.standard_normal(14), CODEC)
        assert np.max(np.abs(q.embedding[:2] - A_inv @ center)) < 1e-9
        assert np.max(np.abs(decode_reference(q, CODEC) - center)) < 1e-9


def test_batched_embed_matches_row_by_row_bit_for_bit():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-30, 30, size=(50, 2))
    tails = rng.standard_normal((50, 14))
    table = embed_center(centers, tails, CODEC, provenance=PREDICTED, source_track_id=np.arange(50), confidence=0.5)
    assert len(table) == 50
    assert type(table) is np.ndarray and table.dtype == query_dtype(16)
    for i in range(50):
        (row,) = embed_center(centers[i], tails[i], CODEC, provenance=PREDICTED, source_track_id=i, confidence=0.5)
        assert np.array_equal(table[i].embedding, row.embedding)
        assert table[i].provenance == PREDICTED and table[i].source_track_id == i
    assert np.array_equal(decode_reference(table, CODEC), [decode_reference(row, CODEC) for row in table])


def test_random_rows_default_to_sentinels():
    (q,) = embed_center(np.zeros(2), np.zeros(14), CODEC)
    assert q.provenance == RANDOM
    assert q.source_track_id == -1
    assert q.cls == ANY_CLASS
    assert q.confidence == 1.0


def test_decode_rejects_non_finite():
    q = zeros(1)
    q["embedding"] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        decode_reference(q, CODEC)


def test_embed_rejects_bad_tail_shape():
    with pytest.raises(ValueError, match="tail"):
        embed_center(np.zeros(2), np.zeros(3), CODEC)


def test_decode_rejects_wrong_dimension():
    q = zeros(1, dim=8)
    with pytest.raises(ValueError, match="shape"):
        decode_reference(q, CODEC)


def test_predicted_provenance_requires_source_track():
    with pytest.raises(ValueError, match="source_track_id"):
        embed_center(np.zeros(2), np.zeros(14), CODEC, provenance=PREDICTED)


def test_confidence_outside_unit_interval_is_rejected():
    with pytest.raises(ValueError, match="confidence"):
        embed_center(np.zeros((2, 2)), np.zeros((2, 14)), CODEC, confidence=[0.5, 1.5])


def test_embed_into_out_writes_those_rows_only_and_a_rejected_call_writes_none():
    rng = np.random.default_rng(2)
    centers, tails = rng.uniform(-30, 30, size=(3, 2)), rng.standard_normal((3, 14))
    table = zeros(5)
    out = embed_center(centers, tails, CODEC, provenance=PREDICTED, source_track_id=[1, 2, 3], out=table[2:])
    assert out.base is table
    assert table[2:].tobytes() == embed_center(centers, tails, CODEC, provenance=PREDICTED, source_track_id=[1, 2, 3]).tobytes()
    assert table[:2].tobytes() == zeros(2).tobytes()
    before = table.tobytes()
    with pytest.raises(ValueError, match="confidence"):
        embed_center(centers, tails, CODEC, confidence=[0.5, 1.5, 0.5], out=table[2:])
    with pytest.raises(ValueError, match="source_track_id"):
        embed_center(centers, tails, CODEC, provenance=PREDICTED, out=table[2:])
    assert table.tobytes() == before


def _predicted(*track_ids: int, confidence: float = 1.0) -> np.ndarray:
    n = len(track_ids)
    return embed_center(
        np.zeros((n, 2)),
        np.zeros((n, 14)),
        CODEC,
        provenance=PREDICTED,
        source_track_id=list(track_ids),
        confidence=confidence,
    )


def test_bank_store_then_fetch_round_trip():
    bank = QueryBank()
    qs = _predicted(1, 2)
    bank.store(5, qs)
    assert np.array_equal(bank.fetch(5), qs)


def test_bank_fetch_absent_is_empty():
    empty = QueryBank().fetch(99)
    assert len(empty) == 0
    assert empty.dtype == query_dtype(16)


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
        bank.store(0, embed_center(np.zeros(2), np.zeros(14), CODEC, provenance=RANDOM))


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

