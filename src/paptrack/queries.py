"""Query abstraction: the currency between perception and prediction.

A query is an embedding vector whose first two slots encode a BEV center
hypothesis through a fixed invertible affine map (decode: ``c = A x + b``
with ``A = scale * I``); the remaining slots are a feature tail that
carries track identity across frames.  Predicted queries produced at time
T are kept in a time-indexed bank and consumed by perception at T+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RANDOM = "random"
PREDICTED = "predicted"


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of the affine center codec and the embedding width."""

    dim: int = 16
    scale: float = 1.0 / 30.0
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("embedding dim must be >= 3 (2 center slots + tail)")
        if self.scale == 0.0:
            raise ValueError("codec scale must be nonzero")


@dataclass(slots=True, eq=False)  # identity equality; embeddings are arrays
class Query:
    embedding: np.ndarray
    provenance: str = RANDOM
    source_track_id: int | None = None
    horizon_step: int | None = None
    cls: str | None = None  # class lock; None => matches any class
    confidence: float = 1.0

    def __post_init__(self):
        if self.provenance == PREDICTED and self.source_track_id is None:
            raise ValueError("predicted query requires source_track_id")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    @property
    def tail(self) -> np.ndarray:
        return self.embedding[2:]


def decode_reference(q: Query, codec: CodecConfig) -> np.ndarray:
    """Decode the center hypothesis from a query's leading embedding slots."""
    emb = q.embedding
    if emb.shape != (codec.dim,):
        raise ValueError(f"embedding has shape {emb.shape}, expected ({codec.dim},)")
    if not np.all(np.isfinite(emb[:2])):
        raise ValueError("non-finite embedding values")
    return codec.scale * emb[:2] + np.asarray(codec.offset)


def embed_center(
    center: np.ndarray,
    tail: np.ndarray,
    codec: CodecConfig,
    *,
    provenance: str = RANDOM,
    source_track_id: int | None = None,
    horizon_step: int | None = None,
    cls: str | None = None,
    confidence: float = 1.0,
) -> Query:
    """Inverse of :func:`decode_reference`: center into slots [0, 1], tail after."""
    center = np.asarray(center, dtype=float)
    tail = np.asarray(tail, dtype=float)
    if center.shape != (2,):
        raise ValueError(f"center has shape {center.shape}, expected (2,)")
    if tail.shape != (codec.dim - 2,):
        raise ValueError(f"tail has shape {tail.shape}, expected ({codec.dim - 2},)")
    emb = np.empty(codec.dim)
    emb[:2] = (center - np.asarray(codec.offset)) / codec.scale
    emb[2:] = tail
    return Query(
        embedding=emb,
        provenance=provenance,
        source_track_id=source_track_id,
        horizon_step=horizon_step,
        cls=cls,
        confidence=confidence,
    )


@dataclass
class QueryBank:
    """Time-indexed store of predicted queries.

    Holds at most `capacity` time indices; storing beyond capacity evicts
    the smallest index.  Fetching an absent index returns an empty list.
    """

    capacity: int = 4
    entries: dict[int, list[Query]] = field(default_factory=dict)

    def store(self, t: int, queries: list[Query]) -> None:
        for q in queries:
            if q.provenance != PREDICTED:
                raise ValueError("bank accepts only predicted-provenance queries")
        self.entries[int(t)] = list(queries)
        while len(self.entries) > self.capacity:
            del self.entries[min(self.entries)]

    def fetch(self, t: int) -> list[Query]:
        return list(self.entries.get(int(t), []))
