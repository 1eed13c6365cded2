"""Query abstraction: the currency between perception and prediction.

A query is an embedding vector whose first two slots encode a BEV center
hypothesis through a fixed invertible scaling (decode: ``c = scale * x``);
the remaining slots, the tail, are random for a random query and zeros for
a predicted one.  A batch of queries is one query table: a structured array
of :func:`query_dtype`, one row per query.  The predicted queries produced
at frame T are kept in a one-frame bank and consumed by perception at T+1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# query provenance codes; PROVENANCE_NAMES[code] is the name a dump records
RANDOM, PREDICTED = 0, 1
PROVENANCE_NAMES = ("random", "predicted")

# class code of a query that matches any measurement class
ANY_CLASS = -1


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of the center codec and the embedding width."""

    dim: int = 16
    scale: float = 1.0 / 30.0

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("embedding dim must be >= 3 (2 center slots + tail)")
        if self.scale == 0.0:
            raise ValueError("codec scale must be nonzero")

    def encode(self, centers: np.ndarray) -> np.ndarray:
        """Center slots of BEV centers ``(..., 2)``: the inverse of :meth:`decode`."""
        return centers / self.scale

    def decode(self, slots: np.ndarray) -> np.ndarray:
        """BEV centers of center slots ``(..., 2)``: ``scale * x``."""
        return self.scale * slots


@functools.cache
def query_dtype(dim: int) -> np.dtype:
    """Row type of a query table whose embeddings have `dim` slots.

    A record dtype: a table's columns are plain arrays, and one row, an
    ``np.record``, also reads its fields as attributes (``row.provenance``).
    """
    fields = np.dtype(
        [
            ("embedding", np.float64, (dim,)),
            ("provenance", np.int8),  # RANDOM or PREDICTED
            ("source_track_id", np.int64),  # -1 for random queries
            ("cls", np.int64),  # world.CLASS_INDEX code; ANY_CLASS matches every class
            ("confidence", np.float64),
        ]
    )
    return np.dtype((np.record, fields))


def decode_reference(queries, codec: CodecConfig) -> np.ndarray:
    """Decode center hypotheses: ``(2,)`` for one row, ``(n, 2)`` for a table."""
    emb = queries["embedding"]
    if emb.shape[-1:] != (codec.dim,):
        raise ValueError(f"embedding has shape {emb.shape}, expected (..., {codec.dim})")
    xy = emb[..., :2]
    if not np.isfinite(xy).all():
        raise ValueError("non-finite embedding values")
    return codec.decode(xy)


def embed_center(
    centers: np.ndarray,
    tails: np.ndarray,
    codec: CodecConfig,
    *,
    provenance=RANDOM,
    source_track_id=-1,
    cls=ANY_CLASS,
    confidence=1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`decode_reference`: one table row per center.

    `centers` is ``(n, 2)`` and `tails` ``(n, dim - 2)``; a single ``(2,)``
    center with a ``(dim - 2,)`` tail gives a 1-row table.  The keyword
    columns are scalars or length-n arrays.  The rows are written into
    `out`, an n-row query table, if given, else into a new table.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    tails = np.atleast_2d(np.asarray(tails, dtype=float))
    n = centers.shape[0]
    if centers.shape != (n, 2):
        raise ValueError(f"centers have shape {centers.shape}, expected (n, 2)")
    if tails.shape != (n, codec.dim - 2):
        raise ValueError(f"tails have shape {tails.shape}, expected ({n}, {codec.dim - 2})")
    # checked before any row is written, so a rejected call leaves `out` as it was
    conf = np.asarray(confidence, dtype=float)
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise ValueError("confidence must be in [0, 1]")
    if isinstance(provenance, int):  # one provenance for every row: an all-random table needs no source check
        sourceless = provenance == PREDICTED and (np.asarray(source_track_id) < 0).any()
    else:
        sourceless = ((np.asarray(provenance) == PREDICTED) & (np.asarray(source_track_id) < 0)).any()
    if sourceless:
        raise ValueError("predicted query requires source_track_id")
    table = np.empty(n, dtype=query_dtype(codec.dim)) if out is None else out
    emb = table["embedding"]
    emb[:, :2] = codec.encode(centers)
    emb[:, 2:] = tails
    table["provenance"] = provenance
    table["source_track_id"] = source_track_id
    table["cls"] = cls
    table["confidence"] = conf
    return table


@dataclass
class QueryBank:
    """The predicted queries of the latest frame, handed on to the next.

    `store(t, ...)` replaces whatever the bank held; the table is kept as a
    read-only view, which `fetch(t)` returns without a copy.  Fetching any
    other frame returns an empty table of `dim`-slot queries.
    """

    dim: int = 16
    t: int | None = None
    queries: np.ndarray | None = None

    def store(self, t: int, queries: np.ndarray) -> None:
        if (queries["provenance"] != PREDICTED).any():
            raise ValueError("bank accepts only predicted-provenance queries")
        self.t, self.queries = int(t), queries.view()
        self.queries.flags.writeable = False

    def fetch(self, t: int) -> np.ndarray:
        return self.queries if t == self.t else np.empty(0, query_dtype(self.dim))
