"""Query abstraction: the currency between perception and prediction.

A query is a BEV center hypothesis, its `center` in meters, with the
provenance, source track, class and confidence that decide what it may
match.  A batch of queries is one query table: a structured array of
:data:`query_dtype`, one row per query.  The predicted queries produced at
frame T are kept in a one-frame bank and consumed by perception at T+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# query provenance codes; PROVENANCE_NAMES[code] is the name a dump records
RANDOM, PREDICTED = 0, 1
PROVENANCE_NAMES = ("random", "predicted")

# class code of a query that matches any measurement class
ANY_CLASS = -1

# Row type of a query table.  A record dtype: a table's columns are plain
# arrays, and one row, an ``np.record``, also reads its fields as
# attributes (``row.provenance``).  Aligned, with the 8-byte fields first:
# numpy reads and writes a column of aligned fields faster.
query_dtype = np.dtype(
    (
        np.record,
        np.dtype(
            [
                ("center", np.float64, (2,)),  # BEV meters
                ("source_track_id", np.int64),  # -1 for random queries
                ("cls", np.int64),  # world.CLASS_INDEX code; ANY_CLASS matches every class
                ("confidence", np.float64),
                ("provenance", np.int8),  # RANDOM or PREDICTED
            ],
            align=True,
        ),
    )
)


def embed_center(
    centers: np.ndarray,
    *,
    provenance=RANDOM,
    source_track_id=-1,
    cls=ANY_CLASS,
    confidence=1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One query table row per center.

    `centers` is ``(n, 2)``; a single ``(2,)`` center gives a 1-row table.
    The keyword columns are scalars or length-n arrays.  The rows are
    written into `out`, an n-row query table, if given, else into a new
    table.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n = centers.shape[0]
    if centers.shape != (n, 2):
        raise ValueError(f"centers have shape {centers.shape}, expected (n, 2)")
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
    table = np.empty(n, dtype=query_dtype) if out is None else out
    table["center"] = centers
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
    other frame returns an empty query table.
    """

    t: int | None = None
    queries: np.ndarray | None = None

    def store(self, t: int, queries: np.ndarray) -> None:
        if queries.dtype != query_dtype:
            raise ValueError(f"bank accepts only query tables, got dtype {queries.dtype}")
        if (queries["provenance"] != PREDICTED).any():
            raise ValueError("bank accepts only predicted-provenance queries")
        self.t, self.queries = int(t), queries.view()
        self.queries.flags.writeable = False

    def fetch(self, t: int) -> np.ndarray:
        return self.queries if t == self.t else np.empty(0, query_dtype)
