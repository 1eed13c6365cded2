"""Query-based detection and tracking.

Per frame: assemble the query set (recycled predicted queries first, then
fresh random ones), gate query center hypotheses against measurements,
solve the optimal assignment, and fold the matches into track state.
Attention-based matching is replaced by distance gating plus an optimal
assignment, which keeps every step deterministic and oracle-checkable
while preserving what the closed loop actually varies: where queries are
initialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from paptrack.kernels import gated_costs
from paptrack.queries import PREDICTED, CodecConfig, QueryBank, decode_reference, embed_center
from paptrack.world import CLASS_INDEX, ConfigError, Measurement

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
COASTING = "coasting"
TERMINATED = "terminated"

_BIG = 1e12  # sentinel replacement; far above any sum of gated distances


@dataclass
class QueryAssemblyPolicy:
    n_queries: int = 256
    rho: float = 0.8
    mode: str = "fixed"  # "fixed": total always N; "reduced": N - bank size

    def validate(self) -> None:
        if self.n_queries < 1:
            raise ConfigError("n_queries must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must be in [0, 1]")
        if self.mode not in ("fixed", "reduced"):
            raise ConfigError("mode must be 'fixed' or 'reduced'")


@dataclass
class PerceptionParams:
    gate_threshold: float = 3.0
    alpha: float = 0.7  # measurement weight in the center blend
    confirm_threshold: int = 2
    max_misses: int = 3
    predicted_priority_eps: float = 1e-6
    velocity_window: int = 5


@dataclass
class Assignment:
    matches: list[tuple[int, int, float]]
    unmatched_queries: list[int]
    unmatched_measurements: list[int]


@dataclass
class Track:
    track_id: int
    cls: str
    tail: np.ndarray
    status: str = TENTATIVE
    hits: int = 1  # consecutive matches
    misses: int = 0  # consecutive misses
    ever_confirmed: bool = False
    frames: list[int] = field(default_factory=list)
    centers: list[np.ndarray] = field(default_factory=list)
    velocities: list[np.ndarray] = field(default_factory=list)
    coasted: list[bool] = field(default_factory=list)

    @property
    def center(self) -> np.ndarray:
        return self.centers[-1]

    @property
    def velocity(self) -> np.ndarray:
        return self.velocities[-1]

    @property
    def last_frame(self) -> int:
        return self.frames[-1]

    @property
    def confidence(self) -> float:
        return min(1.0, self.hits / (self.hits + self.misses + 1))

    @property
    def live(self) -> bool:
        return self.status != TERMINATED

    def append_state(self, frame: int, center: np.ndarray, velocity: np.ndarray, coasted: bool) -> None:
        if self.frames and frame <= self.frames[-1]:
            raise ValueError("track state frames must be strictly increasing")
        self.frames.append(frame)
        self.centers.append(np.asarray(center, dtype=float))
        self.velocities.append(np.asarray(velocity, dtype=float))
        self.coasted.append(coasted)


@dataclass
class Detection:
    frame: int
    track_id: int
    cls: str
    center: np.ndarray
    confidence: float


@dataclass
class FrameResult:
    tracks: list[Track]
    detections: list[Detection]
    queries: np.recarray
    assignment: Assignment
    stats: dict


def assemble_queries(
    bank: QueryBank,
    frame: int,
    policy: QueryAssemblyPolicy,
    codec: CodecConfig,
    world_half_extent: float,
    rng: np.random.Generator,
) -> np.recarray:
    """Frame-T query table: recycled predicted queries, then fresh random ones.

    Predicted queries come from the bank entry at T-1, highest source-track
    confidence first (ties by track id, then horizon step).  At T=0 the
    bank is never consulted and the table is all-random; likewise rho=0 is
    the open-loop baseline.
    """
    policy.validate()
    predicted = bank.fetch(frame - 1)
    k = min(len(predicted), math.floor(policy.rho * policy.n_queries)) if frame > 0 else 0
    order = np.lexsort((predicted["horizon_step"], predicted["source_track_id"], -predicted["confidence"]))
    if policy.mode == "fixed":
        n_random = policy.n_queries - k
    else:
        n_random = max(policy.n_queries - 2 * k, 0)
    centers = rng.uniform(-world_half_extent, world_half_extent, size=(n_random, 2))
    tails = rng.standard_normal(size=(n_random, codec.dim - 2))
    randoms = embed_center(centers, tails, codec)
    return np.concatenate([predicted[order[:k]], randoms]).view(np.recarray)


def gate_costs(
    queries: np.recarray,
    measurements: list[Measurement],
    gate_threshold: float,
    codec: CodecConfig,
) -> tuple[np.ndarray, int]:
    """Gated Euclidean cost matrix; +inf marks incompatible or out-of-gate pairs.

    Random queries are class-agnostic; predicted queries only see
    measurements of their track's class.  Also returns the number of
    distance evaluations performed (class-compatible pairs).
    """
    nq, nm = len(queries), len(measurements)
    if nq == 0 or nm == 0:
        return np.full((nq, nm), np.inf), 0
    q_xy = decode_reference(queries, codec)
    m_xy = np.stack([m.center for m in measurements])
    m_cls = np.array([CLASS_INDEX[m.cls] for m in measurements], dtype=np.int64)
    return gated_costs(q_xy, queries["cls"], m_xy, m_cls, gate_threshold)


def apply_predicted_priority(costs: np.ndarray, queries: np.recarray, eps: float) -> np.ndarray:
    """Break cost ties in favor of predicted queries by subtracting `eps`."""
    out = costs.copy()
    where = (queries["provenance"] == PREDICTED)[:, None] & np.isfinite(costs)
    np.copyto(out, np.maximum(costs - eps, 0.0), where=where)
    return out


def associate(costs: np.ndarray) -> Assignment:
    """Minimum-total-cost maximum matching over the finite entries."""
    nq, nm = costs.shape
    if nq == 0 or nm == 0 or not np.any(np.isfinite(costs)):
        return Assignment([], list(range(nq)), list(range(nm)))
    finite = np.isfinite(costs)
    solvable = np.where(finite, costs, _BIG)
    rows, cols = linear_sum_assignment(solvable)
    matches = [(int(r), int(c), float(costs[r, c])) for r, c in zip(rows, cols) if finite[r, c]]
    matches.sort(key=lambda m: (m[0], m[1]))
    matched_q = {m[0] for m in matches}
    matched_m = {m[1] for m in matches}
    return Assignment(
        matches=matches,
        unmatched_queries=[i for i in range(nq) if i not in matched_q],
        unmatched_measurements=[j for j in range(nm) if j not in matched_m],
    )


def _estimate_velocity(track: Track, frame: int, center: np.ndarray, dt: float, window: int) -> np.ndarray:
    if not track.frames:
        return np.zeros(2)
    # finite difference against the oldest non-coasted state in the window;
    # coasted states are dead-reckoned and would bias the estimate
    lo = max(0, len(track.frames) - window)
    idx = None
    for i in range(lo, len(track.frames)):
        if not track.coasted[i]:
            idx = i
            break
    if idx is None:
        idx = lo
    span = (frame - track.frames[idx]) * dt
    if span <= 0:
        return np.zeros(2)
    return (center - track.centers[idx]) / span


def _apply_hit(track: Track, frame: int, center: np.ndarray, dt: float, params: PerceptionParams) -> None:
    vel = _estimate_velocity(track, frame, center, dt, params.velocity_window)
    track.append_state(frame, center, vel, coasted=False)
    track.misses = 0
    track.hits += 1
    if track.hits >= params.confirm_threshold:
        track.ever_confirmed = True
    track.status = CONFIRMED if track.ever_confirmed else TENTATIVE


def update_tracks(
    tracks: list[Track],
    assignment: Assignment,
    queries: np.recarray,
    measurements: list[Measurement],
    frame: int,
    params: PerceptionParams,
    dt: float,
    codec: CodecConfig,
    id_gen,
) -> list[Track]:
    """Fold one frame's assignment into track state.

    Predicted-query matches update their source track with the blended
    center.  Random-query matches continue the nearest not-yet-updated
    live track within the gate, else they birth a new tentative track.
    Unmatched live tracks coast by dead reckoning until `max_misses` is
    exceeded; terminated tracks are never revived.
    """
    pairs = np.array([(qi, mj) for qi, mj, _cost in assignment.matches], dtype=np.intp).reshape(-1, 2)
    if np.any((pairs < 0) | (pairs >= [len(queries), len(measurements)])):
        raise ValueError("assignment references out-of-range indices")
    # the matched queries' columns, read once
    matched = queries[pairs[:, 0]]
    centers = decode_reference(matched, codec)
    tails = matched["embedding"][:, 2:]
    predicted = (matched["provenance"] == PREDICTED).tolist()
    sources = matched["source_track_id"].tolist()
    by_id = {t.track_id: t for t in tracks}
    updated: set[int] = set()
    deferred: list[int] = []

    for i, mj in enumerate(pairs[:, 1].tolist()):
        track = by_id.get(sources[i]) if predicted[i] else None
        if track is None or not track.live or track.track_id in updated:
            # a random query, a stale query (track died) or a second query of the same track
            deferred.append(i)
            continue
        blended = (1.0 - params.alpha) * centers[i] + params.alpha * measurements[mj].center
        _apply_hit(track, frame, blended, dt, params)
        updated.add(track.track_id)

    for i in deferred:
        m = measurements[pairs[i, 1]]
        best = None
        best_key = None
        for t in tracks:
            if not t.live or t.track_id in updated:
                continue
            d = float(np.hypot(*(t.center - m.center)))
            if d <= params.gate_threshold:
                key = (d, t.track_id)
                if best_key is None or key < best_key:
                    best, best_key = t, key
        if best is not None:
            # continuation without a current-frame prediction: snap to the measurement
            _apply_hit(best, frame, np.array(m.center, dtype=float), dt, params)
            updated.add(best.track_id)
        else:
            track = Track(track_id=id_gen(), cls=m.cls, tail=tails[i].copy())
            track.append_state(frame, np.array(m.center, dtype=float), np.zeros(2), coasted=False)
            if track.hits >= params.confirm_threshold:
                track.ever_confirmed = True
                track.status = CONFIRMED
            tracks.append(track)
            updated.add(track.track_id)
            by_id[track.track_id] = track

    for t in tracks:
        if not t.live or t.track_id in updated:
            continue
        t.misses += 1
        t.hits = 0
        if t.misses > params.max_misses:
            t.status = TERMINATED
        else:
            t.status = COASTING
            t.append_state(frame, t.center + t.velocity * dt, t.velocity, coasted=True)
    return tracks


def perceive(
    measurements: list[Measurement],
    bank: QueryBank,
    tracks: list[Track],
    policy: QueryAssemblyPolicy,
    params: PerceptionParams,
    codec: CodecConfig,
    world_half_extent: float,
    rng: np.random.Generator,
    frame: int,
    dt: float,
    id_gen,
) -> FrameResult:
    """One full perception step: assemble -> gate -> associate -> update."""
    queries = assemble_queries(bank, frame, policy, codec, world_half_extent, rng)
    costs, n_eval = gate_costs(queries, measurements, params.gate_threshold, codec)
    adjusted = apply_predicted_priority(costs, queries, params.predicted_priority_eps)
    assignment = associate(adjusted)
    tracks = update_tracks(tracks, assignment, queries, measurements, frame, params, dt, codec, id_gen)
    detections = [
        Detection(frame=frame, track_id=t.track_id, cls=t.cls, center=t.center.copy(), confidence=t.confidence)
        for t in tracks
        if t.live and t.frames and t.last_frame == frame and not t.coasted[-1]
    ]
    stats = {
        "cost_evaluations": n_eval,
        "query_refinements": len(queries),
        "n_queries": len(queries),
        "n_predicted": int(np.count_nonzero(queries["provenance"] == PREDICTED)),
    }
    return FrameResult(
        tracks=tracks,
        detections=detections,
        queries=queries,
        assignment=assignment,
        stats=stats,
    )
