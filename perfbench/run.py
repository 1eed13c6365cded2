#!/usr/bin/env python3
"""paptrack benchmark: paired baseline/closed-loop runs of ``harness.run_single``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite_ab --seed 0 --seconds 36 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics of ``BENCHMARK.json``; its times are scaled to a
reference machine speed (see ``scaled``). ``--trace 1`` runs the first
seeds of the workload's set once plainly and once with the program's
public functions wrapped (see ``spans.py``), and prints the per-layer
metrics. Both modes check the program's outputs; any failed check makes
the exit code 1. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. Full results, and in traced mode the
spans, are written under ``.perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUITE = ROOT / "configs" / "standard_suite.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

ARMS = ("baseline", "pap")
SETUPS = 5  # fresh-process set-ups per timed run, spread over its first pass; setup_s is their median
TRACED_SEEDS = 3  # the traced run uses the first seeds of the workload's set
REFERENCE_CALIBRATION_S = 0.1  # calibration_work() time at the reference speed
SETUP_CODE = "import sys; from paptrack import cli; cli.load_config(sys.argv[1])"


@dataclass(frozen=True)
class Workload:
    """The shipped suite config with `overrides` merged one level deep.

    `seeds_per_run` scenario seeds make one pass; ``--seed n`` selects the
    seeds ``n*k+1 .. n*k+k``, so seed 0 is the start of the shipped suite
    and distinct ``--seed`` values never share a scenario. One pass fills
    most of a run, and the quality metrics are means over the pass, so
    they vary little from one ``--seed`` to the next.
    """

    seeds_per_run: int
    overrides: dict = field(default_factory=dict)

    def seeds(self, seed: int) -> list[int]:
        k = self.seeds_per_run
        return list(range(seed * k + 1, seed * k + k + 1))

    def config_doc(self, seeds: list[int]) -> dict:
        doc = json.loads(SUITE.read_text(encoding="utf-8"))
        for section, values in self.overrides.items():
            doc[section].update(values)
        doc["seeds"] = seeds
        return doc


# Why each workload exists is recorded in BENCHMARK.json; the shares below
# are of one run's wall time, measured with --trace 1 on the numpy gate path.
WORKLOADS = {
    # as shipped: assemble ~38%, evaluate ~25%, update ~10%, gate ~9%
    "suite_ab": Workload(seeds_per_run=12),
    # 3 agents, 1024 queries: assembly ~78%, gate ~12%, metrics ~2%
    "query_flood": Workload(
        seeds_per_run=8,
        overrides={
            "scenario": {"class_counts": {"car": 2, "pedestrian": 1}},
            "sensor": {"clutter_rate": 1.0},
            "policy": {"n_queries": 1024},
        },
    ),
    # 60 agents, heavy clutter, 128 queries: evaluate ~43%, update ~23%
    "crowd": Workload(
        seeds_per_run=5,
        overrides={
            "scenario": {
                "world_half_extent": 40.0,
                "class_counts": {
                    "car": 20, "pedestrian": 16, "bicycle": 8, "bus": 4, "motor": 4, "trailer": 4, "truck": 4,
                },
            },
            "sensor": {"clutter_rate": 8.0},
            "policy": {"n_queries": 128},
        },
    ),
}


def _count_measurements(args):
    return lambda result: {"measurements": len(result)}


def _count_perceive(args):
    from paptrack.queries import PREDICTED

    n_tracks = len(args[2])  # update_tracks appends births to this list in place

    def counts(result):
        queries, matches = result.queries, result.assignment.matches
        return {
            "queries": len(queries),
            "predicted_queries": result.stats["n_predicted"],
            "predicted_matched": sum(1 for qi, _, _ in matches if queries[qi].provenance == PREDICTED),
            "matches": len(matches),
            "births": len(result.tracks) - n_tracks,
        }

    return counts


def _count_cost_evaluations(args):
    return lambda result: {"cost_evaluations": result[1]}


def _count_banked(args):
    frame = args[2]
    return lambda bank: {"banked_queries": len(bank.fetch(frame))}


# span name -> (module whose code makes the call, attribute, observer)
TARGETS = {
    "harness.run_single": ("paptrack.harness", "run_single", None),
    "harness.replay": ("paptrack.harness", "replay_dump", None),
    "harness.ground_truth": ("paptrack.harness", "scenario_ground_truth", None),
    "world.generate": ("paptrack.harness", "generate_scenario", None),
    "world.sense": ("paptrack.harness", "sense", _count_measurements),
    "perception.perceive": ("paptrack.harness", "perceive", _count_perceive),
    "prediction.predict": ("paptrack.harness", "predict_and_store", _count_banked),
    "metrics.evaluate": ("paptrack.harness", "evaluate_run", None),
    "perception.assemble": ("paptrack.perception", "assemble_queries", None),
    "perception.gate": ("paptrack.perception", "gate_costs", _count_cost_evaluations),
    "perception.priority": ("paptrack.perception", "apply_predicted_priority", None),
    "perception.associate": ("paptrack.perception", "associate", None),
    "perception.update": ("paptrack.perception", "update_tracks", None),
    "kernels.gated_costs": ("paptrack.perception", "gated_costs", None),
    "queries.embed_center@perception": ("paptrack.perception", "embed_center", None),
    "queries.embed_center@prediction": ("paptrack.prediction", "embed_center", None),
    "metrics.match_frame": ("paptrack.metrics", "match_frame", None),
}


def calibration_work() -> float:
    """A fixed CPU-bound mix of interpreter and small-array numpy work.

    Independent of paptrack, so its time measures only the machine's speed
    at the moment. It takes about REFERENCE_CALIBRATION_S on an unloaded
    x86-64 core with Python 3.11 and numpy 2.
    """
    pts = np.random.default_rng(0).random((256, 2))
    acc, seen = 0.0, {}
    for i in range(6000):
        x = pts[i % 256]
        dist = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
        j = int(np.argmin(dist))
        acc += float(dist[j])
        seen[i % 97] = (acc, j)
        for k in range(20):
            acc += math.sqrt(k + i)
    return acc


def canonical(report: dict) -> str:
    """Digest of a report without the two fields allowed to vary between runs."""
    counters = {k: v for k, v in report["counters"].items() if k not in ("wall_seconds", "fps")}
    doc = dict(report, counters=counters)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def report_problems(report: dict) -> list[str]:
    agg = report["aggregate"]
    problems = [f"aggregate {k}={agg[k]} outside [0, 1]" for k in ("amota", "amotp", "recall") if not 0.0 <= agg[k] <= 1.0]
    if not agg["ids"] >= 0:
        problems.append(f"aggregate ids={agg['ids']} negative")
    return problems


class Bench:
    """Runs a workload's operations, checks every output and keeps the timings."""

    def __init__(self, harness, cfg, dump_dir: Path):
        self.harness = harness
        self.cfg = cfg
        self.dump_dir = dump_dir
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[int, str], str] = {}
        self.hashes: dict[int, str] = {}
        self.aggregates: dict[tuple[int, str], dict] = {}
        self.run_s: dict[str, list[float]] = {arm: [] for arm in ARMS}
        self.dump_run_s: list[float] = []
        self.replay_s: list[float] = []
        self.dump_bytes: list[int] = []
        # (kind, seconds, loop seconds, frames) in order; kind is "calibration", "setup" or an arm
        self.timeline: list[tuple[str, float, float, int]] = []

    def _op(self, what: str, fn):
        """Run one operation; it returns (value, problems). None if it failed."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception:  # a program fault fails this operation, not the benchmark
            traceback.print_exc()
            problems, value = ["raised"], None
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
            return None
        return value

    def setup(self, config_path: Path):
        """One fresh interpreter importing paptrack and loading the config; its wall time."""

        def go():
            env = dict(os.environ, PYTHONPATH=str(SRC))
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=120)
            seconds = time.perf_counter() - t0
            return seconds, [] if out.returncode == 0 else [f"exit {out.returncode}: {out.stderr.strip()[-2000:]}"]

        return self._op("setup", go)

    def run(self, seed: int, arm: str, dump: bool = False):
        """One run_single call; returns (report, seconds, dump path) or None."""

        def go():
            rho = 0.0 if arm == "baseline" else self.cfg.policy.rho
            path = self.dump_dir / f"{arm}_seed{seed}.jsonl" if dump else None
            t0 = time.perf_counter()
            report = self.harness.run_single(self.cfg, seed, rho=rho, arm=arm, dump_path=path)
            seconds = time.perf_counter() - t0
            problems = report_problems(report)
            digest = canonical(report)
            first = self.digests.setdefault((seed, arm), digest)
            self.aggregates.setdefault((seed, arm), report["aggregate"])
            if digest != first:
                problems.append("report differs from the first run of this seed and arm")
            if self.hashes.setdefault(seed, report["measurement_hash"]) != report["measurement_hash"]:
                problems.append("measurement_hash differs between the arms of this seed")
            return (report, seconds, path), problems

        return self._op(f"run seed={seed} arm={arm} dump={dump}", go)

    def calibrate(self) -> None:
        """Time calibration_work() before a timed operation; see scaled()."""
        t0 = time.perf_counter()
        calibration_work()
        self.timeline.append(("calibration", time.perf_counter() - t0, 0.0, 0))

    def pair(self, seed: int) -> None:
        for arm in ARMS:
            self.calibrate()
            out = self.run(seed, arm)
            if out is None:
                continue
            report, seconds, _ = out
            self.run_s[arm].append(seconds)
            counters = report["counters"]
            self.timeline.append((arm, seconds, counters["wall_seconds"], counters["frames"]))

    def passes(self, seeds: list[int], seconds: float, before=None) -> None:
        """Pairs over `seeds` in order, repeated, until `seconds` have passed.

        The first pass always completes. After it, another pair starts only
        if it is expected to end nearer to `seconds` than stopping now.
        `before`, if given, is called with each pair's index before the pair.
        """
        t0 = time.perf_counter()
        paired = 0.0  # seconds spent in pairs, without `before`
        for n, seed in enumerate(itertools.cycle(seeds), start=1):
            if before is not None:
                before(n - 1)
            t1 = time.perf_counter()
            self.pair(seed)
            paired += time.perf_counter() - t1
            elapsed = time.perf_counter() - t0
            if n >= len(seeds) and elapsed + paired / n / 2 >= seconds:
                return

    def dump(self, seed: int):
        """A pap run that writes a debug dump; returns (path, report) or None.

        Its report must equal the undumped run's, apart from the timings.
        """
        out = self.run(seed, "pap", dump=True)
        if out is None:
            return None
        report, seconds, path = out
        self.dump_run_s.append(seconds)
        self.dump_bytes.append(path.stat().st_size)
        return path, report

    def replay(self, path: Path, report: dict) -> None:
        """One replay_dump call, which must rebuild the dumped run's report exactly."""

        def go():
            t0 = time.perf_counter()
            replayed = self.harness.replay_dump(path)
            seconds = time.perf_counter() - t0
            same = json.dumps(replayed, sort_keys=True) == json.dumps(report, sort_keys=True)
            return seconds, [] if same else ["replayed report differs from the run's report"]

        seconds = self._op(f"replay {path.name}", go)
        if seconds is not None:
            self.replay_s.append(seconds)


def _median(values):
    return statistics.median(values) if values else None


def quality(bench: Bench, seeds: list[int]) -> dict:
    """Deterministic means over the seed set, from the first report of each run."""
    per_arm = {arm: [bench.aggregates[(s, arm)] for s in seeds if (s, arm) in bench.aggregates] for arm in ARMS}
    base, pap = per_arm["baseline"], per_arm["pap"]
    if len(base) != len(seeds) or len(pap) != len(seeds):
        return {}
    amota_pap = statistics.fmean(a["amota"] for a in pap)
    amota_base = statistics.fmean(a["amota"] for a in base)
    return {
        "amota_pap": amota_pap,
        "recall_pap": statistics.fmean(a["recall"] for a in pap),
        "amota_ratio": amota_pap / amota_base if amota_base > 0 else None,
        "metrics.amota_gain": amota_pap - amota_base,
        "metrics.ids_pap": statistics.fmean(a["ids"] for a in pap),
    }


def scaled(timeline: list) -> dict[str, list[tuple[float, float, int]]]:
    """Each operation's (seconds, loop seconds, frames), scaled to the reference speed.

    The speed of a shared virtual machine swings by up to 2x over seconds
    to minutes, about equally for paptrack and for calibration_work(), so
    times scaled by reference ÷ calibration compare across runs where raw
    times do not. An operation's calibration is the geometric mean of the
    ones just before and just after it.
    """
    after, following = [], None
    for kind, seconds, _, _ in reversed(timeline):
        after.append(following)
        if kind == "calibration":
            following = seconds
    after.reverse()
    out: dict[str, list[tuple[float, float, int]]] = {}
    before = None
    for (kind, seconds, loop, frames), cal_after in zip(timeline, after):
        if kind == "calibration":
            before = seconds
            continue
        cals = [c for c in (before, cal_after) if c is not None]
        factor = REFERENCE_CALIBRATION_S / statistics.geometric_mean(cals)
        out.setdefault(kind, []).append((seconds * factor, loop * factor, frames))
    return out


def timed(bench: Bench, seeds: list[int], seconds: float, config_path: Path) -> tuple[dict, dict]:
    """The A/B pairs for `seconds`, with SETUPS set-ups spread evenly over the first pass.

    Every set-up and run is preceded by a calibration, and its time is
    scaled as scaled() says. Spreading the set-ups over the run, rather
    than taking them together, keeps a slow spell of the machine from
    setting all of them.
    """
    def set_up(n):
        k = len(seeds)
        if n < k:
            for _ in range((n + 1) * SETUPS // k - n * SETUPS // k):
                bench.calibrate()
                took = bench.setup(config_path)
                if took is not None:
                    bench.timeline.append(("setup", took, 0.0, 0))

    bench.passes(seeds, seconds, before=set_up)
    bench.calibrate()
    times = scaled(bench.timeline)
    loop_s = sum(loop for _, loop, _ in times.get("baseline", []) + times.get("pap", []))
    frames = sum(f for _, _, f in times.get("baseline", []) + times.get("pap", []))
    metrics = {
        "setup_s": _median([t for t, _, _ in times.get("setup", [])]),
        "baseline_run_s": _median([t for t, _, _ in times.get("baseline", [])]),
        "pap_run_s": _median([t for t, _, _ in times.get("pap", [])]),
        "loop_fps": frames / loop_s if loop_s > 0 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality(bench, seeds),
    }
    samples = {"timeline": bench.timeline}
    return metrics, {"samples": samples}


def traced(bench: Bench, seeds: list[int], spans_path: Path) -> tuple[dict, dict]:
    """A plain pass and a dumped run, then the same pass and a replay traced.

    Times are seconds per run_single call (or per replay_dump call) and
    counts are per call, so they do not depend on how many runs fit in the
    run length. The dumped run stays untraced, so the per-run figures are
    those of the A/B runs.
    """
    bench.passes(seeds, 0)
    plain = {arm: list(bench.run_s[arm]) for arm in ARMS}
    dumped = bench.dump(seeds[0])
    bench.run_s = {arm: [] for arm in ARMS}
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        bench.passes(seeds, 0)
        if dumped is not None:
            bench.replay(*dumped)
    finally:
        tracer.uninstall()
    np.savez(spans_path, names=np.array(tracer.names), **tracer.arrays())

    runs = tracer.summary("harness.run_single")
    replays = tracer.summary("harness.replay")

    def per_run(value):
        return value / runs["harness.run_single"]["calls"]

    def total(span):
        return per_run(runs[span]["total_s"])

    def count(span, key):
        if span in tracer.missing_counts:
            raise KeyError(span)
        return per_run(tracer.counts[(span, key)])

    def embed(stat):
        found = [runs[s][stat] for s in ("queries.embed_center@perception", "queries.embed_center@prediction") if s in runs]
        if not found:
            raise KeyError("queries.embed_center")
        return per_run(sum(found))

    def overhead():
        n = sum(len(v) for v in plain.values())
        return (sum(map(sum, bench.run_s.values())) - sum(map(sum, plain.values()))) / n

    formulas = {
        "queries.embed_center_calls": lambda: embed("calls"),
        "queries.embed_center_s": lambda: embed("total_s"),
        "perception.assemble_s": lambda: total("perception.assemble"),
        "perception.gate_s": lambda: total("perception.gate"),
        "perception.priority_s": lambda: total("perception.priority"),
        "perception.associate_s": lambda: total("perception.associate"),
        "perception.update_s": lambda: total("perception.update"),
        "perception.perceive_self_s": lambda: per_run(runs["perception.perceive"]["self_s"]),
        "perception.queries": lambda: count("perception.perceive", "queries"),
        "perception.predicted_queries": lambda: count("perception.perceive", "predicted_queries"),
        "perception.cost_evaluations": lambda: count("perception.gate", "cost_evaluations"),
        "perception.matches": lambda: count("perception.perceive", "matches"),
        "perception.births": lambda: count("perception.perceive", "births"),
        "perception.recycled_hit_rate": lambda: count("perception.perceive", "predicted_matched")
        / count("perception.perceive", "predicted_queries"),
        "kernels.gated_costs_s": lambda: total("kernels.gated_costs"),
        "prediction.predict_s": lambda: total("prediction.predict"),
        "prediction.banked_queries": lambda: count("prediction.predict", "banked_queries"),
        "world.generate_s": lambda: total("world.generate"),
        "world.sense_s": lambda: total("world.sense"),
        "world.measurements": lambda: count("world.sense", "measurements"),
        "metrics.evaluate_s": lambda: total("metrics.evaluate"),
        "metrics.match_frame_calls": lambda: per_run(runs["metrics.match_frame"]["calls"]),
        "metrics.match_frame_s": lambda: total("metrics.match_frame"),
        "harness.ground_truth_s": lambda: total("harness.ground_truth"),
        "harness.run_single_self_s": lambda: per_run(runs["harness.run_single"]["self_s"]),
        "harness.dump_run_s": lambda: statistics.fmean(bench.dump_run_s),
        "harness.replay_s": lambda: replays["harness.replay"]["total_s"] / replays["harness.replay"]["calls"],
        "harness.dump_bytes": lambda: statistics.fmean(bench.dump_bytes),
        "trace.overhead_s": overhead,
    }
    metrics = {}
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except (KeyError, ZeroDivisionError, statistics.StatisticsError):
            pass  # reported as missing by the caller
    metrics.update(quality(bench, seeds))
    extra = {
        "missing_spans": tracer.missing,
        "missing_counts": sorted(tracer.missing_counts),
        "spans": {"runs": runs, "replays": replays},
        "samples": {"plain_run_s": plain, "traced_run_s": bench.run_s},
    }
    return metrics, extra


def _git_commit() -> str:
    """The checked-out commit; "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # not a repository enclosing ROOT
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import scipy

    from paptrack import kernels

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "use_numba": bool(kernels.USE_NUMBA),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="selects the scenario seeds (default 0)")
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    needed = [p for p in (SRC / "paptrack" / "__init__.py", SUITE, SPEC) if not p.is_file()]
    if needed:
        print(f"error: not a paptrack source checkout; missing {[str(p.relative_to(ROOT)) for p in needed]}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    sys.path.insert(0, str(SRC))
    from paptrack import harness

    workload = WORKLOADS[args.workload]
    seeds = workload.seeds(args.seed)
    if args.trace:
        seeds = seeds[:TRACED_SEEDS]
    doc = workload.config_doc(seeds)
    cfg = harness.config_from_dict(doc)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = Bench(harness, cfg, Path(tmp))
        if args.trace:
            metrics, extra = traced(bench, seeds, OUT / f"spans_{args.workload}.npz")
        else:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(doc), encoding="utf-8")
            metrics, extra = timed(bench, seeds, seconds, config_path)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if metrics.get(m["name"]) is not None}
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    env = environment()
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": reported}
    record = {"workload": args.workload, "seed": args.seed, "seeds": seeds, "trace": args.trace, "seconds": seconds,
              "env": env, **result, "missing_metrics": missing, **extra}
    (OUT / f"result_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    for name, m in reported.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    for name in missing:
        print(f"{name:32s} {'missing':>14s}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
