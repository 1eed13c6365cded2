"""Golden digests: short runs of the shipped configs must keep their reports and dumps.

Each case runs both shipped configs cut to 40 frames, seeds 1 and 2, both
arms, with a debug dump, and compares three sha256 digests with
`tests/golden_digests.json`: of the report JSON, of the whole dump, and of
the dump's frame records alone (`frames`: no header, no footer), which a
change to `config_echo` or the footer leaves as they are.  Two more cases
run a dense scene, perfbench's `crowd` workload cut to 80 frames (seed 1,
both arms), whose track tables hold many terminated rows.  Two run perfbench's
`query_flood` workload cut to 40 frames (seed 1, both arms): tall cost
matrices with few predicted rows.  Three degenerate scenes, each
the standard suite cut to 40 frames (seed 1, both arms), pin the empty and
one-row paths: `no_agents` (every frame all clutter), `empty_frames`
(`miss_probability` 1 and `clutter_rate` 0, so every frame is empty) and
`one_query` (`n_queries` 1 and `rho` 1, so the pap arm's one query is
recycled whenever the bank holds one).  Wall time is the only part of
a run that may differ between runs, so `counters.wall_seconds` and
`counters.fps` are set to 0 in the report and in the dump's footer before
hashing.  Each dump must also replay to its report.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``.
A change that alters reports or dumps on purpose regenerates it and says
why in CHANGES.md; a refactor must pass without regenerating.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from paptrack.harness import config_from_dict, replay_dump, run_single
from paptrack.metrics import report_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
CONFIGS = ("standard_suite", "standard_suite_reduced")
SEEDS = (1, 2)
ARMS = ("baseline", "pap")
FRAMES = 40
# perfbench's `crowd` workload: the standard suite with 60 agents, heavy clutter and 128 queries
CROWD = {
    "scenario": {
        "world_half_extent": 40.0,
        "class_counts": {"car": 20, "pedestrian": 16, "bicycle": 8, "bus": 4, "motor": 4, "trailer": 4, "truck": 4},
    },
    "sensor": {"clutter_rate": 8.0},
    "policy": {"n_queries": 128},
}
CROWD_FRAMES = 80
# perfbench's `query_flood` workload: 3 agents, light clutter and 1,024 queries, of which few are predicted
QUERY_FLOOD = {
    "scenario": {"class_counts": {"car": 2, "pedestrian": 1}},
    "sensor": {"clutter_rate": 1.0},
    "policy": {"n_queries": 1024},
}
# degenerate scenes: overrides of the standard suite, run on FRAMES frames
DEGENERATE = {
    "no_agents": {"scenario": {"class_counts": {}}},
    "empty_frames": {"sensor": {"miss_probability": 1.0, "clutter_rate": 0.0}},
    "one_query": {"policy": {"n_queries": 1, "rho": 1.0}},  # rho 1: the pap arm's one query is a banked one
}
OVERRIDES = {"crowd": CROWD, "query_flood": QUERY_FLOOD, **DEGENERATE}
CASES = [f"{config}/seed{seed}/{arm}" for config in CONFIGS for seed in SEEDS for arm in ARMS] + [
    f"{scene}/seed1/{arm}" for scene in OVERRIDES for arm in ARMS
]


def _untimed(counters: dict) -> dict:
    return {**counters, "wall_seconds": 0.0, "fps": 0.0}


def run_case(case: str, tmp: Path) -> tuple[dict, dict, Path]:
    """One case's (digests, report, dump path)."""
    config, seed, arm = case.split("/")
    doc = json.loads((ROOT / "configs" / f"{'standard_suite' if config in OVERRIDES else config}.json").read_text(encoding="utf-8"))
    for section, values in OVERRIDES.get(config, {}).items():
        doc[section].update(values)
    cfg = config_from_dict(doc)
    cfg.scenario = dataclasses.replace(cfg.scenario, frame_count=CROWD_FRAMES if config == "crowd" else FRAMES)
    dump = tmp / f"{config}_{seed}_{arm}.jsonl"
    rho = 0.0 if arm == "baseline" else cfg.policy.rho
    report = run_single(cfg, int(seed.removeprefix("seed")), rho=rho, arm=arm, dump_path=dump)
    lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
    footer = json.loads(lines[-1])
    footer["counters"] = _untimed(footer["counters"])
    lines[-1] = json.dumps(footer, sort_keys=True) + "\n"
    digests = {
        "report": hashlib.sha256(report_to_json({**report, "counters": _untimed(report["counters"])}).encode()).hexdigest(),
        "dump": hashlib.sha256("".join(lines).encode()).hexdigest(),
        "frames": hashlib.sha256("".join(lines[1:-1]).encode()).hexdigest(),
    }
    return digests, report, dump


@pytest.mark.parametrize("case", CASES)
def test_report_and_dump_match_golden_digests(tmp_path, case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests, report, dump = run_case(case, tmp_path)
    assert report_to_json(replay_dump(dump)) == report_to_json(report)
    assert digests == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: run_case(case, Path(tmp))[0] for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
