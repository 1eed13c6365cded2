#!/usr/bin/env python3
"""Check that this checkout's runs are byte-identical to another checkout's.

Usage, from the root of a source checkout:

    python3 tests/same_reports.py OTHER_CHECKOUT

Both checkouts run the same 92 runs, each with a debug dump: all 20 seeds
of both shipped configs, both arms, plus seeds 1-3 of perfbench's `crowd`
and `query_flood` workloads, both arms.  Each checkout runs in its own
interpreter with its own ``src`` on the path, the two side by side.  The
run plan, its config documents and perfbench's workloads, comes from the
checkout this script is in, so the other checkout must accept this one's
configs.  The check then requires, run by run:

- equal reports, once `counters.wall_seconds` and `counters.fps`, the only
  fields a run may vary in, are set to 0;
- identical dump frame records (every line but the header and footer);
- in each checkout, `replay_dump` of the dump equal to the run's report.

For each run that fails a requirement it prints one line: every JSON path
at which the two reports differ, every top-level key of the frame records
whose content differs in some frame, or the checkout whose dump does not
replay.  It exits 1 if there is any such line, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("standard_suite", "standard_suite_reduced")
WORKLOAD_SEEDS = (1, 2, 3)
ARMS = ("baseline", "pap")

# run in each checkout; reads the run list from argv[1] and writes one result per run to argv[2]: its
# report, one digest per top-level key of its frame records, across frames, and whether it replays
CHILD = r"""
import collections, hashlib, json, sys
from paptrack.harness import config_from_dict, replay_dump, run_single
from paptrack.metrics import report_to_json

results = {}
for name, doc, seed, arm, dump in json.load(open(sys.argv[1])):
    cfg = config_from_dict(doc)
    report = run_single(cfg, seed, rho=0.0 if arm == "baseline" else cfg.policy.rho, arm=arm, dump_path=dump)
    keys = collections.defaultdict(hashlib.sha256)
    with open(dump, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if record["type"] == "frame":
                for key, value in record.items():
                    keys[key].update(f"{record['frame']} {json.dumps(value, sort_keys=True)}\n".encode())
    report["counters"].update(wall_seconds=0.0, fps=0.0)
    replayed = replay_dump(dump)
    replayed["counters"].update(wall_seconds=0.0, fps=0.0)
    results[name] = {
        "report": report_to_json(report),
        "frame_keys": {key: digest.hexdigest() for key, digest in keys.items()},
        "replays": report_to_json(replayed) == report_to_json(report),
    }
json.dump(results, open(sys.argv[2], "w"))
"""


def differences(a, b, path: str = ""):
    """The path of every value, in sorted key and list order, at which two JSON documents differ.

    Of two lists of different lengths, the first index past the shorter one
    stands for the values only the longer one holds.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{path}.{key}".lstrip(".")
            elif a[key] != b[key]:
                yield from differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                yield from differences(x, y, f"{path}[{i}]")
        if len(a) != len(b):
            yield f"{path}[{min(len(a), len(b))}]".lstrip(".")
    else:
        yield path.lstrip(".") or "the top level"


def runs() -> list[tuple[str, dict, int, str]]:
    """(name, config document, seed, arm) of every run of the check."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS  # the benchmark's workloads, as config documents

    out = []
    for config in CONFIGS:
        doc = json.loads((ROOT / "configs" / f"{config}.json").read_text(encoding="utf-8"))
        out += [(f"{config}/seed{seed}/{arm}", doc, seed, arm) for seed in doc["seeds"] for arm in ARMS]
    for workload in ("crowd", "query_flood"):
        doc = WORKLOADS[workload].config_doc(list(WORKLOAD_SEEDS))
        out += [(f"{workload}/seed{seed}/{arm}", doc, seed, arm) for seed in WORKLOAD_SEEDS for arm in ARMS]
    return out


def start(checkout: Path, plan: list, tmp: Path, tag: str) -> tuple[subprocess.Popen, Path]:
    """Start one checkout's runs in a fresh interpreter; returns the process and its result file."""
    dumps = tmp / tag
    dumps.mkdir()
    todo = [(name, doc, seed, arm, str(dumps / f"{hashlib.sha256(name.encode()).hexdigest()[:16]}.jsonl")) for name, doc, seed, arm in plan]
    plan_path, result_path = tmp / f"{tag}_plan.json", tmp / f"{tag}_results.json"
    plan_path.write_text(json.dumps(todo), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(plan_path), str(result_path)], cwd=checkout, env=env)
    return proc, result_path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "paptrack").is_dir():
        print(f"error: {other} is not a paptrack source checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        plan = runs()
        started = {tag: start(checkout, plan, tmp, tag) for tag, checkout in (("this", ROOT), ("other", other))}
        results = {}
        for tag, (proc, path) in started.items():
            if proc.wait() != 0:
                print(f"error: the runs of the {tag} checkout failed (exit {proc.returncode})", file=sys.stderr)
                return 1
            results[tag] = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for name, _, _, _ in plan:
        mine, theirs = results["this"][name], results["other"][name]
        if mine["report"] != theirs["report"]:
            paths = differences(json.loads(mine["report"]), json.loads(theirs["report"]))
            problems.append(f"{name}: the reports differ at {', '.join(paths)}")
        if mine["frame_keys"] != theirs["frame_keys"]:
            problems.append(f"{name}: the frame records differ in {', '.join(differences(mine['frame_keys'], theirs['frame_keys']))}")
        problems += [f"{name}: the {tag} checkout's dump does not replay to its report" for tag in results if not results[tag][name]["replays"]]
    for problem in problems:
        print(problem)
    print(f"{len(plan)} runs in each checkout: {'all identical' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
