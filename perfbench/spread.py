#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload crowd                # seeds 0-9
    python3 perfbench/spread.py --workload crowd --held-out     # seeds 100-109

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median, and flags a metric, ``setup_s``
included, when that share exceeds a third of its bound in BENCHMARK.json.
Each run uses another ``--seed``, so the spread of a timing holds both run-to-run noise and the
difference between seed sets, and that of a quality metric (deterministic
for a seed) holds only the latter. Run it twice to see whether two sets
of runs agree. The development seeds are for tuning a change; the
held-out seeds are kept for the final check of a claim. The values are
written to ``.perfbench/spread_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEVELOPMENT_SEEDS = range(0, 10)
HELD_OUT_SEEDS = range(100, 110)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--held-out", action="store_true", help="use the held-out seeds 100-109")
    args = parser.parse_args(argv)
    seeds = list(HELD_OUT_SEEDS if args.held_out else DEVELOPMENT_SEEDS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    wide = False
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share > bound / 3:
            flag, wide = "  WIDE", True
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f} {bound if bound else '':>6}{flag}")
    out_path = ROOT / ".perfbench" / f"spread_{args.workload}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({"seeds": seeds, "values": values}, indent=2), encoding="utf-8")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
