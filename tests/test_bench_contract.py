"""The names and result shapes the benchmark in ``perfbench/`` relies on.

``perfbench/run.py`` wraps program functions by name and reads the
objects they return. A renamed function or a changed return type does
not crash the benchmark; it silently drops per-layer metrics. This test
runs the benchmark's own traced pass on one short seed, so such a change
fails here instead.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from paptrack import harness, kernels

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py imported as a module, unmodified."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling spans.py
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
        spec.loader.exec_module(module)
        yield module


def test_traced_benchmark_pass_measures_every_per_layer_metric(bench_run, tmp_path):
    doc = bench_run.WORKLOADS["suite_ab"].config_doc([1])
    doc["scenario"]["frame_count"] = 30
    cfg = harness.config_from_dict(doc)
    bench = bench_run.Bench(harness, cfg, tmp_path)

    # both arms, plainly and under the Tracer installed on TARGETS, then a dump and its replay
    metrics, extra = bench_run.traced(bench, [1], tmp_path / "spans.npz")

    assert bench.failed == 0
    assert extra["missing_spans"] == []
    assert extra["missing_counts"] == []
    runs = extra["spans"]["runs"]
    uncalled = [s for s in bench_run.TARGETS if s != "harness.replay" and runs.get(s, {}).get("calls", 0) < 1]
    assert uncalled == []
    assert extra["spans"]["replays"]["harness.replay"]["calls"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in metrics] == []
    assert metrics["perception.predicted_queries"] > 0
    assert 0.0 < metrics["perception.recycled_hit_rate"] <= 1.0


def test_environment_stamp_reads_the_kernel_flag(bench_run):
    assert hasattr(kernels, "USE_NUMBA")
    assert bench_run.environment()["use_numba"] is False


def test_timed_setup_loads_the_suite_config_in_a_fresh_interpreter(bench_run, tmp_path):
    doc = bench_run.WORKLOADS["suite_ab"].config_doc([1])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    bench = bench_run.Bench(harness, harness.config_from_dict(doc), tmp_path)

    seconds = bench.setup(config_path)  # runs SETUP_CODE, which imports paptrack.cli

    assert bench.failed == 0
    assert isinstance(seconds, float) and seconds > 0.0


def test_timed_mode_ends_with_a_result_line(bench_run, tmp_path, monkeypatch, capsys):
    # every shipped workload document is a valid config
    for name, workload in bench_run.WORKLOADS.items():
        assert harness.config_from_dict(workload.config_doc(workload.seeds(0))).seeds == workload.seeds(0), name
    monkeypatch.setitem(bench_run.WORKLOADS, "suite_ab",
                        bench_run.Workload(seeds_per_run=1, overrides={"scenario": {"frame_count": 30}}))
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() puts src/ in front

    code = bench_run.main(["--workload", "suite_ab", "--seconds", "0"])

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
