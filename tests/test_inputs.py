"""Every reader of outside JSON against values of the wrong kind.

The four readers are configs, scenario files, debug dumps and reports.  Each must refuse a value of the wrong kind with
its own exit code, 2 for a config and 4 for the rest, and with one stderr
line that names the field (and the file, for the readers whose messages
name one), never with a traceback.  The table of each reader is built from
a document the program itself writes, so a field added to a document is
covered without a new row.
"""

from __future__ import annotations

import copy
import json
import math

import pytest

from paptrack.cli import main
from paptrack.harness import ExperimentConfig, MetricConfig, config_to_dict
from paptrack.perception import MAX_QUERIES
from paptrack.world import (
    MAX_CLUTTER_RATE,
    MAX_DETECTION_RANGE,
    MAX_EGO_SPEED,
    MAX_HALF_EXTENT,
    MAX_NOISE_SIGMA,
    MAX_TURN_RATE,
    ScenarioConfig,
    generate_scenario,
    scenario_to_dict,
)

HUGE = 10**400  # past int64 and past a float
NOT_INTEGER = [True, None, "1", [], HUGE, 2**64]  # each wrong for an integer that becomes an int64
NOT_ID = [*NOT_INTEGER, -1]  # ids and counts
NOT_NUMBER = [True, None, "1", [], HUGE, 2**64, 2**53 + 1, math.nan, math.inf]  # 2^53 + 1 would round to 2^53
NOT_STRING = [True, None, [], HUGE]
NOT_OBJECT = [True, None, "1", [], HUGE]
NOT_PAIR = [*NOT_NUMBER, [0.0], *([value, 0.0] for value in NOT_NUMBER)]
NOT_SEED = [True, None, "1", [], -1]  # a seed is not bounded above
NOT_CLASS = [*NOT_STRING, "1"]
NOT_ROWS = [True, None, "1", [], HUGE, math.nan]
# values past a bound of a config field that sizes an array, feeds the RNG, moves the ego or places a
# measurement, each once a traceback or a run of infinite positions or distances
PAST_BOUND = {
    "n_queries": [2**62, MAX_QUERIES + 1],
    "clutter_rate": [1e300, MAX_CLUTTER_RATE + 0.5],
    "world_half_extent": [1e308, 1.5 * MAX_HALF_EXTENT],
    "turn_rate_range": [[-1e308, 1e308], [0.6, 0.1], [-0.1, 0.1], [0.0, 1.5 * MAX_TURN_RATE]],
    "spawn_margin": [-1e308, -1.5 * MAX_HALF_EXTENT, 1.5 * MAX_HALF_EXTENT],
    "ego_speed": [1e308, 1.5 * MAX_EGO_SPEED, -1.5 * MAX_EGO_SPEED],
    "position_noise_sigma": [1e308, 1.5 * MAX_NOISE_SIGMA],
    "detection_range": [1e308, 1.5 * MAX_DETECTION_RANGE],
}


def tiny_config(**fields) -> ExperimentConfig:
    """Two cars, both turning (so that `turn_rate_range` is drawn from), for 8 frames."""
    fields = {"seeds": [1], **fields}
    scenario = ScenarioConfig(frame_count=8, class_counts={"car": 2}, turn_fraction=1.0)
    return ExperimentConfig(mode="pap", scenario=scenario, metrics=MetricConfig(n_recall_points=5), **fields)


def _config_rows(doc: dict, path: tuple = ()):
    """(path, wrong values) for every value a config holds, by the type of the value it holds now."""
    for name, value in doc.items():
        where = (*path, name)
        if isinstance(value, dict) and not path and name != "class_counts":  # a section
            yield where, NOT_OBJECT
            yield from _config_rows(value, where)
        elif name == "seeds":
            yield where, [*NOT_OBJECT, *([seed] for seed in NOT_SEED)]
        elif name == "rho_values":
            yield where, [True, None, "1", HUGE, *([rho] for rho in [*NOT_NUMBER, -1.0])]
        elif name == "class_counts":
            yield where, [*NOT_OBJECT, *({"car": n} for n in NOT_ID)]
        elif name == "scenario_path":
            yield where, [True, [], HUGE]  # a string is a path, and null reads no file
        elif isinstance(value, tuple):
            yield where, [*NOT_PAIR, *PAST_BOUND.get(name, [])]
        elif isinstance(value, str):
            yield where, NOT_CLASS  # no mode is named "1"
        elif isinstance(value, int):
            yield where, [*NOT_ID, *PAST_BOUND.get(name, [])]  # every integer setting is a count
        elif isinstance(value, float):
            yield where, [*NOT_NUMBER, *PAST_BOUND.get(name, [])]


def _replace(doc, path: tuple, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A config, a scenario file, a dump and a report of one tiny run, with the documents they hold."""
    root = tmp_path_factory.mktemp("inputs")
    config = config_to_dict(tiny_config())
    (root / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(root / "config.json"), "--out", str(root / "run"), "--dump-debug"]) == 0
    scenario = scenario_to_dict(generate_scenario(tiny_config().scenario, 1))
    dump = (root / "run" / "dump_pap_seed1.jsonl").read_text().splitlines()
    report = json.loads((root / "run" / "report_pap_seed1.json").read_text())
    return root, config, scenario, dump, report


def _config_cases(root, config, scenario, dump, report):
    path = root / "config.json"
    for where, values in _config_rows(config):
        for value in values:
            yield path, json.dumps(_replace(config, where, value)), ["run", "--config", str(path)], where[-1]


def _scenario_cases(root, config, scenario, dump, report):
    path = root / "scenario.json"
    (root / "scenario_config.json").write_text(json.dumps({**config, "scenario_path": str(path)}))
    command = ["run", "--config", str(root / "scenario_config.json")]
    rows = {
        ("frame_count",): [*NOT_ID, 0],
        ("seed",): [True, None, "1", []],  # a scenario file may carry any integer seed
        ("scenario_id",): NOT_STRING,
        ("dt",): [*NOT_NUMBER, 0, -1.0],
        ("agents",): [True, None, "1", HUGE, [1]],
        ("ego",): NOT_ROWS,
        ("agents", 0, "id"): NOT_ID,
        ("agents", 0, "class"): NOT_CLASS,
        ("agents", 0, "spawn"): NOT_ID,
        ("agents", 0, "despawn"): NOT_ID,
        ("agents", 0, "states"): NOT_ROWS,
        ("agents", 0, "states", 0, 0): [True, 2**53 + 1],  # numpy would take them as 1.0 and 2^53
        ("ego", 0, 0): [True, 2**53 + 1],
        ("agents", 0, "turn_rate"): NOT_NUMBER,
    }
    for where, values in rows.items():
        field = next(key for key in reversed(where) if isinstance(key, str))  # an element of states or ego names its field
        for value in values:
            yield path, json.dumps(_replace(scenario, where, value)), command, field


def _dump_cases(root, config, scenario, dump, report):
    path = root / "dump.jsonl"
    frame = next(n for n, line in enumerate(dump) if '"detections": [{' in line and '"gt": [{' in line)
    rows = {
        (0, "config_echo"): NOT_OBJECT,
        (0, "config_echo", "metrics"): NOT_OBJECT,
        (0, "config_echo", "metrics", "match_distance"): [*NOT_NUMBER, 0, -1.0],
        (0, "config_echo", "metrics", "n_recall_points"): [*NOT_ID, 0],
        (frame, "frame"): NOT_ID,
        (frame, "gt", 0, "id"): NOT_ID,
        (frame, "gt", 0, "class"): NOT_CLASS,
        (frame, "gt", 0, "center"): NOT_PAIR,
        (frame, "detections", 0, "track_id"): NOT_ID,
        (frame, "detections", 0, "class"): NOT_CLASS,
        (frame, "detections", 0, "center"): NOT_PAIR,
        (frame, "detections", 0, "confidence"): [*NOT_NUMBER, -1.0, 1.5],
        (-1, "counters"): NOT_OBJECT,
        (-1, "counters", "frames"): NOT_ID,
        (-1, "counters", "wall_seconds"): [*NOT_NUMBER, -1.0],
        (-1, "counters", "cost_evaluations"): NOT_ID,
        (-1, "measurement_hash"): NOT_CLASS,
        (-1, "per_frame_cost_evaluations"): [True, None, "1", HUGE, *([n] for n in NOT_ID)],
    }
    for (line, *where), values in rows.items():
        for value in values:
            lines = list(dump)
            lines[line] = json.dumps(_replace(json.loads(lines[line]), tuple(where), value))
            yield path, "\n".join(lines) + "\n", ["replay", str(path)], where[-1]


def _report_cases(root, config, scenario, dump, report):
    directory = root / "reports"
    directory.mkdir(exist_ok=True)
    path = directory / "report_pap_seed1.json"
    rows = {("config_echo", "run", "seed"): [True, None, "1", []]}  # a report may carry any integer seed
    rows.update({("aggregate", m): NOT_NUMBER for m in ("amota", "amotp", "recall", "ids")})
    rows.update({("counters", c): NOT_NUMBER for c in ("fps", "wall_seconds", "cost_evaluations")})
    for where, values in rows.items():
        for value in values:
            yield path, json.dumps(_replace(report, where, value)), ["compare", str(directory), str(directory)], ".".join(where)


# reader -> (its cases, its exit code, whether its messages name the file); a config's messages name only the field
READERS = {
    "config": (_config_cases, 2, False),
    "scenario_file": (_scenario_cases, 4, True),
    "dump": (_dump_cases, 4, True),
    "report": (_report_cases, 4, True),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_each_wrong_kind_of_value_naming_the_field(artefacts, capsys, reader):
    cases, code, names_file = READERS[reader]
    prefix = "config error: " if code == 2 else "input error: "
    faults, count = [], 0
    for path, text, argv, field in cases(*artefacts):
        path.write_text(text, encoding="utf-8")
        case = f"{field} in {text if len(text) < 80 else path.name}"
        count += 1
        try:
            exit_code = main([*argv, "--out", str(artefacts[0] / "out")])
        except Exception as exc:  # a traceback, where the reader should have refused the value
            faults.append(f"{case}: raised {exc!r}")
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        if exit_code != code or not err.startswith(prefix) or err.count("\n") != 1 or field not in err:
            faults.append(f"{case}: exit {exit_code}, stderr {err!r}")
        elif names_file and str(path) not in err:
            faults.append(f"{case}: stderr {err!r} does not name {path}")
    assert count > 50 and not faults, "\n".join(faults[:20])
    assert not list(artefacts[0].glob("out/report_*"))


@pytest.mark.parametrize("reader", ["config", "scenario_file", "dump", "report"])
def test_a_file_that_is_not_utf8_is_refused_by_its_reader(artefacts, capsys, reader):
    root, config, scenario, dump, report = artefacts
    scenario_config = root / "utf8_scenario_config.json"
    scenario_config.write_text(json.dumps({**config, "scenario_path": str(root / "bad.json")}))
    path, argv, code = {
        "config": (root / "bad.json", ["run", "--config", str(root / "bad.json")], 2),
        "scenario_file": (root / "bad.json", ["run", "--config", str(scenario_config)], 4),
        "dump": (root / "bad.jsonl", ["replay", str(root / "bad.jsonl")], 4),
        "report": (root / "bad" / "report_pap_seed1.json", ["compare", str(root / "bad"), str(root / "bad")], 4),
    }[reader]
    path.parent.mkdir(exist_ok=True)
    docs = {"config": [config], "scenario_file": [scenario], "dump": [json.loads(line) for line in dump], "report": [report]}[reader]
    lines = [json.dumps(doc).encode() for doc in docs]
    lines[-1] = lines[-1].replace(b'"', b'"\xe9', 1)  # the last line is whole JSON but for one Latin-1 byte in a string
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main([*argv, "--out", str(root / f"{reader}_out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "is not JSON" in err and "utf-8" in err
    if reader == "dump":
        assert f"line {len(lines)} is not JSON" in err
    assert not list(root.glob(f"{reader}_out/*"))


def test_a_negative_seed_is_a_config_error_that_writes_nothing(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config(seeds=[2, -1]))))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: seeds must be >= 0, got -1 in [2, -1]\n"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    for command in ("run", "sweep", "generate"):
        assert main([command, "--config", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: seeds must be >= 0, got -1 in [-1]\n"
    assert not (tmp_path / "out").exists()


def test_a_config_at_every_upper_bound_runs(tmp_path):
    """The bounds refuse only what is past them: a run at all of them at once completes."""
    doc = config_to_dict(tiny_config())
    doc["policy"]["n_queries"] = MAX_QUERIES
    doc["sensor"].update(clutter_rate=MAX_CLUTTER_RATE, position_noise_sigma=MAX_NOISE_SIGMA, detection_range=MAX_DETECTION_RANGE)
    doc["scenario"].update(
        world_half_extent=MAX_HALF_EXTENT, turn_rate_range=[0.0, MAX_TURN_RATE], spawn_margin=-MAX_HALF_EXTENT, ego_speed=MAX_EGO_SPEED
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "report_pap_seed1.json").read_text())["counters"]["frames"] == 8


def test_seeds_are_not_bounded_above(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    assert main(["generate", "--config", str(path), "--seed", str(2**64), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / f"scenario_seed{2**64}.json").read_text())["seed"] == 2**64


def _scenario_with_ids(*ids) -> dict:
    doc = scenario_to_dict(generate_scenario(ScenarioConfig(frame_count=20, class_counts={"car": len(ids)}), 1))
    for agent, agent_id in zip(doc["agents"], ids):
        agent["id"] = agent_id
    return doc


def test_a_scenario_agent_id_is_one_a_dump_can_replay(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(tiny_config(scenario_path=str(scenario)))))
    scenario.write_text(json.dumps(_scenario_with_ids(-5, 1)))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "refused"), "--dump-debug"]) == 4
    assert capsys.readouterr().err == f"input error: scenario file {scenario} agent 0 field 'id' must be >= 0, got -5\n"
    assert not list(tmp_path.glob("refused/*"))

    scenario.write_text(json.dumps(_scenario_with_ids(0, 2**63 - 1)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--dump-debug"]) == 0
    dump = (out / "dump_pap_seed1.jsonl").read_text()
    assert f'"id": {2**63 - 1}' in dump and '"id": 0' in dump
    assert main(["replay", str(out / "dump_pap_seed1.jsonl"), "--out", str(out)]) == 0
    assert json.loads((out / "replayed_report.json").read_text()) == json.loads((out / "report_pap_seed1.json").read_text())
