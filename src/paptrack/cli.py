"""Command-line surface.

Subcommands: generate (scenario -> file), run (config -> reports),
compare (two report dirs -> summary), sweep (rho sweep), replay (debug
dump -> report).  Exit codes: 0 success, 2 config error, 3 I/O error;
any other exception is a program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from paptrack import harness
from paptrack.harness import ExperimentConfig, load_config
from paptrack.metrics import report_to_json
from paptrack.world import ConfigError, generate_scenario, save_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override: run only this seed")
    p.add_argument("--out", type=Path, default=None, help="output directory (default: .)")
    p.add_argument("--dump-debug", action="store_true", help="write per-frame JSONL traces")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across seeds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paptrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a scenario file")
    _add_common(p)

    p = sub.add_parser("run", help="run the configured experiment")
    _add_common(p)

    p = sub.add_parser("compare", help="compare baseline and pap report directories")
    p.add_argument("baseline_dir", type=Path)
    p.add_argument("pap_dir", type=Path)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("sweep", help="rho sweep over the configured seeds")
    _add_common(p)

    p = sub.add_parser("replay", help="rebuild a report from a debug dump")
    p.add_argument("dump", type=Path)
    p.add_argument("--out", type=Path, default=None)

    return parser


def _load_cfg(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config is required")
    try:
        cfg = load_config(args.config)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config} is not valid JSON: {exc}") from exc
    if args.seed is not None:
        cfg.seeds = [args.seed]
    return cfg


def _load_reports(directory: Path) -> list[dict]:
    reports = []
    for path in sorted(directory.glob("report_*_seed*.json")):
        reports.append(json.loads(path.read_text(encoding="utf-8")))
    if not reports:
        raise OSError(f"no report_*_seed*.json files in {directory}")
    return reports


def _cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        scenario = generate_scenario(cfg.scenario, seed)
        save_scenario(scenario, out / f"scenario_seed{seed}.json")
        print(f"wrote {out / f'scenario_seed{seed}.json'}")
    return EXIT_OK


def _cmd_run(args, mode: str | None = None) -> int:
    cfg = _load_cfg(args)
    if mode is not None:
        cfg.mode = mode
    out = args.out or Path(".")
    harness.run_experiment(cfg, out, args.jobs, args.dump_debug)
    print(f"ran mode={cfg.mode} seeds={cfg.seeds} into {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    summary = harness.compare(_load_reports(args.baseline_dir), _load_reports(args.pap_dir))
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "comparison.json").write_text(text, encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    return _cmd_run(args, mode="rho_sweep")


def _cmd_replay(args) -> int:
    report = harness.replay_dump(args.dump)
    text = report_to_json(report)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "replayed_report.json").write_text(text, encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "replay": _cmd_replay,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
